"""Real socket transport (``repro.net.wire``).

The deterministic simulator exchanges kernel envelopes inside one
process on a virtual clock.  This package is the real clock: the same
envelopes on real TCP sockets, delivered by one event-loop thread per
process:

* :mod:`~repro.net.wire.frames` — length-prefixed, CRC-checked frame
  boundary (the WAL segment format's idiom applied to a byte stream),
* :mod:`~repro.net.wire.codec` — :class:`~repro.net.message.Message`
  <-> frame payload, with every protocol verb validated through the
  compiled envelope codecs at the boundary,
* :mod:`~repro.net.wire.peers` — asyncio connection manager with
  reconnect/backoff riding the resilience retry schedule,
* :mod:`~repro.net.wire.transport` — :class:`WireTransport`, the
  :class:`~repro.net.transport.Transport` implementation
  (``PlatformConfig(transport="wire")``),
* :mod:`~repro.net.wire.node_runner` — the ``WireNode`` child-process
  entrypoint hosting one shard platform behind a socket ingress.

The process-fleet runtime built on these lives in
:mod:`repro.fleet.wire`.
"""

from repro.net.wire.codec import decode_message, encode_message
from repro.net.wire.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
)
from repro.net.wire.node_runner import (
    WireNodeHandle,
    WireNodeSpec,
    spawn_wire_node,
)
from repro.net.wire.transport import WireTransport

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecoder",
    "WireNodeHandle",
    "WireNodeSpec",
    "WireTransport",
    "decode_message",
    "encode_frame",
    "encode_message",
    "spawn_wire_node",
]
