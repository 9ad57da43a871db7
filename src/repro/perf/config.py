"""Declarative performance knobs of the platform fast path.

A :class:`PerfConfig` travels on :class:`~repro.api.PlatformConfig` and
controls the tunable fast-path layers of ``repro.perf``:

* **indexed discovery** — the TTL+generation-invalidated ``locate()``
  cache in front of the UDDI registry's inverted indexes,
* **transport batching** — coalesced delivery windows on the simulated
  transport and queue-drain batching on the threaded one,
* **zero-copy local dispatch** — same-kernel sends carry the envelope.

Compiled routing plans are not a knob: the deployer always compiles
them.  Every knob has an "off" position, which is what the
CLAIM-FASTPATH benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfConfig:
    """Tuning knobs of the ``repro.perf`` fast path.

    The defaults enable the always-safe optimisation (the
    generation-checked locate cache) and leave delivery batching off,
    because a coalescing window trades a bounded amount of latency for
    fewer delivery events and should be an explicit choice.
    """

    #: Maximum entries of the ``locate()`` cache (LRU).  ``0`` disables
    #: the cache entirely — every locate round-trips through SOAP/UDDI.
    locate_cache_size: int = 256
    #: Time-to-live of a cache entry in transport-clock milliseconds.
    #: ``0`` (or negative) means entries never expire by age and are
    #: invalidated only by registry/directory generation bumps and
    #: membership-change notifications.
    locate_cache_ttl_ms: float = 60_000.0
    #: Coalescing window of the simulated transport, in virtual
    #: milliseconds: messages arriving at the same host within the
    #: window are delivered in one flush event.  ``0`` disables
    #: batching (one delivery event per message, the seed behaviour).
    batch_window_ms: float = 0.0
    #: Maximum messages carried by one flush (both transports).  On the
    #: wire transport this caps one delivery chunk of the event loop's
    #: window: the messages one loop turn already holds.
    batch_max_messages: int = 64
    #: Zero-copy in-proc dispatch: a send whose target actor is started
    #: on the same :class:`~repro.kernel.ActorKernel` carries its typed
    #: envelope instead of an encoded body, skipping the codec round
    #: trip; the body stays available lazily (stats/WAL/observers see
    #: the identical encoding).  Off by default so the wire format is
    #: exercised everywhere unless explicitly opted in; fleet shards
    #: each have their own kernel, so cross-shard traffic always
    #: encodes regardless.
    zero_copy_local: bool = False

    def __post_init__(self) -> None:
        if self.locate_cache_size < 0:
            raise ValueError("locate_cache_size must be >= 0")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.batch_max_messages < 1:
            raise ValueError("batch_max_messages must be >= 1")

    @classmethod
    def disabled(cls) -> "PerfConfig":
        """Every knob off: no locate cache, no batching, no zero-copy."""
        return cls(
            locate_cache_size=0,
            locate_cache_ttl_ms=0.0,
            batch_window_ms=0.0,
            batch_max_messages=1,
            zero_copy_local=False,
        )
