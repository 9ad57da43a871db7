"""The message model.

Every inter-component interaction — execute requests, peer notifications,
service invocations, results — is a :class:`Message` addressed to an
``(node, endpoint)`` pair.  The body is a plain mapping; the transport
measures its size by serialising it to XML, the same representation the
original platform put on the wire (sizes feed the traffic statistics).

Hot-path notes (``repro.perf``): the class is a hand-rolled
``__slots__`` type rather than a dataclass — messages are minted on
every send and the generated dataclass machinery showed up in kernel
profiles.  The body may be carried *lazily*: the kernel's zero-copy
path attaches the typed envelope instead of an encoded dict, and
``message.body`` materialises the dict on first touch (so observers,
durability logging and tests still see the exact wire encoding).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Mapping, Optional

_message_ids = itertools.count(1)


def _estimate_size_slow(value: Any) -> int:
    """Generic path for subclasses / exotic types (original semantics)."""
    if value is None:
        return 8
    if isinstance(value, bool):
        return 13  # <v>false</v>
    if isinstance(value, (int, float)):
        return 7 + len(str(value))
    if isinstance(value, str):
        return 7 + len(value)
    if isinstance(value, Mapping):
        return 7 + sum(
            len(str(k)) + _estimate_size(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set)):
        return 7 + sum(_estimate_size(v) for v in value)
    return 7 + len(repr(value))


def _estimate_size(value: Any) -> int:
    """Rough XML-encoded size in bytes of a message body value.

    Exact-type dispatch first: ``isinstance`` against the ``Mapping``
    ABC walks the registry and dominated the per-send cost.  Subclasses
    and ABC-registered types fall through to the generic path, so the
    returned sizes are byte-identical to the original implementation.
    """
    t = value.__class__
    if t is str:
        return 7 + len(value)
    if t is dict:
        return 7 + sum(
            len(k) + _estimate_size(v) if k.__class__ is str
            else len(str(k)) + _estimate_size(v)
            for k, v in value.items()
        )
    if t is int or t is float:
        return 7 + len(str(value))
    if t is bool:
        return 13
    if t is list or t is tuple:
        return 7 + sum(_estimate_size(v) for v in value)
    return _estimate_size_slow(value)


class Message:
    """One message in flight.

    * ``kind`` — protocol verb (``execute``, ``notify``, ``invoke``, …),
    * ``source``/``target`` — node ids,
    * ``source_endpoint``/``target_endpoint`` — endpoint names,
    * ``body`` — payload mapping (already-validated protocol fields),
    * ``message_id`` — unique id, assigned at construction,
    * ``envelope`` — optional typed envelope riding along on the
      kernel's zero-copy in-proc path; when set and ``body`` was not
      given, the body dict is derived from it on first access.
    """

    __slots__ = (
        "kind",
        "source",
        "source_endpoint",
        "target",
        "target_endpoint",
        "message_id",
        "envelope",
        "_body",
    )

    def __init__(
        self,
        kind: str,
        source: str,
        source_endpoint: str,
        target: str,
        target_endpoint: str,
        body: Optional[Dict[str, Any]] = None,
        message_id: Optional[int] = None,
        envelope: Any = None,
    ) -> None:
        self.kind = kind
        self.source = source
        self.source_endpoint = source_endpoint
        self.target = target
        self.target_endpoint = target_endpoint
        self._body = body
        self.envelope = envelope
        self.message_id = (
            next(_message_ids) if message_id is None else message_id
        )

    @property
    def body(self) -> Dict[str, Any]:
        """The payload mapping; materialised from ``envelope`` if lazy."""
        body = self._body
        if body is None:
            envelope = self.envelope
            body = {} if envelope is None else envelope.to_body()
            self._body = body
        return body

    @body.setter
    def body(self, value: Dict[str, Any]) -> None:
        self._body = value

    @property
    def is_local(self) -> bool:
        """True when source and target live on the same node.

        Local messages model in-host calls (e.g. a coordinator invoking
        the wrapper installed next to it); benchmarks report them apart
        from remote traffic because they never cross the network.
        """
        return self.source == self.target

    def size_bytes(self) -> int:
        """Estimated on-the-wire size (XML encoding).

        A lazy envelope answers without encoding: the generated
        ``_wire_size`` computes the same number ``_estimate_size`` would
        produce for the encoded dict.
        """
        envelope = 96  # headers: kind, addressing, id
        if self._body is None and self.envelope is not None:
            return envelope + self.envelope._wire_size()
        return envelope + _estimate_size(self.body)

    def reply_address(self) -> "tuple[str, str]":
        """The ``(node, endpoint)`` to answer to."""
        return self.source, self.source_endpoint

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.kind!r}, {self.source}:{self.source_endpoint} -> "
            f"{self.target}:{self.target_endpoint}, id={self.message_id})"
        )
