"""Typed message envelopes: one frozen dataclass per protocol verb.

The seed runtime passed raw dict bodies around, so a misspelled field
(``"execution_id "`` with a stray space, ``"reqest_key"``) travelled the
wire silently and surfaced — if ever — as a default value deep inside a
handler.  Envelopes close that hole: every verb of
:class:`~repro.runtime.protocol.MessageKinds` has exactly one dataclass
here, and the ``to_body()``/``from_body()`` codecs are the *only* places
a protocol body is built or taken apart.  ``from_body`` rejects unknown
fields and wrongly typed values with :class:`~repro.exceptions.EnvelopeError`
— malformed traffic fails loudly at the boundary, not in a handler.

Hot-path machinery (``repro.perf``): :func:`_register` finalises each
class at import time —

* the class is rebuilt with ``__slots__`` (python 3.9 has no
  ``dataclass(slots=True)``, so this mirrors what CPython ≥3.10 does
  internally: copy the class dict, drop the field defaults that would
  shadow the slot descriptors, recreate the type);
* ``to_body``/``from_body``/``_wire_size`` are **generated and
  compiled once per verb** — straight-line code with the field names
  inlined, replacing the generic reflective loop that ran on every
  message.  The generated decoder handles only the well-formed common
  case; *any* anomaly (non-dict body, unknown key, wrong type, missing
  required field) falls back to the generic validator on the base
  class, so error messages, sparse-body defaults and copy semantics
  are bit-identical to the reflective implementation.

The catalogue (mirror of the ``MessageKinds`` table):

======================  ===================================================
envelope                carried by
======================  ===================================================
:class:`Execute`        client -> composite wrapper: start an execution
:class:`ExecuteAck`     composite wrapper -> client: execution id
:class:`ExecuteResult`  composite wrapper -> client: outcome
:class:`Notify`         coordinator -> coordinator: control-flow token
:class:`Invoke`         coordinator/orchestrator -> wrapper: call operation
:class:`InvokeResult`   wrapper -> caller: operation outcome
:class:`Complete`       final coordinator -> composite wrapper
:class:`ExecutionFault` any coordinator -> composite wrapper: abort
:class:`Signal`         client/coordinator -> wrapper -> coordinators: event
======================  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro.exceptions import EnvelopeError, UnknownVerbError
from repro.net.message import _estimate_size
from repro.runtime.protocol import MessageKinds

#: Envelope fields carrying open mappings (variable environments,
#: operation arguments/outputs, event payloads).  Codecs copy them on
#: both encode and decode, so neither side can mutate the other's state
#: through a shared dict.
_MAPPING_FIELDS = frozenset({"env", "arguments", "outputs", "payload"})

#: Envelope fields carrying optional numbers; ``None`` values are
#: omitted from the wire body (the seed protocol never sent them).
_NUMERIC_FIELDS = frozenset({"timeout_ms"})

#: kind -> envelope type; populated by :func:`_register`.
ENVELOPE_TYPES: "Dict[str, Type[Envelope]]" = {}

#: Sentinel distinguishing "key absent" from any real body value.
_MISS = object()


def _add_slots(cls: type) -> type:
    """Rebuild a decorated dataclass with ``__slots__``.

    ``dataclass(slots=True)`` needs python ≥3.10 and the CI matrix
    includes 3.9, so this replicates the stdlib's approach: the field
    defaults stored as class attributes must be removed from the class
    dict (they would shadow the slot descriptors), then the type is
    recreated with ``__slots__`` naming every field.
    """
    field_names = tuple(f.name for f in fields(cls))
    cls_dict = dict(cls.__dict__)
    cls_dict["__slots__"] = field_names
    for name in field_names:
        cls_dict.pop(name, None)
    cls_dict.pop("__dict__", None)
    cls_dict.pop("__weakref__", None)
    qualname = getattr(cls, "__qualname__", None)
    new_cls = type(cls)(cls.__name__, cls.__bases__, cls_dict)
    if qualname is not None:
        new_cls.__qualname__ = qualname
    return new_cls


def _compile_codecs(cls: "Type[Envelope]") -> None:
    """Generate and attach the straight-line codec trio for ``cls``.

    Exactly the technique the stdlib uses for dataclass ``__init__``:
    build source text with the field names inlined, ``exec`` it once,
    and bind the resulting functions on the class.  Per-field dispatch
    then costs an attribute load and a type check instead of a loop
    over reflection metadata.
    """
    spec = []  # (name, category, default expression)
    for f in fields(cls):
        if f.name in _MAPPING_FIELDS:
            spec.append((f.name, "mapping", "{}"))
        elif f.name in _NUMERIC_FIELDS:
            spec.append((f.name, "numeric", "None"))
        else:
            spec.append((f.name, "scalar", repr(f.default)))
    required = set(cls.REQUIRED)

    enc = ["def to_body(self):", "    body = {}"]
    size = ["def _wire_size(self):", "    n = 7"]
    dec = [
        "def from_body(body):",
        "    if body.__class__ is not dict:",
        "        return _generic(cls, body)",
        "    found = 0",
    ]
    for name, category, default in spec:
        if category == "mapping":
            enc.append(f"    body[{name!r}] = dict(self.{name})")
            size.append(f"    n += {len(name)} + _estimate_size(self.{name})")
        elif category == "numeric":
            enc.append(f"    v = self.{name}")
            enc.append("    if v is not None:")
            enc.append(f"        body[{name!r}] = v")
            size.append(f"    v = self.{name}")
            size.append("    if v is not None:")
            size.append(f"        n += {len(name)} + _estimate_size(v)")
        else:
            enc.append(f"    body[{name!r}] = self.{name}")
            size.append(f"    v = self.{name}")
            size.append(
                f"    n += {len(name)} + "
                "(7 + len(v) if v.__class__ is str else _estimate_size(v))"
            )
        dec.append(f"    v = body.get({name!r}, _MISS)")
        dec.append("    if v is _MISS:")
        if name in required:
            # Generic path raises the exact "requires field" error.
            dec.append("        return _generic(cls, body)")
        else:
            dec.append(f"        f_{name} = {default}")
        if category == "scalar":
            dec.append("    elif v.__class__ is str:")
            dec.append(f"        f_{name} = v; found += 1")
        elif category == "mapping":
            dec.append("    elif v.__class__ is dict:")
            dec.append(f"        f_{name} = dict(v); found += 1")
        else:  # numeric: int/float but never bool, or None
            dec.append(
                "    elif v is None or v.__class__ is float "
                "or v.__class__ is int:"
            )
            dec.append(f"        f_{name} = v; found += 1")
        # Wrong type, str/Mapping subclass, or anything exotic: the
        # generic validator either raises the canonical error or
        # accepts the unusual-but-legal value.
        dec.append("    else:")
        dec.append("        return _generic(cls, body)")
    enc.append("    return body")
    size.append("    return n")
    # found < len(body) means an unknown key is present (every known
    # key was matched at most once); let the generic path name it.
    dec.append("    if found != len(body):")
    dec.append("        return _generic(cls, body)")
    dec.append("    self = _new(cls)")
    for name, _category, _default in spec:
        dec.append(f"    _set(self, {name!r}, f_{name})")
    dec.append("    return self")

    namespace = {
        "cls": cls,
        "_MISS": _MISS,
        "_new": object.__new__,
        "_set": object.__setattr__,
        "_generic": _generic_from_body,
        "_estimate_size": _estimate_size,
    }
    exec(  # noqa: S102 - compile-once codegen, same idiom as dataclasses
        "\n".join(enc) + "\n\n" + "\n".join(size) + "\n\n" + "\n".join(dec),
        namespace,
    )
    cls.to_body = namespace["to_body"]
    cls._wire_size = namespace["_wire_size"]
    cls.from_body = staticmethod(namespace["from_body"])


def _register(cls: "Type[Envelope]") -> "Type[Envelope]":
    """Finalise an envelope class: slots, codecs, field metadata, index.

    The per-category field sets let :func:`_generic_from_body` classify
    each body key with one membership test; the generated fast decoder
    (see :func:`_compile_codecs`) handles the well-formed common case
    without touching them.
    """
    cls = _add_slots(cls)
    names = tuple(f.name for f in fields(cls))
    cls._FIELD_NAMES = names
    cls._FIELD_SET = frozenset(names)
    cls._MAPPING_SET = frozenset(n for n in names if n in _MAPPING_FIELDS)
    cls._NUMERIC_SET = frozenset(n for n in names if n in _NUMERIC_FIELDS)
    cls._SCALAR_SET = (
        cls._FIELD_SET - cls._MAPPING_SET - cls._NUMERIC_SET
    )
    _compile_codecs(cls)
    ENVELOPE_TYPES[cls.KIND] = cls
    return cls


def _generic_from_body(
    cls: "Type[Envelope]", body: "Mapping[str, Any]"
) -> "Envelope":
    """Decode a wire body; raises :class:`EnvelopeError` when malformed.

    Unknown fields are rejected outright (the silent-typo failure
    mode of dict bodies); absent fields fall back to the envelope's
    declared defaults, preserving the seed protocol's tolerance of
    sparse bodies from older peers.  This is the reference semantics;
    the generated fast decoders defer here for every anomaly.
    """
    if not isinstance(body, Mapping):
        raise EnvelopeError(
            f"{cls.KIND} body must be a mapping, got "
            f"{type(body).__name__}"
        )
    kwargs: Dict[str, Any] = {}
    scalar = cls._SCALAR_SET
    for key, value in body.items():
        if key in scalar:
            if not isinstance(value, str):
                raise EnvelopeError(
                    f"{cls.KIND}.{key} must be a string, got "
                    f"{type(value).__name__}"
                )
        elif key in cls._MAPPING_SET:
            if not isinstance(value, Mapping):
                raise EnvelopeError(
                    f"{cls.KIND}.{key} must be a mapping, got "
                    f"{type(value).__name__}"
                )
            value = dict(value)
        elif key in cls._NUMERIC_SET:
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
            ):
                raise EnvelopeError(
                    f"{cls.KIND}.{key} must be a number or None, got "
                    f"{type(value).__name__}"
                )
        else:
            raise EnvelopeError(
                f"{cls.KIND} envelope does not accept field {key!r} "
                f"(accepted: {sorted(cls._FIELD_SET)})"
            )
        kwargs[key] = value
    for name in cls.REQUIRED:
        if name not in kwargs:
            raise EnvelopeError(
                f"{cls.KIND} envelope requires field {name!r}"
            )
    return cls(**kwargs)


@dataclass(frozen=True)
class Envelope:
    """Base of all protocol envelopes: the shared codec machinery.

    Subclasses only declare their fields and ``KIND``; encoding and
    decoding are attached by :func:`_register` as compiled per-verb
    functions.  All scalar fields are strings, mapping fields are
    listed in ``_MAPPING_FIELDS`` and numeric fields in
    ``_NUMERIC_FIELDS`` — the protocol vocabulary is deliberately that
    small (see ``repro.runtime.protocol``).
    """

    __slots__ = ()

    KIND: ClassVar[str] = ""
    #: Identity fields a wire body must carry: decoding without them is
    #: an :class:`EnvelopeError`, not a silent default.  (Other fields
    #: stay optional — the seed protocol tolerated sparse bodies and
    #: handled them gracefully; only identities were ever strict.)
    REQUIRED: ClassVar["Tuple[str, ...]"] = ()
    _FIELD_NAMES: ClassVar["Tuple[str, ...]"] = ()
    _FIELD_SET: ClassVar["frozenset"] = frozenset()
    _MAPPING_SET: ClassVar["frozenset"] = frozenset()
    _NUMERIC_SET: ClassVar["frozenset"] = frozenset()
    _SCALAR_SET: ClassVar["frozenset"] = frozenset()

    def to_body(self) -> "Dict[str, Any]":
        """Encode into the wire body (mappings copied, ``None`` omitted).

        Registered envelopes get a compiled override; this generic
        loop serves ad-hoc subclasses (e.g. in tests).
        """
        body: Dict[str, Any] = {}
        for name in self._FIELD_NAMES:
            value = getattr(self, name)
            if name in _MAPPING_FIELDS:
                value = dict(value)
            elif value is None and name in _NUMERIC_FIELDS:
                continue
            body[name] = value
        return body

    def _wire_size(self) -> int:
        """Estimated XML size of the encoded body (see Message.size_bytes).

        Registered envelopes get a compiled override that answers
        without building the dict.
        """
        return _estimate_size(self.to_body())

    @classmethod
    def from_body(cls, body: "Mapping[str, Any]") -> "Envelope":
        """Decode a wire body; raises :class:`EnvelopeError` when malformed."""
        return _generic_from_body(cls, body)


@_register
@dataclass(frozen=True)
class Execute(Envelope):
    """Start one composite (or any wrapped) execution."""

    KIND: ClassVar[str] = MessageKinds.EXECUTE

    operation: str = ""
    arguments: "Mapping[str, Any]" = field(default_factory=dict)
    request_key: str = ""
    #: Execution deadline enforced by the composite wrapper; ``None``
    #: (omitted on the wire) means the deployment default applies.
    timeout_ms: Optional[float] = None


@_register
@dataclass(frozen=True)
class ExecuteAck(Envelope):
    """The wrapper's immediate acknowledgement carrying the execution id."""

    KIND: ClassVar[str] = MessageKinds.EXECUTE_ACK

    execution_id: str = ""
    request_key: str = ""


@_register
@dataclass(frozen=True)
class ExecuteResult(Envelope):
    """Final outcome of one execution, addressed back to the client."""

    KIND: ClassVar[str] = MessageKinds.EXECUTE_RESULT

    execution_id: str = ""
    status: str = "fault"  # "success" | "fault" | "timeout"
    outputs: "Mapping[str, Any]" = field(default_factory=dict)
    fault: str = ""
    request_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "success"


@_register
@dataclass(frozen=True)
class Notify(Envelope):
    """A peer-to-peer control-flow token along one routing-table edge.

    The two identity fields are required on the wire: a notify without
    them would create phantom execution state at the receiving
    coordinator (and the seed runtime treated them as strict too).
    """

    KIND: ClassVar[str] = MessageKinds.NOTIFY
    REQUIRED: ClassVar["Tuple[str, ...]"] = ("execution_id", "edge_id")

    execution_id: str = ""
    edge_id: str = ""
    from_node: str = ""
    env: "Mapping[str, Any]" = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class Invoke(Envelope):
    """Call one operation on a service through its wrapper."""

    KIND: ClassVar[str] = MessageKinds.INVOKE

    invocation_id: str = ""
    execution_id: str = ""
    operation: str = ""
    arguments: "Mapping[str, Any]" = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class InvokeResult(Envelope):
    """Outcome of one service invocation, addressed back to the caller."""

    KIND: ClassVar[str] = MessageKinds.INVOKE_RESULT

    invocation_id: str = ""
    execution_id: str = ""
    status: str = "fault"  # "success" | "fault"
    outputs: "Mapping[str, Any]" = field(default_factory=dict)
    fault: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "success"

    @classmethod
    def outcome(
        cls,
        invocation_id: str,
        execution_id: str,
        ok: bool,
        outputs: "Optional[Mapping[str, Any]]" = None,
        fault: str = "",
    ) -> "InvokeResult":
        """The reply every wrapper builds: status derived from ``ok``."""
        return cls(
            invocation_id=invocation_id,
            execution_id=execution_id,
            status="success" if ok else "fault",
            outputs=dict(outputs or {}),
            fault=fault,
        )


@_register
@dataclass(frozen=True)
class Complete(Envelope):
    """A FINAL coordinator's termination report to the composite wrapper."""

    KIND: ClassVar[str] = MessageKinds.COMPLETE

    execution_id: str = ""
    final_node: str = ""
    env: "Mapping[str, Any]" = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class ExecutionFault(Envelope):
    """Any coordinator's abort report to the composite wrapper."""

    KIND: ClassVar[str] = MessageKinds.EXECUTION_FAULT

    execution_id: str = ""
    node: str = ""
    reason: str = ""


@_register
@dataclass(frozen=True)
class Signal(Envelope):
    """An ECA event aimed at a running execution."""

    KIND: ClassVar[str] = MessageKinds.SIGNAL

    execution_id: str = ""
    event: str = ""
    payload: "Mapping[str, Any]" = field(default_factory=dict)


def envelope_type(kind: str) -> "Type[Envelope]":
    """The envelope class of ``kind``; raises :class:`UnknownVerbError`."""
    cls = ENVELOPE_TYPES.get(kind)
    if cls is None:
        raise UnknownVerbError(kind)
    return cls


def decode(kind: str, body: "Mapping[str, Any]") -> Envelope:
    """Decode one wire body into its typed envelope."""
    return envelope_type(kind).from_body(body)


def decode_message(message: Any) -> Envelope:
    """Decode a :class:`~repro.net.message.Message` into its envelope."""
    return decode(message.kind, message.body)
