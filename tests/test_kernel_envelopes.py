"""Kernel envelope codecs: catalogue completeness and boundary rigour."""

import pytest

from repro.exceptions import EnvelopeError, ProtocolError, UnknownVerbError
from repro.kernel import (
    ENVELOPE_TYPES,
    Complete,
    Execute,
    ExecuteResult,
    Invoke,
    InvokeResult,
    Notify,
    Signal,
    decode,
    decode_message,
    envelope_type,
)
from repro.net.message import Message
from repro.runtime.protocol import MessageKinds


def protocol_verbs():
    """Every verb the protocol vocabulary declares."""
    return [
        value for name, value in vars(MessageKinds).items()
        if name.isupper() and isinstance(value, str)
    ]


class TestCatalogueCompleteness:
    def test_every_verb_has_an_envelope(self):
        for verb in protocol_verbs():
            assert verb in ENVELOPE_TYPES, f"no envelope for verb {verb!r}"

    def test_no_envelope_without_a_verb(self):
        verbs = set(protocol_verbs())
        for kind in ENVELOPE_TYPES:
            assert kind in verbs, f"envelope for unknown verb {kind!r}"

    def test_every_envelope_round_trips(self):
        """Default-constructed envelopes survive encode -> decode."""
        for kind, cls in ENVELOPE_TYPES.items():
            envelope = cls()
            assert cls.from_body(envelope.to_body()) == envelope

    def test_populated_round_trip(self):
        cases = [
            Execute(operation="op", arguments={"a": 1},
                    request_key="k", timeout_ms=50.0),
            Notify(execution_id="e", edge_id="x", from_node="n",
                   env={"v": [1, 2]}),
            Invoke(invocation_id="i", execution_id="e",
                   operation="op", arguments={"a": "b"}),
            InvokeResult(invocation_id="i", execution_id="e",
                         status="success", outputs={"r": 2}),
            Complete(execution_id="e", final_node="f", env={"ok": True}),
            ExecuteResult(execution_id="e", status="success",
                          outputs={"r": 1}, request_key="k"),
            Signal(execution_id="e", event="ev", payload={"p": 0}),
        ]
        for envelope in cases:
            body = envelope.to_body()
            assert type(envelope).from_body(body) == envelope
            assert decode(envelope.KIND, body) == envelope


class TestBoundaryRigour:
    def test_unknown_field_rejected(self):
        with pytest.raises(EnvelopeError, match="does not accept"):
            Notify.from_body({"execution_id": "e", "reqest_key": "typo"})

    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(EnvelopeError, match="must be a string"):
            Notify.from_body({"execution_id": 42})

    def test_wrong_mapping_type_rejected(self):
        with pytest.raises(EnvelopeError, match="must be a mapping"):
            Invoke.from_body({"arguments": ["not", "a", "mapping"]})

    def test_wrong_numeric_type_rejected(self):
        with pytest.raises(EnvelopeError, match="must be a number"):
            Execute.from_body({"timeout_ms": "soon"})
        with pytest.raises(EnvelopeError, match="must be a number"):
            Execute.from_body({"timeout_ms": True})

    def test_non_mapping_body_rejected(self):
        with pytest.raises(EnvelopeError, match="body must be a mapping"):
            Notify.from_body("execution_id=e")

    def test_missing_optional_fields_fall_back_to_defaults(self):
        # Sparse bodies stay legal for non-identity fields (older peers
        # may omit them); unknown fields are the typo failure mode.
        envelope = Notify.from_body({"execution_id": "e", "edge_id": "x"})
        assert envelope.from_node == "" and envelope.env == {}

    def test_missing_required_identity_field_rejected(self):
        # A notify without its identities would create phantom execution
        # state at the receiving coordinator — rejected at the boundary.
        with pytest.raises(EnvelopeError, match="requires field"):
            Notify.from_body({"edge_id": "x"})
        with pytest.raises(EnvelopeError, match="requires field"):
            Notify.from_body({"execution_id": "e"})

    def test_unknown_verb_raises(self):
        with pytest.raises(UnknownVerbError, match="mystery"):
            envelope_type("mystery")
        with pytest.raises(ProtocolError):
            decode("mystery", {})

    def test_decode_message(self):
        message = Message(
            kind=MessageKinds.SIGNAL, source="a", source_endpoint="x",
            target="b", target_endpoint="y",
            body={"execution_id": "e", "event": "ev", "payload": {}},
        )
        envelope = decode_message(message)
        assert isinstance(envelope, Signal) and envelope.event == "ev"


class TestCopySemantics:
    def test_to_body_copies_mappings(self):
        env = {"x": 1}
        envelope = Notify(execution_id="e", env=env)
        body = envelope.to_body()
        env["x"] = 2
        assert body["env"]["x"] == 1

    def test_from_body_copies_mappings(self):
        body = {"execution_id": "e", "edge_id": "in", "env": {"x": 1}}
        envelope = Notify.from_body(body)
        body["env"]["x"] = 2
        assert envelope.env["x"] == 1

    def test_none_timeout_omitted_from_wire(self):
        assert "timeout_ms" not in Execute(operation="op").to_body()
        assert "timeout_ms" in Execute(timeout_ms=5.0).to_body()
