"""Exception hierarchy for the SELF-SERV reproduction.

Every package raises subclasses of :class:`SelfServError` so that callers
can catch platform errors with a single ``except`` clause while still being
able to discriminate the failing subsystem.
"""

from __future__ import annotations


class SelfServError(Exception):
    """Base class of all errors raised by this library."""


class ExpressionError(SelfServError):
    """Base class for guard/ECA expression language errors."""


class TokenizeError(ExpressionError):
    """Raised when the expression tokenizer meets an unexpected character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(ExpressionError):
    """Raised when the expression parser meets an unexpected token."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            super().__init__(f"{message} (at position {position})")
        else:
            super().__init__(message)
        self.position = position


class EvaluationError(ExpressionError):
    """Raised when evaluating a syntactically valid expression fails."""


class UnknownFunctionError(EvaluationError):
    """Raised when an expression calls a function absent from the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown function {name!r}")
        self.name = name


class UnboundVariableError(EvaluationError):
    """Raised when an expression references a variable with no binding."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class XmlError(SelfServError):
    """Raised when an XML artefact cannot be read or is malformed."""


class StatechartError(SelfServError):
    """Base class for statechart model errors."""


class ValidationError(StatechartError):
    """Raised when a statechart fails structural validation.

    Carries the full list of problems so tools can report them all at once.
    """

    def __init__(self, problems: list) -> None:
        self.problems = list(problems)
        summary = "; ".join(str(p) for p in self.problems)
        super().__init__(f"invalid statechart: {summary}")


class ServiceError(SelfServError):
    """Base class for service-model errors."""


class OperationNotFoundError(ServiceError):
    """Raised when a service does not expose the requested operation."""

    def __init__(self, service: str, operation: str) -> None:
        super().__init__(f"service {service!r} has no operation {operation!r}")
        self.service = service
        self.operation = operation


class ParameterError(ServiceError):
    """Raised when operation arguments do not match the declared signature."""


class InvocationError(ServiceError):
    """Raised when a service invocation fails at the provider side."""


class CommunityError(ServiceError):
    """Base class for service-community errors."""


class NoMemberAvailableError(CommunityError):
    """Raised when a community cannot delegate a request to any member."""

    def __init__(self, community: str, operation: str) -> None:
        super().__init__(
            f"community {community!r} has no member able to serve "
            f"operation {operation!r}"
        )
        self.community = community
        self.operation = operation


class DiscoveryError(SelfServError):
    """Base class for UDDI/WSDL/SOAP discovery errors."""


class NotRegisteredError(DiscoveryError):
    """Raised when looking up an entity absent from the UDDI registry."""


class DuplicateRegistrationError(DiscoveryError):
    """Raised when publishing an entity whose key is already taken."""


class SoapFault(DiscoveryError):
    """A SOAP-level fault returned by a remote endpoint.

    Mirrors the ``faultcode``/``faultstring`` pair of SOAP 1.1.
    """

    def __init__(self, faultcode: str, faultstring: str) -> None:
        super().__init__(f"{faultcode}: {faultstring}")
        self.faultcode = faultcode
        self.faultstring = faultstring


class ProtocolError(SelfServError):
    """Base class for wire-protocol (message envelope) errors."""


class EnvelopeError(ProtocolError):
    """Raised when a message body cannot be decoded into its envelope.

    Unknown body fields, missing structure and wrongly typed values all
    fail here — at the boundary — instead of surfacing as ``KeyError``
    or silent defaults deep inside a handler.
    """


class UnknownVerbError(ProtocolError):
    """Raised when no envelope type exists for a message kind."""

    def __init__(self, kind: str) -> None:
        super().__init__(f"no envelope registered for message kind {kind!r}")
        self.kind = kind


class TransportError(SelfServError):
    """Base class for messaging-substrate errors."""


class WireError(TransportError):
    """Base class for socket wire-transport errors (``repro.net.wire``)."""


class WireProtocolError(WireError):
    """A byte stream violated the wire framing (bad magic, CRC mismatch,
    oversized or torn frame).  The connection that produced it can no
    longer be trusted to be frame-aligned and must be dropped."""


class WireCodecError(WireError):
    """A framed payload could not be encoded/decoded as a message
    (invalid JSON, missing header fields, or an envelope body the
    verb's codec rejects)."""


class RoutingError(SelfServError):
    """Base class for routing-table generation/consistency errors."""


class DeploymentError(SelfServError):
    """Raised when a composite service cannot be deployed."""


class ExecutionError(SelfServError):
    """Raised when a composite-service execution cannot complete."""


class ExecutionTimeoutError(ExecutionError):
    """Raised when an execution does not finish within its deadline."""


class SimulationError(SelfServError):
    """Raised on misuse of the discrete-event simulation substrate."""


class DurabilityError(SelfServError):
    """Raised on WAL/snapshot/recovery failures (``repro.durability``)."""
