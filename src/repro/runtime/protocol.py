"""Wire protocol: message kinds, endpoint naming, result types.

All runtime components speak this small vocabulary.  Keeping it in one
module makes the protocol auditable: every message kind and every
endpoint naming rule is defined here and nowhere else; the body *shape*
of each kind is its typed envelope in :mod:`repro.kernel.envelopes`
(one frozen dataclass per verb, with the only codecs that build or
parse wire bodies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


class MessageKinds:
    """Protocol verbs.

    ======================  ====================================================
    kind                    meaning
    ======================  ====================================================
    ``execute``             client -> composite wrapper: start an execution
    ``execute_result``      composite wrapper -> client: outcome
    ``notify``              coordinator -> coordinator: control-flow token
    ``invoke``              coordinator/orchestrator -> wrapper: call operation
    ``invoke_result``       wrapper -> caller: operation outcome
    ``complete``            final coordinator -> composite wrapper
    ``execution_fault``     any coordinator -> composite wrapper: abort
    ``execute_ack``         composite wrapper -> client: execution id
    ``signal``              client -> wrapper -> coordinators: an ECA event
    ======================  ====================================================
    """

    EXECUTE = "execute"
    EXECUTE_RESULT = "execute_result"
    NOTIFY = "notify"
    INVOKE = "invoke"
    INVOKE_RESULT = "invoke_result"
    COMPLETE = "complete"
    EXECUTION_FAULT = "execution_fault"
    EXECUTE_ACK = "execute_ack"
    SIGNAL = "signal"


#: Synthetic edge id used by the composite wrapper to seed the entry
#: coordinator; never appears in routing tables.
START_EDGE = "__start__"

#: Synthetic source-node id for the seed notification.
WRAPPER_NODE = "__wrapper__"


def coordinator_endpoint(composite: str, operation: str, node_id: str) -> str:
    """Endpoint name of the coordinator for one flat-graph node."""
    return f"coord:{composite}:{operation}:{node_id}"


def wrapper_endpoint(service: str) -> str:
    """Endpoint name of a service's wrapper (elementary, community or
    composite — one wrapper per service name, as in the original)."""
    return f"wrapper:{service}"


def client_endpoint(client_name: str) -> str:
    """Endpoint name of an end-user client."""
    return f"client:{client_name}"


def central_endpoint(composite: str) -> str:
    """Endpoint name of the centralised orchestrator (baseline)."""
    return f"central:{composite}"


@dataclass
class ExecutionResult:
    """Outcome of one composite-service execution, as seen by a client."""

    execution_id: str
    status: str  # "success" | "fault" | "timeout"
    outputs: Dict[str, Any] = field(default_factory=dict)
    fault: str = ""
    started_ms: float = 0.0
    finished_ms: float = 0.0
    #: Client-side correlation key of the originating ``execute`` request.
    #: Echoed by the wrapper so results can be matched to submissions
    #: without waiting for the ``execute_ack`` (acks and results may
    #: reorder under random latency).
    request_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "success"

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms


@dataclass(frozen=True)
class ResolvedBinding:
    """A located service: the typed address ``submit``/``execute`` accept.

    Produced by :meth:`~repro.discovery.engine.ServiceDiscoveryEngine.locate`
    from the service's UDDI binding, so holding one proves the service was
    published.  ``operations`` (when known from the WSDL) lets the client
    reject a bad operation name before any message is sent.
    """

    service: str
    node: str
    endpoint: str
    operations: "Tuple[str, ...]" = ()
    access_point: str = ""
    wsdl_url: str = ""

    @property
    def address(self) -> "Tuple[str, str]":
        """The ``(node, endpoint)`` pair the runtime sends to."""
        return self.node, self.endpoint

    def supports(self, operation: str) -> bool:
        """Whether ``operation`` is advertised (vacuously true if unknown)."""
        return not self.operations or operation in self.operations

