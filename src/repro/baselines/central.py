"""Centralised orchestration baseline.

One orchestrator process, on one host, interprets the whole statechart:
it keeps all control state, evaluates all guards, and performs every
service invocation itself.  Component services (and communities) are the
same wrappers the P2P runtime uses — only the coordination layer differs,
which makes message-count and latency comparisons apples-to-apples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import DeploymentError
from repro.expr import CompiledExpression, FunctionRegistry
from repro.kernel.actor import Actor, ActorKernel, handles
from repro.kernel.envelopes import (
    Execute,
    ExecuteAck,
    ExecuteResult,
    Invoke,
    InvokeResult,
    Signal,
)
from repro.net.message import Message
from repro.net.transport import Transport
from repro.routing.tables import FiringMode
from repro.routing.generation import generate_routing_tables
from repro.routing.tables import RoutingTable
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import central_endpoint
from repro.services.composite import CompositeService
from repro.statecharts.flatten import FlatGraph, NodeKind, flatten
from repro.statecharts.validation import validate

_invocation_ids = itertools.count(1)


@dataclass
class _CentralExecution:
    """All control state of one execution, held centrally."""

    execution_id: str
    operation: str
    env: Dict[str, Any]
    client_node: str
    client_endpoint: str
    edge_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Tokens parked on ECA events: (node_id, env snapshot) pairs.
    waiting_tokens: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list
    )
    # Events that arrived before their consumer parked.
    buffered_signals: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list
    )
    status: str = "running"
    started_ms: float = 0.0
    finished_ms: float = 0.0
    cancel_deadline: Optional[Callable[[], None]] = None
    request_key: str = ""


class CentralOrchestrator(Actor):
    """A classic central workflow engine over the same service pool.

    It reuses the routing-table *data* (generated from the same flattened
    graph) purely as its internal representation — the difference from the
    P2P runtime is architectural: every decision and every message goes
    through this one host.  It runs on the same kernel actor substrate
    as the P2P participants, so message-count comparisons measure the
    coordination model, not the plumbing.
    """

    def __init__(
        self,
        composite: CompositeService,
        host: str,
        transport: Transport,
        directory: ServiceDirectory,
        registry: Optional[FunctionRegistry] = None,
        default_timeout_ms: Optional[float] = None,
        validate_charts: bool = True,
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        super().__init__(host, transport, kernel)
        self.composite = composite
        self.directory = directory
        self.default_timeout_ms = default_timeout_ms
        self._registry = registry
        self._graphs: Dict[str, FlatGraph] = {}
        self._tables: Dict[str, Dict[str, RoutingTable]] = {}
        self._guards: Dict[Tuple[str, str], Optional[CompiledExpression]] = {}
        self._actions: Dict[
            Tuple[str, str], Tuple[Tuple[str, CompiledExpression], ...]
        ] = {}
        self._inputs: Dict[
            Tuple[str, str], Dict[str, CompiledExpression]
        ] = {}
        self._executions: Dict[str, _CentralExecution] = {}
        self._pending: Dict[str, Tuple[str, str, str]] = {}
        self._pending_envs: Dict[str, Dict[str, Any]] = {}
        self._counter = itertools.count(1)

        for operation in composite.operations():
            chart = composite.chart_for(operation)
            if validate_charts:
                validate(chart)
            graph = flatten(chart)
            self._graphs[operation] = graph
            tables = generate_routing_tables(graph)
            self._tables[operation] = tables
            self._compile(operation, tables)

    def _compile(
        self, operation: str, tables: "Dict[str, RoutingTable]"
    ) -> None:
        for node_id, table in tables.items():
            for row in table.postprocessing.rows:
                key = (operation, row.edge_id)
                if row.fire_always or row.guard.strip() in ("", "true"):
                    self._guards[key] = None
                else:
                    self._guards[key] = CompiledExpression(
                        row.guard, self._registry
                    )
                self._actions[key] = tuple(
                    (a.target, CompiledExpression(a.expression, self._registry))
                    for a in row.actions
                )
            if table.binding is not None:
                self._inputs[(operation, node_id)] = {
                    parameter: CompiledExpression(expr, self._registry)
                    for parameter, expr in
                    table.binding.input_mapping.items()
                }

    # Wiring ------------------------------------------------------------------

    @property
    def endpoint_name(self) -> str:
        return central_endpoint(self.composite.name)

    @property
    def address(self) -> "Tuple[str, str]":
        return self.host, self.endpoint_name

    # Message handling -----------------------------------------------------------

    @handles(Execute)
    def _on_execute(self, execute: Execute, message: Message) -> None:
        operation = execute.operation
        client_node, client_endpoint = message.reply_address()
        execution_id = (
            f"{self.composite.name}:{operation}:c{next(self._counter)}"
        )
        execution = _CentralExecution(
            execution_id=execution_id,
            operation=operation,
            env=dict(execute.arguments),
            client_node=client_node,
            client_endpoint=client_endpoint,
            started_ms=self.transport.now_ms(),
            request_key=execute.request_key,
        )
        self._executions[execution_id] = execution
        self.send(client_node, client_endpoint, ExecuteAck(
            execution_id=execution_id,
            request_key=execute.request_key,
        ))
        graph = self._graphs.get(operation)
        if graph is None:
            self._finish(execution, "fault",
                         fault=f"no operation {operation!r}")
            return
        timeout_ms = (
            execute.timeout_ms if execute.timeout_ms is not None
            else self.default_timeout_ms
        )
        if timeout_ms is not None:
            execution.cancel_deadline = self.transport.schedule(
                self.host, float(timeout_ms),
                lambda: self._on_deadline(execution_id),
            )
        self._enter_node(execution, graph.initial_node().node_id,
                         dict(execution.env))

    def _enter_node(
        self,
        execution: _CentralExecution,
        node_id: str,
        env: "Dict[str, Any]",
        via_edge: Optional[str] = None,
    ) -> None:
        if execution.status != "running":
            return
        operation = execution.operation
        table = self._tables[operation][node_id]
        execution.env.update(env)

        if table.precondition.mode is FiringMode.ALL and via_edge is not None:
            counts = execution.edge_counts.setdefault(node_id, {})
            counts[via_edge] = counts.get(via_edge, 0) + 1
            expected = [e.edge_id for e in table.precondition.entries]
            if not all(counts.get(e, 0) >= 1 for e in expected):
                return
            for e in expected:
                counts[e] -= 1
            env = dict(execution.env)

        if table.kind is NodeKind.TASK:
            self._invoke(execution, node_id, env)
        elif table.kind is NodeKind.FINAL:
            self._finish(execution, "success", outputs=env)
        else:
            self._postprocess(execution, node_id, env)

    def _invoke(
        self,
        execution: _CentralExecution,
        node_id: str,
        env: "Dict[str, Any]",
    ) -> None:
        table = self._tables[execution.operation][node_id]
        binding = table.binding
        assert binding is not None
        try:
            arguments = {
                parameter: compiled.value(env)
                for parameter, compiled in
                self._inputs[(execution.operation, node_id)].items()
            }
            target_node, target_endpoint = self.directory.resolve(
                binding.service
            )
        except Exception as exc:  # expression or resolution failure
            self._finish(execution, "fault", fault=str(exc))
            return
        invocation_id = f"central-{next(_invocation_ids)}"
        self._pending[invocation_id] = (
            execution.execution_id, node_id, binding.service
        )
        # The central engine snapshots the env per invocation, like the
        # P2P coordinators do per token.
        self._pending_envs[invocation_id] = env
        self.send(target_node, target_endpoint, Invoke(
            invocation_id=invocation_id,
            execution_id=execution.execution_id,
            operation=binding.operation,
            arguments=arguments,
        ))

    @handles(InvokeResult)
    def _on_invoke_result(
        self, result: InvokeResult, message: Message
    ) -> None:
        invocation_id = result.invocation_id
        pending = self._pending.pop(invocation_id, None)
        env = self._pending_envs.pop(invocation_id, None)
        if pending is None or env is None:
            return
        execution_id, node_id, service = pending
        execution = self._executions.get(execution_id)
        if execution is None or execution.status != "running":
            return
        if not result.ok:
            self._finish(
                execution, "fault",
                fault=f"invocation of {service!r} at {node_id!r} failed: "
                      f"{result.fault or 'unknown fault'}",
            )
            return
        table = self._tables[execution.operation][node_id]
        binding = table.binding
        assert binding is not None
        outputs = result.outputs
        for variable, parameter in binding.output_mapping.items():
            env[variable] = outputs.get(parameter)
        self._postprocess(execution, node_id, env)

    def _postprocess(
        self,
        execution: _CentralExecution,
        node_id: str,
        env: "Dict[str, Any]",
    ) -> None:
        operation = execution.operation
        table = self._tables[operation][node_id]
        immediate = [r for r in table.postprocessing.rows if not r.event]
        event_rows = [r for r in table.postprocessing.rows if r.event]
        fired = 0
        for row in immediate:
            key = (operation, row.edge_id)
            compiled = self._guards[key]
            try:
                if not (row.fire_always or compiled is None or compiled(env)):
                    continue
                out_env = env
                actions = self._actions[key]
                if actions:
                    out_env = dict(env)
                    for target, expr in actions:
                        out_env[target] = expr.value(env)
            except Exception as exc:
                self._finish(execution, "fault",
                             fault=f"routing at {node_id!r}: {exc}")
                return
            fired += 1
            self._enter_node(execution, row.target_node, dict(out_env),
                             via_edge=row.edge_id)
            self._emit_events(execution, row)
        if fired == 0 and event_rows:
            # Park the token until a matching ECA event is signalled —
            # mirrors the P2P coordinator's semantics (incl. replaying
            # events that arrived early).
            execution.waiting_tokens.append((node_id, dict(env)))
            self._replay_buffered(execution)
            return
        if fired == 0 and table.postprocessing.rows:
            self._finish(execution, "fault",
                         fault=f"no routing guard matched at {node_id!r}")

    def _emit_events(
        self, execution: _CentralExecution, row
    ) -> None:
        """Produced events: handled internally (everything is central)."""
        for event in row.emits:
            self._handle_event(execution, event, {})

    @handles(Signal)
    def _on_signal(self, signal: Signal, message: Message) -> None:
        execution = self._executions.get(signal.execution_id)
        if execution is None or execution.status != "running":
            return
        self._handle_event(execution, signal.event, dict(signal.payload))

    def _handle_event(
        self,
        execution: _CentralExecution,
        event: str,
        payload: "Dict[str, Any]",
    ) -> None:
        if not self._try_consume(execution, event, payload):
            execution.buffered_signals.append((event, payload))

    def _replay_buffered(self, execution: _CentralExecution) -> None:
        buffered = list(execution.buffered_signals)
        execution.buffered_signals = []
        for event, payload in buffered:
            if not self._try_consume(execution, event, payload):
                execution.buffered_signals.append((event, payload))

    def _try_consume(
        self,
        execution: _CentralExecution,
        event: str,
        payload: "Dict[str, Any]",
    ) -> bool:
        operation = execution.operation
        # _enter_node may recursively park *new* tokens on this same
        # execution, so consumed tokens are removed by identity after the
        # sweep rather than rebuilding the (possibly grown) list.
        snapshot = list(execution.waiting_tokens)
        consumed_ids = set()
        for token in snapshot:
            node_id, env = token
            table = self._tables[operation][node_id]
            rows = [
                r for r in table.postprocessing.rows if r.event == event
            ]
            if not rows:
                continue
            env.update(payload)
            fired = 0
            for row in rows:
                key = (operation, row.edge_id)
                compiled = self._guards[key]
                try:
                    if not (compiled is None or compiled(env)):
                        continue
                    out_env = env
                    actions = self._actions[key]
                    if actions:
                        out_env = dict(env)
                        for target, expr in actions:
                            out_env[target] = expr.value(env)
                except Exception as exc:
                    self._finish(execution, "fault",
                                 fault=f"routing at {node_id!r}: {exc}")
                    return True
                fired += 1
                self._enter_node(execution, row.target_node,
                                 dict(out_env), via_edge=row.edge_id)
                self._emit_events(execution, row)
            if fired:
                consumed_ids.add(id(token))
        execution.waiting_tokens = [
            t for t in execution.waiting_tokens
            if id(t) not in consumed_ids
        ]
        return bool(consumed_ids)

    def _on_deadline(self, execution_id: str) -> None:
        execution = self._executions.get(execution_id)
        if execution is None or execution.status != "running":
            return
        self._finish(execution, "timeout",
                     fault="execution exceeded its deadline")

    def _finish(
        self,
        execution: _CentralExecution,
        status: str,
        outputs: Optional[Dict[str, Any]] = None,
        fault: str = "",
    ) -> None:
        execution.status = status
        execution.finished_ms = self.transport.now_ms()
        if execution.cancel_deadline is not None:
            execution.cancel_deadline()
            execution.cancel_deadline = None
        spec = None
        if self.composite.description.has_operation(execution.operation):
            spec = self.composite.description.operation(execution.operation)
        if status == "success" and spec is not None and spec.outputs:
            projected = {
                p.name: (outputs or {}).get(p.name) for p in spec.outputs
            }
        else:
            projected = dict(outputs or {})
        self.send(execution.client_node, execution.client_endpoint,
                  ExecuteResult(
                      execution_id=execution.execution_id,
                      status=status,
                      outputs=projected,
                      fault=fault,
                      request_key=execution.request_key,
                  ))

    # Introspection -----------------------------------------------------------

    def records(self) -> "List[_CentralExecution]":
        return list(self._executions.values())


@dataclass
class CentralDeployment:
    """Mirror of :class:`CompositeDeployment` for the baseline."""

    orchestrator: CentralOrchestrator

    @property
    def address(self) -> "Tuple[str, str]":
        return self.orchestrator.address

    def undeploy(self) -> None:
        self.orchestrator.stop()


def deploy_central(
    composite: CompositeService,
    host: str,
    transport: Transport,
    directory: ServiceDirectory,
    registry: Optional[FunctionRegistry] = None,
    default_timeout_ms: Optional[float] = None,
    kernel: Optional[ActorKernel] = None,
) -> CentralDeployment:
    """Install the central orchestrator for ``composite`` on ``host``."""
    missing = [
        s for s in composite.component_services()
        if not directory.knows(s)
    ]
    if missing:
        raise DeploymentError(
            f"cannot deploy central orchestrator for {composite.name!r}: "
            f"component service(s) {sorted(missing)!r} are not deployed"
        )
    if not transport.has_node(host):
        transport.add_node(host)
    orchestrator = CentralOrchestrator(
        composite, host, transport, directory,
        registry=registry, default_timeout_ms=default_timeout_ms,
        kernel=kernel,
    )
    orchestrator.start()
    return CentralDeployment(orchestrator=orchestrator)
