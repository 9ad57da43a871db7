"""Coordinators: the peer components that orchestrate execution.

"Coordinators are attached to each state of a composite service.  They are
in charge of initiating, controlling, monitoring the associated state, and
collaborating with their peers to manage the service execution."
(paper §2)

A coordinator's entire runtime logic is:

1. **Precondition matching** — check each incoming ``notify`` against
   the routing table's precondition (``ANY``: every notification triggers
   a firing; ``ALL``: notifications are counted per edge, and a firing
   triggers when every expected edge has an outstanding one, consuming
   one from each — the AND-join).
2. **Invocation** — for a TASK node, evaluate the input-mapping
   expressions over the token's environment and ``invoke`` the component
   service through its wrapper; control nodes skip straight to step 3.
3. **Postprocessing** — evaluate each routing row's guard over the
   (possibly output-enriched) environment, apply the row's ECA actions,
   and ``notify`` the target coordinators.  FORK rows fire always; a
   FINAL node reports ``complete`` to the composite wrapper instead.

There is deliberately *no* scheduling algorithm here — everything the
coordinator consults was precomputed into the routing table, which is the
paper's central design claim.  The coordinator is a kernel
:class:`~repro.kernel.Actor`: message handling, envelope decoding and
the middleware taps are kernel machinery; only the three steps above are
coordinator code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.exceptions import ExpressionError
from repro.kernel.actor import Actor, ActorKernel, handles
from repro.kernel.envelopes import (
    Complete,
    ExecutionFault,
    Invoke,
    InvokeResult,
    Notify,
    Signal,
)
from repro.net.message import Message
from repro.net.transport import Transport
from repro.routing.tables import FiringMode, PostprocessingRow, RoutingTable

if TYPE_CHECKING:  # import would cycle through repro.runtime's package init
    from repro.perf.plan import CoordinatorDispatch
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import coordinator_endpoint
from repro.statecharts.flatten import NodeKind


@dataclass
class _ExecutionState:
    """An incomplete AND-join of one execution at one coordinator."""

    edge_counts: Dict[str, int] = field(default_factory=dict)
    env: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _WaitingToken:
    """A completed firing parked until one of its ECA events arrives."""

    execution_id: str
    env: Dict[str, Any]
    consumed: bool = False


class Coordinator(Actor):
    """The runtime agent of one flat-graph node.

    **State lifetime.**  A coordinator holds state for an execution
    only while that execution has work open *here*: an AND-join with
    some but not all of its edges arrived, an invocation awaiting its
    result, a token parked on an ECA event, or a signal no token has
    taken yet.  ``ANY`` firings keep nothing — they fire from the
    token's own environment.  A join's state is dropped when it fires
    with every edge count back to zero, a parked token when it is
    consumed, a buffered signal when a token takes it.  So a
    successful execution leaves nothing behind, and no clean-up
    message exists.  What can outlive an execution that does *not*
    succeed:

    * a join whose sibling branch faulted (its edge counts wait forever);
    * a token parked on an event that never came;
    * a signal that no token consumed;
    * an invoke to a host that never answers (its pending entry).

    That residue is bounded by failed executions, not by executions
    served; :meth:`executions_seen` counts it.
    """

    def __init__(
        self,
        table: RoutingTable,
        composite: str,
        operation: str,
        host: str,
        transport: Transport,
        directory: ServiceDirectory,
        wrapper_address: "Tuple[str, str]",
        dispatch: "CoordinatorDispatch",
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        super().__init__(host, transport, kernel)
        self.table = table
        self.composite = composite
        self.operation = operation
        self.directory = directory
        self.wrapper_address = wrapper_address
        #: Deploy-time compiled dispatch structure (``repro.perf``): the
        #: hot paths below use its precomputed row partitions, join edge
        #: sets, compiled expressions and interned peer endpoints, so
        #: nothing is re-derived per notification.
        self._dispatch = dispatch
        # Per-coordinator, not module-global: invocation ids must come
        # out identical when a recovered coordinator re-runs the same
        # deliveries (durability replay), and a process-wide counter
        # depends on every other platform in the process.  A plain int
        # (not itertools.count) so snapshots can capture and restore the
        # position.  Uniqueness holds because the id is prefixed with
        # the node id and one execution only ever crosses one
        # composite's coordinators.
        self.invocation_seq = 0
        self._executions: Dict[str, _ExecutionState] = {}
        self._waiting_tokens: "Dict[str, list]" = {}
        # Signals that arrived before any token was parked to consume
        # them: (event, payload) pairs per execution.  Distributed
        # emission races make buffering necessary — a region may produce
        # an event before its consumer's task completes.
        self._buffered_signals: "Dict[str, list]" = {}
        self._pending_invocations: Dict[str, "Tuple[str, Dict[str, Any]]"] = {}
        #: Fused immediate-row plan: one tuple per immediate row carrying
        #: everything a firing needs — the row, its guard (``None`` when
        #: it always fires), its action list and the fully resolved peer
        #: address — so the hot loop in :meth:`_postprocess` runs without
        #: per-firing mapping lookups.
        self._fused_immediate = tuple(
            (
                row,
                None
                if row.fire_always or dispatch.guards[row.edge_id] is None
                else dispatch.guards[row.edge_id],
                dispatch.actions[row.edge_id],
                dispatch.notify_targets[row.edge_id][0] or host,
                dispatch.notify_targets[row.edge_id][1],
            )
            for row in dispatch.immediate_rows
        )

    # Wiring ------------------------------------------------------------------

    @property
    def endpoint_name(self) -> str:
        return coordinator_endpoint(
            self.composite, self.operation, self.table.node_id
        )

    # Message handling -----------------------------------------------------------

    @handles(Notify)
    def _on_notify(self, notify: Notify, message: Message) -> None:
        expected = self._dispatch.expected_edges
        if self.table.precondition.mode is FiringMode.ANY or not expected:
            # Each notification is one token: fire once per arrival,
            # from the token's own environment, remembering nothing.
            self._fire(notify.execution_id, dict(notify.env))
        else:
            self._join(notify, expected)

    def _join(self, notify: Notify, expected: "Tuple[str, ...]") -> None:
        """AND-join: fire once every expected edge has a notification.

        The join's state lives only while it is incomplete: it is
        dropped on the firing that brings every edge count back to
        zero, and kept while surplus arrivals wait for the next one.
        """
        execution_id = notify.execution_id
        state = self._executions.setdefault(execution_id, _ExecutionState())
        state.env.update(notify.env)
        counts = state.edge_counts
        counts[notify.edge_id] = counts.get(notify.edge_id, 0) + 1
        if not all(counts.get(edge, 0) >= 1 for edge in expected):
            return
        for edge in expected:
            counts[edge] -= 1
        if not any(counts.values()):
            del self._executions[execution_id]
        self._fire(execution_id, dict(state.env))

    # Firing ------------------------------------------------------------------

    def _fire(self, execution_id: str, env: "Dict[str, Any]") -> None:
        if self.table.kind is NodeKind.TASK:
            self._invoke_service(execution_id, env)
        elif self.table.kind is NodeKind.FINAL:
            self._report_complete(execution_id, env)
        else:
            self._postprocess(execution_id, env)

    def _invoke_service(
        self, execution_id: str, env: "Dict[str, Any]"
    ) -> None:
        binding = self.table.binding
        assert binding is not None
        try:
            arguments = {
                parameter: compiled.value(env)
                for parameter, compiled in self._dispatch.input_exprs.items()
            }
        except ExpressionError as exc:
            self._report_fault(
                execution_id,
                f"input mapping of {self.table.node_id!r} failed: {exc}",
            )
            return
        try:
            target_node, target_endpoint = self.directory.resolve(
                binding.service
            )
        except Exception as exc:  # DeploymentError
            self._report_fault(execution_id, str(exc))
            return
        self.invocation_seq += 1
        invocation_id = f"{self.table.node_id}-{self.invocation_seq}"
        self._pending_invocations[invocation_id] = (execution_id, env)
        self.send(target_node, target_endpoint, Invoke(
            invocation_id=invocation_id,
            execution_id=execution_id,
            operation=binding.operation,
            arguments=arguments,
        ))

    @handles(InvokeResult)
    def _on_invoke_result(
        self, result: InvokeResult, message: Message
    ) -> None:
        pending = self._pending_invocations.pop(result.invocation_id, None)
        if pending is None:
            return  # stale/duplicate result
        execution_id, env = pending
        if not result.ok:
            binding = self.table.binding
            service = binding.service if binding else "?"
            self._report_fault(
                execution_id,
                f"invocation of {service!r} at {self.table.node_id!r} "
                f"failed: {result.fault or 'unknown fault'}",
            )
            return
        binding = self.table.binding
        assert binding is not None
        outputs = result.outputs
        for variable, parameter in binding.output_mapping.items():
            env[variable] = outputs.get(parameter)
        self._postprocess(execution_id, env)

    def _postprocess(self, execution_id: str, env: "Dict[str, Any]") -> None:
        """Route one completed firing.

        Immediate rows (no ECA event) are evaluated now.  If none fires
        and the table has event-consuming rows, the token parks until a
        matching :meth:`signal <_on_signal>` arrives — the E part of the
        ECA rule.  A completion transition that is enabled wins over
        waiting for events, the usual statechart priority.
        """
        node_id = self.table.node_id
        fired = 0
        for row, guard, actions, peer_host, peer_endpoint in (
            self._fused_immediate
        ):
            try:
                if guard is not None and not guard(env):
                    continue
                if actions:
                    out_env = dict(env)
                    for target, compiled in actions:
                        out_env[target] = compiled.value(env)
                else:
                    out_env = env
            except ExpressionError as exc:
                self._report_fault(
                    execution_id,
                    f"routing at {node_id!r} edge "
                    f"{row.edge_id!r} failed: {exc}",
                )
                return
            fired += 1
            self.send(peer_host, peer_endpoint, Notify(
                execution_id=execution_id,
                edge_id=row.edge_id,
                from_node=node_id,
                env=out_env,
            ))
            if row.emits:
                self._emit_events(execution_id, row)
        if fired == 0 and self._dispatch.event_rows:
            self._waiting_tokens.setdefault(execution_id, []).append(
                _WaitingToken(execution_id=execution_id, env=dict(env))
            )
            self._replay_buffered(execution_id)
            return
        if fired == 0 and self.table.postprocessing.rows:
            self._report_fault(
                execution_id,
                f"no routing guard matched at {node_id!r}",
            )

    def _emit_events(self, execution_id: str, row) -> None:
        """Produce the row's events (paper: 'produced events').

        Emissions route through the composite wrapper, which holds the
        static map of which coordinators consume which events and fans
        the signal out precisely.
        """
        if not row.emits:
            return
        node, endpoint = self.wrapper_address
        for event in row.emits:
            self.send(node, endpoint, Signal(
                execution_id=execution_id, event=event, payload={},
            ))

    @handles(Signal)
    def _on_signal(self, signal: Signal, message: Message) -> None:
        """Consume an ECA event: wake matching parked tokens.

        A signal that finds no parked token (yet) is buffered and
        replayed when one parks — emissions and completions race freely
        across the network.
        """
        execution_id = signal.execution_id
        event = signal.event
        if event not in self._dispatch.consumed_events:
            return
        if not self._try_consume(execution_id, event, signal.payload):
            self._buffered_signals.setdefault(execution_id, []).append(
                (event, dict(signal.payload))
            )

    def _try_consume(
        self, execution_id: str, event: str, payload: "Dict[str, Any]"
    ) -> bool:
        """Wake parked tokens with ``event``; returns whether any fired."""
        tokens = self._waiting_tokens.get(execution_id, [])
        event_rows = self._dispatch.rows_by_event.get(event, ())
        consumed_any = False
        for token in tokens:
            if token.consumed:
                continue
            token.env.update(payload)
            fired = 0
            for row in event_rows:
                try:
                    if not self._row_matches(row, token.env):
                        continue
                    out_env = self._apply_actions(row, token.env)
                except ExpressionError as exc:
                    token.consumed = True
                    self._report_fault(
                        execution_id,
                        f"routing at {self.table.node_id!r} edge "
                        f"{row.edge_id!r} failed: {exc}",
                    )
                    return True
                fired += 1
                self._notify_peer(execution_id, row, out_env)
                self._emit_events(execution_id, row)
            if fired:
                token.consumed = True
                consumed_any = True
        remaining = [t for t in tokens if not t.consumed]
        if remaining:
            self._waiting_tokens[execution_id] = remaining
        else:
            self._waiting_tokens.pop(execution_id, None)
        return consumed_any

    def _replay_buffered(self, execution_id: str) -> None:
        """Offer buffered signals to a freshly parked token."""
        buffered = self._buffered_signals.get(execution_id, [])
        remaining = []
        for event, payload in buffered:
            if not self._try_consume(execution_id, event, payload):
                remaining.append((event, payload))
        if remaining:
            self._buffered_signals[execution_id] = remaining
        else:
            self._buffered_signals.pop(execution_id, None)

    def _row_matches(
        self, row: PostprocessingRow, env: "Dict[str, Any]"
    ) -> bool:
        compiled = self._dispatch.guards[row.edge_id]
        if row.fire_always or compiled is None:
            return True
        return compiled(env)

    def _apply_actions(
        self, row: PostprocessingRow, env: "Dict[str, Any]"
    ) -> "Dict[str, Any]":
        actions = self._dispatch.actions[row.edge_id]
        if not actions:
            return env
        out_env = dict(env)
        for target, compiled in actions:
            out_env[target] = compiled.value(env)
        return out_env

    def _notify_peer(
        self,
        execution_id: str,
        row: PostprocessingRow,
        env: "Dict[str, Any]",
    ) -> None:
        target_host, target_endpoint = (
            self._dispatch.notify_targets[row.edge_id]
        )
        self.send(target_host or self.host, target_endpoint, Notify(
            execution_id=execution_id,
            edge_id=row.edge_id,
            from_node=self.table.node_id,
            env=env,
        ))

    # Reporting back to the composite wrapper ------------------------------------

    def _report_complete(
        self, execution_id: str, env: "Dict[str, Any]"
    ) -> None:
        node, endpoint = self.wrapper_address
        self.send(node, endpoint, Complete(
            execution_id=execution_id,
            final_node=self.table.node_id,
            env=env,
        ))

    def _report_fault(self, execution_id: str, reason: str) -> None:
        node, endpoint = self.wrapper_address
        self.send(node, endpoint, ExecutionFault(
            execution_id=execution_id,
            node=self.table.node_id,
            reason=reason,
        ))

    # Diagnostics -----------------------------------------------------------------

    def executions_seen(self) -> int:
        """Executions this coordinator still holds any state for."""
        live = set(self._executions)
        live.update(self._waiting_tokens, self._buffered_signals)
        live.update(eid for eid, _ in self._pending_invocations.values())
        return len(live)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Coordinator({self.table.node_id!r} @ {self.host!r}, "
            f"{self.composite}.{self.operation})"
        )
