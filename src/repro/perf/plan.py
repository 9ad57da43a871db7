"""Routing-plan compilation: the deploy-time dispatch fast path.

The paper's core claim is that all control-flow reasoning happens *once*,
at deployment time, so coordinators "do not need to implement any complex
scheduling algorithm" at runtime.  The seed coordinator honoured that for
the *decisions* (they come from the routing table) but still re-derived
the decision *structures* on every hot-path step: partitioning
postprocessing rows into immediate/event sets per firing, rebuilding the
expected-edge list per join notification, and re-rendering each peer's
endpoint name per notify.

This module finishes the job: :func:`compile_routing_plan` flattens one
operation's placed routing tables into an immutable
:class:`CompiledRoutingPlan` of per-coordinator
:class:`CoordinatorDispatch` structures — row partitions, event→row maps,
join edge tuples, compiled guard/action/input expressions and interned
peer endpoint strings — built once by the
:class:`~repro.deployment.Deployer` and shared by every execution.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.exceptions import RoutingError
from repro.expr import CompiledExpression, FunctionRegistry
from repro.routing.tables import FiringMode, PostprocessingRow, RoutingTable
from repro.runtime.protocol import coordinator_endpoint


@dataclass(frozen=True)
class CoordinatorDispatch:
    """The immutable dispatch structure of one coordinator.

    Everything a :class:`~repro.runtime.coordinator.Coordinator` consults
    per notification/firing/signal, precomputed once:

    * ``expected_edges`` — the join's expected edge ids (ALL mode),
    * ``immediate_rows`` / ``event_rows`` — the postprocessing partition,
    * ``rows_by_event`` / ``consumed_events`` — signal routing without a
      row scan,
    * ``notify_targets`` — per edge, the peer's ``(host, endpoint)``
      with the endpoint name rendered and interned at compile time,
    * ``guards`` / ``actions`` / ``input_exprs`` — compiled expressions,
      shared instead of re-compiled per coordinator instance.
    """

    node_id: str
    expects_all: bool
    expected_edges: "Tuple[str, ...]"
    immediate_rows: "Tuple[PostprocessingRow, ...]"
    event_rows: "Tuple[PostprocessingRow, ...]"
    rows_by_event: "Mapping[str, Tuple[PostprocessingRow, ...]]"
    consumed_events: "frozenset[str]"
    #: edge_id -> (target_host or "", interned endpoint name).  An empty
    #: host means "same host as the sender" (unplaced tables).
    notify_targets: "Mapping[str, Tuple[str, str]]"
    guards: "Mapping[str, Optional[CompiledExpression]]"
    actions: "Mapping[str, Tuple[Tuple[str, CompiledExpression], ...]]"
    input_exprs: "Mapping[str, CompiledExpression]"


def compile_dispatch(
    table: RoutingTable,
    composite: str,
    operation: str,
    registry: Optional[FunctionRegistry] = None,
) -> CoordinatorDispatch:
    """Compile one routing table into its dispatch structure."""
    immediate = tuple(
        row for row in table.postprocessing.rows if not row.event
    )
    event_rows = tuple(
        row for row in table.postprocessing.rows if row.event
    )
    rows_by_event: Dict[str, Tuple[PostprocessingRow, ...]] = {}
    for row in event_rows:
        rows_by_event[row.event] = rows_by_event.get(row.event, ()) + (row,)

    notify_targets: Dict[str, Tuple[str, str]] = {}
    guards: Dict[str, Optional[CompiledExpression]] = {}
    actions: Dict[str, Tuple[Tuple[str, CompiledExpression], ...]] = {}
    for row in table.postprocessing.rows:
        notify_targets[row.edge_id] = (
            sys.intern(row.target_host) if row.target_host else "",
            sys.intern(coordinator_endpoint(
                composite, operation, row.target_node
            )),
        )
        if row.fire_always or row.guard.strip() in ("", "true"):
            guards[row.edge_id] = None
        else:
            guards[row.edge_id] = CompiledExpression(row.guard, registry)
        actions[row.edge_id] = tuple(
            (action.target, CompiledExpression(action.expression, registry))
            for action in row.actions
        )

    input_exprs: Dict[str, CompiledExpression] = {}
    if table.binding is not None:
        for parameter, expr in table.binding.input_mapping.items():
            input_exprs[parameter] = CompiledExpression(expr, registry)

    return CoordinatorDispatch(
        node_id=table.node_id,
        expects_all=table.precondition.mode is FiringMode.ALL,
        expected_edges=tuple(
            entry.edge_id for entry in table.precondition.entries
        ),
        immediate_rows=immediate,
        event_rows=event_rows,
        rows_by_event=rows_by_event,
        consumed_events=frozenset(rows_by_event),
        notify_targets=notify_targets,
        guards=guards,
        actions=actions,
        input_exprs=input_exprs,
    )


@dataclass(frozen=True)
class CompiledRoutingPlan:
    """One operation's routing tables, compiled for dispatch.

    Built once at deploy time and shared across executions; the deployer
    stores it on the :class:`~repro.deployment.CompositeDeployment` so
    tooling can inspect exactly what the coordinators run from.
    """

    composite: str
    operation: str
    dispatches: "Mapping[str, CoordinatorDispatch]"

    def dispatch_for(self, node_id: str) -> CoordinatorDispatch:
        try:
            return self.dispatches[node_id]
        except KeyError:
            raise RoutingError(
                f"plan for {self.composite}.{self.operation} has no "
                f"coordinator {node_id!r}"
            ) from None

    def statistics(self) -> "Dict[str, int]":
        """Plan-shape numbers (used by docs and the fastpath benchmark)."""
        dispatches = list(self.dispatches.values())
        return {
            "coordinators": len(dispatches),
            "immediate_rows": sum(len(d.immediate_rows) for d in dispatches),
            "event_rows": sum(len(d.event_rows) for d in dispatches),
            "join_coordinators": sum(1 for d in dispatches if d.expects_all),
            "compiled_guards": sum(
                1 for d in dispatches
                for g in d.guards.values() if g is not None
            ),
            "interned_endpoints": len({
                endpoint
                for d in dispatches
                for _, endpoint in d.notify_targets.values()
            }),
        }

    def describe(self) -> str:
        """Human-readable plan summary (the deployer's console output)."""
        stats = self.statistics()
        lines = [
            f"compiled plan {self.composite}.{self.operation}: "
            f"{stats['coordinators']} coordinators",
            f"  rows: {stats['immediate_rows']} immediate, "
            f"{stats['event_rows']} event-consuming",
            f"  guards compiled: {stats['compiled_guards']}, "
            f"peer endpoints interned: {stats['interned_endpoints']}",
        ]
        return "\n".join(lines)


def compile_routing_plan(
    tables: "Mapping[str, RoutingTable]",
    composite: str,
    operation: str,
    registry: Optional[FunctionRegistry] = None,
) -> CompiledRoutingPlan:
    """Compile every coordinator's dispatch for one operation."""
    return CompiledRoutingPlan(
        composite=composite,
        operation=operation,
        dispatches={
            node_id: compile_dispatch(table, composite, operation, registry)
            for node_id, table in tables.items()
        },
    )
