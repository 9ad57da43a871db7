"""Flattening of hierarchical statecharts into task/fork/join graphs.

Routing-table generation (and both runtimes) operate on a *flat* view of
the composite service: a directed graph whose nodes are

* ``INITIAL`` — the unique entry point,
* ``FINAL`` — terminal node(s),
* ``TASK`` — a service invocation (from a basic state),
* ``FORK`` — entry of an AND state: *all* outgoing edges fire,
* ``JOIN`` — exit of an AND state: waits for *all* incoming edges,
* ``ROUTE`` — a pass-through decision point (from nested initial/final
  pseudo-states and compound-state boundaries): forwards the token along
  the outgoing edges whose guards hold.

Hierarchy is compiled away structurally:

* a compound state becomes its inner graph, bracketed by the inner
  initial (a ROUTE) and a synthetic ``…/__exit`` ROUTE that gathers the
  inner finals,
* an AND state becomes ``FORK -> region graphs -> JOIN``.

Qualified node ids join nesting levels with ``/`` so that every node maps
back to exactly one state of the source chart (synthetic nodes use the
``__``-prefixed suffixes ``__fork``, ``__join`` and ``__exit``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import StatechartError
from repro.statecharts.model import (
    Assignment,
    ServiceBinding,
    StateKind,
    Statechart,
)


class NodeKind(enum.Enum):
    """Kinds of nodes in the flattened graph."""

    INITIAL = "initial"
    FINAL = "final"
    TASK = "task"
    FORK = "fork"
    JOIN = "join"
    ROUTE = "route"


@dataclass(frozen=True)
class FlatNode:
    """One node of the flattened graph."""

    node_id: str
    kind: NodeKind
    name: str = ""
    binding: Optional[ServiceBinding] = None

    @property
    def is_control(self) -> bool:
        """True for nodes that do no service work (everything but TASK)."""
        return self.kind is not NodeKind.TASK


@dataclass(frozen=True)
class FlatEdge:
    """One guarded edge of the flattened graph."""

    edge_id: str
    source: str
    target: str
    condition: str = ""
    event: str = ""
    actions: Tuple[Assignment, ...] = ()
    emits: Tuple[str, ...] = ()

    @property
    def guard_text(self) -> str:
        return self.condition.strip() or "true"


class FlatGraph:
    """The flattened composite-service graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, FlatNode] = {}
        self._edges: Dict[str, FlatEdge] = {}
        self._outgoing: Dict[str, List[FlatEdge]] = {}
        self._incoming: Dict[str, List[FlatEdge]] = {}
        self._edge_counter = 0

    # Construction ---------------------------------------------------------

    def add_node(self, node: FlatNode) -> FlatNode:
        if node.node_id in self._nodes:
            raise StatechartError(
                f"flatten produced duplicate node id {node.node_id!r}"
            )
        self._nodes[node.node_id] = node
        self._outgoing[node.node_id] = []
        self._incoming[node.node_id] = []
        return node

    def add_edge(
        self,
        source: str,
        target: str,
        condition: str = "",
        event: str = "",
        actions: Tuple[Assignment, ...] = (),
        emits: Tuple[str, ...] = (),
    ) -> FlatEdge:
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise StatechartError(
                    f"flat edge references unknown node {endpoint!r}"
                )
        self._edge_counter += 1
        edge = FlatEdge(
            edge_id=f"e{self._edge_counter}",
            source=source,
            target=target,
            condition=condition,
            event=event,
            actions=actions,
            emits=emits,
        )
        self._edges[edge.edge_id] = edge
        self._outgoing[source].append(edge)
        self._incoming[target].append(edge)
        return edge

    # Lookup -----------------------------------------------------------------

    def node(self, node_id: str) -> FlatNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise StatechartError(
                f"flat graph {self.name!r} has no node {node_id!r}"
            ) from None

    @property
    def nodes(self) -> "List[FlatNode]":
        return list(self._nodes.values())

    @property
    def node_ids(self) -> "List[str]":
        return list(self._nodes.keys())

    @property
    def edges(self) -> "List[FlatEdge]":
        return list(self._edges.values())

    def outgoing(self, node_id: str) -> "List[FlatEdge]":
        self.node(node_id)
        return list(self._outgoing[node_id])

    def incoming(self, node_id: str) -> "List[FlatEdge]":
        self.node(node_id)
        return list(self._incoming[node_id])

    def initial_node(self) -> FlatNode:
        initials = [
            n for n in self._nodes.values() if n.kind is NodeKind.INITIAL
        ]
        if len(initials) != 1:
            raise StatechartError(
                f"flat graph {self.name!r} must have exactly one initial "
                f"node, found {len(initials)}"
            )
        return initials[0]

    def task_nodes(self) -> "List[FlatNode]":
        return [n for n in self._nodes.values() if n.kind is NodeKind.TASK]

    def control_nodes(self) -> "List[FlatNode]":
        return [n for n in self._nodes.values() if n.is_control]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlatGraph({self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )


@dataclass
class _Fragment:
    """Entry/exit node ids of one flattened state."""

    entry: str
    exit: str


def flatten(chart: Statechart) -> FlatGraph:
    """Flatten ``chart`` into a :class:`FlatGraph`.

    The chart is assumed structurally valid (run
    :func:`repro.statecharts.validation.validate` first); flattening
    re-raises a :class:`~repro.exceptions.StatechartError` on the subset of
    problems that would corrupt the output graph.
    """
    graph = FlatGraph(chart.name)
    _flatten_level(chart, prefix="", graph=graph, top_level=True)
    return graph


def _flatten_level(
    chart: Statechart,
    prefix: str,
    graph: FlatGraph,
    top_level: bool,
) -> "Dict[str, _Fragment]":
    """Flatten one nesting level; returns each state's entry/exit nodes."""
    fragments: Dict[str, _Fragment] = {}
    for state in chart.states:
        qualified = f"{prefix}{state.state_id}"
        if state.kind is StateKind.INITIAL:
            kind = NodeKind.INITIAL if top_level else NodeKind.ROUTE
            graph.add_node(FlatNode(qualified, kind, name=state.name))
            fragments[state.state_id] = _Fragment(qualified, qualified)
        elif state.kind is StateKind.FINAL:
            kind = NodeKind.FINAL if top_level else NodeKind.ROUTE
            graph.add_node(FlatNode(qualified, kind, name=state.name))
            fragments[state.state_id] = _Fragment(qualified, qualified)
        elif state.kind is StateKind.BASIC:
            graph.add_node(FlatNode(
                qualified, NodeKind.TASK, name=state.name,
                binding=state.binding,
            ))
            fragments[state.state_id] = _Fragment(qualified, qualified)
        elif state.kind is StateKind.COMPOUND:
            assert state.chart is not None
            fragments[state.state_id] = _flatten_compound(
                state.chart, qualified, graph
            )
        elif state.kind is StateKind.AND:
            fragments[state.state_id] = _flatten_and(
                state.regions, qualified, graph, name=state.name
            )
        else:  # pragma: no cover - exhaustive over StateKind
            raise StatechartError(f"unknown state kind {state.kind!r}")

    for transition in chart.transitions:
        graph.add_edge(
            source=fragments[transition.source].exit,
            target=fragments[transition.target].entry,
            condition=transition.condition,
            event=transition.event,
            actions=transition.actions,
            emits=transition.emits,
        )
    return fragments


def _flatten_compound(
    inner: Statechart, qualified: str, graph: FlatGraph
) -> _Fragment:
    inner_fragments = _flatten_level(
        inner, prefix=f"{qualified}/", graph=graph, top_level=False
    )
    entry = inner_fragments[inner.initial_state().state_id].entry
    finals = inner.final_states()
    if not finals:
        raise StatechartError(
            f"compound state {qualified!r}: inner chart has no final state"
        )
    exit_id = f"{qualified}/__exit"
    graph.add_node(FlatNode(exit_id, NodeKind.ROUTE, name=f"{qualified} exit"))
    for final in finals:
        graph.add_edge(inner_fragments[final.state_id].exit, exit_id)
    return _Fragment(entry, exit_id)


def _flatten_and(
    regions: "List[Statechart]",
    qualified: str,
    graph: FlatGraph,
    name: str,
) -> _Fragment:
    fork_id = f"{qualified}/__fork"
    join_id = f"{qualified}/__join"
    graph.add_node(FlatNode(fork_id, NodeKind.FORK, name=f"{name} fork"))
    graph.add_node(FlatNode(join_id, NodeKind.JOIN, name=f"{name} join"))
    for index, region in enumerate(regions):
        region_prefix = f"{qualified}/r{index}/"
        region_fragments = _flatten_level(
            region, prefix=region_prefix, graph=graph, top_level=False
        )
        entry = region_fragments[region.initial_state().state_id].entry
        graph.add_edge(fork_id, entry)
        finals = region.final_states()
        if not finals:
            raise StatechartError(
                f"AND state {qualified!r} region {index}: no final state"
            )
        for final in finals:
            graph.add_edge(region_fragments[final.state_id].exit, join_id)
    return _Fragment(fork_id, join_id)
