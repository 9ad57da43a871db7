"""Routing-table data model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import RoutingError
from repro.statecharts.flatten import NodeKind
from repro.statecharts.model import Assignment, ServiceBinding


class FiringMode(enum.Enum):
    """How many expected notifications must arrive before firing.

    * ``ANY`` — one notification triggers one firing (sequential flow,
      XOR merges, loops),
    * ``ALL`` — one notification from *every* entry triggers one firing
      (AND-join synchronisation).
    """

    ANY = "any"
    ALL = "all"


@dataclass(frozen=True)
class PreconditionEntry:
    """One expected peer notification: who will notify along which edge."""

    edge_id: str
    source_node: str


@dataclass(frozen=True)
class Precondition:
    """The firing condition of a coordinator."""

    mode: FiringMode
    entries: Tuple[PreconditionEntry, ...] = ()

    def entry_for_edge(self, edge_id: str) -> Optional[PreconditionEntry]:
        for entry in self.entries:
            if entry.edge_id == edge_id:
                return entry
        return None


@dataclass(frozen=True)
class PostprocessingRow:
    """One post-execution routing decision.

    When ``fire_always`` is true the row fires unconditionally (FORK
    semantics); otherwise it fires when ``guard`` evaluates true over the
    execution environment.  A non-empty ``event`` makes the row *event-
    consuming*: after the state completes, the token waits at the
    coordinator until the named event is signalled to the execution, and
    only then is the guard evaluated and the peer notified (the C and E
    parts of the ECA rule).  ``target_host`` is filled by the deployer
    once coordinator placement is known ("location" in the paper's
    wording); generation leaves it empty.
    """

    edge_id: str
    target_node: str
    guard: str = "true"
    fire_always: bool = False
    actions: Tuple[Assignment, ...] = ()
    target_host: str = ""
    event: str = ""
    emits: Tuple[str, ...] = ()

    def with_host(self, host: str) -> "PostprocessingRow":
        """Return a copy with the target host filled in."""
        return PostprocessingRow(
            edge_id=self.edge_id,
            target_node=self.target_node,
            guard=self.guard,
            fire_always=self.fire_always,
            actions=self.actions,
            target_host=host,
            event=self.event,
            emits=self.emits,
        )


@dataclass(frozen=True)
class Postprocessing:
    """All post-execution rows of one coordinator."""

    rows: Tuple[PostprocessingRow, ...] = ()

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class RoutingTable:
    """The complete static knowledge of one coordinator.

    ``node_id`` names the flat-graph node the coordinator controls;
    ``kind`` is its control kind; ``binding`` is present for TASK nodes;
    ``host`` is the provider host the coordinator is installed on (filled
    by the deployer).
    """

    node_id: str
    kind: NodeKind
    precondition: Precondition
    postprocessing: Postprocessing
    binding: Optional[ServiceBinding] = None
    host: str = ""

    def __post_init__(self) -> None:
        if self.kind is NodeKind.TASK and self.binding is None:
            raise RoutingError(
                f"routing table for task node {self.node_id!r} requires a "
                f"service binding"
            )
        if self.kind is not NodeKind.TASK and self.binding is not None:
            raise RoutingError(
                f"routing table for {self.kind.value} node "
                f"{self.node_id!r} cannot carry a service binding"
            )

    def consumed_events(self) -> "frozenset[str]":
        """Event names this coordinator's tokens may wait on."""
        return frozenset(
            row.event for row in self.postprocessing.rows if row.event
        )

    def produced_events(self) -> "frozenset[str]":
        """Event names this coordinator's rows emit when firing."""
        produced: "frozenset[str]" = frozenset()
        for row in self.postprocessing.rows:
            produced |= frozenset(row.emits)
        return produced

    @property
    def peer_count(self) -> int:
        """Number of distinct peer coordinators this one talks to."""
        peers = {e.source_node for e in self.precondition.entries}
        peers |= {r.target_node for r in self.postprocessing.rows}
        peers.discard(self.node_id)
        return len(peers)

    def describe(self) -> str:
        """Human-readable one-table summary (used by the deployer CLI)."""
        lines = [f"routing table for {self.node_id} ({self.kind.value})"]
        if self.host:
            lines.append(f"  host: {self.host}")
        if self.binding is not None:
            lines.append(
                f"  invokes: {self.binding.service}.{self.binding.operation}"
            )
        mode = self.precondition.mode.value
        if self.precondition.entries:
            expected = ", ".join(
                f"{e.source_node}[{e.edge_id}]"
                for e in self.precondition.entries
            )
            lines.append(f"  precondition ({mode}): {expected}")
        else:
            lines.append("  precondition: (entry point)")
        for row in self.postprocessing.rows:
            guard = "always" if row.fire_always else f"[{row.guard}]"
            host = f" @ {row.target_host}" if row.target_host else ""
            lines.append(
                f"  postprocessing: {guard} -> {row.target_node}{host}"
            )
        if not self.postprocessing.rows:
            lines.append("  postprocessing: (terminal)")
        return "\n".join(lines)


def check_consistency(tables: "Dict[str, RoutingTable]") -> "List[str]":
    """Cross-check a table set: every referenced peer must exist and agree.

    Returns a list of problems (empty when consistent).  The deployer runs
    this before uploading, so a bad generation never reaches the hosts.
    """
    problems: List[str] = []
    for table in tables.values():
        for row in table.postprocessing.rows:
            peer = tables.get(row.target_node)
            if peer is None:
                problems.append(
                    f"{table.node_id}: postprocessing targets unknown "
                    f"coordinator {row.target_node!r}"
                )
                continue
            if peer.precondition.entry_for_edge(row.edge_id) is None:
                problems.append(
                    f"{table.node_id}: edge {row.edge_id!r} to "
                    f"{row.target_node!r} is not expected by the target's "
                    f"precondition"
                )
        for entry in table.precondition.entries:
            peer = tables.get(entry.source_node)
            if peer is None:
                problems.append(
                    f"{table.node_id}: precondition expects unknown "
                    f"coordinator {entry.source_node!r}"
                )
                continue
            if not any(
                row.edge_id == entry.edge_id
                for row in peer.postprocessing.rows
            ):
                problems.append(
                    f"{table.node_id}: expected edge {entry.edge_id!r} is "
                    f"not produced by {entry.source_node!r}"
                )
    return problems
