"""The Service Deployer."""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import DeploymentError
from repro.expr import FunctionRegistry
from repro.kernel.actor import ActorKernel
from repro.net.transport import Transport
from repro.perf.plan import CompiledRoutingPlan, compile_routing_plan
from repro.routing.generation import generate_routing_tables
from repro.routing.serialization import routing_tables_to_xml
from repro.routing.tables import (
    Postprocessing,
    RoutingTable,
)
from repro.resilience.runtime import ResilienceRuntime
from repro.runtime.community_wrapper import CommunityWrapperRuntime
from repro.runtime.composite_wrapper import CompositeWrapperRuntime
from repro.runtime.coordinator import Coordinator
from repro.runtime.directory import ServiceDirectory
from repro.runtime.service_wrapper import ServiceWrapperRuntime
from repro.selection.policies import SelectionPolicy, policy_by_name
from repro.services.community import ServiceCommunity
from repro.services.composite import CompositeService
from repro.services.elementary import ElementaryService
from repro.statecharts.flatten import FlatGraph, flatten
from repro.statecharts.validation import validate
from repro.deployment.placement import CompositeHostPlacement, PlacementPolicy


@dataclass
class CompositeDeployment:
    """Everything instantiated for one deployed composite service."""

    composite: CompositeService
    host: str
    wrapper: CompositeWrapperRuntime
    coordinators: Dict[str, "Dict[str, Coordinator]"] = field(
        default_factory=dict
    )  # operation -> node_id -> coordinator
    tables: Dict[str, "Dict[str, RoutingTable]"] = field(default_factory=dict)
    graphs: Dict[str, FlatGraph] = field(default_factory=dict)
    #: operation -> the deploy-time compiled dispatch plan shared by that
    #: operation's coordinators.
    plans: Dict[str, CompiledRoutingPlan] = field(default_factory=dict)

    @property
    def address(self) -> "Tuple[str, str]":
        """The ``(node, endpoint)`` clients execute against."""
        return self.host, self.wrapper.endpoint_name

    def coordinator_count(self) -> int:
        return sum(len(c) for c in self.coordinators.values())

    def tables_xml(self, operation: str) -> ET.Element:
        """The routing-tables XML document uploaded for ``operation``."""
        return routing_tables_to_xml(self.tables[operation])

    def hosts_used(self) -> "List[str]":
        hosts = {self.host}
        for per_op in self.coordinators.values():
            hosts.update(c.host for c in per_op.values())
        return sorted(hosts)

    def undeploy(self) -> None:
        """Remove every endpoint this deployment installed."""
        for per_op in self.coordinators.values():
            for coordinator in per_op.values():
                coordinator.stop()
        self.wrapper.stop()

    def describe(self) -> str:
        """Multi-line deployment report (the deployer's console output)."""
        lines = [
            f"composite {self.composite.name!r} deployed on {self.host!r}",
            f"  operations: {', '.join(self.composite.operations())}",
            f"  coordinators: {self.coordinator_count()} across "
            f"{len(self.hosts_used())} host(s)",
        ]
        for operation, per_op in self.coordinators.items():
            lines.append(f"  [{operation}]")
            for node_id in sorted(per_op):
                coordinator = per_op[node_id]
                lines.append(
                    f"    {node_id} @ {coordinator.host}"
                )
        return "\n".join(lines)


class Deployer:
    """Installs services, communities and composites onto a transport."""

    def __init__(
        self,
        transport: Transport,
        directory: Optional[ServiceDirectory] = None,
        registry: Optional[FunctionRegistry] = None,
        placement: Optional[PlacementPolicy] = None,
        resilience: "Optional[ResilienceRuntime]" = None,
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        self.transport = transport
        self.directory = directory or ServiceDirectory()
        self.registry = registry
        self.placement = placement or CompositeHostPlacement()
        #: The actor substrate every deployed participant runs on: one
        #: shared middleware chain and actor registry per deployer (the
        #: platform passes its own so all subsystems observe the same
        #: kernel).
        self.kernel = kernel if kernel is not None else ActorKernel(transport)
        #: When set, community wrappers deploy health-aware (breaker
        #: gating, status-ordered failover, resilience events).
        self.resilience = resilience
        #: The shard's :class:`~repro.durability.ShardDurability`, when
        #: durability is configured.  The deployer journals every
        #: deployment through it (so recovery can rebuild the topology)
        #: and hands service wrappers the effect ledger.
        self.durability = None

    def _ensure_node(self, host: str):
        if not self.transport.has_node(host):
            return self.transport.add_node(host)
        return self.transport.node(host)

    # Elementary services ---------------------------------------------------

    def deploy_elementary(
        self,
        service: ElementaryService,
        host: str,
        rng: Optional[random.Random] = None,
    ) -> ServiceWrapperRuntime:
        """Install ``service``'s wrapper on ``host`` and register it."""
        self._ensure_node(host)
        wrapper = ServiceWrapperRuntime(service, host, self.transport,
                                        rng=rng, kernel=self.kernel)
        wrapper.start()
        self.directory.register(service.name, host, wrapper.endpoint_name)
        dur = self.durability
        if dur is not None:
            wrapper.effects = dur.effects
            if not dur.suspended:
                # RNG state is captured *at deploy time*: redeploy hands
                # the wrapper a generator in exactly this state, and the
                # snapshot/replay path advances it from there.
                dur.journal.record_elementary(
                    service, host, wrapper.rng.getstate()
                )
        return wrapper

    # Communities ---------------------------------------------------------------

    def deploy_community(
        self,
        community: ServiceCommunity,
        host: str,
        policy: "SelectionPolicy | str" = "multi-attribute",
        timeout_ms: float = 1000.0,
        max_attempts: Optional[int] = None,
    ) -> CommunityWrapperRuntime:
        """Install ``community``'s wrapper on ``host``.

        Members must be deployed separately (they are ordinary services);
        the community resolves them through the shared directory at
        delegation time.
        """
        self._ensure_node(host)
        if isinstance(policy, str):
            policy = policy_by_name(policy)
        resilience = self.resilience
        wrapper = CommunityWrapperRuntime(
            community=community,
            policy=policy,
            host=host,
            transport=self.transport,
            directory=self.directory,
            timeout_ms=timeout_ms,
            max_attempts=max_attempts,
            health=resilience.health if resilience else None,
            breakers=resilience.breakers if resilience else None,
            events=resilience.events if resilience else None,
            kernel=self.kernel,
        )
        wrapper.start()
        self.directory.register(community.name, host, wrapper.endpoint_name)
        dur = self.durability
        if dur is not None and not dur.suspended:
            dur.journal.record_community(community, host, {
                "policy": policy,
                "timeout_ms": timeout_ms,
                "max_attempts": max_attempts,
            })
        return wrapper

    # Composite services ------------------------------------------------------------

    def deploy_composite(
        self,
        composite: CompositeService,
        host: str,
        default_timeout_ms: Optional[float] = None,
        validate_charts: bool = True,
    ) -> CompositeDeployment:
        """Generate routing tables, place and install all coordinators.

        Every component service referenced by the composite's statecharts
        must already be in the directory — the paper's flow registers
        components with the discovery engine before composition.
        """
        self._ensure_node(host)
        missing = [
            s for s in composite.component_services()
            if not self.directory.knows(s)
        ]
        if missing:
            raise DeploymentError(
                f"cannot deploy composite {composite.name!r}: component "
                f"service(s) {sorted(missing)!r} are not deployed"
            )

        entry_points: Dict[str, Tuple[str, str]] = {}
        all_tables: Dict[str, Dict[str, RoutingTable]] = {}
        all_graphs: Dict[str, FlatGraph] = {}
        all_plans: Dict[str, CompiledRoutingPlan] = {}
        placed_tables: Dict[str, Dict[str, RoutingTable]] = {}
        event_targets: Dict[str, Dict[str, list]] = {}

        for operation in composite.operations():
            chart = composite.chart_for(operation)
            if validate_charts:
                validate(chart)
            graph = flatten(chart)
            tables = generate_routing_tables(graph)
            hosts = self.placement.place(graph, host, self.directory)
            placed = self._assign_hosts(tables, hosts)
            all_tables[operation] = placed
            all_graphs[operation] = graph
            # The plan is compiled once, over the *placed* tables, so the
            # dispatch structures carry the peers' final host locations.
            all_plans[operation] = compile_routing_plan(
                placed, composite.name, operation, self.registry
            )
            placed_tables[operation] = placed
            entry = graph.initial_node()
            entry_points[operation] = (
                entry.node_id, placed[entry.node_id].host
            )
            # Static event knowledge: which coordinators consume which
            # ECA events, so the wrapper fans signals out precisely.
            per_event: Dict[str, list] = {}
            for node_id, table in placed.items():
                for event in table.consumed_events():
                    per_event.setdefault(event, []).append(
                        (node_id, table.host)
                    )
            event_targets[operation] = per_event

        wrapper = CompositeWrapperRuntime(
            composite=composite.name,
            host=host,
            transport=self.transport,
            entry_points=entry_points,
            output_specs={
                op: composite.description.operation(op)
                for op in composite.operations()
            },
            default_timeout_ms=default_timeout_ms,
            event_targets=event_targets,
            kernel=self.kernel,
        )
        wrapper.start()
        deployment = CompositeDeployment(
            composite=composite,
            host=host,
            wrapper=wrapper,
            tables=all_tables,
            graphs=all_graphs,
            plans=all_plans,
        )

        wrapper_address = (host, wrapper.endpoint_name)
        for operation, tables in placed_tables.items():
            installed: Dict[str, Coordinator] = {}
            plan = all_plans[operation]
            for node_id, table in tables.items():
                self._ensure_node(table.host)
                coordinator = Coordinator(
                    table=table,
                    composite=composite.name,
                    operation=operation,
                    host=table.host,
                    transport=self.transport,
                    directory=self.directory,
                    wrapper_address=wrapper_address,
                    dispatch=plan.dispatch_for(node_id),
                    kernel=self.kernel,
                )
                coordinator.start()
                installed[node_id] = coordinator
            deployment.coordinators[operation] = installed

        self.directory.register(composite.name, host, wrapper.endpoint_name)
        dur = self.durability
        if dur is not None and not dur.suspended:
            dur.journal.record_composite(composite, host, {
                "default_timeout_ms": default_timeout_ms,
                "validate_charts": validate_charts,
            })
        return deployment

    @staticmethod
    def _assign_hosts(
        tables: "Dict[str, RoutingTable]", hosts: "Dict[str, str]"
    ) -> "Dict[str, RoutingTable]":
        """Fill the host of each table and of each postprocessing row.

        This is the "location" knowledge the paper says routing tables
        carry: each coordinator knows *where* its peers live, so no name
        resolution happens on the runtime path.
        """
        placed: Dict[str, RoutingTable] = {}
        for node_id, table in tables.items():
            rows = tuple(
                row.with_host(hosts[row.target_node])
                for row in table.postprocessing.rows
            )
            placed[node_id] = RoutingTable(
                node_id=table.node_id,
                kind=table.kind,
                precondition=table.precondition,
                postprocessing=Postprocessing(rows=rows),
                binding=table.binding,
                host=hosts[node_id],
            )
        return placed
