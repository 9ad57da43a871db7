"""Compiled routing plans: structure, deployer wiring, and pinned traffic.

Coordinators always run from the deploy-time compiled plan.  These tests
pin the structural contract of :func:`repro.perf.compile_routing_plan`
and the exact traffic and virtual time of the travel scenario on that
path.
"""

from __future__ import annotations

import pytest

from repro.api import Platform, PlatformConfig
from repro.demo.travel import deploy_travel_scenario
from repro.exceptions import RoutingError
from repro.perf import compile_routing_plan
from repro.routing.generation import generate_routing_tables
from repro.runtime.protocol import coordinator_endpoint
from repro.statecharts.builder import StatechartBuilder


def _branching_chart():
    """initial -> A -> (guarded split) -> B | C -> D -> final."""
    builder = StatechartBuilder("branchy")
    builder.initial()
    builder.task("A", service="svc", operation="op")
    builder.task("B", service="svc", operation="op")
    builder.task("C", service="svc", operation="op")
    builder.task("D", service="svc", operation="op")
    builder.final()
    builder.arc("initial", "A")
    builder.arc("A", "B", condition="x > 1")
    builder.arc("A", "C", condition="x <= 1")
    builder.arc("B", "D")
    builder.arc("C", "D")
    builder.arc("D", "final")
    return builder.build()


class TestCompileRoutingPlan:
    def _tables(self):
        return generate_routing_tables(_branching_chart())

    def test_plan_covers_every_coordinator(self):
        tables = self._tables()
        plan = compile_routing_plan(tables, "branchy", "op")
        assert set(plan.dispatches) == set(tables)

    def test_dispatch_partitions_rows(self):
        tables = self._tables()
        plan = compile_routing_plan(tables, "branchy", "op")
        for node_id, table in tables.items():
            dispatch = plan.dispatch_for(node_id)
            rows = set(table.postprocessing.rows)
            assert set(dispatch.immediate_rows) | set(dispatch.event_rows) \
                == rows
            assert not (set(dispatch.immediate_rows)
                        & set(dispatch.event_rows))

    def test_guarded_rows_compile_unguarded_rows_do_not(self):
        tables = self._tables()
        plan = compile_routing_plan(tables, "branchy", "op")
        a = next(
            plan.dispatch_for(n) for n, t in tables.items()
            if any(r.guard == "x > 1" for r in t.postprocessing.rows)
        )
        guards = list(a.guards.values())
        assert any(g is not None for g in guards)
        d_rows_sources = [
            plan.dispatch_for(n) for n, t in tables.items()
            if all(r.guard in ("", "true") for r in t.postprocessing.rows)
        ]
        assert all(
            g is None
            for dispatch in d_rows_sources
            for g in dispatch.guards.values()
        )

    def test_notify_targets_carry_rendered_endpoints(self):
        tables = self._tables()
        plan = compile_routing_plan(tables, "branchy", "op")
        for node_id, table in tables.items():
            dispatch = plan.dispatch_for(node_id)
            for row in table.postprocessing.rows:
                _, endpoint = dispatch.notify_targets[row.edge_id]
                assert endpoint == coordinator_endpoint("branchy", "op", row.target_node)

    def test_unknown_coordinator_raises(self):
        plan = compile_routing_plan(self._tables(), "branchy", "op")
        with pytest.raises(RoutingError):
            plan.dispatch_for("nope")

    def test_statistics_shape(self):
        plan = compile_routing_plan(self._tables(), "branchy", "op")
        stats = plan.statistics()
        assert stats["coordinators"] == len(plan.dispatches)
        assert stats["compiled_guards"] >= 2
        assert stats["interned_endpoints"] >= 1
        assert "compiled plan branchy.op" in plan.describe()


class TestDeployerIntegration:
    def test_deployment_stores_one_plan_per_operation(self):
        platform = Platform.simulated()
        deployed = deploy_travel_scenario(platform.deployer)
        deployment = deployed.deployment
        assert set(deployment.plans) == set(
            deployment.composite.operations()
        )
        for operation, plan in deployment.plans.items():
            assert set(plan.dispatches) == set(deployment.tables[operation])

    def test_travel_traffic_is_pinned(self):
        """Four trips: every message delivered, clock at a fixed time."""
        platform = Platform(PlatformConfig())
        deployed = deploy_travel_scenario(platform.deployer)
        session = platform.session("alice", "alice-laptop")
        results = session.gather(session.submit_many([
            (deployed.deployment, "arrangeTrip", {
                "customer": "Alice", "destination": destination,
                "departure_date": "2026-08-01",
                "return_date": "2026-08-08",
            })
            for destination in ("sydney", "cairns", "paris", "tokyo")
        ]))
        assert [r.status for r in results] == ["success"] * 4
        assert platform.transport.stats.sent_total == 114
        assert platform.transport.stats.delivered_total == 114
        assert platform.now_ms() == pytest.approx(243.0829143082856,
                                                  abs=1e-9)
