"""Coordinator state lives only while an execution has work open there.

The invariant (see the :mod:`repro.runtime.coordinator` docstring): a
coordinator holds state for an execution only while one of its joins is
incomplete, an invocation is outstanding, a token is parked on an event
or a signal is unconsumed.  A successful execution therefore leaves
nothing behind — no clean-up message is sent — and a failed one leaves
at most the documented residue.
"""

import dataclasses

import pytest

from repro.api import Platform, PlatformConfig
from repro.demo.travel import (
    DEFAULT_MEMBERS,
    build_accommodation_community,
    build_travel_scenario,
    deploy_travel_scenario,
)
from repro.routing.tables import FiringMode
from repro.services.composite import CompositeService
from repro.services.description import (
    OperationSpec,
    ServiceDescription,
    simple_description,
)
from repro.services.elementary import ElementaryService
from repro.services.profile import ServiceProfile
from repro.statecharts.builder import StatechartBuilder

DESTINATIONS = ("sydney", "cairns", "paris", "tokyo")


def echo_service(name, outputs=("r",), latency_ms=5.0, fail=False):
    desc = simple_description(name, f"{name}-co", [("op", [], outputs)])
    service = ElementaryService(desc, ServiceProfile(
        latency_mean_ms=latency_ms,
    ))

    def handler(inputs):
        if fail:
            raise RuntimeError(f"{name} exploded")
        return {o: f"{name}-value" for o in outputs}

    service.bind("op", handler)
    return service


def deploy(env, chart, services):
    for index, service in enumerate(services):
        env.deployer.deploy_elementary(service, f"h{index}")
    composite = CompositeService(ServiceDescription("C"))
    composite.define_operation(OperationSpec("run"), chart)
    return env.deployer.deploy_composite(composite, "c-host")


def approval_chart():
    """quote -> (wait for 'approve' or 'reject') -> book/final."""
    return (
        StatechartBuilder("approval")
        .initial()
        .task("quote", "Quoter", "op", outputs={"quote_ref": "r"})
        .task("book", "Booker", "op", outputs={"booking_ref": "r"})
        .final()
        .chain("initial", "quote")
        .arc("quote", "book", event="approve")
        .arc("quote", "final", event="reject")
        .arc("book", "final")
        .build()
    )


def coordinators(deployment):
    return [
        coordinator
        for per_op in deployment.coordinators.values()
        for coordinator in per_op.values()
    ]


def live_state(deployment):
    """node id -> executions held, for every coordinator holding any."""
    return {
        c.table.node_id: c.executions_seen()
        for c in coordinators(deployment)
        if c.executions_seen()
    }


def reliable_travel_scenario():
    """The demo with every accommodation member at reliability 1.0, so
    every execution succeeds."""
    members = [
        (name, provider, multiplier, hotel,
         dataclasses.replace(profile, reliability=1.0), constraint)
        for name, provider, multiplier, hotel, profile, constraint
        in DEFAULT_MEMBERS
    ]
    community, services = build_accommodation_community(members)
    return dataclasses.replace(
        build_travel_scenario(),
        community=community, community_members=services,
    )


def region(node_id, service, output):
    return (
        StatechartBuilder(f"r-{node_id}")
        .initial()
        .task(node_id, service, "op", outputs={output: output[0]})
        .final()
        .chain("initial", node_id, "final")
        .build()
    )


def parallel_chart(loop=False):
    builder = (
        StatechartBuilder("c")
        .initial()
        .parallel("P", [region("s1", "SLOW", "slow_out"),
                        region("f1", "FAST", "fast_out")])
        .final()
    )
    if not loop:
        return builder.chain("initial", "P", "final").build()
    return (
        builder
        .arc("initial", "P", actions=[("n", "0")])
        .arc("P", "P", condition="n < 2", actions=[("n", "n + 1")])
        .arc("P", "final", condition="n >= 2")
        .build()
    )


def join_coordinator(deployment):
    (join,) = [
        c for c in coordinators(deployment)
        if c.table.precondition.mode is FiringMode.ALL
        and len(c.table.precondition.entries) > 1
    ]
    return join


class TestSuccessLeavesNothing:
    def test_thousand_travel_executions_leave_no_coordinator_state(self):
        platform = Platform(PlatformConfig(trace=False))
        deployed = deploy_travel_scenario(
            platform.deployer, reliable_travel_scenario()
        )
        deployment = deployed.deployment
        session = platform.session("tester", "tester-host")
        results = session.gather(session.submit_many([
            (deployment, "arrangeTrip", {
                "customer": f"c{index}",
                "destination": DESTINATIONS[index % 4],
                "departure_date": "2026-08-01",
                "return_date": "2026-08-08",
            })
            for index in range(1000)
        ]))
        platform.transport.run_until_idle()
        assert [r.status for r in results] == ["success"] * 1000
        assert deployment.wrapper.running_count() == 0
        assert len(coordinators(deployment)) >= 15
        assert live_state(deployment) == {}

    def test_parallel_join_frees_its_state_after_every_execution(self, env):
        deployment = deploy(env, parallel_chart(), [
            echo_service("SLOW", outputs=("s",), latency_ms=50.0),
            echo_service("FAST", outputs=("f",), latency_ms=5.0),
        ])
        join = join_coordinator(deployment)
        client = env.client()
        for _ in range(5):
            result = client.execute(*deployment.address, "run", {})
            assert result.ok
            assert result.outputs == {
                "slow_out": "SLOW-value", "fast_out": "FAST-value",
            }
            env.transport.run_until_idle()
            assert join.executions_seen() == 0
            assert live_state(deployment) == {}

    def test_retry_loop_keeps_outputs_and_invocation_counts(self, env):
        service = echo_service("A")
        chart = (
            StatechartBuilder("c")
            .initial()
            .task("a", "A", "op")
            .final()
            .arc("initial", "a", actions=[("n", "0")])
            .arc("a", "a", condition="n < 2", actions=[("n", "n + 1")])
            .arc("a", "final", condition="n >= 2")
            .build()
        )
        deployment = deploy(env, chart, [service])
        client = env.client()
        for runs in range(1, 4):
            result = client.execute(*deployment.address, "run", {})
            assert result.ok
            assert result.outputs == {"n": 2}
            assert service.invocation_count == 3 * runs
            env.transport.run_until_idle()
            assert live_state(deployment) == {}

    def test_join_inside_a_loop_refires_from_fresh_state(self, env):
        slow = echo_service("SLOW", outputs=("s",), latency_ms=50.0)
        fast = echo_service("FAST", outputs=("f",), latency_ms=5.0)
        deployment = deploy(env, parallel_chart(loop=True), [slow, fast])
        client = env.client()
        for runs in range(1, 3):
            result = client.execute(*deployment.address, "run", {})
            assert result.ok
            assert result.outputs == {
                "n": 2, "slow_out": "SLOW-value", "fast_out": "FAST-value",
            }
            assert slow.invocation_count == fast.invocation_count == 3 * runs
            env.transport.run_until_idle()
            assert live_state(deployment) == {}

    def test_consumed_event_leaves_no_parked_token(self, env):
        deployment = deploy(env, approval_chart(), [
            echo_service("Quoter"), echo_service("Booker"),
        ])
        client = env.client()
        node, endpoint = deployment.address
        execution_id = client.execution_id_for(
            client.submit(node, endpoint, "run", {})
        )
        env.transport.run_until_idle()
        # parked on 'approve'/'reject' at the quote coordinator
        assert live_state(deployment) == {"quote": 1}
        client.signal(node, endpoint, execution_id, "approve")
        env.transport.run_until_idle()
        assert client.results_received() == 1
        assert live_state(deployment) == {}


class TestFaultResidue:
    @pytest.mark.parametrize("faulty_first", [True, False])
    def test_faulted_branch_leaves_only_the_half_arrived_join(
        self, env, faulty_first
    ):
        """The documented residue: the join whose sibling faulted keeps
        its half-arrived edge set — one entry per failed execution, and
        nothing anywhere else."""
        ok_ms, bad_ms = (50.0, 5.0) if faulty_first else (5.0, 50.0)
        deployment = deploy(env, parallel_chart(), [
            echo_service("SLOW", outputs=("s",), latency_ms=ok_ms),
            echo_service("FAST", outputs=("f",), latency_ms=bad_ms,
                         fail=True),
        ])
        join = join_coordinator(deployment)
        client = env.client()
        for failed in range(1, 4):
            result = client.execute(*deployment.address, "run", {})
            assert result.status == "fault"
            env.transport.run_until_idle()
            assert live_state(deployment) == {join.table.node_id: failed}
        assert deployment.wrapper.running_count() == 0
