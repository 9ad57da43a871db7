"""Chaos smoke: kill a shard mid-composition, recover it, finish.

The fleet-mode acceptance scenario for ``repro.durability``: a
composition is cut down halfway by ``kill_shard`` (the shard's
directory and registry vanish from the fleet), ``recover_shard``
rebuilds the shard platform from its WAL, the session's handle is
migrated to the fresh shard, and the composition completes with every
provider effect applied exactly once.
"""

import pytest

from repro.api import PlatformConfig
from repro.api.platform import Platform
from repro.durability import DurabilityConfig
from repro.exceptions import DiscoveryError, DurabilityError
from repro.fleet.config import FleetConfig
from repro.scenarios.differential import scenario_composite
from repro.scenarios.generator import ScenarioParams, generate_scenario
from repro.workload.generator import make_chain_workload
from repro.workload.harness import composite_for_workload

COMPOSITE = "ChaosChain"


@pytest.fixture
def rig(tmp_path):
    calls = {}
    platform = Platform(PlatformConfig(
        seed=5,
        fleet=FleetConfig(shards=2),
        durability=DurabilityConfig(dir=str(tmp_path), fsync="always"),
    ))
    workload = make_chain_workload(tasks=3, seed=9,
                                   service_latency_ms=8.0)
    for index, service in enumerate(workload.services):
        original = service.handler_for("work")

        def counted(inputs, _original=original, _name=service.name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(inputs)

        service.bind("work", counted)
        # Affinity co-locates every component with the composite, so
        # one kill takes out the whole composition mid-flight.
        platform.fleet.deployer.deploy_elementary(
            service, f"svc-{index:02d}", affinity=COMPOSITE
        )
        platform.discovery.publish(service.description)
    composite = composite_for_workload(workload, name=COMPOSITE)
    deployment = platform.fleet.deployer.deploy_composite(
        composite, "chaos-host"
    )
    platform.discovery.publish(composite.description,
                               category="composite")
    return platform, deployment, calls


class TestKillRecover:
    def test_kill_mid_composition_then_recover_and_complete(self, rig):
        platform, deployment, calls = rig
        home = platform.fleet.directory.shard_of(COMPOSITE)
        session = platform.session("user", "laptop")
        handle = session.submit(deployment, "run", {})

        home_shard = platform.fleet.shards[home]
        home_shard.transport.simulator.run(until=home_shard.now_ms() + 20.0)
        assert not handle.done()
        assert calls  # partway through the chain

        lost = platform.fleet.kill_shard(home)
        assert lost == 0  # fsync="always" loses nothing
        assert not handle.done()

        report = platform.fleet.recover_shard(home)
        assert report.clean_tail
        assert report.missing_actors == 0

        assert platform.wait_for(handle.done, timeout_ms=60_000)
        assert handle.result().ok, handle.result().fault
        # Exactly-once provider effects across the kill: the stateful
        # handlers (journaled live objects) each ran exactly once.
        assert all(count == 1 for count in calls.values()), calls
        counters = {
            a.service.name: (a.completed, a.faulted)
            for a in platform.fleet.shards[home].kernel.actors()
            if type(a).__name__ == "ServiceWrapperRuntime"
        }
        assert all(c == (1, 0) for c in counters.values()), counters

    def test_recovered_shard_accepts_new_work(self, rig):
        platform, deployment, calls = rig
        home = platform.fleet.directory.shard_of(COMPOSITE)
        session = platform.session("user", "laptop")
        assert session.submit(deployment, "run", {}).result().ok
        platform.fleet.kill_shard(home)
        platform.fleet.recover_shard(home)
        handle = session.submit(deployment, "run", {})
        assert handle.result().ok
        assert all(count == 2 for count in calls.values()), calls

    def test_killed_shard_degrades_discovery_until_recovery(self, rig):
        platform, deployment, _ = rig
        home = platform.fleet.directory.shard_of(COMPOSITE)
        assert platform.locate(COMPOSITE)
        platform.fleet.kill_shard(home)
        with pytest.raises(DiscoveryError):
            platform.locate(COMPOSITE)
        platform.fleet.recover_shard(home)
        assert platform.locate(COMPOSITE)

    def test_kill_unknown_or_dead_shard_raises(self, rig):
        platform, _, _ = rig
        with pytest.raises(DurabilityError):
            platform.fleet.kill_shard(99)
        home = platform.fleet.directory.shard_of(COMPOSITE)
        platform.fleet.kill_shard(home)
        with pytest.raises(DurabilityError):
            platform.fleet.kill_shard(home)
        platform.fleet.recover_shard(home)
        with pytest.raises(DurabilityError):
            platform.fleet.recover_shard(home)  # already running

    def test_surviving_shard_keeps_serving_during_the_outage(self, rig):
        platform, deployment, _ = rig
        home = platform.fleet.directory.shard_of(COMPOSITE)
        other = next(s for s in platform.fleet.shards if s != home)
        # A second, independent chain homed on the surviving shard.
        workload = make_chain_workload(
            tasks=2, seed=31, service_latency_ms=5.0,
            service_prefix="Survivor",
        )
        for index, service in enumerate(workload.services):
            platform.fleet.deployer.deploy_elementary(
                service, f"sv-{index}", shard=other
            )
            platform.discovery.publish(service.description)
        survivor = composite_for_workload(workload, name="SurvivorChain")
        survivor_deployment = platform.fleet.deployer.deploy_composite(
            survivor, "sv-host", shard=other
        )
        platform.discovery.publish(survivor.description,
                                   category="composite")

        platform.fleet.kill_shard(home)
        session = platform.session("user", "laptop")
        handle = session.submit(survivor_deployment, "run", {})
        assert handle.result().ok
        platform.fleet.recover_shard(home)


# Durability under generated topologies --------------------------------------


def _chaos_scenario(seed):
    """A generated topology slow enough to be killed mid-flight."""
    return generate_scenario(seed, ScenarioParams(
        tasks_min=4, tasks_max=6,
        p_xor=0.25, p_and=0.25,
        community_rate=0.5,
        slow_rate=0.3,
        service_latency_ms=8.0,
        requests_min=2, requests_max=2,
    ))


def _run_fleet_counted(scenario, durability_dir=None, kill=False):
    """The scenario on a 2-shard fleet with counted provider handlers.

    With ``kill=True`` the composition's home shard is killed mid-run
    and recovered from its WAL before the handles are drained.  Returns
    ``(statuses, outputs, calls)`` for replay-equivalence comparison.
    """
    calls = {}
    platform = Platform(PlatformConfig(
        seed=7,
        fleet=FleetConfig(shards=2),
        durability=(
            DurabilityConfig(dir=str(durability_dir), fsync="always")
            if durability_dir is not None else None
        ),
    ))
    affinity = scenario.composite_name
    for slot in scenario.materialize():
        for service in slot.services:
            original = service.handler_for("work")

            def counted(inputs, _original=original, _name=service.name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(inputs)

            service.bind("work", counted)
            platform.fleet.deployer.deploy_elementary(
                service, f"{service.name}-host", affinity=affinity,
            )
        if slot.community is not None:
            platform.fleet.deployer.deploy_community(
                slot.community, f"{slot.spec.logical}-chost",
                policy=platform.config.default_selection_policy,
                timeout_ms=platform.config.community_timeout_ms,
                affinity=affinity,
            )
    deployment = platform.fleet.deployer.deploy_composite(
        scenario_composite(scenario), "chaos-host",
    )
    session = platform.session("user", "laptop")
    handles = [
        session.submit(deployment, "run", dict(request))
        for request in scenario.requests
    ]
    if kill:
        home = platform.fleet.directory.shard_of(affinity)
        home_shard = platform.fleet.shards[home]
        home_shard.transport.simulator.run(until=home_shard.now_ms() + 15.0)
        lost = platform.fleet.kill_shard(home)
        assert lost == 0  # fsync="always" loses nothing
        report = platform.fleet.recover_shard(home)
        assert report.clean_tail
    assert platform.wait_for(
        lambda: all(h.done() for h in handles), timeout_ms=60_000,
    )
    statuses = [h.result().status for h in handles]
    outputs = [dict(h.result().outputs) for h in handles]
    return statuses, outputs, calls


class TestGeneratedTopologyChaos:
    """Kill/recover mid-scenario over sampled generated seeds.

    Replay equivalence: a run that loses (and recovers) the
    composition's home shard must end with exactly the statuses,
    outputs and per-provider effect counts of an undisturbed twin —
    the WAL replay neither drops nor duplicates any provider effect,
    on topologies nobody hand-picked.
    """

    SEEDS = (3, 11, 27)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_recover_replays_equivalently(self, seed, tmp_path):
        scenario = _chaos_scenario(seed)
        plain = _run_fleet_counted(scenario)
        chaos = _run_fleet_counted(
            scenario, durability_dir=tmp_path, kill=True,
        )
        assert chaos[0] == plain[0]  # statuses
        assert chaos[1] == plain[1]  # outputs
        assert chaos[2] == plain[2]  # exactly-once provider effects
        assert all(s == "success" for s in chaos[0])

    def test_sampled_scenarios_are_nontrivial(self):
        """The sampled seeds must actually exercise communities."""
        assert any(
            _chaos_scenario(seed).community_count > 0
            for seed in self.SEEDS
        )
