"""The fleet runtime's pump: in-shard determinism, pinned numbers, execution.

The contract under test: every shard is a deterministic single-shard
platform pumped serially on the calling thread, so one seed gives one
trace (and the committed ``BENCH_FLEET`` rows exactly), and the
platform/session routing layer executes composites correctly across
shards.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Platform, PlatformConfig
from repro.fleet import (
    FleetConfig,
    build_fleet_chains,
    run_fleet_open_loop,
)
from repro.sim.random_streams import RandomStreams
from repro.workload import PoissonArrivals

BENCH_FLEET_BASELINE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "baselines" / "BENCH_FLEET.json"
)


def open_loop_report(seed: int = 7, shards: int = 4):
    bench = build_fleet_chains(
        shards=shards, composites=8, tasks=3, seed=seed,
        processing_ms=1.0,
    )
    times = PoissonArrivals(rate_per_s=1200).times_ms(
        100.0, RandomStreams(seed).stream("arrivals")
    )
    return run_fleet_open_loop(bench, times)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        """Two runs with one seed agree on every sim number."""
        first = open_loop_report()
        second = open_loop_report()
        assert first.requests == second.requests
        assert first.completed == second.completed
        assert sorted(first.latencies_ms) == sorted(second.latencies_ms)
        assert first.makespan_ms == second.makespan_ms
        assert first.messages_by_shard == second.messages_by_shard
        assert first.requests_by_shard == second.requests_by_shard

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_bench_fleet_rows_match_the_baseline_exactly(self, shards):
        """The BENCH_FLEET configuration reproduces its committed rows.

        The ledger gate tolerates drift; this does not — every sim
        number of the baseline row must come back bit for bit.
        """
        ledger = json.loads(BENCH_FLEET_BASELINE.read_text())
        meta = ledger["meta"]
        expected = next(r for r in ledger["rows"] if r["shards"] == shards)
        bench = build_fleet_chains(
            shards=shards,
            composites=meta["composites"],
            tasks=meta["tasks"],
            seed=meta["seed"],
            processing_ms=meta["processing_ms"],
            service_latency_ms=meta["service_latency_ms"],
        )
        times = PoissonArrivals(rate_per_s=meta["rate_per_s"]).times_ms(
            meta["horizon_ms"],
            RandomStreams(meta["arrival_seed"]).stream("arrivals"),
        )
        row = run_fleet_open_loop(bench, times).row()
        for key in ("completed", "makespan_ms", "msgs_by_shard",
                    "p50_ms", "p99_ms"):
            assert row[key] == expected[key], (key, row[key], expected[key])

    def test_different_seeds_differ(self):
        """The determinism assertions above are not vacuous."""
        first = open_loop_report(seed=7)
        second = open_loop_report(seed=8)
        assert (sorted(first.latencies_ms) != sorted(second.latencies_ms)
                or first.messages_by_shard != second.messages_by_shard)


class TestFleetExecution:
    def test_threaded_smoke_across_shards(self):
        """Sessions execute composites on every shard through one API."""
        bench = build_fleet_chains(shards=4, composites=8, tasks=2,
                                   seed=3)
        platform = bench.platform
        session = platform.session("smoke", "smoke-host")
        handles = session.submit_many(
            (deployment, "run", {})
            for deployment in bench.deployments
        )
        results = session.gather(handles)
        assert len(results) == 8
        assert all(result.ok for result in results)
        # every shard carried at least one of the executions
        touched = {
            platform.fleet.directory.shard_of(d.composite.name)
            for d in bench.deployments
        }
        assert touched == {0, 1, 2, 3}

    def test_handle_result_waits_on_the_right_shard(self):
        bench = build_fleet_chains(shards=2, composites=2, tasks=2,
                                   seed=5)
        session = bench.platform.session("alice", "laptop")
        for deployment in bench.deployments:
            handle = session.submit(deployment, "run", {})
            result = handle.result()
            assert result.ok
            assert handle.client is session.route(deployment)

    def test_sessions_reuse_one_client_per_shard(self):
        bench = build_fleet_chains(shards=2, composites=4, tasks=2,
                                   seed=5)
        session = bench.platform.session("bob", "laptop")
        clients = {id(session.route(d)) for d in bench.deployments}
        assert len(clients) == 2  # 4 composites, 2 shards, 2 clients

    def test_wait_for_predicate_timeout(self):
        """An impossible predicate returns False instead of hanging."""
        platform = Platform(PlatformConfig(fleet=FleetConfig(shards=2)))
        assert platform.wait_for(lambda: False, timeout_ms=50.0) is False

    def test_scheduler_clock_is_max_of_shards(self):
        bench = build_fleet_chains(shards=2, composites=2, tasks=2,
                                   seed=5)
        fleet = bench.platform.fleet
        session = bench.platform.session("carol", "laptop")
        session.submit(bench.deployments[0], "run", {}).result()
        clocks = [s.now_ms() for s in fleet.shards.values()]
        assert fleet.now_ms() == max(clocks)
        # only the shard that ran anything has advanced
        assert min(clocks) == 0.0

    def test_submitted_ms_uses_the_target_shard_clock(self):
        """Shard clocks tick independently; durations must not skew."""
        bench = build_fleet_chains(shards=2, composites=2, tasks=2,
                                   seed=5)
        fleet = bench.platform.fleet
        session = bench.platform.session("eve", "laptop")
        target = bench.deployments[0]
        target_shard = fleet.directory.shard_of(target.composite.name)
        other = next(s for shard_id, s in fleet.shards.items()
                     if shard_id != target_shard)
        # Push the *other* shard's clock far ahead: the fleet-wide max
        # clock is now useless as a submission timestamp.
        other.transport.simulator.schedule(100_000.0, lambda: None)
        fleet.pump_all()
        result = session.submit(target, "run", {}).result()
        duration = result.finished_ms - result.started_ms
        assert 0.0 <= duration < 1_000.0, duration

    def test_pump_all_reports_progress(self):
        bench = build_fleet_chains(shards=2, composites=2, tasks=2,
                                   seed=5)
        fleet = bench.platform.fleet
        session = bench.platform.session("dave", "laptop")
        handle = session.submit(bench.deployments[0], "run", {})
        assert fleet.pump_all() > 0
        assert fleet.pump_all() == 0  # quiesced
        assert handle.done()


class TestSchedulerValidation:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            Platform(PlatformConfig(fleet=FleetConfig(shards=0)))
