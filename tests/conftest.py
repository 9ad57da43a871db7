"""Shared fixtures: simulated environments, the deployed travel demo,
and the suite-wide process/thread leak check for the wire stack."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.api import Platform, PlatformConfig
from repro.net.latency import FixedLatency
from repro.net.simnet import SimTransport
from repro.demo.travel import deploy_travel_scenario
from repro.workload.harness import build_sim_environment

#: How long a test gets to finish reaping its own children before the
#: leak check calls them leaked.  Graceful shard shutdown joins with a
#: timeout, so anything still alive here was genuinely abandoned.
_LEAK_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def no_leaked_wire_resources():
    """Fail any test that abandons a child process or a wire event loop.

    The wire transport promises clean shutdown: ``WireTransport.stop()``
    joins its ``wire-loop`` thread — the only thread ``repro`` ever
    starts — and fleet teardown joins every shard process.  This
    fixture makes that promise suite-wide and executable — a leak
    anywhere (not just in the wire tests) fails the leaking test
    instead of hanging CI at interpreter exit.  Leaked children are
    killed after being recorded so one bad test cannot poison the rest
    of the run.
    """
    yield
    deadline = time.time() + _LEAK_GRACE_S
    leaked_children = multiprocessing.active_children()
    while leaked_children and time.time() < deadline:
        time.sleep(0.05)
        leaked_children = multiprocessing.active_children()
    leaked_pids = [(child.name, child.pid) for child in leaked_children]
    for child in leaked_children:
        child.terminate()
        child.join(timeout=2.0)
    leaked_loops = [
        thread.name for thread in threading.enumerate()
        if thread.name == "wire-loop" and thread.is_alive()
    ]
    assert not leaked_pids, (
        f"test leaked child processes: {leaked_pids}"
    )
    assert not leaked_loops, (
        f"test leaked wire event-loop threads: {leaked_loops}"
    )


@pytest.fixture
def env():
    """A fresh deterministic simulated environment."""
    return build_sim_environment(seed=7)


@pytest.fixture
def platform():
    """An untraced platform over a fresh simulated transport."""
    return Platform(
        PlatformConfig(trace=False),
        transport=SimTransport(latency=FixedLatency(remote_ms=5.0)),
    )


@pytest.fixture
def travel(platform):
    """The fully deployed travel scenario plus a ready client."""
    deployed = deploy_travel_scenario(platform.deployer)
    client = platform.session("tester", "tester-host").client
    return platform, deployed, client


TRAVEL_ARGS = {
    "customer": "Alice",
    "destination": "sydney",
    "departure_date": "2026-07-01",
    "return_date": "2026-07-10",
}


def travel_args(destination: str = "sydney") -> dict:
    args = dict(TRAVEL_ARGS)
    args["destination"] = destination
    return args
