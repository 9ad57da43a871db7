"""DEMO-E2E — the travel scenario's four control-flow paths, measured.

Section 4's demo semantics: domestic/international flight choice,
parallel attractions search, conditional car rental.  For each
destination class we measure end-to-end latency and message counts on
both architectures.  Expected shape: the international paths cost more
(extra ITA step + insurance), the far paths add the car-rental step,
and P2P completes with fewer cross-host messages concentrated on any
one host.
"""

import pytest

from repro import Platform, PlatformConfig, SimTransport
from repro.baselines.central import deploy_central
from repro.demo.travel import build_travel_composite, deploy_travel_scenario

from _utils import write_result

DESTINATIONS = ("sydney", "cairns", "paris", "tokyo")


def args_for(destination):
    return {"customer": "Bench", "destination": destination,
            "departure_date": "2026-07-01", "return_date": "2026-07-10"}


@pytest.fixture(scope="module")
def travel():
    transport = SimTransport()
    platform = Platform(PlatformConfig(trace=False), transport=transport)
    deployed = deploy_travel_scenario(platform.deployer)
    central = deploy_central(
        build_travel_composite("TravelCentral"), "central-host",
        transport, platform.directory,
    )
    client = platform.session("bench", "bench-host").client
    return platform, deployed, central, client


def test_bench_demo_scenario_paths(benchmark, travel):
    platform, deployed, central, client = travel
    rows = []
    measured = {}
    for destination in DESTINATIONS:
        platform.transport.stats.reset()
        result = client.execute(*deployed.address, "arrangeTrip",
                                args_for(destination))
        assert result.ok, destination
        p2p_msgs = platform.transport.stats.sent_total
        p2p_remote = platform.transport.stats.remote_total
        record = deployed.deployment.wrapper.records()[-1]

        platform.transport.stats.reset()
        central_result = client.execute(*central.address, "arrangeTrip",
                                        args_for(destination))
        assert central_result.ok, destination
        central_msgs = platform.transport.stats.sent_total
        central_record = central.orchestrator.records()[-1]

        measured[destination] = {
            "p2p_ms": record.duration_ms,
            "central_ms": (central_record.finished_ms
                           - central_record.started_ms),
            "p2p_remote": p2p_remote,
        }
        rows.append((
            destination,
            "yes" if result.outputs.get("insurance_ref") else "no",
            "yes" if result.outputs.get("car_ref") else "no",
            round(record.duration_ms, 1),
            round(measured[destination]["central_ms"], 1),
            p2p_msgs,
            central_msgs,
        ))

    # Shape: international adds the insurance step => slower than the
    # corresponding domestic path; far adds the car step => slower than
    # the near path of the same class.
    assert measured["paris"]["p2p_ms"] > measured["sydney"]["p2p_ms"]
    assert measured["cairns"]["p2p_ms"] > measured["sydney"]["p2p_ms"]
    assert measured["tokyo"]["p2p_ms"] > measured["paris"]["p2p_ms"]

    write_result(
        "DEMO-E2E", "travel scenario paths, P2P vs central",
        ["destination", "insured", "car", "p2p latency (ms)",
         "central latency (ms)", "p2p msgs", "central msgs"],
        rows,
        notes="Shape: tokyo (international+far) > paris "
              "(international) > sydney (domestic+near); cairns adds "
              "the car step to the domestic path.  Both architectures "
              "agree on which services run.",
    )

    benchmark(
        client.execute, *deployed.address, "arrangeTrip",
        args_for("tokyo"),
    )


def test_bench_demo_scenario_throughput(benchmark, travel):
    """Sustained bookings through the platform (mixed destinations)."""
    _platform, deployed, _central, client = travel
    node, endpoint = deployed.address

    def burst_of_bookings():
        before = client.results_received()
        for index in range(8):
            destination = DESTINATIONS[index % len(DESTINATIONS)]
            client.submit(node, endpoint, "arrangeTrip",
                          args_for(destination))
        client.transport.wait_for(
            lambda: client.results_received() >= before + 8,
            timeout_ms=None,
        )
        return client.take_results()

    results = benchmark(burst_of_bookings)
    assert all(r.ok for r in results.values())
