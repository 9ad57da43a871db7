"""FIG-3 — Locating and executing services.

Figure 3 shows the Search panel (search by provider / service name /
operation, browse, detail view) and the Execute flow.  The benchmark
measures the end-user search→resolve→execute path against the deployed
travel platform.
"""

import pytest

from repro import Platform, PlatformConfig, SimTransport
from repro.demo.travel import deploy_travel_scenario

from _utils import write_result


@pytest.fixture(scope="module")
def travel():
    transport = SimTransport()
    platform = Platform(PlatformConfig(trace=False), transport=transport)
    deployed = deploy_travel_scenario(platform.deployer)
    for service in deployed.scenario.all_services():
        platform.discovery.publish(service.description, category="travel")
    platform.discovery.publish(
        deployed.scenario.community.description, category="travel",
    )
    platform.discovery.publish(
        deployed.scenario.composite.description, category="composite",
    )
    client = platform.session("enduser", "end-host").client
    return platform, deployed, client


def test_bench_fig3_search(benchmark, travel):
    platform, _deployed, _client = travel

    def search_three_ways():
        by_name = platform.discovery.search(service_name="flight")
        by_provider = platform.discovery.search(provider="AusAir")
        by_operation = platform.discovery.search(
            operation="bookAccommodation"
        )
        return by_name, by_provider, by_operation

    by_name, by_provider, by_operation = benchmark(search_three_ways)
    assert len(by_name.listings) == 2
    assert [l.name for l in by_provider.listings] == [
        "DomesticFlightBooking"
    ]
    assert len(by_operation.listings) == 4  # community + 3 members


def test_bench_fig3_locate_and_execute(benchmark, travel):
    platform, _deployed, client = travel

    def locate_and_execute():
        return platform.discovery.execute(
            client, "TravelArrangement", "arrangeTrip",
            {"customer": "Bench", "destination": "sydney",
             "departure_date": "d1", "return_date": "d2"},
        )

    result = benchmark(locate_and_execute)
    assert result.ok
    assert result.outputs["flight_ref"].startswith("DFB-")

    listing = platform.discovery.service_detail("TravelArrangement")
    rows = [
        ("search('flight') matches", 2),
        ("search(provider='AusAir') matches", 1),
        ("search(operation='bookAccommodation') matches", 4),
        ("composite access point", listing.access_point),
        ("execution status", result.status),
        ("flight booked", result.outputs["flight_ref"]),
    ]
    write_result(
        "FIG-3", "locate-and-execute flow",
        ["step", "observed"], rows,
        notes="Paper: the end user searches UDDI by provider, service "
              "name or operation, then executes via the WSDL binding.",
    )
