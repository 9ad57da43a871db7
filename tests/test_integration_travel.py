"""End-to-end integration tests of the paper's demo scenario (§4).

The four destination classes exercise every path through Figure 2's
statechart; the same assertions run against both the P2P runtime and the
centralised baseline, which must agree on outcomes.
"""

import pytest

from repro.baselines.central import deploy_central
from repro.demo.travel import build_travel_composite, deploy_travel_scenario
from tests.conftest import travel_args


class TestScenarioPaths:
    def test_domestic_near_no_car(self, travel):
        _platform, deployed, client = travel
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("sydney"))
        assert result.ok
        assert result.outputs["flight_ref"].startswith("DFB-")
        assert result.outputs["insurance_ref"] is None
        assert result.outputs["car_ref"] is None

    def test_domestic_far_needs_car(self, travel):
        _platform, deployed, client = travel
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("cairns"))
        assert result.ok
        assert result.outputs["flight_ref"].startswith("DFB-")
        assert result.outputs["car_ref"].startswith("CR-")

    def test_international_near_insured_no_car(self, travel):
        _platform, deployed, client = travel
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("paris"))
        assert result.ok
        assert result.outputs["flight_ref"].startswith("IFB-")
        assert result.outputs["insurance_ref"].startswith("TI-")
        assert result.outputs["car_ref"] is None

    def test_international_far_insured_with_car(self, travel):
        _platform, deployed, client = travel
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("tokyo"))
        assert result.ok
        assert result.outputs["flight_ref"].startswith("IFB-")
        assert result.outputs["insurance_ref"].startswith("TI-")
        assert result.outputs["car_ref"].startswith("CR-")

    def test_accommodation_booked_on_every_path(self, travel):
        _platform, deployed, client = travel
        for destination in ("sydney", "cairns", "paris", "tokyo"):
            result = client.execute(*deployed.address, "arrangeTrip",
                                    travel_args(destination))
            assert result.outputs["accommodation_ref"], destination
            assert result.outputs["accommodation"]["name"], destination

    def test_unknown_destination_faults_cleanly(self, travel):
        _platform, deployed, client = travel
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("atlantis"))
        assert result.status == "fault"
        assert "atlantis" in result.fault


class TestArchitectureAgreement:
    """P2P and central execution must produce identical business outcomes."""

    @pytest.mark.parametrize(
        "destination", ["sydney", "cairns", "paris", "tokyo"]
    )
    def test_same_outputs_both_architectures(self, travel, destination):
        platform, deployed, client = travel
        central = deploy_central(
            build_travel_composite("TravelCentral"), "central-host",
            platform.transport, platform.directory,
        )
        p2p_result = client.execute(*deployed.address, "arrangeTrip",
                                    travel_args(destination))
        central_result = client.execute(*central.address, "arrangeTrip",
                                        travel_args(destination))
        assert p2p_result.ok and central_result.ok
        # Deterministic components agree exactly.
        for key in ("flight_ref", "car_ref", "insurance_ref"):
            assert p2p_result.outputs[key] == central_result.outputs[key], (
                destination, key,
            )
        # Accommodation goes through the community, whose member pick is
        # history/load-dependent — only presence must agree.
        assert bool(p2p_result.outputs["accommodation_ref"]) == bool(
            central_result.outputs["accommodation_ref"]
        )


class TestCoordinationShape:
    def test_p2p_messages_flow_between_provider_hosts(self, travel):
        platform, deployed, client = travel
        platform.transport.stats.reset()
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("tokyo"))
        pairs = platform.transport.stats.by_pair
        # Direct peer notification: international flight host notifies the
        # insurance host without passing through the composite host.
        assert pairs[("host-globalwings", "host-suretravel")] >= 1

    def test_deployment_spans_provider_hosts(self, travel):
        _platform, deployed, _client = travel
        hosts = deployed.deployment.hosts_used()
        assert "host-ausair" in hosts
        assert "host-suretravel" in hosts
        assert len(hosts) >= 6

    def test_execution_record_tracks_status(self, travel):
        _platform, deployed, client = travel
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("sydney"))
        records = deployed.deployment.wrapper.records()
        assert len(records) == 1
        assert records[0].status == "success"
        assert records[0].duration_ms > 0


class TestCommunityInTheLoop:
    def test_community_delegates_and_records_history(self, travel):
        _platform, deployed, client = travel
        for _ in range(5):
            client.execute(*deployed.address, "arrangeTrip",
                           travel_args("sydney"))
        wrapper = deployed.community_wrapper
        assert wrapper.delegated >= 5
        snapshot = wrapper.history.snapshot()
        assert sum(s["successes"] for s in snapshot.values()) == 5

    def test_member_failure_fails_over(self, travel):
        platform, deployed, client = travel
        # Kill the two best members' hosts; community must fail over to
        # whatever remains.
        platform.transport.fail_node("host-globalstay")
        platform.transport.fail_node("host-sunlodge")
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("sydney"),
                                timeout_ms=600_000.0)
        assert result.ok
        assert deployed.community_wrapper.failovers >= 1

    def test_all_members_dead_faults(self, travel):
        platform, deployed, client = travel
        for host in ("host-globalstay", "host-sunlodge",
                     "host-budgetbeds"):
            platform.transport.fail_node(host)
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("sydney"),
                                timeout_ms=600_000.0)
        assert result.status == "fault"
        assert "AccommodationBooking" in result.fault


class TestRequestAwareDelegation:
    """BudgetBeds only serves domestic destinations (member constraint)."""

    def test_international_bookings_never_use_budgetbeds(self, travel):
        _platform, deployed, client = travel
        for _ in range(6):
            result = client.execute(*deployed.address, "arrangeTrip",
                                    travel_args("paris"))
            assert result.ok
            assert not result.outputs["accommodation_ref"].startswith(
                "BudgetBedsBooking"
            )

    def test_domestic_bookings_may_use_budgetbeds(self, travel):
        platform, deployed, client = travel
        # kill the other two members: domestic requests must fall through
        # to BudgetBeds, international ones must fault
        platform.transport.fail_node("host-sunlodge")
        platform.transport.fail_node("host-globalstay")
        domestic = client.execute(*deployed.address, "arrangeTrip",
                                  travel_args("sydney"),
                                  timeout_ms=600_000)
        assert domestic.ok
        assert domestic.outputs["accommodation_ref"].startswith(
            "BudgetBedsBooking"
        )
        international = client.execute(*deployed.address, "arrangeTrip",
                                       travel_args("paris"),
                                       timeout_ms=600_000)
        assert international.status == "fault"
