"""Execution-tracer tests."""

import pytest

from repro.monitoring import ExecutionTracer
from repro.demo.travel import deploy_travel_scenario
from tests.conftest import travel_args


@pytest.fixture
def traced(platform):
    deployed = deploy_travel_scenario(platform.deployer)
    tracer = ExecutionTracer(platform.transport).attach()
    client = platform.session("tester", "tester-host").client
    return platform, deployed, tracer, client


class TestTracer:
    def test_timeline_reconstructed(self, traced):
        _platform, deployed, tracer, client = traced
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("sydney"))
        assert result.ok
        timelines = tracer.timelines()
        assert len(timelines) == 1
        timeline = timelines[0]
        assert timeline.outcome == "success"
        assert timeline.duration_ms > 0

    def test_services_invoked_match_the_path(self, traced):
        _platform, deployed, tracer, client = traced
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("tokyo"))
        invoked = tracer.timelines()[0].services_invoked()
        # tokyo: international flight + insurance + accommodation
        # (community then member) + attractions + car
        assert "bookFlight" in invoked
        assert "insure" in invoked
        assert invoked.count("bookAccommodation") == 2  # community + member
        assert "searchAttractions" in invoked
        assert "rentCar" in invoked

    def test_near_path_has_no_car(self, traced):
        _platform, deployed, tracer, client = traced
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("sydney"))
        invoked = tracer.timelines()[0].services_invoked()
        assert "rentCar" not in invoked
        assert "insure" not in invoked

    def test_states_fired_traces_the_path(self, traced):
        _platform, deployed, tracer, client = traced
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("cairns"))
        states = tracer.timelines()[0].states_fired()
        assert "trip/r0/DFB" in states
        assert "CR" in states
        assert "trip/r0/ITA/IFB" not in states

    def test_hosts_touched(self, traced):
        _platform, deployed, tracer, client = traced
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("paris"))
        hosts = tracer.timelines()[0].hosts_touched()
        assert "host-globalwings" in hosts
        assert "host-suretravel" in hosts

    def test_fault_outcome_traced(self, traced):
        _platform, deployed, tracer, client = traced
        result = client.execute(*deployed.address, "arrangeTrip",
                                travel_args("atlantis"))
        assert result.status == "fault"
        assert tracer.timelines()[0].outcome == "fault"

    def test_render_is_readable(self, traced):
        _platform, deployed, tracer, client = traced
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("sydney"))
        rendered = tracer.timelines()[0].render()
        assert "execution TravelArrangement:arrangeTrip:1" in rendered
        assert "notify" in rendered
        assert "+" in rendered

    def test_detach_stops_observation(self, traced):
        _platform, deployed, tracer, client = traced
        tracer.detach()
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("sydney"))
        assert tracer.timelines() == []

    def test_context_manager(self, platform):
        deployed = deploy_travel_scenario(platform.deployer)
        client = platform.session("tester", "tester-host").client
        with ExecutionTracer(platform.transport) as tracer:
            client.execute(*deployed.address, "arrangeTrip",
                           travel_args("sydney"))
            assert len(tracer.timelines()) == 1
        client.execute(*deployed.address, "arrangeTrip",
                       travel_args("sydney"))
        assert len(tracer.timelines()) == 1  # not observing any more

    def test_concurrent_executions_separated(self, traced):
        _platform, deployed, tracer, client = traced
        node, endpoint = deployed.address
        for destination in ("sydney", "paris", "cairns"):
            client.submit(node, endpoint, "arrangeTrip",
                          travel_args(destination))
        client.wait_all(3, timeout_ms=600_000)
        assert len(tracer.timelines()) == 3
        assert all(t.outcome == "success" for t in tracer.timelines())

    def test_tracing_does_not_change_outcomes(self, platform):
        """Passive observation: identical results with and without."""
        deployed = deploy_travel_scenario(platform.deployer)
        client = platform.session("tester", "tester-host").client
        bare = client.execute(*deployed.address, "arrangeTrip",
                              travel_args("tokyo"))
        with ExecutionTracer(platform.transport):
            traced = client.execute(*deployed.address, "arrangeTrip",
                                    travel_args("tokyo"))
        assert bare.outputs["flight_ref"] == traced.outputs["flight_ref"]
        assert bare.outputs["car_ref"] == traced.outputs["car_ref"]
