"""Provider, composer and client flows on the Platform's own
registration surface (``register_*``, editor drafts, session clients)."""

import pytest

from repro.demo.providers import make_attractions_search, make_car_rental
from repro.exceptions import DiscoveryError
from repro.services.description import ParameterType


class TestProviderFlows:
    def test_register_elementary_deploys_and_publishes(self, platform):
        platform.register_elementary(make_car_rental(), "h-cars")
        assert platform.directory.knows("CarRental")
        listing = platform.discovery.service_detail("CarRental")
        assert listing.provider == "RoadRunner"

    def test_register_without_publish(self, platform):
        platform.register_elementary(make_car_rental(), "h-cars",
                                     publish=False)
        assert platform.directory.knows("CarRental")
        with pytest.raises(DiscoveryError):
            platform.discovery.service_detail("CarRental")

    def test_register_community(self, platform):
        from repro.demo.travel import build_accommodation_community

        community, members = build_accommodation_community()
        for member in members:
            platform.register_elementary(member,
                                         f"h-{member.name.lower()}")
        platform.register_community(community, "h-alliance")
        listing = platform.discovery.service_detail("AccommodationBooking")
        assert listing.operations == ["bookAccommodation"]


class TestComposerFlow:
    def test_draft_deploy_execute(self, platform):
        platform.register_elementary(make_attractions_search(),
                                     "h-sights")
        draft = platform.editor.new_draft("SightTrip", provider="Tours")
        canvas = draft.operation(
            "plan",
            inputs=["destination"],
            outputs=[("major_attraction", ParameterType.RECORD)],
        )
        (canvas.initial()
               .task("AS", "AttractionsSearch", "searchAttractions",
                     inputs={"destination": "destination"},
                     outputs={"major_attraction": "major_attraction"})
               .final()
               .chain("initial", "AS", "final"))
        deployment = platform.deploy_composite(draft, "h-tours")
        result = platform.session("u", "u-host").execute(
            "SightTrip", "plan", {"destination": "paris"},
        )
        assert result.ok
        assert result.outputs["major_attraction"]["name"] == (
            "Louvre Museum"
        )
        assert deployment.coordinator_count() == 3

    def test_deploy_composite_without_publish(self, platform):
        platform.register_elementary(make_attractions_search(),
                                     "h-sights")
        draft = platform.editor.new_draft("Quiet", provider="Tours")
        canvas = draft.operation("plan", inputs=["destination"])
        (canvas.initial()
               .task("AS", "AttractionsSearch", "searchAttractions",
                     inputs={"destination": "destination"})
               .final()
               .chain("initial", "AS", "final"))
        platform.deploy_composite(draft, "h-tours", publish=False)
        assert platform.directory.knows("Quiet")
        with pytest.raises(DiscoveryError):
            platform.discovery.service_detail("Quiet")


class TestClients:
    def test_client_cached_by_name(self, platform):
        a = platform.session("alice", "h1").client
        b = platform.session("alice", "h1").client
        assert a is b

    def test_clients_distinct_by_name(self, platform):
        a = platform.session("alice", "h1").client
        b = platform.session("bob", "h1").client
        assert a is not b
        assert a.endpoint_name != b.endpoint_name

    def test_client_node_created_on_demand(self, platform):
        platform.session("carol", "brand-new-host")
        assert platform.transport.has_node("brand-new-host")
