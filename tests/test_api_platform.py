"""Platform facade tests: config, fluent registration, v1 call sites."""

import pytest

from repro import Platform, PlatformConfig
from repro.api.fluent import Composition, ProviderSite
from repro.demo.providers import make_attractions_search, make_car_rental
from repro.demo.travel import build_accommodation_community
from repro.deployment.placement import (
    AdjacentPlacement,
    CompositeHostPlacement,
)
from repro.exceptions import DiscoveryError, SelfServError
from repro.net.latency import FixedLatency
from repro.net.simnet import SimTransport
from repro.runtime.protocol import ResolvedBinding
from repro.selection.policies import RandomPolicy
from repro.services.description import ParameterType


@pytest.fixture
def platform():
    return Platform(PlatformConfig(
        latency=FixedLatency(remote_ms=5.0),
    ))


class TestPlatformConfig:
    def test_default_transport_is_simulated(self):
        assert isinstance(PlatformConfig().build_transport(), SimTransport)

    def test_transport_instance_passes_through(self):
        transport = SimTransport()
        assert PlatformConfig(transport=transport).build_transport() \
            is transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(SelfServError, match="unknown transport"):
            PlatformConfig(transport="carrier-pigeon").build_transport()
        with pytest.raises(SelfServError, match="unknown transport"):
            PlatformConfig(transport="inproc").build_transport()

    def test_placement_by_name(self):
        assert isinstance(
            PlatformConfig(placement="adjacent").build_placement(),
            AdjacentPlacement,
        )

    def test_placement_defaults_to_composite_host(self):
        assert isinstance(
            PlatformConfig().build_placement(), CompositeHostPlacement
        )

    def test_unknown_placement_rejected(self):
        with pytest.raises(SelfServError, match="unknown placement"):
            PlatformConfig(placement="everywhere").build_placement()

    def test_simulated_constructor_forwards_overrides(self):
        platform = Platform.simulated(seed=7, processing_ms=2.0)
        assert platform.transport.processing_ms == 2.0

    def test_simulated_constructor_rejects_other_transports(self):
        with pytest.raises(SelfServError, match="simulated transport"):
            Platform.simulated(transport="wire")

    def test_trace_disabled_leaves_no_observer(self):
        platform = Platform(PlatformConfig(trace=False))
        assert platform.tracer is None
        assert not platform.transport._observers


class TestFluentRegistration:
    def test_provider_chain_returns_site(self, platform):
        community, members = build_accommodation_community()
        site = platform.provider("h-all")
        chained = site.elementary(make_car_rental())
        for member in members:
            chained = chained.elementary(member)
        chained = chained.community(community)
        assert chained is site
        assert isinstance(site, ProviderSite)
        assert set(site.wrappers) == (
            {"CarRental", community.name} | {m.name for m in members}
        )

    def test_fluent_registration_publishes(self, platform):
        platform.provider("h-cars").elementary(make_car_rental())
        assert platform.directory.knows("CarRental")
        listing = platform.discovery.service_detail("CarRental")
        assert listing.provider == "RoadRunner"

    def test_register_without_publish(self, platform):
        platform.provider("h-cars").elementary(make_car_rental(),
                                               publish=False)
        assert platform.directory.knows("CarRental")
        with pytest.raises(DiscoveryError):
            platform.discovery.service_detail("CarRental")

    def test_community_policy_defaults_from_config(self):
        platform = Platform(PlatformConfig(
            default_selection_policy="random",
        ))
        community, members = build_accommodation_community()
        site = platform.provider("h-all")
        for member in members:
            site.elementary(member)
        site.community(community)
        wrapper = site.wrapper(community.name)
        assert isinstance(wrapper.policy, RandomPolicy)

    def test_locate_returns_typed_binding(self, platform):
        platform.provider("h-cars").elementary(make_car_rental())
        binding = platform.locate("CarRental")
        assert isinstance(binding, ResolvedBinding)
        assert binding.node == "h-cars"
        assert binding.address == (binding.node, binding.endpoint)
        assert binding.supports("rentCar")
        assert not binding.supports("flyToTheMoon")

    def test_locate_unpublished_raises(self, platform):
        with pytest.raises(DiscoveryError):
            platform.locate("Nowhere")


class TestCompositionFlow:
    def _compose_sight_trip(self, platform):
        platform.provider("h-sights").elementary(make_attractions_search())
        trip = platform.compose("SightTrip", provider="Tours")
        canvas = trip.operation(
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
        return trip

    def test_compose_draft_deploy_execute(self, platform):
        trip = self._compose_sight_trip(platform)
        assert isinstance(trip, Composition)
        errors, _warnings = trip.check()
        assert errors == []
        deployment = trip.deploy(host="h-tours")
        assert deployment.coordinator_count() == 3

        session = platform.session("u", "u-host")
        result = session.execute("SightTrip", "plan",
                                 {"destination": "paris"})
        assert result.ok
        assert result.outputs["major_attraction"]["name"] == (
            "Louvre Museum"
        )

    def test_deploy_accepts_composition_object(self, platform):
        trip = self._compose_sight_trip(platform)
        platform.deploy_composite(trip, "h-tours", publish=False)
        assert platform.directory.knows("SightTrip")

    def test_provider_site_deploys_composites_too(self, platform):
        trip = self._compose_sight_trip(platform)
        site = platform.provider("h-tours").composite(trip)
        assert site.deployment("SightTrip").host == "h-tours"


class TestSessions:
    def test_session_cached_by_name(self, platform):
        a = platform.session("alice", "h1")
        b = platform.session("alice", "h1")
        assert a is b
        assert a.client is b.client

    def test_session_host_mismatch_raises(self, platform):
        platform.session("alice", "h1")
        with pytest.raises(SelfServError, match="already exists on host"):
            platform.session("alice", "h2")

    def test_session_node_created_on_demand(self, platform):
        platform.session("carol", "brand-new-host")
        assert platform.transport.has_node("brand-new-host")


class TestManagerShimParity:
    """The v1 manager call sites, spelled on the Platform itself."""

    def test_shim_shares_platform_modules(self, platform):
        # One wiring: the deployer and discovery run on the platform's
        # own transport, directory and kernel.
        assert platform.deployer.transport is platform.transport
        assert platform.deployer.directory is platform.directory
        assert platform.deployer.kernel is platform.kernel
        assert platform.discovery.transport is platform.transport
        assert platform.discovery.directory is platform.directory

    def test_register_and_locate_and_execute(self, platform):
        platform.register_elementary(make_attractions_search(), "h-sights")
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
        platform.deploy_composite(draft, "h-tours")
        result = platform.session("u", "u-host").execute(
            "SightTrip", "plan", {"destination": "paris"},
        )
        assert result.ok
        assert result.outputs["major_attraction"]["name"] == (
            "Louvre Museum"
        )

    def test_client_is_platform_session_client(self, platform):
        client = platform.session("alice", "h1").client
        assert client.started
        assert client.kernel is platform.kernel
        assert client.transport is platform.transport

    def test_client_host_mismatch_raises(self, platform):
        platform.session("alice", "h1")
        with pytest.raises(SelfServError, match="already exists on host"):
            platform.session("alice", "h2")
