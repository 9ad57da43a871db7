"""Service Discovery Engine tests: the Fig. 3 publish/search/execute flows."""

import pytest

from repro.exceptions import DiscoveryError
from repro.discovery.engine import (
    make_access_point,
    parse_access_point,
)
from repro.demo.travel import deploy_travel_scenario
from repro.runtime.protocol import wrapper_endpoint


@pytest.fixture
def published(platform):
    """Travel scenario deployed AND published (register_* flows)."""
    deployed = deploy_travel_scenario(platform.deployer)
    # deploy_travel_scenario bypasses the platform's publish step, so
    # publish through the engine here, as providers would.
    for service in deployed.scenario.all_services():
        platform.discovery.publish(service.description, category="travel")
    platform.discovery.publish(deployed.scenario.community.description,
                               category="travel")
    platform.discovery.publish(deployed.scenario.composite.description,
                               category="composite")
    return platform, deployed


class TestAccessPoints:
    def test_roundtrip(self):
        ap = make_access_point("host-1", wrapper_endpoint("S"))
        assert parse_access_point(ap) == ("host-1", wrapper_endpoint("S"))

    def test_bad_scheme_rejected(self):
        with pytest.raises(DiscoveryError, match="unsupported"):
            parse_access_point("http://h/e")

    def test_malformed_rejected(self):
        with pytest.raises(DiscoveryError, match="malformed"):
            parse_access_point("selfserv://only-node")


class TestPublish:
    def test_unknown_service_cannot_publish(self, platform):
        from repro.services.description import ServiceDescription

        with pytest.raises(DiscoveryError, match="must be deployed"):
            platform.discovery.publish(ServiceDescription("Ghost"))

    def test_publish_creates_uddi_and_wsdl(self, published):
        platform, deployed = published
        stats = platform.discovery.registry.statistics()
        # 8 elementary + community + composite = 10 services
        assert stats["services"] == 10
        assert stats["bindings"] == 10
        listing = platform.discovery.service_detail("DomesticFlightBooking")
        assert listing.provider == "AusAir"
        assert listing.operations == ["bookFlight"]
        assert listing.access_point.startswith("selfserv://")

    def test_provider_reused_across_publishes(self, platform):
        """Two services from one provider share one businessEntity."""
        from repro.services.description import (
            OperationSpec, ServiceDescription,
        )
        from repro.services.elementary import ElementaryService

        for name in ("S1", "S2"):
            desc = ServiceDescription(name, provider="OneCo")
            desc.add_operation(OperationSpec("op"))
            service = ElementaryService(desc)
            service.bind("op", lambda i: {})
            platform.register_elementary(service, "h1")
        assert platform.discovery.registry.statistics()["businesses"] == 1

    def test_unpublish(self, published):
        platform, _deployed = published
        platform.discovery.unpublish("CarRental")
        with pytest.raises(DiscoveryError, match="not published"):
            platform.discovery.service_detail("CarRental")

    def test_unpublish_unknown_raises(self, platform):
        with pytest.raises(DiscoveryError):
            platform.discovery.unpublish("Ghost")


class TestSearch:
    def test_search_by_provider(self, published):
        platform, _ = published
        result = platform.discovery.search(provider="AusAir")
        assert result.providers == ["AusAir"]
        assert [l.name for l in result.listings] == [
            "DomesticFlightBooking"
        ]

    def test_search_by_service_name_substring(self, published):
        platform, _ = published
        result = platform.discovery.search(service_name="flight")
        names = sorted(l.name for l in result.listings)
        assert names == ["DomesticFlightBooking",
                         "InternationalFlightBooking"]

    def test_search_by_operation(self, published):
        platform, _ = published
        result = platform.discovery.search(operation="bookAccommodation")
        names = sorted(l.name for l in result.listings)
        # the community plus its three members advertise the operation
        assert "AccommodationBooking" in names
        assert len(names) == 4

    def test_search_no_match(self, published):
        platform, _ = published
        result = platform.discovery.search(service_name="zzz")
        assert result.listings == []
        assert result.render() == "(no matches)"

    def test_browse_tree_renders(self, published):
        platform, _ = published
        result = platform.discovery.search(service_name="flight")
        rendered = result.render()
        assert "AusAir" in rendered
        assert "└─ DomesticFlightBooking" in rendered
        assert "· bookFlight" in rendered

    def test_result_find(self, published):
        platform, _ = published
        result = platform.discovery.search(service_name="flight")
        assert result.find("DomesticFlightBooking").provider == "AusAir"
        with pytest.raises(DiscoveryError):
            result.find("CarRental")

    def test_fetch_wsdl(self, published):
        platform, _ = published
        document = platform.discovery.fetch_wsdl("CarRental")
        assert document.service_name == "CarRental"
        assert document.has_operation("rentCar")


class TestExecuteFlow:
    def test_execute_composite_via_discovery(self, published):
        platform, deployed = published
        client = platform.session("enduser", "end-host").client
        result = platform.discovery.execute(
            client, "TravelArrangement", "arrangeTrip",
            {"customer": "Eve", "destination": "sydney",
             "departure_date": "d1", "return_date": "d2"},
        )
        assert result.ok
        assert result.outputs["flight_ref"].startswith("DFB")

    def test_execute_unadvertised_operation_rejected(self, published):
        platform, _ = published
        client = platform.session("enduser", "end-host").client
        with pytest.raises(DiscoveryError, match="does not advertise"):
            platform.discovery.execute(client, "CarRental", "fly", {})

    def test_execute_unpublished_service_fails(self, published):
        platform, _ = published
        platform.discovery.unpublish("CarRental")
        client = platform.session("enduser", "end-host").client
        with pytest.raises(DiscoveryError, match="not published"):
            platform.discovery.execute(client, "CarRental", "rentCar", {})

    def test_locate_and_execute_via_manager(self, published):
        platform, _ = published
        result = platform.session("alice", "alice-host").execute(
            "TravelArrangement", "arrangeTrip",
            {"customer": "Alice", "destination": "paris",
             "departure_date": "d1", "return_date": "d2"},
        )
        assert result.ok
        assert result.outputs["insurance_ref"]


class TestLocateErrorPaths:
    """locate() is the half of locate-and-execute that can go stale."""

    def test_locate_unknown_service_raises(self, platform):
        with pytest.raises(DiscoveryError, match="not published"):
            platform.discovery.locate("Ghost")

    def test_locate_service_without_binding_raises(self, platform):
        # A UDDI service record can exist without any binding template
        # (e.g. a provider registered the entry but never uploaded the
        # access point); locate must refuse it, not return a half-built
        # binding.
        soap = platform.discovery._soap
        business = soap.call("save_business", {"name": "HalfCo"})
        soap.call("save_service", {
            "businessKey": business["businessKey"],
            "name": "Bindingless",
        })
        listing = platform.discovery.service_detail("Bindingless")
        assert listing.access_point == ""
        with pytest.raises(DiscoveryError, match="no access point"):
            platform.discovery.locate("Bindingless")

    def test_locate_foreign_access_scheme_raises(self, platform):
        soap = platform.discovery._soap
        business = soap.call("save_business", {"name": "LegacyCo"})
        record = soap.call("save_service", {
            "businessKey": business["businessKey"],
            "name": "LegacySoap",
        })
        soap.call("save_binding", {
            "serviceKey": record["serviceKey"],
            "accessPoint": "http://legacy.example/soap",
        })
        with pytest.raises(DiscoveryError, match="unsupported"):
            platform.discovery.locate("LegacySoap")

    def test_locate_unadvertised_operation_rejected_at_submit(self, platform):
        from repro.demo.providers import make_car_rental

        platform.register_elementary(make_car_rental(), "h-cars")
        binding = platform.discovery.locate("CarRental")
        assert binding.operations == ("rentCar",)
        session = platform.session("u", "u-host")
        with pytest.raises(DiscoveryError, match="does not advertise"):
            session.submit(binding, "fly", {})

    def test_stale_binding_resolves_but_execution_times_out(self, platform):
        from repro.demo.providers import make_car_rental
        from repro.exceptions import ExecutionTimeoutError

        wrapper = platform.register_elementary(make_car_rental(), "h-cars")
        before = platform.discovery.locate("CarRental")
        # Provider crashes: the endpoint goes away, UDDI keeps the entry
        # (no liveness in the registry), so locate still resolves ...
        wrapper.stop()
        platform.transport.fail_node("h-cars")
        stale = platform.discovery.locate("CarRental")
        assert stale.access_point == before.access_point
        # ... and the staleness only surfaces as an execution timeout.
        client = platform.session("u2", "u2-host").client
        with pytest.raises(ExecutionTimeoutError):
            platform.discovery.execute(
                client, "CarRental", "rentCar",
                {"destination": "sydney", "days": 2},
                timeout_ms=200.0,
            )


class TestFlatCost:
    """What the engine asks of UDDI costs the same in any registry.

    Exact SOAP call and reply-byte counts of each engine call, compared
    between a registry of 50 services and one of 5 000 (UDDI keys are
    fixed width, so equal records encode to equal sizes).
    """

    SHARED_PROVIDER = "unknown-provider"  # publish()'s fallback owner

    @staticmethod
    def _costs(filler_services, one_provider):
        """{engine call: (SOAP calls, reply bytes)} on a filled registry."""
        from repro.api import Platform, PlatformConfig
        from repro.net.simnet import SimTransport
        from repro.services.description import (
            OperationSpec, ServiceDescription,
        )
        from repro.services.elementary import ElementaryService

        platform = Platform(PlatformConfig(trace=False),
                            transport=SimTransport())
        engine = platform.discovery
        registry = engine.registry
        shared = registry.save_business(TestFlatCost.SHARED_PROVIDER)
        for index in range(filler_services):
            owner = shared if one_provider else registry.save_business(
                f"Provider{index:05d}"
            )
            filler = registry.save_service(
                owner.business_key, f"Filler{index:05d}Svc"
            )
            registry.save_binding(
                filler.service_key, f"selfserv://filler/{index:05d}"
            )
        description = ServiceDescription(
            "Probe", provider="" if one_provider else "ProbeCo"
        )
        description.add_operation(OperationSpec("op"))
        service = ElementaryService(description)
        service.bind("op", lambda inputs: {})
        platform.deployer.deploy_elementary(service, "probe-host")

        soap = engine._soap
        costs = {}

        def measured(label, call):
            calls, received = soap.calls_made, soap.bytes_received
            result = call()
            costs[label] = (
                soap.calls_made - calls, soap.bytes_received - received
            )
            return result

        listing = measured("publish", lambda: engine.publish(description))
        measured("locate_miss", lambda: engine.locate("Probe"))
        detail = measured(
            "service_detail", lambda: engine.service_detail("Probe")
        )
        measured("unpublish", lambda: engine.unpublish("Probe"))
        assert engine.locate_cache.stats.misses == 1
        assert listing == detail
        return costs

    @pytest.mark.parametrize("one_provider", [False, True])
    def test_costs_equal_at_50_and_5000_services(self, one_provider):
        small = self._costs(50, one_provider)
        large = self._costs(5_000, one_provider)
        assert small == large
        # find, (save_business,) save_service, save_binding: the listing
        # is built from those replies, not read back.
        assert small["publish"][0] == (3 if one_provider else 4)
        assert small["locate_miss"][0] == 3
        assert small["service_detail"][0] == 3
        assert small["unpublish"][0] == 2
        assert all(received > 0 for _, received in small.values())

    def test_publish_returns_the_detail_view(self, published):
        platform, deployed = published
        engine = platform.discovery
        composite = deployed.scenario.composite.description
        engine.unpublish(composite.name)
        listing = engine.publish(composite, category="composite")
        assert listing.operations and listing.wsdl_url
        assert listing == engine.service_detail(composite.name)
