"""UDDI registry tests (direct API and SOAP exposure)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    DuplicateRegistrationError,
    NotRegisteredError,
    SoapFault,
)
from repro.discovery.registry import UddiRegistry
from repro.discovery.soap import SoapClient


class TestPublishApi:
    def test_save_business(self):
        registry = UddiRegistry()
        entity = registry.save_business("AusAir", contact="ops@ausair")
        assert entity.business_key.startswith("uddi:business:")
        assert registry.get_business(entity.business_key).name == "AusAir"

    def test_duplicate_business_rejected(self):
        registry = UddiRegistry()
        registry.save_business("AusAir")
        with pytest.raises(DuplicateRegistrationError):
            registry.save_business("AusAir")

    def test_save_service_requires_business(self):
        registry = UddiRegistry()
        with pytest.raises(NotRegisteredError):
            registry.save_service("uddi:business:999999", "S")

    def test_duplicate_service_per_business_rejected(self):
        registry = UddiRegistry()
        b = registry.save_business("AusAir")
        registry.save_service(b.business_key, "Flights")
        with pytest.raises(DuplicateRegistrationError):
            registry.save_service(b.business_key, "Flights")

    def test_same_service_name_different_business_ok(self):
        registry = UddiRegistry()
        b1 = registry.save_business("A")
        b2 = registry.save_business("B")
        registry.save_service(b1.business_key, "Flights")
        registry.save_service(b2.business_key, "Flights")
        assert len(registry.find_services("Flights")) == 2

    def test_save_binding_requires_service(self):
        registry = UddiRegistry()
        with pytest.raises(NotRegisteredError):
            registry.save_binding("uddi:service:999999", "selfserv://h/e")

    def test_delete_service_removes_bindings(self):
        registry = UddiRegistry()
        b = registry.save_business("A")
        s = registry.save_service(b.business_key, "S")
        registry.save_binding(s.service_key, "selfserv://h/e")
        registry.delete_service(s.service_key)
        with pytest.raises(NotRegisteredError):
            registry.get_service(s.service_key)
        assert registry.statistics()["bindings"] == 0

    def test_save_tmodel(self):
        registry = UddiRegistry()
        tmodel = registry.save_tmodel("flight-booking-interface")
        assert tmodel.tmodel_key.startswith("uddi:tmodel:")


class TestInquiryApi:
    def populate(self):
        registry = UddiRegistry()
        ausair = registry.save_business("AusAir")
        globalw = registry.save_business("GlobalWings")
        registry.save_service(ausair.business_key, "DomesticFlights",
                              category="travel")
        registry.save_service(globalw.business_key,
                              "InternationalFlights", category="travel")
        registry.save_service(globalw.business_key, "CargoTracking",
                              category="logistics")
        return registry

    def test_find_business_substring_case_insensitive(self):
        registry = self.populate()
        assert [b.name for b in registry.find_businesses("aus")] == [
            "AusAir"
        ]

    def test_find_business_empty_pattern_matches_all(self):
        assert len(self.populate().find_businesses()) == 2

    def test_find_services_by_name(self):
        registry = self.populate()
        names = [s.name for s in registry.find_services("flights")]
        assert names == ["DomesticFlights", "InternationalFlights"]

    def test_find_services_by_category(self):
        registry = self.populate()
        names = [s.name
                 for s in registry.find_services(category="logistics")]
        assert names == ["CargoTracking"]

    def test_find_services_by_business(self):
        registry = self.populate()
        globalw = registry.find_business_by_name("GlobalWings")
        names = [s.name for s in registry.services_of(globalw.business_key)]
        assert names == ["CargoTracking", "InternationalFlights"]

    def test_statistics(self):
        stats = self.populate().statistics()
        assert stats == {"businesses": 2, "services": 3, "bindings": 0,
                         "tmodels": 0}


class TestSoapExposure:
    def client(self):
        return SoapClient(UddiRegistry().as_soap_server())

    def test_full_publish_flow_over_soap(self):
        client = self.client()
        business = client.call("save_business", {"name": "AusAir"})
        service = client.call("save_service", {
            "businessKey": business["businessKey"], "name": "Flights",
        })
        binding = client.call("save_binding", {
            "serviceKey": service["serviceKey"],
            "accessPoint": "selfserv://h/wrapper:Flights",
            "wsdlUrl": "http://h/f.wsdl",
        })
        detail = client.call("get_serviceDetail", {
            "serviceKey": service["serviceKey"],
        })
        assert detail["service"]["name"] == "Flights"
        assert detail["bindings"][0]["accessPoint"] == (
            "selfserv://h/wrapper:Flights"
        )
        assert binding["bindingKey"].startswith("uddi:binding:")

    def test_errors_become_client_faults(self):
        client = self.client()
        with pytest.raises(SoapFault) as err:
            client.call("get_serviceDetail",
                        {"serviceKey": "uddi:service:000000"})
        assert err.value.faultcode == "soapenv:Client"

    def test_find_business_over_soap(self):
        client = self.client()
        client.call("save_business", {"name": "AusAir"})
        found = client.call("find_business", {"name": "aus"})
        assert found["businesses"][0]["name"] == "AusAir"

    def test_delete_service_over_soap(self):
        client = self.client()
        business = client.call("save_business", {"name": "A"})
        service = client.call("save_service", {
            "businessKey": business["businessKey"], "name": "S",
        })
        client.call("delete_service",
                    {"serviceKey": service["serviceKey"]})
        found = client.call("find_service", {"name": "S"})
        assert found["services"] == []


# --- indexes against brute force -----------------------------------------

# Few names, some differing only in case, some containing others: the
# same name lands under two businesses, gets deleted and is saved again.
_NAMES = ["Flights", "flights", "Flight", "Cars", ""]
_CATEGORIES = ["", "travel", "logistics"]
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("save_business"), st.sampled_from(_NAMES)),
        st.tuples(
            st.just("save_service"), st.integers(0, 3),
            st.sampled_from(_NAMES), st.sampled_from(_CATEGORIES),
        ),
        st.tuples(st.just("save_binding"), st.integers(0, 7)),
        st.tuples(st.just("delete_service"), st.integers(0, 7)),
    ),
    max_size=30,
)


def _service_key(service):
    return service.service_key


def _pick(items, index):
    return items[index % len(items)] if items else None


def _assert_indexes_match_records(registry):
    """Every index equals what a scan of the stored records gives."""
    businesses = list(registry._businesses.values())
    services = list(registry._services.values())
    bindings = list(registry._bindings.values())
    assert registry._business_key_by_name == {
        b.name: b.business_key for b in businesses
    }
    by_name = {}
    for s in services:
        by_name.setdefault(s.name, {})[s.business_key] = s.service_key
    assert registry._service_keys_by_name == by_name
    assert registry._services_by_business == {
        b.business_key: {
            s.service_key for s in services
            if s.business_key == b.business_key
        }
        for b in businesses
    }
    by_category = {}
    for s in services:
        if s.category:
            by_category.setdefault(s.category, set()).add(s.service_key)
    assert registry._services_by_category == by_category
    assert registry._bindings_by_service == {
        s.service_key: [
            b.binding_key for b in bindings if b.service_key == s.service_key
        ]
        for s in services
    }
    for record in businesses + services:
        assert record.folded_name == record.name.lower()


def _assert_exact_is_filtered_substring(registry):
    business_keys = [""] + list(registry._businesses)
    for name in _NAMES + ["Absent"]:
        assert registry.find_businesses(name, exact=True) == [
            b for b in registry.find_businesses(name) if b.name == name
        ]
        for business_key in business_keys:
            for category in _CATEGORIES:
                exact = registry.find_services(
                    name, business_key, category, exact=True
                )
                scanned = [
                    s for s in registry.find_services(
                        name, business_key, category
                    )
                    if s.name == name
                ]
                # Equal names tie in the substring sort, so order among
                # them is only defined when the name is the sole criterion.
                assert sorted(exact, key=_service_key) == sorted(
                    scanned, key=_service_key
                )
                if not business_key and not category:
                    assert exact == scanned


class TestIndexConsistency:
    @settings(max_examples=150, deadline=None)
    @given(_operations)
    def test_indexes_equal_brute_force_after_every_step(self, operations):
        registry = UddiRegistry()
        for operation in operations:
            verb, args = operation[0], operation[1:]
            businesses = list(registry._businesses.values())
            services = list(registry._services.values())
            if verb == "save_business":
                (name,) = args
                known = any(b.name == name for b in businesses)
                try:
                    registry.save_business(name)
                except DuplicateRegistrationError:
                    assert known
                else:
                    assert not known
            elif verb == "save_service":
                business = _pick(businesses, args[0])
                if business is None:
                    continue
                duplicate = any(
                    s.business_key == business.business_key
                    and s.name == args[1]
                    for s in services
                )
                try:
                    registry.save_service(
                        business.business_key, args[1], category=args[2]
                    )
                except DuplicateRegistrationError:
                    assert duplicate
                else:
                    assert not duplicate
            elif services:
                service = _pick(services, args[0])
                if verb == "save_binding":
                    registry.save_binding(
                        service.service_key, "selfserv://h/e"
                    )
                else:
                    registry.delete_service(service.service_key)
            _assert_indexes_match_records(registry)
            _assert_exact_is_filtered_substring(registry)

    def test_exact_qualifier_over_soap(self):
        registry = UddiRegistry()
        client = SoapClient(registry.as_soap_server())
        for name in ("Air", "AirAsia"):
            business = client.call("save_business", {"name": name})
            client.call("save_service", {
                "businessKey": business["businessKey"], "name": name + "Svc",
            })
        exact = {"findQualifiers": ["exactNameMatch"]}

        def names(verb, field, payload):
            return [r["name"] for r in client.call(verb, payload)[field]]

        assert names("find_business", "businesses", {"name": "Air"}) == [
            "Air", "AirAsia",
        ]
        assert names(
            "find_business", "businesses", {"name": "Air", **exact}
        ) == ["Air"]
        assert names("find_business", "businesses",
                     {"name": "air", **exact}) == []
        assert names("find_service", "services", {"name": "AirSvc"}) == [
            "AirSvc",
        ]
        assert names("find_service", "services", {"name": "Svc"}) == [
            "AirAsiaSvc", "AirSvc",
        ]
        assert names(
            "find_service", "services", {"name": "Svc", **exact}
        ) == []
        assert names(
            "find_service", "services", {"name": "AirSvc", **exact}
        ) == ["AirSvc"]

    def test_business_info_is_the_record_without_the_catalogue(self):
        registry = UddiRegistry()
        client = SoapClient(registry.as_soap_server())
        business = client.call("save_business", {"name": "Co"})
        client.call("save_service", {
            "businessKey": business["businessKey"], "name": "S",
        })
        detail = client.call("get_businessDetail", business)
        assert client.call("get_businessInfo", business) == {
            "business": detail["business"],
        }
        with pytest.raises(SoapFault):
            client.call("get_businessInfo", {"businessKey": "uddi:none"})
