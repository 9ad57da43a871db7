"""The UDDI registry.

A faithful miniature of UDDI v2's data model — businessEntity,
businessService, bindingTemplate, tModel — with the inquiry and publish
API subset the demo uses: ``save_*``, ``find_business``, ``find_service``,
``get_serviceDetail``, ``delete_service``.  All calls are exposed through
a :class:`~repro.discovery.soap.SoapServer`, so every registration and
query round-trips through XML exactly as the paper describes.

``find_business`` and ``find_service`` match names as case-insensitive
substrings unless the request carries UDDI's
``findQualifiers: ["exactNameMatch"]``, which compares the stored name
for equality and is answered from the name indexes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.exceptions import (
    DuplicateRegistrationError,
    NotRegisteredError,
    SoapFault,
)
from repro.discovery.soap import SoapServer

#: The ``findQualifiers`` entry that turns name matching into equality.
EXACT_NAME_MATCH = "exactNameMatch"

_key_counter = itertools.count(1)


def _new_key(prefix: str) -> str:
    return f"uddi:{prefix}:{next(_key_counter):06d}"


@dataclass
class BusinessEntity:
    """A provider organisation."""

    business_key: str
    name: str
    description: str = ""
    contact: str = ""
    #: ``name`` case-folded once, for the substring inquiries.
    folded_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.folded_name = self.name.lower()

    def to_record(self) -> "Dict[str, Any]":
        return {
            "businessKey": self.business_key,
            "name": self.name,
            "description": self.description,
            "contact": self.contact,
        }


@dataclass
class BusinessService:
    """A service advertised by a provider."""

    service_key: str
    business_key: str
    name: str
    description: str = ""
    category: str = ""
    #: ``name`` case-folded once, for the substring inquiries.
    folded_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.folded_name = self.name.lower()

    def to_record(self) -> "Dict[str, Any]":
        return {
            "serviceKey": self.service_key,
            "businessKey": self.business_key,
            "name": self.name,
            "description": self.description,
            "category": self.category,
        }


@dataclass
class BindingTemplate:
    """Where and how a service is reached: access point + WSDL URL."""

    binding_key: str
    service_key: str
    access_point: str
    wsdl_url: str = ""

    def to_record(self) -> "Dict[str, Any]":
        return {
            "bindingKey": self.binding_key,
            "serviceKey": self.service_key,
            "accessPoint": self.access_point,
            "wsdlUrl": self.wsdl_url,
        }


@dataclass
class TModel:
    """A technical fingerprint (here: interface/category marker)."""

    tmodel_key: str
    name: str
    overview_url: str = ""

    def to_record(self) -> "Dict[str, Any]":
        return {
            "tModelKey": self.tmodel_key,
            "name": self.name,
            "overviewUrl": self.overview_url,
        }


def _exact_name_match(payload: "Mapping[str, Any]") -> bool:
    return EXACT_NAME_MATCH in (payload.get("findQualifiers") or ())


class UddiRegistry:
    """The registry proper: storage plus inquiry/publish operations.

    Inquiry is index-backed (``repro.perf``): inverted indexes over
    business name, service name, owning business and category are
    maintained on every publish/delete, so ``find_*`` calls touch only
    candidate entries instead of scanning the whole registry; only a
    substring match with no other criterion walks every record (see the
    query-shape table in ``docs/PERF.md``).  Every mutation bumps
    :attr:`generation`, the invalidation signal the discovery engine's
    ``locate()`` cache checks per lookup.
    """

    def __init__(self) -> None:
        self._businesses: Dict[str, BusinessEntity] = {}
        self._services: Dict[str, BusinessService] = {}
        self._bindings: Dict[str, BindingTemplate] = {}
        self._tmodels: Dict[str, TModel] = {}
        # Inverted indexes (maintained by the publish API).
        self._business_key_by_name: Dict[str, str] = {}
        #: service name -> owning business key -> service key.  A name
        #: is unique within a business, so one entry answers both the
        #: exact-name inquiry and the ``(business, name)`` duplicate
        #: check; the inner dict keeps publication order.
        self._service_keys_by_name: "Dict[str, Dict[str, str]]" = {}
        self._services_by_business: "Dict[str, Set[str]]" = {}
        self._services_by_category: "Dict[str, Set[str]]" = {}
        self._bindings_by_service: "Dict[str, List[str]]" = {}
        #: Monotonic mutation counter: bumped by every save/delete, so
        #: any cache keyed on registry state can invalidate exactly.
        self.generation = 0

    def _mutated(self) -> None:
        self.generation += 1

    # Publish API ------------------------------------------------------------

    def save_business(
        self, name: str, description: str = "", contact: str = ""
    ) -> BusinessEntity:
        """Register a provider; name must be unique (demo simplification)."""
        if self.find_business_by_name(name) is not None:
            raise DuplicateRegistrationError(
                f"business {name!r} is already registered"
            )
        entity = BusinessEntity(
            business_key=_new_key("business"),
            name=name,
            description=description,
            contact=contact,
        )
        self._businesses[entity.business_key] = entity
        self._business_key_by_name[name] = entity.business_key
        self._services_by_business[entity.business_key] = set()
        self._mutated()
        return entity

    def save_service(
        self,
        business_key: str,
        name: str,
        description: str = "",
        category: str = "",
    ) -> BusinessService:
        if business_key not in self._businesses:
            raise NotRegisteredError(f"unknown business {business_key!r}")
        if business_key in self._service_keys_by_name.get(name, ()):
            raise DuplicateRegistrationError(
                f"business {business_key!r} already advertises a service "
                f"named {name!r}"
            )
        service = BusinessService(
            service_key=_new_key("service"),
            business_key=business_key,
            name=name,
            description=description,
            category=category,
        )
        self._services[service.service_key] = service
        self._service_keys_by_name.setdefault(name, {})[business_key] = (
            service.service_key
        )
        self._services_by_business[business_key].add(service.service_key)
        if category:
            self._services_by_category.setdefault(category, set()).add(
                service.service_key
            )
        self._bindings_by_service[service.service_key] = []
        self._mutated()
        return service

    def save_binding(
        self, service_key: str, access_point: str, wsdl_url: str = ""
    ) -> BindingTemplate:
        if service_key not in self._services:
            raise NotRegisteredError(f"unknown service {service_key!r}")
        binding = BindingTemplate(
            binding_key=_new_key("binding"),
            service_key=service_key,
            access_point=access_point,
            wsdl_url=wsdl_url,
        )
        self._bindings[binding.binding_key] = binding
        self._bindings_by_service.setdefault(service_key, []).append(
            binding.binding_key
        )
        self._mutated()
        return binding

    def save_tmodel(self, name: str, overview_url: str = "") -> TModel:
        tmodel = TModel(
            tmodel_key=_new_key("tmodel"),
            name=name,
            overview_url=overview_url,
        )
        self._tmodels[tmodel.tmodel_key] = tmodel
        self._mutated()
        return tmodel

    def delete_service(self, service_key: str) -> None:
        service = self._services.get(service_key)
        if service is None:
            raise NotRegisteredError(f"unknown service {service_key!r}")
        del self._services[service_key]
        owners = self._service_keys_by_name[service.name]
        del owners[service.business_key]
        if not owners:
            del self._service_keys_by_name[service.name]
        self._services_by_business.get(service.business_key, set()).discard(
            service_key
        )
        if service.category:
            by_category = self._services_by_category.get(service.category)
            if by_category is not None:
                by_category.discard(service_key)
                if not by_category:
                    del self._services_by_category[service.category]
        for binding_key in self._bindings_by_service.pop(service_key, []):
            del self._bindings[binding_key]
        self._mutated()

    # Inquiry API -----------------------------------------------------------------

    def find_business_by_name(self, name: str) -> Optional[BusinessEntity]:
        key = self._business_key_by_name.get(name)
        return self._businesses[key] if key is not None else None

    def find_businesses(
        self, name_pattern: str = "", exact: bool = False
    ) -> "List[BusinessEntity]":
        """Case-insensitive substring match, empty pattern matches all.

        With ``exact`` the name is compared for equality instead and the
        answer comes from the name index.
        """
        if exact:
            entity = self.find_business_by_name(name_pattern)
            return [entity] if entity is not None else []
        pattern = name_pattern.lower()
        return sorted(
            (
                e for e in self._businesses.values()
                if pattern in e.folded_name
            ),
            key=lambda e: e.name,
        )

    def find_services(
        self,
        name_pattern: str = "",
        business_key: str = "",
        category: str = "",
        exact: bool = False,
    ) -> "List[BusinessService]":
        """Find services, narrowing through the smallest inverted index.

        ``business_key`` and ``category`` are exact attributes with
        indexes; ``name_pattern`` is a substring match applied to the
        candidates (only a full scan when it is the sole criterion).
        With ``exact`` the name is compared for equality instead: the
        candidates come from the name index, whatever the registry holds.
        """
        if exact:
            owners = self._service_keys_by_name.get(name_pattern, {})
            if not business_key:
                keys = list(owners.values())
            elif business_key in owners:
                keys = [owners[business_key]]
            else:
                keys = []
            found = [self._services[key] for key in keys]
            return [
                service for service in found
                if not category or service.category == category
            ]
        candidates: "Optional[Set[str]]" = None
        if business_key:
            candidates = self._services_by_business.get(business_key, set())
        if category:
            by_category = self._services_by_category.get(category, set())
            candidates = (
                by_category if candidates is None
                else candidates & by_category
            )
        pool = (
            self._services.values() if candidates is None
            else (self._services[key] for key in candidates)
        )
        pattern = name_pattern.lower()
        found = [
            service for service in pool
            if not pattern or pattern in service.folded_name
        ]
        return sorted(found, key=lambda s: s.name)

    def get_business(self, business_key: str) -> BusinessEntity:
        entity = self._businesses.get(business_key)
        if entity is None:
            raise NotRegisteredError(f"unknown business {business_key!r}")
        return entity

    def get_service(self, service_key: str) -> BusinessService:
        service = self._services.get(service_key)
        if service is None:
            raise NotRegisteredError(f"unknown service {service_key!r}")
        return service

    def bindings_of(self, service_key: str) -> "List[BindingTemplate]":
        self.get_service(service_key)
        return sorted(
            (
                self._bindings[key]
                for key in self._bindings_by_service.get(service_key, ())
            ),
            key=lambda b: b.binding_key,
        )

    def services_of(self, business_key: str) -> "List[BusinessService]":
        self.get_business(business_key)
        return self.find_services(business_key=business_key)

    def statistics(self) -> "Dict[str, int]":
        return {
            "businesses": len(self._businesses),
            "services": len(self._services),
            "bindings": len(self._bindings),
            "tmodels": len(self._tmodels),
        }

    # SOAP exposure ---------------------------------------------------------------

    def as_soap_server(self) -> SoapServer:
        """Expose the registry API over SOAP (the UDDI 'wire')."""
        server = SoapServer("uddi-registry")

        def guard(func):
            def handler(payload: "Dict[str, Any]") -> "Dict[str, Any]":
                try:
                    return func(payload)
                except (NotRegisteredError,
                        DuplicateRegistrationError) as exc:
                    raise SoapFault("soapenv:Client", str(exc)) from exc
            return handler

        server.expose("save_business", guard(lambda p: self.save_business(
            p["name"], p.get("description", ""), p.get("contact", ""),
        ).to_record()))
        server.expose("save_service", guard(lambda p: self.save_service(
            p["businessKey"], p["name"], p.get("description", ""),
            p.get("category", ""),
        ).to_record()))
        server.expose("save_binding", guard(lambda p: self.save_binding(
            p["serviceKey"], p["accessPoint"], p.get("wsdlUrl", ""),
        ).to_record()))
        server.expose("save_tModel", guard(lambda p: self.save_tmodel(
            p["name"], p.get("overviewUrl", ""),
        ).to_record()))
        server.expose("delete_service", guard(
            lambda p: (self.delete_service(p["serviceKey"]), {})[1]
        ))
        server.expose("find_business", guard(lambda p: {
            "businesses": [
                e.to_record()
                for e in self.find_businesses(
                    p.get("name", ""), exact=_exact_name_match(p),
                )
            ],
        }))
        server.expose("find_service", guard(lambda p: {
            "services": [
                s.to_record()
                for s in self.find_services(
                    p.get("name", ""), p.get("businessKey", ""),
                    p.get("category", ""), exact=_exact_name_match(p),
                )
            ],
        }))
        server.expose("get_serviceDetail", guard(lambda p: {
            "service": self.get_service(p["serviceKey"]).to_record(),
            "bindings": [
                b.to_record() for b in self.bindings_of(p["serviceKey"])
            ],
        }))
        # The business record alone: unlike get_businessDetail, the reply
        # does not carry (or grow with) the provider's catalogue.
        server.expose("get_businessInfo", guard(lambda p: {
            "business": self.get_business(p["businessKey"]).to_record(),
        }))
        server.expose("get_businessDetail", guard(lambda p: {
            "business": self.get_business(p["businessKey"]).to_record(),
            "services": [
                s.to_record() for s in self.services_of(p["businessKey"])
            ],
        }))
        return server
