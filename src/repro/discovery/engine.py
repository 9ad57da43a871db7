"""The Service Discovery Engine: the Publish and Search panels of Fig. 3.

The engine is the user-facing facade over the UDDI registry (spoken to via
SOAP), the WSDL web, and the runtime.  It supports the three demo flows:

* **Publish** — create/deploy the WSDL description at a public URL, then
  register the provider, service and binding in the UDDI registry,
* **Search** — find services by provider, service name or operation, and
  browse provider -> services -> operations with detail views,
* **Execute** — resolve a found service's binding to its access point and
  run an operation through a :class:`~repro.runtime.RuntimeClient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import DiscoveryError, SoapFault
from repro.discovery.registry import EXACT_NAME_MATCH, UddiRegistry
from repro.discovery.soap import SoapClient
from repro.discovery.wsdl import (
    UrlResolver,
    WsdlDocument,
    wsdl_from_description,
)
from repro.net.transport import Transport
from repro.perf.cache import LocateCache
from repro.perf.config import PerfConfig
from repro.perf.events import PerfEventLog
from repro.runtime.client import RuntimeClient
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import (
    ExecutionResult,
    ResolvedBinding,
    wrapper_endpoint,
)
from repro.services.description import ServiceDescription

ACCESS_SCHEME = "selfserv://"

#: The engine knows the full name of what it publishes, details and
#: unpublishes, so it asks the registry for that name exactly: the reply
#: is then an index lookup and holds only the records asked for.
_EXACT = {"findQualifiers": [EXACT_NAME_MATCH]}


def make_access_point(node_id: str, endpoint: str) -> str:
    """Render a runtime address as a UDDI access-point URL."""
    return f"{ACCESS_SCHEME}{node_id}/{endpoint}"


def parse_access_point(access_point: str) -> "Tuple[str, str]":
    """Parse an access-point URL back into ``(node, endpoint)``."""
    if not access_point.startswith(ACCESS_SCHEME):
        raise DiscoveryError(
            f"unsupported access point {access_point!r} (expected "
            f"{ACCESS_SCHEME}node/endpoint)"
        )
    rest = access_point[len(ACCESS_SCHEME):]
    node, sep, endpoint = rest.partition("/")
    if not sep or not node or not endpoint:
        raise DiscoveryError(f"malformed access point {access_point!r}")
    return node, endpoint


@dataclass
class ServiceListing:
    """One service in a search result, with browsable detail."""

    service_key: str
    name: str
    provider: str
    description: str = ""
    category: str = ""
    access_point: str = ""
    wsdl_url: str = ""
    operations: List[str] = field(default_factory=list)


@dataclass
class SearchResult:
    """Providers with their services, as the Search panel displays them."""

    providers: List[str] = field(default_factory=list)
    listings: List[ServiceListing] = field(default_factory=list)

    def by_provider(self) -> "Dict[str, List[ServiceListing]]":
        tree: Dict[str, List[ServiceListing]] = {p: [] for p in self.providers}
        for listing in self.listings:
            tree.setdefault(listing.provider, []).append(listing)
        return tree

    def find(self, service_name: str) -> ServiceListing:
        for listing in self.listings:
            if listing.name == service_name:
                return listing
        raise DiscoveryError(
            f"service {service_name!r} is not in this search result"
        )

    def render(self) -> str:
        """ASCII rendering of the browse tree (the Search panel's list)."""
        lines: List[str] = []
        for provider, listings in sorted(self.by_provider().items()):
            lines.append(f"{provider}")
            for listing in listings:
                lines.append(f"  └─ {listing.name}")
                for op in listing.operations:
                    lines.append(f"      · {op}")
        return "\n".join(lines) if lines else "(no matches)"


def _listing(
    record: "Dict[str, Any]",
    provider: str,
    bindings: "List[Dict[str, Any]]",
    operations: "List[str]",
) -> ServiceListing:
    """A listing from UDDI records; the first binding is the one shown."""
    return ServiceListing(
        service_key=record["serviceKey"],
        name=record["name"],
        provider=provider,
        description=record.get("description", ""),
        category=record.get("category", ""),
        access_point=bindings[0]["accessPoint"] if bindings else "",
        wsdl_url=bindings[0]["wsdlUrl"] if bindings else "",
        operations=operations,
    )


class ServiceDiscoveryEngine:
    """Facade over UDDI + WSDL + runtime execution."""

    def __init__(
        self,
        transport: Transport,
        directory: ServiceDirectory,
        registry: Optional[UddiRegistry] = None,
        resolver: Optional[UrlResolver] = None,
        perf: Optional[PerfConfig] = None,
        perf_events: Optional[PerfEventLog] = None,
    ) -> None:
        self.transport = transport
        self.directory = directory
        self.registry = registry or UddiRegistry()
        self.resolver = resolver or UrlResolver()
        self._soap = SoapClient(self.registry.as_soap_server())
        self.perf = perf or PerfConfig()
        #: The ``locate()`` fast path: a TTL + generation-invalidated
        #: LRU cache of resolved bindings (``None`` when disabled via
        #: ``PerfConfig.locate_cache_size == 0``).
        self.locate_cache: Optional[LocateCache] = (
            LocateCache(
                size=self.perf.locate_cache_size,
                ttl_ms=self.perf.locate_cache_ttl_ms,
                now=transport.now_ms,
                events=perf_events,
            )
            if self.perf.locate_cache_size > 0 else None
        )
        #: Optional callback ``(description, category, contact)`` fired
        #: after a successful publish; the durability layer journals
        #: publishes through it so recovery can replay them.
        self.on_publish = None

    # Publish flow ----------------------------------------------------------

    def publish(
        self,
        description: ServiceDescription,
        category: str = "",
        contact: str = "",
    ) -> ServiceListing:
        """Publish a (deployed) service: WSDL first, then UDDI entries.

        The service's wrapper must already be in the runtime directory —
        publication advertises a reachable access point, it does not
        deploy anything.

        Costs one exact ``find_business`` plus one ``save_*`` per record
        written (three SOAP round trips for a known provider, four for a
        new one), whatever the registry holds.
        """
        if not self.directory.knows(description.name):
            raise DiscoveryError(
                f"service {description.name!r} must be deployed before it "
                f"is published"
            )
        node_id, endpoint = self.directory.resolve(description.name)
        access_point = make_access_point(node_id, endpoint)
        wsdl_url = f"http://{node_id}/wsdl/{description.name}.wsdl"
        document = wsdl_from_description(description, access_point)
        self.resolver.publish(wsdl_url, document)

        provider = description.provider or "unknown-provider"
        businesses = self._soap.call(
            "find_business", {"name": provider, **_EXACT}
        )["businesses"]
        if businesses:
            business_key = businesses[0]["businessKey"]
        else:
            created = self._soap.call("save_business", {
                "name": provider,
                "contact": contact,
            })
            business_key = created["businessKey"]

        service_record = self._soap.call("save_service", {
            "businessKey": business_key,
            "name": description.name,
            "description": description.description,
            "category": category,
        })
        binding_record = self._soap.call("save_binding", {
            "serviceKey": service_record["serviceKey"],
            "accessPoint": access_point,
            "wsdlUrl": wsdl_url,
        })
        # Everything a detail view would read back was just written.
        listing = _listing(
            service_record, provider, [binding_record],
            document.operation_names(),
        )
        if self.on_publish is not None:
            self.on_publish(description, category, contact)
        return listing

    def unpublish(self, service_name: str) -> None:
        """Remove a service's UDDI entries (keeps the WSDL page)."""
        services = self._soap.call(
            "find_service", {"name": service_name, **_EXACT}
        )["services"]
        if not services:
            raise DiscoveryError(
                f"service {service_name!r} is not published"
            )
        for record in services:
            self._soap.call("delete_service",
                            {"serviceKey": record["serviceKey"]})

    # Search flow --------------------------------------------------------------

    def search(
        self,
        provider: str = "",
        service_name: str = "",
        operation: str = "",
    ) -> SearchResult:
        """Search by provider, service name and/or operation (Fig. 3)."""
        if provider:
            businesses = self._soap.call(
                "find_business", {"name": provider}
            )["businesses"]
        else:
            businesses = self._soap.call(
                "find_business", {"name": ""}
            )["businesses"]

        result = SearchResult()
        for business in businesses:
            services = self._soap.call("get_businessDetail", {
                "businessKey": business["businessKey"],
            })["services"]
            matched: List[ServiceListing] = []
            for record in services:
                if (
                    service_name
                    and service_name.lower() not in record["name"].lower()
                ):
                    continue
                listing = self._listing_for(record, business["name"])
                if operation and not any(
                    operation.lower() in op.lower()
                    for op in listing.operations
                ):
                    continue
                matched.append(listing)
            if matched:
                result.providers.append(business["name"])
                result.listings.extend(matched)
        return result

    def service_detail(self, service_name: str) -> ServiceListing:
        """Detail view of one published service (right panel of Fig. 3).

        Three SOAP round trips whose replies hold this service's records
        only, whatever else the registry or its provider publishes.
        """
        services = self._soap.call(
            "find_service", {"name": service_name, **_EXACT}
        )["services"]
        if not services:
            raise DiscoveryError(f"service {service_name!r} is not published")
        record = services[0]
        business = self._soap.call("get_businessInfo", {
            "businessKey": record["businessKey"],
        })["business"]
        return self._listing_for(record, business["name"])

    def fetch_wsdl(self, service_name: str) -> WsdlDocument:
        """Retrieve the service's WSDL document via its published URL."""
        listing = self.service_detail(service_name)
        if not listing.wsdl_url:
            raise DiscoveryError(
                f"service {service_name!r} has no WSDL binding"
            )
        return self.resolver.fetch(listing.wsdl_url)

    def _listing_for(
        self, record: "Dict[str, Any]", provider: str
    ) -> ServiceListing:
        detail = self._soap.call("get_serviceDetail", {
            "serviceKey": record["serviceKey"],
        })
        bindings = detail["bindings"]
        wsdl_url = bindings[0]["wsdlUrl"] if bindings else ""
        operations: List[str] = []
        if wsdl_url and self.resolver.exists(wsdl_url):
            operations = self.resolver.fetch(wsdl_url).operation_names()
        return _listing(record, provider, bindings, operations)

    # Execute flow ------------------------------------------------------------------

    def invalidate_locates(
        self, service_name: Optional[str] = None, reason: str = ""
    ) -> None:
        """Flush ``locate()`` cache entries (one service, or all of them).

        Invalidation signals that pass through the registry or the
        directory are handled automatically by generation checks; this
        hook is for churn they cannot see — above all community
        membership changes, which re-point a community *name* at
        different behaviour without touching its published binding.
        """
        if self.locate_cache is not None:
            self.locate_cache.invalidate(service_name, reason=reason)

    def _generation_token(self) -> "Tuple[int, int]":
        """The invalidation token ``locate()`` cache entries live under."""
        return (self.registry.generation, self.directory.generation)

    def locate(self, service_name: str) -> ResolvedBinding:
        """Resolve a published service to a typed runtime binding.

        This is the "locate" half of locate-and-execute: the access point
        comes from the UDDI binding, so an unpublished service raises
        :class:`DiscoveryError` exactly as the Execute button would fail.
        The returned binding is what :meth:`repro.api.Session.submit`
        accepts as a target.

        Repeated locates are served from :attr:`locate_cache` (when
        enabled): a hit skips the SOAP/UDDI round trips entirely, and
        staleness is impossible in-process because every entry is
        checked against the registry and directory generations (plus an
        optional TTL) — see ``docs/PERF.md`` for the invalidation rules.
        """
        token = self._generation_token()
        if self.locate_cache is not None:
            cached = self.locate_cache.get(service_name, token)
            if cached is not None:
                return cached
        listing = self.service_detail(service_name)
        if not listing.access_point:
            raise DiscoveryError(
                f"service {service_name!r} has no access point binding"
            )
        node, endpoint = parse_access_point(listing.access_point)
        binding = ResolvedBinding(
            service=listing.name,
            node=node,
            endpoint=endpoint,
            operations=tuple(listing.operations),
            access_point=listing.access_point,
            wsdl_url=listing.wsdl_url,
        )
        if self.locate_cache is not None:
            # Filled under the token observed *before* the resolution:
            # a concurrent mutation between read and fill re-misses.
            self.locate_cache.put(service_name, binding, token)
        return binding

    def execute(
        self,
        client: RuntimeClient,
        service_name: str,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        timeout_ms: Optional[float] = 60_000.0,
    ) -> ExecutionResult:
        """Locate a published service and execute one of its operations.

        This is the Execute button: the access point comes from the UDDI
        binding (not from the runtime directory), so executing an
        unpublished service fails exactly as it would for a real end user.
        """
        binding = self.locate(service_name)
        if not binding.supports(operation):
            raise DiscoveryError(
                f"service {service_name!r} does not advertise operation "
                f"{operation!r}; advertised: {list(binding.operations)}"
            )
        return client.execute(binding.node, binding.endpoint, operation,
                              arguments, timeout_ms=timeout_ms)
