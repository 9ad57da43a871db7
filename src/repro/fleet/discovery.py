"""Fleet discovery: shard-local UDDI registries behind the engine API.

Every shard runs its own full :class:`~repro.discovery.engine.\
ServiceDiscoveryEngine` (UDDI registry + WSDL resolver + SOAP), so the
publish/search/locate machinery is exactly the single-platform code —
sharded, not reimplemented.  Two classes sit on top:

* :class:`FleetRegistry` — the control-plane view over the live shards'
  :class:`~repro.discovery.registry.UddiRegistry` instances: a combined
  generation counter for cache tokens.
* :class:`FleetDiscovery` — the engine-shaped facade the platform
  exposes.  ``publish`` routes to the shard that actually hosts the
  service; ``search`` fans out and merges; ``locate`` tries the
  consistent-hash home shard first and falls back to a cross-shard
  fan-out, with one fleet-level
  :class:`~repro.perf.cache.LocateCache` (generation + TTL
  invalidated) layered over all shards so repeated locates — including
  fan-out resolutions — are O(1).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, TYPE_CHECKING

from repro.discovery.engine import SearchResult, ServiceListing
from repro.exceptions import DiscoveryError
from repro.perf.cache import LocateCache
from repro.runtime.protocol import ResolvedBinding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.platform import Platform
    from repro.fleet.runtime import FleetRuntime


class FleetRegistry:
    """Control-plane view over the live shards' UDDI registries."""

    def __init__(self, shards: "Mapping[int, Platform]") -> None:
        self._shards = shards

    @property
    def generation(self) -> int:
        """Fleet-wide publish/unpublish counter (sum over live shards)."""
        return sum(
            s.discovery.registry.generation for s in self._shards.values()
        )

    def __len__(self) -> int:
        return len(self._shards)


class FleetDiscovery:
    """The discovery-engine surface of a sharded platform."""

    def __init__(self, fleet: "FleetRuntime") -> None:
        self.fleet = fleet
        self.registry = FleetRegistry(fleet.shards)
        perf = fleet.platform_config.perf
        #: The fleet-level locate cache (``None`` when disabled).  The
        #: per-shard engine caches are disabled, so this is the only
        #: cache layer — one entry per service fleet-wide, invalidated
        #: by *any* shard's registry/directory generation bump.
        self.locate_cache: Optional[LocateCache] = (
            LocateCache(
                size=perf.locate_cache_size,
                ttl_ms=perf.locate_cache_ttl_ms,
                now=fleet.now_ms,
                events=fleet.perf_events,
            )
            if perf.locate_cache_size > 0 else None
        )

    # Shard routing ----------------------------------------------------------

    def _engine_for(self, service_name: str):
        """The engine of the shard hosting ``service_name`` (deployed)."""
        shard_id = self.fleet.directory.shard_of(service_name)
        return self.fleet.shards[shard_id].discovery

    # Publish flow -----------------------------------------------------------

    def publish(
        self,
        description,
        category: str = "",
        contact: str = "",
    ) -> ServiceListing:
        """Publish on the shard that hosts the deployed service.

        The shard's own engine enforces the deployed-before-published
        rule against its shard-local directory, exactly as on a
        single-shard platform.
        """
        return self._engine_for(description.name).publish(
            description, category=category, contact=contact
        )

    def unpublish(self, service_name: str) -> None:
        """Unpublish wherever the service is found (home shard first)."""
        for engine in self._engines_home_first(service_name):
            try:
                engine.unpublish(service_name)
                return
            except DiscoveryError:
                continue
        raise DiscoveryError(
            f"service {service_name!r} is not published on any shard"
        )

    # Search flow ------------------------------------------------------------

    def search(
        self,
        provider: str = "",
        service_name: str = "",
        operation: str = "",
    ) -> SearchResult:
        """Fan the query out over every shard and merge the results."""
        merged = SearchResult()
        seen_providers = set()
        for shard in self.fleet.shards.values():
            result = shard.discovery.search(
                provider=provider,
                service_name=service_name,
                operation=operation,
            )
            for name in result.providers:
                if name not in seen_providers:
                    seen_providers.add(name)
                    merged.providers.append(name)
            merged.listings.extend(result.listings)
        return merged

    def service_detail(self, service_name: str) -> ServiceListing:
        """Detail view from whichever shard has the service published."""
        for engine in self._engines_home_first(service_name):
            try:
                return engine.service_detail(service_name)
            except DiscoveryError:
                continue
        raise DiscoveryError(
            f"service {service_name!r} is not published on any shard"
        )

    def fetch_wsdl(self, service_name: str):
        for engine in self._engines_home_first(service_name):
            try:
                return engine.fetch_wsdl(service_name)
            except DiscoveryError:
                continue
        raise DiscoveryError(
            f"service {service_name!r} has no WSDL on any shard"
        )

    # Locate flow ------------------------------------------------------------

    def _engines_home_first(self, service_name: str):
        """Every *live* shard engine, the consistent-hash home first.

        A killed shard simply drops out of the iteration — its services
        are unreachable until ``recover_shard`` puts the shard back.
        """
        shards = self.fleet.shards
        home = self.fleet.shard_map.shard_for(service_name)
        if home in shards:
            yield shards[home].discovery
        for shard_id, shard in shards.items():
            if shard_id != home:
                yield shard.discovery

    def _generation_token(self) -> "Tuple[int, int]":
        """The invalidation token fleet-level cache entries live under.

        Combines every shard's registry and directory generations, so
        churn anywhere in the fleet re-misses — the same guarantee the
        single-shard token gives, widened to the fleet.
        """
        return (self.registry.generation, self.fleet.directory.generation)

    def locate(self, service_name: str) -> ResolvedBinding:
        """Resolve a published service, fanning out across shards.

        The home shard answers directly in the common case (placement
        and lookup hash the same name).  A service published on another
        shard — explicit shard override at deployment — is found by the
        fan-out; either way the resolution is cached fleet-level under
        the combined generation token, so repeated locates skip both
        the fan-out and the SOAP round trips.
        """
        token = self._generation_token()
        if self.locate_cache is not None:
            cached = self.locate_cache.get(service_name, token)
            if cached is not None:
                return cached
        binding: Optional[ResolvedBinding] = None
        for engine in self._engines_home_first(service_name):
            try:
                binding = engine.locate(service_name)
                break
            except DiscoveryError:
                continue
        if binding is None:
            raise DiscoveryError(
                f"service {service_name!r} is not published on any of "
                f"{len(self.fleet.shards)} shard(s)"
            )
        if self.locate_cache is not None:
            # Filled under the token observed before the fan-out, so a
            # mutation made by the fan-out itself re-misses.
            self.locate_cache.put(service_name, binding, token)
        return binding

    def invalidate_locates(
        self, service_name: Optional[str] = None, reason: str = ""
    ) -> None:
        """Flush fleet-level ``locate()`` entries (one name, or all).

        The hook community-membership listeners call — churn that never
        passes through a registry or directory generation.
        """
        if self.locate_cache is not None:
            self.locate_cache.invalidate(service_name, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FleetDiscovery over {len(self.fleet.shards)} shards>"
