"""FleetDirectory and FleetDiscovery: shard-local state, fleet-wide view.

Covers the control plane of the fleet: home-first resolution, explicit
shard overrides, cross-shard ``locate()`` fan-out, the fleet-level cache
and its invalidation on ``ServiceDirectory.generation`` bumps, and the
merged search results.
"""

from __future__ import annotations

import pytest

from repro.api import Platform, PlatformConfig
from repro.exceptions import DeploymentError, DiscoveryError, SelfServError
from repro.fleet import FleetConfig, FleetDirectory, ShardMap
from repro.resilience import ResilienceConfig
from repro.services.description import simple_description
from repro.services.elementary import ElementaryService
from repro.services.profile import ServiceProfile


def make_service(name: str) -> ElementaryService:
    description = simple_description(name, f"{name}-co", [("op", [], ["r"])])
    service = ElementaryService(
        description, ServiceProfile(latency_mean_ms=1.0)
    )
    service.bind("op", lambda inputs: {"r": f"{name}-out"})
    return service


def fleet_platform(shards: int = 3) -> Platform:
    return Platform(PlatformConfig(
        fleet=FleetConfig(shards=shards)
    ))


class TestFleetDirectoryUnit:
    def setup_method(self):
        self.shard_map = ShardMap(3)
        self.shards = {
            shard_id: Platform(PlatformConfig(trace=False))
            for shard_id in self.shard_map.shard_ids
        }
        self.fleet_dir = FleetDirectory(self.shard_map, self.shards)

    def test_register_defaults_to_home_shard(self):
        landed = self.fleet_dir.register("Alpha", "host-a")
        assert landed == self.shard_map.shard_for("Alpha")
        assert self.fleet_dir.shard_of("Alpha") == landed
        assert self.shards[landed].directory.knows("Alpha")

    def test_register_with_explicit_shard_and_fanout_lookup(self):
        home = self.shard_map.shard_for("Beta")
        elsewhere = next(
            s for s in self.shard_map.shard_ids if s != home
        )
        self.fleet_dir.register("Beta", "host-b", shard=elsewhere)
        assert self.fleet_dir.shard_of("Beta") == elsewhere
        assert self.fleet_dir.resolve("Beta")[0] == "host-b"

    def test_resolve_unknown_names_every_shard_was_tried(self):
        with pytest.raises(DeploymentError, match="3 shard"):
            self.fleet_dir.resolve("Ghost")
        assert not self.fleet_dir.knows("Ghost")

    def test_services_unions_across_shards(self):
        self.fleet_dir.register("Alpha", "a")
        self.fleet_dir.register("Beta", "b", shard=0)
        self.fleet_dir.register("Gamma", "c", shard=2)
        assert self.fleet_dir.services() == ["Alpha", "Beta", "Gamma"]
        by_shard = self.fleet_dir.services_by_shard()
        assert sum(len(names) for names in by_shard.values()) == 3

    def test_generation_sums_shard_generations(self):
        start = self.fleet_dir.generation
        self.fleet_dir.register("Alpha", "a")
        self.fleet_dir.register("Beta", "b", shard=1)
        assert self.fleet_dir.generation == start + 2
        self.fleet_dir.unregister("Alpha")
        assert self.fleet_dir.generation == start + 3

    def test_mismatched_shard_and_directory_counts_raise(self):
        with pytest.raises(ValueError):
            FleetDirectory(ShardMap(2), {0: Platform()})


class TestFleetDiscovery:
    def test_publish_and_locate_on_home_shard(self):
        platform = fleet_platform()
        service = make_service("HomeBody")
        platform.register_elementary(service, "home-host")
        binding = platform.locate("HomeBody")
        assert binding.node == "home-host"
        assert binding.supports("op")

    def test_locate_fans_out_to_non_home_shards(self):
        platform = fleet_platform()
        service = make_service("Wanderer")
        home = platform.fleet.shard_map.shard_for("Wanderer")
        elsewhere = next(s for s in platform.fleet.shards if s != home)
        platform.deployer.deploy_elementary(
            service, "far-host", shard=elsewhere
        )
        platform.discovery.publish(service.description)
        binding = platform.locate("Wanderer")
        assert binding.node == "far-host"
        # routing agrees with the fan-out result
        assert platform.fleet.directory.shard_of("Wanderer") == elsewhere

    def test_locate_unpublished_raises_with_shard_count(self):
        platform = fleet_platform()
        with pytest.raises(DiscoveryError, match="3 shard"):
            platform.locate("Nobody")

    def test_repeat_locates_hit_the_fleet_cache(self):
        platform = fleet_platform()
        platform.register_elementary(make_service("Cached"), "host-c")
        cache = platform.discovery.locate_cache
        platform.locate("Cached")
        misses = cache.stats.misses
        first_hits = cache.stats.hits
        for _ in range(5):
            platform.locate("Cached")
        assert cache.stats.hits == first_hits + 5
        assert cache.stats.misses == misses

    def test_directory_generation_bump_invalidates_cache(self):
        """A re-registration anywhere in the fleet re-misses the entry."""
        platform = fleet_platform()
        service = make_service("Mover")
        platform.register_elementary(service, "old-host")
        assert platform.locate("Mover").node == "old-host"
        cache = platform.discovery.locate_cache
        generation = platform.directory.generation
        # Redeploy within the shard: the shard-local ServiceDirectory
        # generation bumps, so the fleet token changes and the cached
        # entry is dropped on sight instead of served stale.
        platform.directory.register("Mover", "new-host")
        assert platform.directory.generation == generation + 1
        stale_before = cache.stats.stale
        platform.locate("Mover")
        assert cache.stats.stale == stale_before + 1

    def test_generation_bump_on_another_shard_also_invalidates(self):
        """The fleet token spans shards: churn anywhere re-misses."""
        platform = fleet_platform()
        platform.register_elementary(make_service("Stable"), "host-s")
        platform.locate("Stable")
        home = platform.fleet.directory.shard_of("Stable")
        other = next(s for s in platform.fleet.shards if s != home)
        platform.directory.register("Noise", "host-n", shard=other)
        cache = platform.discovery.locate_cache
        stale_before = cache.stats.stale
        platform.locate("Stable")
        assert cache.stats.stale == stale_before + 1

    def test_explicit_invalidation_hook(self):
        platform = fleet_platform()
        platform.register_elementary(make_service("Hooked"), "host-h")
        platform.locate("Hooked")
        dropped_before = platform.discovery.locate_cache.stats.invalidations
        platform.discovery.invalidate_locates(
            "Hooked", reason="membership change"
        )
        assert (platform.discovery.locate_cache.stats.invalidations
                == dropped_before + 1)

    def test_search_merges_across_shards(self):
        platform = fleet_platform()
        for index in range(6):
            name = f"Spread{index:02d}"
            platform.register_elementary(make_service(name), f"h{index}")
        result = platform.discovery.search(service_name="Spread")
        assert len(result.listings) == 6
        assert {listing.name for listing in result.listings} == {
            f"Spread{index:02d}" for index in range(6)
        }

    def test_service_detail_fans_out(self):
        platform = fleet_platform()
        service = make_service("Detail")
        home = platform.fleet.shard_map.shard_for("Detail")
        elsewhere = next(s for s in platform.fleet.shards if s != home)
        platform.deployer.deploy_elementary(service, "d-host",
                                            shard=elsewhere)
        platform.discovery.publish(service.description)
        listing = platform.discovery.service_detail("Detail")
        assert listing.name == "Detail"
        assert "d-host" in listing.access_point


class TestFleetModeGuards:
    def test_fleet_requires_sim_transport(self):
        with pytest.raises(SelfServError, match="simulated transport"):
            Platform(PlatformConfig(
                fleet=FleetConfig(shards=2), transport="wire"
            ))

    def test_fleet_rejects_prebuilt_transport(self):
        from repro.net.simnet import SimTransport
        with pytest.raises(SelfServError, match="per shard"):
            Platform(PlatformConfig(fleet=FleetConfig(shards=2)),
                     transport=SimTransport())

    def test_fleet_excludes_resilience(self):
        with pytest.raises(SelfServError, match="mutually exclusive"):
            Platform(PlatformConfig(
                fleet=FleetConfig(shards=2),
                resilience=ResilienceConfig(),
            ))

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)
        with pytest.raises(ValueError):
            FleetConfig(shards=2, virtual_nodes=0)
