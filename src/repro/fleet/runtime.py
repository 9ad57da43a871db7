"""The fleet runtime: shard platforms, routing, and the shard-aware deployer.

Built by the :class:`~repro.api.platform.Platform` when its config
carries a :class:`~repro.fleet.config.FleetConfig`.  The runtime owns

* the :class:`~repro.fleet.shardmap.ShardMap` (consistent hashing of
  placement keys to shards),
* one classic single-shard :class:`~repro.api.platform.Platform` per
  shard, each on its own simulated transport (share-nothing), plus the
  per-shard random streams deployments draw from,
* the serial pump that drives every shard's simulator on the calling
  thread (``pump_all``/``wait_for``),
* the :class:`~repro.fleet.directory.FleetDirectory` and
  :class:`~repro.fleet.discovery.FleetDiscovery` control-plane views,
  which read the live shards,
* the :class:`FleetDeployer`, which routes every deployment to the
  shard the hash ring (or an explicit ``shard``/``affinity`` override)
  assigns and otherwise behaves exactly like a
  :class:`~repro.deployment.deployer.Deployer`.

Shards are share-nothing at the message layer: a composite and all of
its component services must live on one shard (the deployer enforces
this — use ``affinity`` to co-locate), and cross-shard interaction
happens only at the control plane (deploy, discovery) and at the
session layer, where the client router picks the right shard per
submission.

Nothing here runs on a second thread: the platform refuses fleet mode
on any transport but the simulator, so every shard advances only when
the caller pumps it, one shard after another.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.api.platform import Platform
from repro.deployment.deployer import CompositeDeployment
from repro.exceptions import DeploymentError, DurabilityError
from repro.fleet.directory import FleetDirectory
from repro.fleet.discovery import FleetDiscovery
from repro.fleet.shardmap import ShardMap
from repro.net.simnet import SimTransport
from repro.perf.events import PerfEventLog
from repro.runtime.community_wrapper import CommunityWrapperRuntime
from repro.runtime.service_wrapper import ServiceWrapperRuntime
from repro.selection.policies import SelectionPolicy
from repro.services.community import ServiceCommunity
from repro.services.composite import CompositeService
from repro.services.elementary import ElementaryService
from repro.sim.random_streams import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.config import PlatformConfig


class FleetRuntime:
    """Everything a sharded platform runs on."""

    def __init__(self, config: "PlatformConfig") -> None:
        fleet_config = config.fleet
        if fleet_config is None:
            raise ValueError("FleetRuntime needs PlatformConfig.fleet")
        self.platform_config = config
        self.config = fleet_config
        self.shard_map = ShardMap(
            fleet_config.shards, virtual_nodes=fleet_config.virtual_nodes
        )
        #: What every shard platform is built from.  The shard
        #: ``locate()`` cache is off — the fleet discovery facade layers
        #: one fleet-level cache over all shards instead, so a
        #: cross-shard fan-out hit is cached exactly once.
        self.shard_config = replace(
            config, fleet=None, trace=False, durability=None,
            perf=replace(config.perf, locate_cache_size=0),
        )
        #: Per-shard durability bundles (empty when
        #: ``PlatformConfig.durability`` is unset).  A bundle survives
        #: its shard: ``kill_shard`` drops the platform,
        #: ``recover_shard`` attaches the bundle to a fresh one.
        self.durability: "Dict[int, object]" = {}
        if config.durability is not None:
            from repro.durability.runtime import ShardDurability

            self.durability = {
                shard_id: ShardDurability(
                    config.durability.for_shard(shard_id),
                    shard_id=shard_id,
                )
                for shard_id in self.shard_map.shard_ids
            }
        #: Shard id -> the shard's random streams (``svc-<name>`` RNGs
        #: for elementary deployments are drawn from them).
        self.streams: "Dict[int, RandomStreams]" = {}
        #: Shard id -> the live shard platform, in shard-id order.  A
        #: killed shard is absent until recovered; the directory,
        #: registry and discovery views read this mapping live.
        self.shards: "Dict[int, Platform]" = {
            shard_id: self._build_shard(shard_id)
            for shard_id in self.shard_map.shard_ids
        }
        self.directory = FleetDirectory(self.shard_map, self.shards)
        #: Fleet-level fast-path audit trail (locate cache events).
        self.perf_events = PerfEventLog()
        self.discovery = FleetDiscovery(self)
        self.deployer = FleetDeployer(self)
        #: Back-reference set by the owning Platform; recovery uses it
        #: to rebind session clients onto a rebuilt shard.
        self.platform = None

    def _build_shard(self, shard_id: int) -> Platform:
        """A fresh shard platform, durability bundle attached if any."""
        config = self.shard_config
        streams = RandomStreams(config.seed).fork(f"shard-{shard_id}")
        self.streams[shard_id] = streams
        shard = Platform(config, transport=SimTransport(
            latency=config.latency,
            loss_rate=config.loss_rate,
            rng=streams.stream("network"),
            processing_ms=config.processing_ms,
            batch_window_ms=config.perf.batch_window_ms,
            batch_max=config.perf.batch_max_messages,
        ))
        dur = self.durability.get(shard_id)
        if dur is not None:
            dur.attach(shard)
        return shard

    # Crash & recovery -------------------------------------------------------

    def kill_shard(self, shard_id: int) -> int:
        """Crash one shard: drop its platform, unsynced WAL tail included.

        The fleet keeps running degraded — the dead shard's services
        vanish from the fleet directory/registry until
        :meth:`recover_shard`.  Returns the number of WAL records lost
        to the crash (0 under ``fsync="always"``).
        """
        if self.shards.pop(shard_id, None) is None:
            raise DurabilityError(f"shard {shard_id} is not running")
        self.discovery.invalidate_locates(
            reason=f"shard {shard_id} killed"
        )
        dur = self.durability.get(shard_id)
        return dur.crash() if dur is not None else 0

    def recover_shard(self, shard_id: int):
        """Rebuild a killed shard from its WAL + snapshot; resume work.

        Returns the :class:`~repro.durability.ReplayReport`.  Session
        clients previously bound to the dead shard are migrated onto
        the fresh one, so handles that were in flight at the kill
        complete once the recovered shard finishes their compositions.
        """
        from repro.durability.replay import rebind_client, recover_attached

        if shard_id in self.shards:
            raise DurabilityError(f"shard {shard_id} is already running")
        dur = self.durability.get(shard_id)
        if dur is None:
            raise DurabilityError(
                f"shard {shard_id} has no durability bundle — set "
                f"PlatformConfig.durability to make shards recoverable"
            )
        shard = self._build_shard(shard_id)
        sessions = (
            self.platform.sessions() if self.platform is not None else []
        )

        def rebind() -> None:
            for session in sessions:
                old = session._shard_clients.get(shard_id)
                if old is not None:
                    session._shard_clients[shard_id] = rebind_client(
                        session, shard, old
                    )

        report, _gate = recover_attached(
            dur, shard,
            redeploy=lambda: dur.journal.redeploy(shard), rebind=rebind,
        )
        # In place (the views hold this mapping), back in shard-id order.
        live = sorted({**self.shards, shard_id: shard}.items())
        self.shards.clear()
        self.shards.update(live)
        self.discovery.invalidate_locates(
            reason=f"shard {shard_id} recovered"
        )
        return report

    # Pumping ----------------------------------------------------------------

    def ensure_node(self, host: str) -> None:
        """Make ``host`` exist on every shard.

        Host namespaces are per-shard (each shard has its own
        transport); ensuring fleet-wide keeps provider registration
        order-independent from shard assignment.
        """
        for shard in self.shards.values():
            shard.ensure_node(host)

    def now_ms(self) -> float:
        """The fleet-wide clock: the furthest-ahead shard clock.

        Shard clocks advance independently (an idle shard's clock
        lags), so the max is the only value that never runs backwards.
        The empty-fleet default covers the window while every shard is
        killed awaiting recovery.
        """
        return max((s.now_ms() for s in self.shards.values()), default=0.0)

    def pump_all(self, until_offset_ms: Optional[float] = None) -> int:
        """One pump round over every shard; returns events executed.

        ``until_offset_ms`` bounds each shard's *virtual* progress
        relative to its own clock (used by bounded waits); ``None``
        drains every shard to idle.
        """
        executed = 0
        for shard in self.shards.values():
            simulator = shard.transport.simulator
            before = simulator.processed_events
            if until_offset_ms is None:
                shard.transport.run_until_idle()
            else:
                simulator.run(until=simulator.now + until_offset_ms)
            executed += simulator.processed_events - before
        return executed

    def wait_for(
        self,
        predicate: "Callable[[], bool]",
        timeout_ms: Optional[float] = None,
    ) -> bool:
        """Pump all shards until ``predicate()`` holds (or nothing moves).

        The predicate is evaluated between pump rounds.  When the fleet
        quiesces with the predicate still false, ``timeout_ms`` grants
        one bounded round of extra *virtual* time per shard so pending
        timers (execution deadlines, breaker probes) get their chance
        to fire — mirroring the simulated transport's timeout
        semantics.
        """
        while not predicate():
            executed = self.pump_all()
            if predicate():
                return True
            if executed == 0:
                if timeout_ms is not None:
                    self.pump_all(until_offset_ms=timeout_ms)
                return predicate()
        return True

    def message_counts(self) -> "Dict[int, int]":
        """Shard id -> messages sent on that shard's transport."""
        return {
            shard_id: shard.transport.stats.sent_total
            for shard_id, shard in self.shards.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FleetRuntime {len(self.shards)} shards, "
            f"{len(self.directory.services())} services>"
        )


class FleetDeployer:
    """Routes deployments onto shards; the deployer surface of a fleet.

    Accepts the same calls as a single-shard
    :class:`~repro.deployment.deployer.Deployer` plus two routing
    knobs on every method:

    * ``shard=`` — pin the deployment to an explicit shard id,
    * ``affinity=`` — hash this key instead of the service's own name.

    ``affinity`` is how a composite and its components co-locate: deploy
    every component with ``affinity=<composite name>`` and the hash ring
    sends them all to the composite's shard.
    """

    def __init__(self, fleet: FleetRuntime) -> None:
        self.fleet = fleet

    def _route(
        self, name: str, shard: Optional[int], affinity: Optional[str]
    ) -> int:
        """The shard id a deployment lands on."""
        if shard is not None:
            if shard not in self.fleet.shards:
                raise DeploymentError(
                    f"unknown shard {shard!r}; fleet has shards "
                    f"{sorted(self.fleet.shards)}"
                )
            return shard
        return self.fleet.shard_map.shard_for(affinity or name)

    def shard_for(self, key: str) -> int:
        """Where the hash ring places ``key`` (no deployment)."""
        return self.fleet.shard_map.shard_for(key)

    # Deployer surface -------------------------------------------------------

    def deploy_elementary(
        self,
        service: ElementaryService,
        host: str,
        rng: Optional[random.Random] = None,
        shard: Optional[int] = None,
        affinity: Optional[str] = None,
    ) -> ServiceWrapperRuntime:
        shard_id = self._route(service.name, shard, affinity)
        return self.fleet.shards[shard_id].deployer.deploy_elementary(
            service,
            host,
            rng=rng or self.fleet.streams[shard_id].stream(
                f"svc-{service.name}"
            ),
        )

    def deploy_community(
        self,
        community: ServiceCommunity,
        host: str,
        policy: "SelectionPolicy | str" = "multi-attribute",
        timeout_ms: float = 1000.0,
        max_attempts: Optional[int] = None,
        shard: Optional[int] = None,
        affinity: Optional[str] = None,
    ) -> CommunityWrapperRuntime:
        """Deploy a community wrapper on its shard.

        Members delegate through the shard-local directory, so they must
        live on the same shard — deploy them with
        ``affinity=<community name>``.
        """
        shard_id = self._route(community.name, shard, affinity)
        return self.fleet.shards[shard_id].deployer.deploy_community(
            community,
            host,
            policy=policy,
            timeout_ms=timeout_ms,
            max_attempts=max_attempts,
        )

    def deploy_composite(
        self,
        composite: CompositeService,
        host: str,
        default_timeout_ms: Optional[float] = None,
        validate_charts: bool = True,
        shard: Optional[int] = None,
        affinity: Optional[str] = None,
    ) -> CompositeDeployment:
        """Deploy a composite (and its coordinators) on one shard.

        Component services must already be deployed *on that shard* —
        coordination messages never cross shard boundaries.  A missing
        component that exists on another shard produces a routing hint
        instead of the bare not-deployed error.
        """
        shard_id = self._route(composite.name, shard, affinity)
        target = self.fleet.shards[shard_id]
        misplaced = [
            name for name in composite.component_services()
            if not target.directory.knows(name)
            and self.fleet.directory.knows(name)
        ]
        if misplaced:
            raise DeploymentError(
                f"cannot deploy composite {composite.name!r} on shard "
                f"{shard_id}: component service(s) "
                f"{sorted(misplaced)!r} live on other shards — deploy "
                f"them with affinity={composite.name!r} (or an explicit "
                f"shard=) so the composite and its components co-locate"
            )
        return target.deployer.deploy_composite(
            composite,
            host,
            default_timeout_ms=default_timeout_ms,
            validate_charts=validate_charts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FleetDeployer over {len(self.fleet.shards)} shards>"
