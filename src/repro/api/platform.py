"""The :class:`Platform` facade — the public face of the library.

One object wires the three SELF-SERV architecture modules (editor,
deployer, discovery engine) over one transport, built declaratively from
a :class:`~repro.api.config.PlatformConfig`::

    platform = Platform()                         # deterministic sim net
    platform.provider("fxco-host").elementary(make_quote_service())
    deployment = (platform.compose("Converter", provider="DemoCorp")
                  ... )                           # draft, then .deploy()

    session = platform.session("alice", "alice-laptop")
    handle = session.submit("Converter", "convertMoney", {...})
    result = handle.result()                      # or batch: submit_many
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Union

from repro.api.config import PlatformConfig
from repro.api.fluent import Composition, ProviderSite
from repro.api.handles import Session
from repro.deployment.deployer import CompositeDeployment, Deployer
from repro.discovery.engine import ServiceDiscoveryEngine
from repro.editor.drafts import CompositeDraft, ServiceEditor
from repro.exceptions import SelfServError
from repro.kernel.actor import ActorKernel
from repro.monitoring.tracer import ExecutionTracer
from repro.net.node import Node
from repro.net.transport import Transport
from repro.perf.events import PerfEventLog
from repro.resilience.runtime import ResilienceRuntime
from repro.runtime.community_wrapper import CommunityWrapperRuntime
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import ResolvedBinding
from repro.runtime.service_wrapper import ServiceWrapperRuntime
from repro.selection.policies import SelectionPolicy
from repro.services.community import ServiceCommunity
from repro.services.composite import CompositeService
from repro.services.elementary import ElementaryService


class Platform:
    """Facade over editor, deployer, discovery and handle-based execution.

    Construct from a :class:`PlatformConfig` (or keyword overrides via
    :meth:`simulated`); pass ``transport=`` to run on a pre-built
    transport, e.g. one shared with a workload harness.
    """

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config or PlatformConfig()
        #: The sharded scale-out runtime (``repro.fleet``), present when
        #: the config carries a ``FleetConfig``.  In fleet mode the
        #: platform has *no* single transport/kernel — each shard owns
        #: its own — and ``deployer``/``directory``/``discovery`` are
        #: the fleet's shard-routing facades.
        self.fleet = None
        if self.config.fleet is not None:
            self._init_fleet(transport)
            return
        self.transport = (
            transport if transport is not None
            else self.config.build_transport()
        )
        self.directory = ServiceDirectory()
        #: The actor substrate every runtime participant runs on.  The
        #: kernel owns the middleware chain (per-actor counters by
        #: default) and the delivery-tap fan-out the passive subsystems
        #: (tracer, health registry) observe through — one transport
        #: observer for all of them.
        self.kernel = ActorKernel(
            self.transport, zero_copy=self.config.perf.zero_copy_local
        )
        self.resilience: Optional[ResilienceRuntime] = (
            ResilienceRuntime(self.transport, self.config.resilience,
                              seed=self.config.seed, kernel=self.kernel)
            if self.config.resilience is not None else None
        )
        self.deployer = Deployer(
            self.transport,
            self.directory,
            registry=self.config.registry,
            placement=self.config.build_placement(),
            resilience=self.resilience,
            kernel=self.kernel,
        )
        #: Fast-path audit trail (cache hits/misses/invalidations),
        #: surfaced through ``tracer.perf_events()``.
        self.perf_events = PerfEventLog()
        self.discovery = ServiceDiscoveryEngine(
            self.transport,
            self.directory,
            perf=self.config.perf,
            perf_events=self.perf_events,
        )
        self.editor = ServiceEditor()
        self.tracer: Optional[ExecutionTracer] = (
            ExecutionTracer(self.transport).attach(via=self.kernel)
            if self.config.trace else None
        )
        if self.tracer is not None and self.resilience is not None:
            self.tracer.resilience = self.resilience.events
        if self.tracer is not None:
            self.tracer.perf = self.perf_events
        #: Crash durability (``repro.durability``), present when the
        #: config carries a ``DurabilityConfig``: deliveries are logged
        #: through the kernel middleware, deployments journaled, and
        #: :func:`repro.durability.recover_platform` rebuilds a crashed
        #: platform from the log.
        self.durability = None
        if self.config.durability is not None:
            from repro.durability.runtime import ShardDurability

            ShardDurability(self.config.durability).attach(self)
        self._sessions: Dict[str, Session] = {}

    def _init_fleet(self, transport: Optional[Transport]) -> None:
        """Build the sharded variant of the platform (fleet mode)."""
        # Imported lazily: repro.fleet's harness layers on the Platform
        # API, so a module-level import would be circular.
        from repro.fleet.runtime import FleetRuntime

        if transport is not None:
            raise SelfServError(
                "fleet mode builds one transport per shard; a pre-built "
                "transport instance cannot be sharded — drop transport= "
                "or drop PlatformConfig.fleet"
            )
        # This check also keeps all fleet code single-threaded: every
        # shard is a simulator that only the caller's pump advances.
        if self.config.transport != "sim":
            raise SelfServError(
                f"fleet mode requires the simulated transport, got "
                f"transport={self.config.transport!r} — for a fleet of "
                f"real shard processes over sockets use "
                f"repro.fleet.wire.WireFleet instead"
            )
        if self.config.resilience is not None:
            raise SelfServError(
                "resilience and fleet are mutually exclusive for now: "
                "the resilience runtime binds to a single transport "
                "(per-shard resilience is future work)"
            )
        self.fleet = FleetRuntime(self.config)
        self.fleet.platform = self  # recovery rebinds sessions through it
        #: Durability is per-shard in fleet mode: the bundles live in
        #: ``fleet.durability`` and kill/recover is the fleet runtime's
        #: ``kill_shard()``/``recover_shard()`` API.
        self.durability = None
        self.transport = None  # no fleet-wide transport by design
        self.kernel = None
        self.resilience = None
        self.directory = self.fleet.directory
        self.deployer = self.fleet.deployer
        self.perf_events = self.fleet.perf_events
        self.discovery = self.fleet.discovery
        self.editor = ServiceEditor()
        # The execution tracer taps a single transport's delivery
        # stream; fleet mode has N of them, so tracing is off (the
        # per-shard kernels still count per-actor deliveries).
        self.tracer = None
        self._sessions: Dict[str, Session] = {}

    @classmethod
    def simulated(cls, **overrides: object) -> "Platform":
        """A platform on the deterministic simulated network.

        Keyword arguments override :class:`PlatformConfig` fields, e.g.
        ``Platform.simulated(seed=7, processing_ms=2.0)``.
        """
        if overrides.get("transport", "sim") != "sim":
            raise SelfServError(
                "Platform.simulated() always runs on the simulated "
                "transport; use Platform(PlatformConfig(...)) to pick one"
            )
        overrides["transport"] = "sim"
        return cls(PlatformConfig(**overrides))  # type: ignore[arg-type]

    # Plumbing --------------------------------------------------------------

    def ensure_node(self, host: str) -> Optional[Node]:
        """Get ``host``'s node, creating it on first use.

        In fleet mode the host is ensured on *every* shard (host
        namespaces are per-shard) and ``None`` is returned — there is
        no single node object to hand back.
        """
        if self.fleet is not None:
            self.fleet.ensure_node(host)
            return None
        if not self.transport.has_node(host):
            return self.transport.add_node(host)
        return self.transport.node(host)

    def now_ms(self) -> float:
        """The platform clock (fleet mode: the furthest-ahead shard)."""
        if self.fleet is not None:
            return self.fleet.now_ms()
        return self.transport.now_ms()

    def wait_for(self, predicate, timeout_ms: Optional[float] = None) -> bool:
        """Drive the platform until ``predicate()`` holds.

        The single blocking primitive sessions and handles use: on the
        classic platform it delegates to the transport; in fleet mode
        it pumps every shard in turn on the calling thread.
        """
        if self.fleet is not None:
            return self.fleet.wait_for(predicate, timeout_ms=timeout_ms)
        return self.transport.wait_for(predicate, timeout_ms=timeout_ms)

    # Provider flows --------------------------------------------------------

    def provider(self, host: str) -> ProviderSite:
        """Open the fluent registration surface for one provider host."""
        return ProviderSite(self, host)

    def register_elementary(
        self,
        service: ElementaryService,
        host: str,
        category: str = "",
        publish: bool = True,
        rng: Optional[random.Random] = None,
    ) -> ServiceWrapperRuntime:
        """Deploy an elementary service and (by default) publish it."""
        wrapper = self.deployer.deploy_elementary(service, host, rng=rng)
        if publish:
            self.discovery.publish(service.description, category=category)
        return wrapper

    def register_community(
        self,
        community: ServiceCommunity,
        host: str,
        policy: "Union[SelectionPolicy, str, None]" = None,
        category: str = "",
        publish: bool = True,
        timeout_ms: Optional[float] = None,
        max_attempts: Optional[int] = None,
    ) -> CommunityWrapperRuntime:
        """Deploy a community wrapper and (by default) publish it.

        ``policy`` and ``timeout_ms`` fall back to the config's
        ``default_selection_policy`` and ``community_timeout_ms``.
        """
        wrapper = self.deployer.deploy_community(
            community,
            host,
            policy=(policy if policy is not None
                    else self.config.default_selection_policy),
            timeout_ms=(timeout_ms if timeout_ms is not None
                        else self.config.community_timeout_ms),
            max_attempts=max_attempts,
        )
        # Membership churn does not pass through the UDDI registry, so
        # it must invalidate the locate() fast path explicitly.
        community.add_membership_listener(
            lambda name=community.name: self.discovery.invalidate_locates(
                name, reason="community membership change"
            )
        )
        if publish:
            self.discovery.publish(community.description, category=category)
        return wrapper

    # Composer flows --------------------------------------------------------

    def compose(
        self, name: str, provider: str = "", documentation: str = ""
    ) -> Composition:
        """Open the editor on a new composition (draft -> deploy flow)."""
        return Composition(self, name, provider, documentation)

    def deploy_composite(
        self,
        composite: "Union[CompositeService, CompositeDraft, Composition]",
        host: str,
        category: str = "composite",
        publish: bool = True,
        default_timeout_ms: Optional[float] = None,
    ) -> CompositeDeployment:
        """Deploy (and by default publish) a composite service."""
        if isinstance(composite, Composition):
            composite = composite.draft()
        if isinstance(composite, CompositeDraft):
            composite = composite.build()
        deployment = self.deployer.deploy_composite(
            composite, host, default_timeout_ms=default_timeout_ms,
        )
        if publish:
            self.discovery.publish(composite.description, category=category)
        return deployment

    # End-user flows --------------------------------------------------------

    def locate(self, service_name: str) -> ResolvedBinding:
        """Resolve a published service to the binding ``submit`` accepts."""
        return self.discovery.locate(service_name)

    def session(self, name: str, host: str) -> Session:
        """Get (or create) the named end-user session on ``host``.

        Sessions are cached by name; asking for an existing name on a
        *different* host is almost certainly a bug (the endpoint lives on
        the original host), so it raises instead of silently returning
        the old session.
        """
        session = self._sessions.get(name)
        if session is not None:
            if session.host != host:
                raise SelfServError(
                    f"session {name!r} already exists on host "
                    f"{session.host!r}; cannot reopen it on {host!r} — "
                    f"use a different session name per host"
                )
            return session
        session = Session(self, name, host)
        self._sessions[name] = session
        return session

    def sessions(self) -> "List[Session]":
        """Every session opened on this platform."""
        return list(self._sessions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Platform {type(self.transport).__name__} "
            f"{len(self.directory.services())} services, "
            f"{len(self._sessions)} sessions>"
        )
