"""Seed-deterministic random scenario generator.

A *scenario* is everything the differential harness needs to drive one
generated composite-service topology through any runtime: the statechart
(random depth / fan-out / join density via the workload grammar), a
*slot* table saying which logical services are plain providers and which
are communities (with per-member QoS profiles drawn from the fault mix),
and a request batch exercising the XOR branches.

Every draw comes from named streams of one
:class:`~repro.sim.random_streams.RandomStreams` seeded with the scenario
seed — ``topology``, ``communities``, ``faults`` and ``requests`` — so a
scenario is fully replayable from ``(seed, params)`` alone, and adding a
new draw to one stream never shifts the others (the VOODB-style
"generic random simulation model" property that makes a corpus of
hundreds of seeds an enumerable, repeatable experiment space).

Scenarios are *specs*, not live objects: :meth:`GeneratedScenario
.materialize` builds fresh :class:`~repro.services.elementary
.ElementaryService` / :class:`~repro.services.community.ServiceCommunity`
instances on every call, so the same scenario can be deployed into
several platforms (classic, central baseline, fleet) without sharing any
mutable state between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.services.community import ServiceCommunity
from repro.services.description import (
    OperationSpec,
    Parameter,
    ParameterType,
    ServiceDescription,
)
from repro.services.elementary import ElementaryService
from repro.services.profile import ServiceProfile
from repro.sim.random_streams import RandomStreams
from repro.statecharts.model import Statechart
from repro.workload.generator import GeneratorParams, make_workload


@dataclass(frozen=True)
class ScenarioParams:
    """Steering knobs of the scenario generator.

    Structure:

    * ``tasks_min``/``tasks_max`` — task-budget range (composition depth),
    * ``p_xor``/``p_and`` — branch probabilities of the workload grammar
      (fan-out and join density of the generated chart),
    * ``community_rate`` — fraction of logical slots promoted from a
      plain provider to a community,
    * ``community_min``/``community_max`` — community size range.

    Fault mix (per *member* provider):

    * ``slow_rate``/``slow_factor`` — fraction of providers dealt a
      degraded profile (latency multiplied by ``slow_factor``),
    * ``flaky_rate``/``flaky_reliability`` — fraction of *redundant*
      community members dealt a failure probability.  At least one
      member of every community always stays fully reliable, so a
      community-backed slot still completes (by failover) and scenario
      outcomes stay deterministic.  Plain (non-community) slots are
      never made flaky — a coin-flip fault on an unbacked provider
      would make the composition outcome itself nondeterministic,
      which the differential equivalence checks cannot allow.

    Load shape:

    * ``requests_min``/``requests_max`` — request-batch size range;
      each request redraws every XOR branch variable, so one scenario
      exercises several paths through its own chart.
    """

    tasks_min: int = 3
    tasks_max: int = 9
    p_xor: float = 0.25
    p_and: float = 0.2
    community_rate: float = 0.35
    community_min: int = 2
    community_max: int = 4
    slow_rate: float = 0.25
    slow_factor: float = 4.0
    flaky_rate: float = 0.0
    flaky_reliability: float = 0.6
    service_latency_ms: float = 4.0
    requests_min: int = 1
    requests_max: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.tasks_min <= self.tasks_max:
            raise ValueError("need 1 <= tasks_min <= tasks_max")
        if not 2 <= self.community_min <= self.community_max:
            raise ValueError("need 2 <= community_min <= community_max")
        if not 1 <= self.requests_min <= self.requests_max:
            raise ValueError("need 1 <= requests_min <= requests_max")
        for name in ("community_rate", "slow_rate", "flaky_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.flaky_reliability <= 1.0:
            raise ValueError("flaky_reliability must be in (0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")


@dataclass(frozen=True)
class MemberSpec:
    """One provider instance behind a slot (QoS profile as pure data)."""

    name: str
    latency_ms: float
    reliability: float = 1.0

    def profile(self) -> ServiceProfile:
        return ServiceProfile(
            latency_mean_ms=self.latency_ms,
            latency_jitter_ms=0.0,
            reliability=self.reliability,
        )


@dataclass(frozen=True)
class SlotSpec:
    """One logical service of the chart: a provider or a community.

    ``logical`` is the name the statechart's task states bind to.  A
    single member carrying the logical name itself is a plain provider;
    two or more members make the slot a community (deployed under the
    logical name, members under their own).
    """

    logical: str
    members: "Tuple[MemberSpec, ...]"

    @property
    def is_community(self) -> bool:
        return len(self.members) > 1


def _work_handler(inputs: "Mapping[str, Any]") -> "Dict[str, Any]":
    """The synthetic operation every generated provider serves."""
    step = inputs.get("step") or 0
    return {"result": step + 1}


def _work_spec() -> OperationSpec:
    return OperationSpec(
        name="work",
        inputs=(Parameter("step", ParameterType.INT, required=False),),
        outputs=(Parameter("result", ParameterType.INT),),
    )


def _member_service(spec: MemberSpec, provider: str) -> ElementaryService:
    description = ServiceDescription(
        name=spec.name,
        provider=provider,
        description="generated scenario provider",
    )
    description.add_operation(_work_spec())
    service = ElementaryService(description, spec.profile())
    service.bind("work", _work_handler)
    return service


@dataclass
class MaterializedSlot:
    """Live objects for one slot, freshly built for one deployment."""

    spec: SlotSpec
    #: The member services to deploy (for a plain slot: exactly one,
    #: named like the slot itself).
    services: "List[ElementaryService]"
    #: The community to deploy under the logical name, or ``None``.
    community: Optional[ServiceCommunity] = None


@dataclass(frozen=True)
class GeneratedScenario:
    """A fully specified scenario: chart + slots + request batch."""

    seed: int
    params: ScenarioParams
    chart: Statechart
    composite_name: str
    slots: "Tuple[SlotSpec, ...]"
    requests: "Tuple[Dict[str, Any], ...]"
    task_count: int
    xor_count: int
    and_count: int

    @property
    def community_count(self) -> int:
        return sum(1 for slot in self.slots if slot.is_community)

    def logical_of(self) -> "Dict[str, str]":
        """Deployed provider name -> logical slot name (communities fold)."""
        mapping: Dict[str, str] = {}
        for slot in self.slots:
            for member in slot.members:
                mapping[member.name] = slot.logical
        return mapping

    def structure(self) -> "Tuple[Any, ...]":
        """A comparable fingerprint of everything the seed determined."""
        return (
            self.composite_name,
            self.task_count,
            self.xor_count,
            self.and_count,
            tuple(
                (slot.logical, tuple(
                    (m.name, m.latency_ms, m.reliability)
                    for m in slot.members
                ))
                for slot in self.slots
            ),
            tuple(tuple(sorted(r.items())) for r in self.requests),
        )

    def materialize(self) -> "List[MaterializedSlot]":
        """Fresh service/community objects for one deployment.

        Never reuse the returned objects across platforms: wrappers bind
        to them and communities carry membership listeners.
        """
        out: List[MaterializedSlot] = []
        for slot in self.slots:
            if not slot.is_community:
                service = _member_service(
                    slot.members[0], provider=f"{slot.logical}Provider"
                )
                out.append(MaterializedSlot(spec=slot, services=[service]))
                continue
            description = ServiceDescription(
                name=slot.logical,
                provider=f"{slot.logical}Community",
                description="generated scenario community",
            )
            description.add_operation(_work_spec())
            community = ServiceCommunity(description)
            services = []
            for member in slot.members:
                services.append(_member_service(
                    member, provider=f"{slot.logical}Provider"
                ))
                community.join(member.name, profile=member.profile())
            out.append(MaterializedSlot(
                spec=slot, services=services, community=community,
            ))
        return out


def scenario_prefix(seed: int) -> str:
    """The per-seed service-name prefix (keeps multi-scenario deploys
    collision-free; see the ``service_prefix`` guard in
    :mod:`repro.workload.harness`)."""
    return f"Scn{seed:05d}Svc"


def generate_scenario(
    seed: int, params: Optional[ScenarioParams] = None
) -> GeneratedScenario:
    """Generate the scenario for ``seed`` (pure function of its inputs)."""
    params = params or ScenarioParams()
    streams = RandomStreams(seed)

    topology = streams.stream("topology")
    tasks = topology.randint(params.tasks_min, params.tasks_max)
    workload = make_workload(GeneratorParams(
        tasks=tasks,
        p_xor=params.p_xor,
        p_and=params.p_and,
        service_latency_ms=params.service_latency_ms,
        service_jitter_ms=0.0,
        service_reliability=1.0,
        seed=topology.randrange(2 ** 31),
        service_prefix=scenario_prefix(seed),
    ))

    communities = streams.stream("communities")
    faults = streams.stream("faults")
    slots: List[SlotSpec] = []
    for service in workload.services:
        logical = service.name
        base_latency = params.service_latency_ms

        def draw_latency() -> float:
            if faults.random() < params.slow_rate:
                return base_latency * params.slow_factor
            return base_latency

        if communities.random() < params.community_rate:
            size = communities.randint(
                params.community_min, params.community_max
            )
            members = []
            for index in range(size):
                reliability = 1.0
                # Redundant members (never the first) may be flaky: the
                # community absorbs their faults by failover.
                if index > 0 and faults.random() < params.flaky_rate:
                    reliability = params.flaky_reliability
                members.append(MemberSpec(
                    name=f"{logical}m{index}",
                    latency_ms=draw_latency(),
                    reliability=reliability,
                ))
            slots.append(SlotSpec(logical=logical, members=tuple(members)))
        else:
            slots.append(SlotSpec(
                logical=logical,
                members=(MemberSpec(
                    name=logical, latency_ms=draw_latency()
                ),),
            ))

    request_stream = streams.stream("requests")
    count = request_stream.randint(params.requests_min, params.requests_max)
    branch_vars = sorted(workload.request_args)
    requests = tuple(
        {name: request_stream.random() < 0.5 for name in branch_vars}
        for _ in range(count)
    )

    return GeneratedScenario(
        seed=seed,
        params=params,
        chart=workload.chart,
        composite_name=f"Scenario{seed:05d}",
        slots=tuple(slots),
        requests=requests,
        task_count=workload.task_count,
        xor_count=workload.xor_count,
        and_count=workload.and_count,
    )


def scenario_corpus(
    seeds: "List[int] | range", params: Optional[ScenarioParams] = None
) -> "List[GeneratedScenario]":
    """Generate one scenario per seed (the enumerable experiment space)."""
    return [generate_scenario(seed, params) for seed in seeds]
