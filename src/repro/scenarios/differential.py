"""Differential scenario harness: one scenario, three runtimes.

The point of the scenario corpus: every generated topology is driven
through the **classic** platform (P2P coordinators), the **central**
orchestrator baseline and the **fleet** runtime (sharded slices), and
the three runs must agree — same per-request statuses, same final
outputs, same per-logical-service invocation counts — while holding the
corpus-wide invariants (no lost executions, conserved request
accounting).  Any layer regression that changes *what* a composition
computes, on any of the hundreds of corpus seeds, shows up as a
mismatch here long before a benchmark would notice.

The harness deliberately builds a **fresh platform per runtime** from
freshly materialized services (see :meth:`~repro.scenarios.generator
.GeneratedScenario.materialize`), so no state leaks between the runs
being compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.config import PlatformConfig
from repro.api.platform import Platform
from repro.baselines.central import deploy_central
from repro.fleet.config import FleetConfig
from repro.perf import PerfConfig
from repro.scenarios.generator import GeneratedScenario, MaterializedSlot
from repro.services.composite import CompositeService
from repro.services.description import OperationSpec, ServiceDescription

#: The runtimes the differential suite compares.
RUNTIMES = ("classic", "central", "fleet")


def scenario_composite(scenario: GeneratedScenario) -> CompositeService:
    """A fresh composite wrapping the scenario's chart (open spec)."""
    description = ServiceDescription(
        name=scenario.composite_name,
        provider="ScenarioCorp",
        description="generated scenario composite",
    )
    composite = CompositeService(description)
    composite.define_operation(OperationSpec(name="run"), scenario.chart)
    return composite


@dataclass
class ScenarioRun:
    """What one runtime did with one scenario's request batch."""

    runtime: str
    #: Final status per request, in submission order.
    statuses: "List[str]"
    #: Final outputs env per request, in submission order.
    outputs: "List[Dict[str, Any]]"
    #: Completed provider invocations per *logical* service (community
    #: members fold into their community's name).
    invocations: "Dict[str, int]"
    #: Provider-side faulted invocations (nonzero only with flaky mix).
    faulted: int
    #: Requests that never produced any result (must always be 0).
    lost: int
    #: Virtual quiesce time of the run.
    makespan_ms: float

    @property
    def ok(self) -> bool:
        return self.lost == 0 and all(s == "success" for s in self.statuses)


def _wrapper_counts(
    kernels: "List[Any]", logical_of: "Dict[str, str]"
) -> "Tuple[Dict[str, int], int]":
    """(completed-per-logical-service, total-faulted) over ``kernels``."""
    invocations: Dict[str, int] = {}
    faulted = 0
    for kernel in kernels:
        for actor in kernel.actors():
            if type(actor).__name__ != "ServiceWrapperRuntime":
                continue
            name = actor.service.name
            logical = logical_of.get(name)
            if logical is None:
                continue
            invocations[logical] = (
                invocations.get(logical, 0) + actor.completed
            )
            faulted += actor.faulted
    return invocations, faulted


def _run_requests(
    platform: Platform,
    deployment: Any,
    scenario: GeneratedScenario,
    runtime: str,
    kernels: "List[Any]",
    deadline_ms: Optional[float],
) -> ScenarioRun:
    session = platform.session("diff-user", "diff-client")
    start = platform.now_ms()
    handles = [
        session.submit(deployment, "run", dict(request),
                       deadline_ms=deadline_ms)
        for request in scenario.requests
    ]
    platform.wait_for(lambda: all(h.done() for h in handles),
                      timeout_ms=None)
    makespan = platform.now_ms() - start

    statuses: List[str] = []
    outputs: List[Dict[str, Any]] = []
    lost = 0
    for handle in handles:
        result = handle.peek()
        if result is None:
            lost += 1
            statuses.append("lost")
            outputs.append({})
            continue
        statuses.append(result.status)
        outputs.append(dict(result.outputs))
    invocations, faulted = _wrapper_counts(kernels, scenario.logical_of())
    return ScenarioRun(
        runtime=runtime,
        statuses=statuses,
        outputs=outputs,
        invocations=invocations,
        faulted=faulted,
        lost=lost,
        makespan_ms=makespan,
    )


def _deploy_slots(platform: Platform,
                  slots: "List[MaterializedSlot]") -> None:
    """Deploy every slot on the classic platform (one host per provider)."""
    for slot in slots:
        for service in slot.services:
            platform.register_elementary(
                service, f"{service.name}-host", publish=False,
            )
        if slot.community is not None:
            platform.register_community(
                slot.community, f"{slot.spec.logical}-chost", publish=False,
            )


def _platform_config(seed: int, perf: "Optional[PerfConfig]",
                     **extra: Any) -> PlatformConfig:
    if perf is not None:
        extra["perf"] = perf
    return PlatformConfig(seed=seed, **extra)


def run_classic(
    scenario: GeneratedScenario,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    perf: "Optional[PerfConfig]" = None,
) -> ScenarioRun:
    """The scenario on the classic platform (P2P coordinators)."""
    platform = Platform(_platform_config(seed, perf, trace=False))
    _deploy_slots(platform, scenario.materialize())
    deployment = platform.deploy_composite(
        scenario_composite(scenario), "composite-host", publish=False,
    )
    return _run_requests(platform, deployment, scenario, "classic",
                         [platform.kernel], deadline_ms)


def run_central(
    scenario: GeneratedScenario,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    perf: "Optional[PerfConfig]" = None,
) -> ScenarioRun:
    """The scenario under the centralised orchestrator baseline.

    The service substrate (providers, communities) is identical to the
    classic run; only the coordination layer differs.
    """
    platform = Platform(_platform_config(seed, perf, trace=False))
    _deploy_slots(platform, scenario.materialize())
    deployment = deploy_central(
        scenario_composite(scenario),
        "central-host",
        platform.transport,
        platform.directory,
        registry=platform.config.registry,
        kernel=platform.kernel,
    )
    return _run_requests(platform, deployment, scenario, "central",
                         [platform.kernel], deadline_ms)


def run_fleet(
    scenario: GeneratedScenario,
    seed: int = 0,
    shards: int = 2,
    deadline_ms: Optional[float] = None,
    perf: "Optional[PerfConfig]" = None,
) -> ScenarioRun:
    """The scenario on a sharded fleet (composition co-located by shard)."""
    platform = Platform(_platform_config(
        seed, perf, fleet=FleetConfig(shards=shards),
    ))
    affinity = scenario.composite_name
    for slot in scenario.materialize():
        for service in slot.services:
            platform.fleet.deployer.deploy_elementary(
                service, f"{service.name}-host", affinity=affinity,
            )
        if slot.community is not None:
            platform.fleet.deployer.deploy_community(
                slot.community, f"{slot.spec.logical}-chost",
                policy=platform.config.default_selection_policy,
                timeout_ms=platform.config.community_timeout_ms,
                affinity=affinity,
            )
    deployment = platform.fleet.deployer.deploy_composite(
        scenario_composite(scenario), "composite-host",
    )
    kernels = [shard.kernel for shard in platform.fleet.shards.values()]
    return _run_requests(platform, deployment, scenario, "fleet",
                         kernels, deadline_ms)


@dataclass
class DifferentialReport:
    """Agreement (or not) of the three runtimes on one scenario."""

    scenario: GeneratedScenario
    runs: "Dict[str, ScenarioRun]"
    mismatches: "List[str]" = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.equivalent:
            return (
                f"seed {self.scenario.seed}: {len(RUNTIMES)} runtimes "
                f"agree on {len(self.scenario.requests)} request(s)"
            )
        return f"seed {self.scenario.seed}: " + "; ".join(self.mismatches)


def _compare(reference: ScenarioRun, other: ScenarioRun,
             mismatches: "List[str]") -> None:
    pair = f"{reference.runtime} vs {other.runtime}"
    if reference.statuses != other.statuses:
        mismatches.append(
            f"{pair}: statuses {reference.statuses} != {other.statuses}"
        )
    if reference.outputs != other.outputs:
        for index, (a, b) in enumerate(
            zip(reference.outputs, other.outputs)
        ):
            if a != b:
                mismatches.append(
                    f"{pair}: request {index} outputs differ: "
                    f"{a!r} != {b!r}"
                )
                break
    if reference.invocations != other.invocations:
        mismatches.append(
            f"{pair}: invocation counts {reference.invocations} != "
            f"{other.invocations}"
        )


def differential(
    scenario: GeneratedScenario,
    seed: int = 0,
    shards: int = 2,
    perf: "Optional[PerfConfig]" = None,
) -> DifferentialReport:
    """Run one scenario through every runtime and compare the outcomes.

    Invariants checked per run (independent of cross-runtime equality):

    * **no lost executions** — every submitted request produced a
      result (success or fault; silence is the bug),
    * **conserved accounting** — result count equals request count.

    Cross-runtime equivalence: statuses, outputs and per-logical-service
    invocation counts must agree pairwise against the classic run.

    ``perf`` overrides the fast-path configuration on *all three*
    platforms — the zero-copy/batching knobs must never change what a
    composition computes, only how fast the kernel moves it.
    """
    runs = {
        "classic": run_classic(scenario, seed=seed, perf=perf),
        "central": run_central(scenario, seed=seed, perf=perf),
        "fleet": run_fleet(scenario, seed=seed, shards=shards, perf=perf),
    }
    mismatches: List[str] = []
    for name, run in runs.items():
        if run.lost:
            mismatches.append(f"{name}: {run.lost} lost execution(s)")
        produced = len(run.statuses)
        if produced != len(scenario.requests):
            mismatches.append(
                f"{name}: {produced} results for "
                f"{len(scenario.requests)} requests"
            )
    reference = runs["classic"]
    for name in ("central", "fleet"):
        _compare(reference, runs[name], mismatches)
    return DifferentialReport(
        scenario=scenario, runs=runs, mismatches=mismatches,
    )
