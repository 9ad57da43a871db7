"""Experiment harness: deploy, execute, measure.

Benchmarks and integration tests share these helpers so every experiment
builds its environment the same way: a deterministic simulated network,
one host per synthetic provider, a composite either P2P-deployed (one
coordinator per state on the provider hosts) or centrally orchestrated
(all control on one host), and a batch of concurrent executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.baselines.central import deploy_central
from repro.deployment.deployer import CompositeDeployment, Deployer
from repro.deployment.placement import PlacementPolicy
from repro.exceptions import DeploymentError
from repro.expr import FunctionRegistry
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.simnet import SimTransport
from repro.runtime.client import RuntimeClient
from repro.runtime.directory import ServiceDirectory
from repro.services.composite import CompositeService
from repro.services.description import OperationSpec, ServiceDescription
from repro.sim.random_streams import RandomStreams
from repro.workload.generator import SyntheticWorkload, make_chain_workload


@dataclass
class SimEnvironment:
    """A simulated testbed: transport + deployer + directory + streams."""

    transport: SimTransport
    deployer: Deployer
    directory: ServiceDirectory
    streams: RandomStreams
    _clients: Dict[str, RuntimeClient] = field(default_factory=dict)

    def client(self, name: str = "enduser",
               host: str = "client-host") -> RuntimeClient:
        """Get (or create) a client; repeated calls reuse the endpoint."""
        key = f"{name}@{host}"
        existing = self._clients.get(key)
        if existing is not None:
            return existing
        if not self.transport.has_node(host):
            self.transport.add_node(host)
        client = RuntimeClient(name, host, self.transport,
                               kernel=self.deployer.kernel)
        client.start()
        self._clients[key] = client
        return client


def build_sim_environment(
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    loss_rate: float = 0.0,
    registry: Optional[FunctionRegistry] = None,
    placement: Optional[PlacementPolicy] = None,
    processing_ms: float = 0.0,
) -> SimEnvironment:
    """Create a deterministic simulated environment.

    ``processing_ms`` enables the per-host serial message-handling model
    (see :class:`~repro.net.simnet.SimTransport`) used by the scalability
    benchmarks.
    """
    streams = RandomStreams(seed)
    transport = SimTransport(
        latency=latency or FixedLatency(remote_ms=5.0),
        loss_rate=loss_rate,
        rng=streams.stream("network"),
        processing_ms=processing_ms,
    )
    directory = ServiceDirectory()
    deployer = Deployer(transport, directory, registry=registry,
                        placement=placement)
    return SimEnvironment(
        transport=transport,
        deployer=deployer,
        directory=directory,
        streams=streams,
    )


def deploy_workload_services(
    env: SimEnvironment, workload: SyntheticWorkload
) -> "Dict[str, str]":
    """Deploy each synthetic service on its own host; returns hosts map.

    Raises :class:`~repro.exceptions.DeploymentError` when a generated
    service name is already registered in the environment — two
    workloads sharing a ``service_prefix`` would otherwise silently
    re-point each other's names (the directory is latest-wins by
    design), corrupting every composition still referring to the first
    workload's providers.
    """
    collisions = [
        service.name for service in workload.services
        if env.directory.knows(service.name)
    ]
    if collisions:
        raise DeploymentError(
            f"workload service name(s) {collisions} already deployed in "
            f"this environment; give each workload a distinct "
            f"GeneratorParams.service_prefix"
        )
    hosts: Dict[str, str] = {}
    for index, service in enumerate(workload.services):
        host = f"svc-host-{index:03d}"
        env.deployer.deploy_elementary(
            service, host, rng=env.streams.stream(f"svc-{index}")
        )
        hosts[service.name] = host
    return hosts


def composite_for_workload(
    workload: SyntheticWorkload,
    name: str = "SyntheticComposite",
) -> CompositeService:
    """Wrap a generated chart in a composite service with an open spec."""
    description = ServiceDescription(
        name=name, provider="SynthCo",
        description="synthetic benchmark composite",
    )
    composite = CompositeService(description)
    composite.define_operation(
        OperationSpec(name="run"),  # untyped: outputs are the raw env
        workload.chart,
    )
    return composite


def deploy_chain(
    deployer: Any,
    name: str,
    index: int,
    tasks: int,
    seed: int,
    service_latency_ms: float,
    **routing: Any,
) -> CompositeDeployment:
    """Deploy chain composite ``name`` (slot ``index``) and its services.

    The topology is a pure function of the arguments: the chain is
    generated from seed ``seed * 1000 + index``, service ``i`` runs on
    host ``<name>-svc-<i>`` and the composite on ``<name>-host`` (names
    lower-cased).  ``routing`` (e.g. ``shard=``) is forwarded to every
    deploy call, for a fleet deployer.
    """
    workload = make_chain_workload(
        tasks,
        seed=seed * 1000 + index,
        service_latency_ms=service_latency_ms,
        service_prefix=f"{name}Svc",
    )
    for task_index, service in enumerate(workload.services):
        deployer.deploy_elementary(
            service, f"{name.lower()}-svc-{task_index:02d}", **routing
        )
    return deployer.deploy_composite(
        composite_for_workload(workload, name=name),
        f"{name.lower()}-host",
        **routing,
    )


@dataclass
class RunReport:
    """Measured outcome of one batch of executions."""

    architecture: str
    executions: int
    successes: int
    latencies_ms: List[float] = field(default_factory=list)
    messages_total: int = 0
    messages_remote: int = 0
    messages_local: int = 0
    bytes_total: int = 0
    load_by_node: Dict[str, int] = field(default_factory=dict)
    peak_node: str = ""
    peak_node_load: int = 0
    load_concentration: float = 0.0
    makespan_ms: float = 0.0

    @property
    def success_rate(self) -> float:
        return self.successes / self.executions if self.executions else 0.0

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def max_latency_ms(self) -> float:
        return max(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def messages_per_execution(self) -> float:
        return self.messages_total / self.executions if self.executions else 0.0

    def row(self) -> "Dict[str, Any]":
        """Flat dict for table printing in benchmarks."""
        return {
            "arch": self.architecture,
            "execs": self.executions,
            "ok": self.successes,
            "mean_ms": round(self.mean_latency_ms, 2),
            "max_ms": round(self.max_latency_ms, 2),
            "msgs": self.messages_total,
            "remote": self.messages_remote,
            "msgs/exec": round(self.messages_per_execution, 1),
            "peak_node": self.peak_node,
            "peak_load": self.peak_node_load,
            "concentration": round(self.load_concentration, 3),
            "makespan_ms": round(self.makespan_ms, 2),
        }


def _run_batch(
    env: SimEnvironment,
    address: "Tuple[str, str]",
    operation: str,
    args_list: "List[Mapping[str, Any]]",
    architecture: str,
    timeout_ms: Optional[float],
    interarrival_ms: float,
) -> RunReport:
    """Submit all requests (optionally staggered) and drain the sim."""
    env.transport.stats.reset()
    client = env.client(name=f"load-{architecture}")
    target_node, target_endpoint = address
    start = env.transport.now_ms()

    submitted = 0

    def submit_one(args: "Mapping[str, Any]") -> None:
        client.submit(target_node, target_endpoint, operation, args,
                      deadline_ms=timeout_ms)

    for index, args in enumerate(args_list):
        if interarrival_ms > 0:
            env.transport.simulator.schedule(
                index * interarrival_ms,
                lambda a=args: submit_one(a),
            )
        else:
            submit_one(args)
        submitted += 1

    env.transport.wait_for(
        lambda: client.results_received() >= submitted,
        timeout_ms=None,
    )
    makespan = env.transport.now_ms() - start
    results = client.take_results()

    stats = env.transport.stats
    peak_node, peak_load = stats.peak_node_load()
    return RunReport(
        architecture=architecture,
        executions=submitted,
        successes=sum(1 for r in results.values() if r.ok),
        latencies_ms=[],  # filled below from wrapper records by callers
        messages_total=stats.sent_total,
        messages_remote=stats.remote_total,
        messages_local=stats.local_total,
        bytes_total=stats.bytes_total,
        load_by_node=stats.load_by_node(),
        peak_node=peak_node,
        peak_node_load=peak_load,
        load_concentration=stats.load_concentration(),
        makespan_ms=makespan,
    )


def run_p2p(
    env: SimEnvironment,
    composite: CompositeService,
    args_list: "List[Mapping[str, Any]]",
    operation: str = "run",
    composite_host: str = "composite-host",
    timeout_ms: Optional[float] = None,
    interarrival_ms: float = 0.0,
) -> RunReport:
    """Deploy P2P, run the batch, undeploy, report."""
    deployment = env.deployer.deploy_composite(
        composite, composite_host, default_timeout_ms=timeout_ms,
    )
    try:
        report = _run_batch(
            env, deployment.address, operation, args_list,
            architecture="p2p", timeout_ms=timeout_ms,
            interarrival_ms=interarrival_ms,
        )
        report.latencies_ms = [
            r.duration_ms for r in deployment.wrapper.records()
            if r.status == "success"
        ]
        return report
    finally:
        deployment.undeploy()
        env.directory.unregister(composite.name)


def run_central(
    env: SimEnvironment,
    composite: CompositeService,
    args_list: "List[Mapping[str, Any]]",
    operation: str = "run",
    central_host: str = "central-host",
    timeout_ms: Optional[float] = None,
    interarrival_ms: float = 0.0,
) -> RunReport:
    """Deploy the central baseline, run the batch, undeploy, report."""
    deployment = deploy_central(
        composite, central_host, env.transport, env.directory,
        default_timeout_ms=timeout_ms, kernel=env.deployer.kernel,
    )
    try:
        report = _run_batch(
            env, deployment.address, operation, args_list,
            architecture="central", timeout_ms=timeout_ms,
            interarrival_ms=interarrival_ms,
        )
        report.latencies_ms = [
            e.finished_ms - e.started_ms
            for e in deployment.orchestrator.records()
            if e.status == "success"
        ]
        return report
    finally:
        deployment.undeploy()
