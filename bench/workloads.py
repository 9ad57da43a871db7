"""The four workloads: what each one builds, sends and checks.

Every workload drives ``src/repro`` through its public API only and has
the same shape: ``setup()`` (build + warm-up), ``measure(seconds)``
(a latency phase, then throughput segments), ``finish()`` (drain, and
for ``wire_durable`` the kill/recover), ``close()``.  The ``--seed``
picks the *inputs* — composite order, destinations, chart shapes — and
nothing else; the program's own seeds are constants.

Phases are sized by ``--seconds``.  The open-loop latency phases send
at a fixed rate for a fixed time, so parent and change receive the
same requests at the same instants; the closed-loop phases run for a
fixed time, so a faster build completes more units (and carries the
state those units leave behind: see README, "Drift").
"""

from __future__ import annotations

import collections
import dataclasses
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from spans import NullTracer

from repro import Platform, PlatformConfig
from repro.demo.travel import (
    DEFAULT_MEMBERS,
    build_accommodation_community,
    build_travel_scenario,
    deploy_travel_scenario,
)
from repro.exceptions import SelfServError
from repro.fleet.wire import WireFleet
from repro.workload.generator import make_workload
from repro.workload.harness import composite_for_workload

#: Requests (or executions) a closed-loop client keeps outstanding.
WIRE_WINDOW = 8
TRAVEL_WINDOW = 16
#: Wall-clock budget of one unit before it counts as failed.
UNIT_TIMEOUT_S = 30.0

CHAIN_OUTPUTS = {"result_0": 1, "result_1": 2, "result_2": 3}

#: Throughput-segment plans: ``False`` = untraced, ``True`` = traced.
#: Untraced runs report the median of five equal segments, which a
#: disturbance of up to two of them (another process waking on this
#: two-core box) cannot move.  Traced runs alternate untraced and
#: traced segments of about a quarter second, short against the drift
#: of the program's cost with accumulated state, so that drift falls
#: on both sides of ``trace.overhead_x`` alike.
UNTRACED_SEGMENTS = (False,) * 5
TRACED_SEGMENT_S = 0.25
#: Stand-in tracer for the untraced segments of a traced run.
_UNTRACED = NullTracer()


def percentile(sorted_values: "List[float]", q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * len(sorted_values) + 0.5)) - 1))
    return sorted_values[rank]


def segment_percentile(values: "List[float]", q: float,
                       segments: int) -> float:
    """Median over ``segments`` equal consecutive chunks of each
    chunk's ``q`` percentile: a burst of outside interference lands in
    one or two chunks and drops out, while anything the program does
    all the time is in every chunk."""
    size = max(1, len(values) // segments)
    chunks = [values[i:i + size]
              for i in range(0, size * segments, size) if values[i:i + size]]
    return statistics.median(percentile(sorted(chunk), q) for chunk in chunks)


#: CPUs this process may run on, as found at start (before any pinning).
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(pid: int, slot: int) -> None:
    """Bind every thread of process ``pid`` to the ``slot``-th CPU.

    One busy process per core.  Left to itself the scheduler sometimes
    packs the runner's and the shard's threads onto one CPU at low load
    and sometimes spreads them, and the two placements differ by 25 %
    in median latency and 10 % in throughput: a coin tossed once per
    run.  Does nothing where there are not two CPUs to choose from.
    """
    if len(_CPUS) < 2:
        return
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {_CPUS[slot]})
        except OSError:
            pass  # the thread ended between listing and binding


def vm_hwm_mb(pid: "Optional[int]" = None) -> float:
    """Peak resident set of a process, from ``/proc`` (``VmHWM``)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Workload:
    """Shared bookkeeping; subclasses fill in the phases."""

    name = ""
    #: Share of ``--seconds`` spent in the latency phase.
    latency_share = 0.5
    #: Chunks the latency samples are cut into (see segment_percentile).
    latency_segments = 5
    #: ``rss_peak_mb`` is read when unit ``rss_mark_rate * seconds`` of
    #: the run completes, not at its end: the program keeps memory per
    #: unit, so a peak taken after "however many units fitted" would
    #: mostly measure speed.  The rates are about 60 % of what the
    #: reference machine completes, so slower machines still get there.
    rss_mark_rate = 0.0

    def __init__(self, seed: int, scale: float, tracer: Any,
                 workdir: str) -> None:
        #: 1.0 for a real run; ``--smoke`` shrinks warm-up and probe
        #: counts with it.
        self.scale = scale
        self.tracer = tracer
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        #: Reasons the outputs (beyond per-unit checks) were wrong.
        self.errors: "List[str]" = []
        #: Reasons the run cannot be trusted as a measurement.
        self.invalid: "List[str]" = []
        #: Latency-phase samples in the order they were taken.
        self.latencies_ms: "List[float]" = []
        self.rss_mark = 0
        self.rss_at_mark_mb = 0.0
        #: ``(traced, units_per_second)`` per throughput segment.
        self.segments: "List[Tuple[bool, float]]" = []
        self.info: "Dict[str, Any]" = {}

    def count(self, base: int, floor: int = 1) -> int:
        return max(floor, int(base * self.scale))

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if self.attempted == self.rss_mark:
            self.rss_at_mark_mb = self.rss_now_mb()

    def start_measuring(self, seconds: float) -> None:
        self.rss_mark = int(self.rss_mark_rate * seconds)

    def segment_plan(self, phase_seconds: float) -> "Tuple[bool, ...]":
        if not self.tracer.enabled:
            return UNTRACED_SEGMENTS
        pairs = max(1, min(20, int(phase_seconds / TRACED_SEGMENT_S / 2)))
        return (False, True) * pairs

    # Subclass surface -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Drain what is in flight (and run any end-of-run scenario)."""

    def rss_now_mb(self) -> float:
        """Peak resident memory so far of every process of the run."""
        return vm_hwm_mb()

    def rss_peak_mb(self) -> float:
        if not self.rss_at_mark_mb:
            # A machine too slow to reach the mark: the run's own peak.
            self.info["rss_mark_missed"] = self.rss_mark
            return self.rss_now_mb()
        return self.rss_at_mark_mb

    def close(self) -> None:
        """Stop every thread and process, remove every temp file."""


# ---------------------------------------------------------------------------
# wire_chain / wire_durable
# ---------------------------------------------------------------------------


class WireWorkload(Workload):
    """One shard process behind a TCP socket on the host's loopback."""

    durable = False
    #: Open-loop arrival rate of the latency phase (requests/second).
    rate = 400.0
    rss_mark_rate = 600.0

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.fleet: "Optional[WireFleet]" = None
        self.wal_dir = ""
        #: ``(call, due, submit_begin, submit_end)`` of in-flight calls.
        self._inflight: "Deque[Tuple[Any, float, float, float]]" = (
            collections.deque()
        )
        self._shard_hwm_mb = 0.0
        self.late_ms: "List[float]" = []
        self.rate_achieved = 1.0
        self.inflight_mean = 0.0
        #: Names of the latency phase's requests, in order (the replica
        #: replays them).
        self.sequence: "List[str]" = []
        self.wire_delta: "Dict[str, int]" = {}
        self.latency_requests = 0
        #: ``(composite, request_key, result)`` of some traced requests,
        #: for the codec probe.
        self.samples: "List[Tuple[str, str, Any]]" = []

    # Lifecycle --------------------------------------------------------------

    def setup(self) -> None:
        if self.durable:
            self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        started = time.perf_counter()
        self.fleet = WireFleet(
            shards=1, composites=4, tasks=3,
            durability_dir=self.wal_dir, fsync="interval",
        ).start()
        self.info["fresh_spawn_s"] = time.perf_counter() - started
        self._pin()
        self._closed_loop(False, count=self.count(200, floor=16))
        self._drain(False)

    def close(self) -> None:
        try:
            if self.fleet is not None:
                self._note_shard_rss()
                self.fleet.stop()
                self.fleet = None
        finally:
            if self.wal_dir:
                shutil.rmtree(self.wal_dir, ignore_errors=True)

    def rss_now_mb(self) -> float:
        self._note_shard_rss()
        return vm_hwm_mb() + self._shard_hwm_mb

    def _pin(self) -> None:
        pin(os.getpid(), 0)
        for handle in self.fleet.nodes.values():
            pin(handle.pid, 1)

    def _note_shard_rss(self) -> None:
        # Incarnations of the one shard never coexist, so the fleet's
        # peak is the runner's plus the largest incarnation's.
        if self.fleet is None:
            return
        for handle in self.fleet.nodes.values():
            if handle.alive:
                self._shard_hwm_mb = max(self._shard_hwm_mb,
                                         vm_hwm_mb(handle.pid))

    # One request ------------------------------------------------------------

    def next_input(self) -> str:
        return self.rng.choice(self.fleet.composites)

    def _submit(self, due: "Optional[float]" = None) -> None:
        """Send one request; ``due`` is set in the open loop only."""
        name = self.next_input()
        if due is not None:
            self.sequence.append(name)
        begin = time.perf_counter()
        call = self.fleet.submit(name)
        end = time.perf_counter()
        self._inflight.append((call, due, begin, end))

    def _await_oldest(self, traced: bool) -> float:
        """Resolve the oldest in-flight call; returns its latency (s)."""
        call, due, begin, end = self._inflight.popleft()
        start = begin if due is None else due
        try:
            result = call.result(timeout=UNIT_TIMEOUT_S)
        except SelfServError:
            self.tally(False)
            return UNIT_TIMEOUT_S
        self.tally(result.ok and result.outputs == CHAIN_OUTPUTS)
        if traced:
            root = self.tracer.add("request", start, call.resolved_at,
                                   None, call.request_key)
            self.tracer.add(
                "fleet.submit" if due is not None else "fleet.submit.closed",
                begin, end, root, call.request_key,
            )
            if len(self.samples) < 256:
                self.samples.append(
                    (call.composite, call.request_key, result)
                )
        return call.resolved_at - start

    def _drain(self, traced: bool) -> None:
        while self._inflight:
            self._await_oldest(traced)

    # Load generators --------------------------------------------------------

    def _closed_loop(self, traced: bool, seconds: float = 0.0,
                     count: int = 0) -> float:
        """``WIRE_WINDOW`` outstanding for ``seconds`` (or ``count``
        completions); returns completions per second.  The window is
        left in flight so consecutive segments run back to back."""
        started = time.perf_counter()
        deadline = started + seconds
        done = 0
        while len(self._inflight) < WIRE_WINDOW:
            self._submit()
        while True:
            self._await_oldest(traced)
            done += 1
            if count and done >= count:
                break
            if not count and time.perf_counter() >= deadline:
                break
            self._submit()
        return done / (time.perf_counter() - started)

    def _open_loop(self, requests: int, traced: bool) -> None:
        """Constant spacing at ``self.rate``; each request is timed from
        the instant it was *due*, so a stall is charged to every request
        it delays."""
        period = 1.0 / self.rate
        first_due = time.perf_counter() + 0.01
        for index in range(requests):
            due = first_due + index * period
            remaining = due - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            self._submit(due)
            self.late_ms.append((self._inflight[-1][2] - due) * 1000.0)
        sent = list(self._inflight)
        for _ in sent:
            self.latencies_ms.append(self._await_oldest(traced) * 1000.0)
        first, last = sent[0][2], sent[-1][2]
        if last > first:
            self.rate_achieved = (requests - 1) / (last - first) / self.rate
        # Little's law: mean in flight = time in flight / elapsed.
        resolved = [(call.resolved_at or begin, begin)
                    for call, _, begin, _ in sent]
        elapsed = max(end for end, _ in resolved) - first
        if elapsed > 0:
            self.inflight_mean = (
                sum(end - begin for end, begin in resolved) / elapsed
            )

    # Phases -----------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        self.start_measuring(seconds)
        traced = self.tracer.enabled
        requests = max(20, int(self.rate * self.latency_share * seconds))
        before = dict(self.fleet.frontend.wire_counters)
        self._open_loop(requests, traced)
        after = dict(self.fleet.frontend.wire_counters)
        self.wire_delta = {key: after[key] - before[key] for key in after}
        self.latency_requests = requests
        plan = self.segment_plan(seconds * (1.0 - self.latency_share))
        each = seconds * (1.0 - self.latency_share) / len(plan)
        for segment_traced in plan:
            self.segments.append(
                (segment_traced,
                 self._closed_loop(segment_traced, seconds=each))
            )

    def finish(self) -> None:
        self._drain(self.tracer.enabled)
        self._collect_counters()

    def _collect_counters(self) -> None:
        shard = self.fleet.stats()[0]
        front = self.fleet.frontend.wire_counters
        self.info["wire_errors"] = sum(
            counters[key]
            for counters in (front, shard["wire"])
            for key in ("frames_dropped", "framing_errors", "codec_errors")
        )


class WireChain(WireWorkload):
    name = "wire_chain"


class WireDurable(WireWorkload):
    """The same fleet with a write-ahead log, then a crash: the run
    ends by killing the shard with requests in flight and recovering it
    from what the run wrote.

    The log syncs every 64 records (``fsync="interval"``), not every
    record.  Under ``"always"`` ten runs on the reference machine gave
    125 to 309 req/s (spread 34 %): the virtual disk's fsync time
    drifts by a factor of two over minutes, and 18 fsyncs per request
    made that drift the whole measurement.  At one sync per 64 records
    the disk is about 3 % of a request and what remains is the log's
    own work — encode, frame, buffer, write — plus recovery.  The sync
    count under ``"always"`` is still reported, as the exact per-layer
    count ``durability.fsyncs_per_request_always``."""

    name = "wire_durable"
    durable = True
    rate = 400.0
    rss_mark_rate = 300.0

    #: Requests between the snapshot and the kill: recovery replays a
    #: fixed amount of log (18 records each), whatever the build's speed.
    RECOVERY_LOAD = 1500

    def finish(self) -> None:
        traced = self.tracer.enabled
        self._drain(traced)
        started = time.perf_counter()
        reply = self.fleet.snapshot_shard(0)
        self.info["snapshot_s"] = time.perf_counter() - started
        if not reply.get("ok"):
            self.errors.append(f"snapshot refused: {reply.get('error')}")
        snapshots = os.path.join(self.wal_dir, "shard-0", "snapshots")
        self.info["snapshot_bytes"] = max(
            (os.path.getsize(os.path.join(snapshots, entry))
             for entry in os.listdir(snapshots)), default=0,
        )
        self._closed_loop(False, count=self.count(self.RECOVERY_LOAD,
                                                  floor=16))
        while len(self._inflight) < WIRE_WINDOW:
            self._submit()
        self._note_shard_rss()
        killed = time.perf_counter()
        self.fleet.kill_shard(0)
        summary = self.fleet.recover_shard(0)
        self.info["recover_call_s"] = time.perf_counter() - killed
        self._pin()
        self._drain(traced)
        self.info["recover_s"] = time.perf_counter() - killed
        self.info["recovery"] = {
            key: summary.get(key)
            for key in ("clean_tail", "records_total", "deliveries_replayed",
                        "resolved_from_wal", "resubmitted")
        }
        if summary.get("clean_tail") is not True:
            self.errors.append("recovery found a torn WAL tail")
        self._closed_loop(False, count=self.count(200, floor=16))
        self._drain(False)
        self._collect_counters()


# ---------------------------------------------------------------------------
# local_travel
# ---------------------------------------------------------------------------

#: destination -> (international, major attraction is far).
DESTINATIONS = {
    "sydney": (False, False),
    "cairns": (False, True),
    "paris": (True, False),
    "tokyo": (True, True),
}
TRAVEL_KEYS = {"flight_ref", "accommodation_ref", "accommodation",
               "major_attraction", "insurance_ref", "car_ref"}


def build_reliable_travel_scenario() -> Any:
    """The demo scenario with every accommodation member at
    reliability 1.0.

    The stock members fail 1-10 % of invocations by design; a benchmark
    needs workloads on which nothing fails, so only that one number is
    changed — latency, cost, capacity and the request constraint still
    differ per member, so community selection still has a choice.
    """
    members = [
        (name, provider, multiplier, hotel,
         dataclasses.replace(profile, reliability=1.0), constraint)
        for name, provider, multiplier, hotel, profile, constraint
        in DEFAULT_MEMBERS
    ]
    community, services = build_accommodation_community(members)
    return dataclasses.replace(
        build_travel_scenario(),
        community=community, community_members=services,
    )


class LocalTravel(Workload):
    """The paper's travel composite on the classic in-process platform:
    no socket, no second process, no log."""

    name = "local_travel"
    rss_mark_rate = 700.0

    def setup(self) -> None:
        self.platform = Platform(PlatformConfig(trace=False))
        deployed = deploy_travel_scenario(
            self.platform.deployer, build_reliable_travel_scenario()
        )
        self.target = deployed.deployment
        self.session = self.platform.session("bench", "bench-host")
        for _ in range(self.count(200, floor=16)):
            self._execute(False, 0)

    def next_input(self) -> "Dict[str, Any]":
        return {
            "customer": "bench",
            "destination": self.rng.choice(list(DESTINATIONS)),
            "departure_date": "2026-03-01",
            "return_date": "2026-03-08",
        }

    def check(self, arguments: "Dict[str, Any]", result: Any) -> None:
        international, far = DESTINATIONS[arguments["destination"]]
        outputs = result.outputs
        self.tally(
            result.ok
            and set(outputs) == TRAVEL_KEYS
            and bool(outputs["flight_ref"])
            and bool(outputs["accommodation_ref"])
            and bool(outputs["insurance_ref"]) == international
            and bool(outputs["car_ref"]) == far
        )

    def _execute(self, traced: bool, request: int) -> None:
        arguments = self.next_input()
        tracer = self.tracer if traced else _UNTRACED
        try:
            with tracer.span("request", request):
                with tracer.span("api.submit"):
                    handle = self.session.submit(
                        self.target, "arrangeTrip", arguments
                    )
                with tracer.span("runtime.pump"):
                    result = handle.result()
        except SelfServError:
            self.tally(False)
            return
        self.check(arguments, result)

    def _window(self, traced: bool, request: int) -> None:
        batch = [self.next_input() for _ in range(TRAVEL_WINDOW)]
        tracer = self.tracer if traced else _UNTRACED
        try:
            with tracer.span("window", request):
                with tracer.span("api.submit_many"):
                    handles = self.session.submit_many(
                        [(self.target, "arrangeTrip", arguments)
                         for arguments in batch]
                    )
                with tracer.span("api.gather"):
                    results = self.session.gather(handles)
        except SelfServError:
            for _ in batch:
                self.tally(False)
            return
        for arguments, result in zip(batch, results):
            self.check(arguments, result)

    def measure(self, seconds: float) -> None:
        self.start_measuring(seconds)
        traced = self.tracer.enabled
        stats = self.platform.transport.stats
        simulator = self.platform.transport.simulator
        sent, events = stats.sent_total, simulator.processed_events
        # Counted over a fixed number of executions, so that the counts
        # depend on the seed alone and not on how many the phase fitted.
        counted = self.count(2000, floor=16)
        deadline = time.perf_counter() + seconds * self.latency_share
        executions = 0
        while True:
            started = time.perf_counter()
            self._execute(traced, executions)
            ended = time.perf_counter()
            self.latencies_ms.append((ended - started) * 1000.0)
            executions += 1
            if executions == counted:
                self.info["msgs_per_request"] = (
                    (stats.sent_total - sent) / counted
                )
                self.info["events_per_request"] = (
                    (simulator.processed_events - events) / counted
                )
            if ended >= deadline and executions >= counted:
                break
        plan = self.segment_plan(seconds * (1.0 - self.latency_share))
        each = seconds * (1.0 - self.latency_share) / len(plan)
        for segment_traced in plan:
            started = time.perf_counter()
            windows = 0
            while time.perf_counter() - started < each:
                self._window(segment_traced, windows)
                windows += 1
            self.segments.append(
                (segment_traced, windows * TRAVEL_WINDOW
                 / (time.perf_counter() - started))
            )


# ---------------------------------------------------------------------------
# deploy_churn
# ---------------------------------------------------------------------------


class DeployChurn(Workload):
    """The composer's path: generate a chart, register its services,
    deploy, run it twice by name, undeploy — over and over, while the
    registry of elementary services only grows."""

    name = "deploy_churn"
    latency_share = 0.0  # one phase: every cycle is both a sample and a unit
    #: Cost grows with the registry, so the tail *is* the late cycles:
    #: percentiles are taken over the whole run, not per chunk.
    latency_segments = 1
    rss_mark_rate = 12.0
    TASKS = 12

    def setup(self) -> None:
        self.platform = Platform(PlatformConfig(trace=False))
        self.session = self.platform.session("bench", "bench-host")
        self.cycles = 0
        #: Charts of the traced cycles, for the direct layer probes.
        self.probe_inputs: "List[Any]" = []
        for _ in range(self.count(10, floor=2)):
            self._cycle(False)

    def _cycle(self, traced: bool) -> None:
        platform = self.platform
        tracer = self.tracer if traced else _UNTRACED
        index = self.cycles
        self.cycles += 1
        name = f"Churn{index:05d}"
        chart_seed = self.rng.randrange(1 << 30)
        try:
            with tracer.span("cycle", index):
                with tracer.span("workload.generate"):
                    workload = make_workload(
                        tasks=self.TASKS, seed=chart_seed,
                        service_prefix=f"{name}Svc",
                    )
                    composite = composite_for_workload(workload, name=name)
                # Platform.register_elementary / deploy_composite, spelt
                # out so each layer gets its own span.
                for position, service in enumerate(workload.services):
                    with tracer.span("deployment.deploy_elementary"):
                        platform.deployer.deploy_elementary(
                            service, f"{name.lower()}-svc-{position:02d}"
                        )
                    with tracer.span("discovery.publish"):
                        platform.discovery.publish(service.description)
                with tracer.span("deployment.deploy_composite"):
                    deployment = platform.deployer.deploy_composite(
                        composite, f"{name.lower()}-host"
                    )
                with tracer.span("discovery.publish"):
                    platform.discovery.publish(
                        composite.description, category="composite"
                    )
                # Session.execute(name, ...) locates, then submits.
                with tracer.span("discovery.locate_miss"):
                    binding = platform.locate(name)
                with tracer.span("api.first_execute"):
                    first = self.session.execute(
                        binding, "run", workload.request_args
                    )
                with tracer.span("discovery.locate_hit"):
                    binding = platform.locate(name)
                with tracer.span("api.execute"):
                    second = self.session.execute(
                        binding, "run", workload.request_args
                    )
                with tracer.span("deployment.undeploy"):
                    deployment.undeploy()
        except SelfServError:
            self.tally(False)
            return
        self.tally(first.ok and second.ok
                   and len(first.outputs) > len(workload.request_args)
                   and second.outputs == first.outputs)
        if traced:
            self.probe_inputs.append((name, workload))

    def measure(self, seconds: float) -> None:
        self.start_measuring(seconds)
        plan = self.segment_plan(seconds)
        each = seconds / len(plan)
        for segment_traced in plan:
            started = time.perf_counter()
            cycles = 0
            while True:
                begin = time.perf_counter()
                self._cycle(segment_traced)
                end = time.perf_counter()
                self.latencies_ms.append((end - begin) * 1000.0)
                cycles += 1
                if end - started >= each:
                    break
            self.segments.append((segment_traced, cycles / (end - started)))
        cache = self.platform.discovery.locate_cache.stats
        self.info["cache_hit_ratio"] = cache.hit_rate()
        self.info["cache_evictions"] = cache.evictions
        self.info["services_registered"] = self.cycles * self.TASKS


WORKLOADS = {
    cls.name: cls
    for cls in (WireChain, WireDurable, LocalTravel, DeployChurn)
}
