"""HealthRegistry tests: EWMA, status machine, passive transport tap."""

import pytest

from repro.kernel.envelopes import Invoke, InvokeResult
from repro.net.message import Message
from repro.net.simnet import SimTransport
from repro.resilience import (
    EventKinds,
    HealthConfig,
    HealthRegistry,
    ProviderStatus,
    ResilienceEventLog,
)
from repro.runtime.protocol import (
    MessageKinds,
    client_endpoint,
    wrapper_endpoint,
)


def registry(**kwargs):
    return HealthRegistry(HealthConfig(**kwargs))


class TestRecording:
    def test_unknown_provider_reads_up(self):
        health = registry()
        assert health.status("never-seen") == ProviderStatus.UP
        assert health.rank("never-seen") == 0
        assert health.ewma_ms("never-seen", default=42.0) == 42.0

    def test_ewma_latency(self):
        health = registry(ewma_alpha=0.5)
        health.record_success("M0", 10.0, now_ms=1.0)
        assert health.ewma_ms("M0") == 10.0  # first sample seeds the EWMA
        health.record_success("M0", 20.0, now_ms=2.0)
        assert health.ewma_ms("M0") == pytest.approx(15.0)
        health.record_success("M0", 20.0, now_ms=3.0)
        assert health.ewma_ms("M0") == pytest.approx(17.5)

    def test_status_degrades_then_downs_then_recovers(self):
        health = registry(degraded_after=1, down_after=3)
        assert health.status("M0") == ProviderStatus.UP
        health.record_failure("M0", 50.0, now_ms=1.0)
        assert health.status("M0") == ProviderStatus.DEGRADED
        health.record_failure("M0", 50.0, now_ms=2.0)
        assert health.status("M0") == ProviderStatus.DEGRADED
        health.record_failure("M0", 50.0, now_ms=3.0)
        assert health.status("M0") == ProviderStatus.DOWN
        health.record_success("M0", 5.0, now_ms=4.0)
        assert health.status("M0") == ProviderStatus.UP

    def test_status_changes_emit_events(self):
        events = ResilienceEventLog()
        health = HealthRegistry(HealthConfig(degraded_after=1,
                                             down_after=2), events)
        health.record_failure("M0", 1.0, now_ms=1.0)
        health.record_failure("M0", 1.0, now_ms=2.0)
        health.record_success("M0", 1.0, now_ms=3.0)
        changes = [e.detail for e in
                   events.events(kind=EventKinds.STATUS_CHANGE)]
        assert changes == ["up->degraded", "degraded->down", "down->up"]

    def test_counters_and_snapshot(self):
        health = registry()
        health.record_success("M0", 10.0, now_ms=1.0)
        health.record_failure("M0", 30.0, now_ms=2.0)
        snap = health.snapshot()["M0"]
        assert snap["successes"] == 1
        assert snap["failures"] == 1
        assert snap["consecutive_failures"] == 1
        assert health.health("M0").success_rate() == 0.5


class TestPercentilesAndOrdering:
    def test_percentile_of_recent_latencies(self):
        health = registry()
        for index in range(1, 101):  # 1..100 ms
            health.record_success("M0", float(index), now_ms=index)
        assert health.percentile_ms("M0", 0.5) == 51.0
        assert health.percentile_ms("M0", 0.95) == 96.0
        assert health.percentile_ms("M0", 1.0) == 100.0
        assert health.percentile_ms("empty", 0.95, default=7.0) == 7.0

    def test_latency_window_bounds_samples(self):
        health = registry(latency_window=4)
        for index in range(10):
            health.record_success("M0", float(index), now_ms=index)
        assert list(health.health("M0").latencies) == [6.0, 7.0, 8.0, 9.0]

    def test_rank_maps_status_to_sort_band(self):
        health = registry(degraded_after=1, down_after=2)
        health.record_failure("B-down", 1.0, now_ms=1.0)
        health.record_failure("B-down", 1.0, now_ms=2.0)
        health.record_failure("C-degraded", 1.0, now_ms=3.0)
        assert health.rank("A-up") == 0
        assert health.rank("C-degraded") == 1
        assert health.rank("B-down") == 2
        # Stable sort on rank is how the community wrapper demotes DOWN
        # members while preserving the policy's order within a band.
        ordered = sorted(["B-down", "A-up", "C-degraded", "D-up"],
                         key=health.rank)
        assert ordered == ["A-up", "D-up", "C-degraded", "B-down"]

    def test_late_result_after_reported_timeout_is_not_counted(self):
        health = registry(down_after=2)
        # The tap saw the invoke go out ...
        health._pending_invokes["i1"] = ("M0", 0.0)
        # ... the wrapper reports the timeout and settles the verdict ...
        health.forget_invocation("i1")
        health.record_failure("M0", 100.0, now_ms=100.0)
        # ... so the straggling result is a no-op, not a success.
        health.observe(Message(
            kind=MessageKinds.INVOKE_RESULT,
            source="m", source_endpoint=wrapper_endpoint("M0"),
            target="c", target_endpoint=wrapper_endpoint("Pool"),
            body=InvokeResult.outcome("i1", "e1", ok=True).to_body(),
        ), 150.0)
        stats = health.health("M0")
        assert stats.successes == 0
        assert stats.consecutive_failures == 1


class TestPassiveTransportTap:
    def _sim_with_endpoints(self):
        transport = SimTransport()
        for node in ("caller", "provider"):
            transport.add_node(node)
        transport.node("provider").register(wrapper_endpoint("M0"), lambda m: None)
        transport.node("caller").register(wrapper_endpoint("Community"),
                                          lambda m: None)
        return transport

    def _invoke(self, transport, invocation_id, reply_after_ms,
                ok=True):
        transport.send(Message(
            kind=MessageKinds.INVOKE,
            source="caller", source_endpoint=wrapper_endpoint("Community"),
            target="provider", target_endpoint=wrapper_endpoint("M0"),
            body=Invoke(invocation_id=invocation_id, execution_id="e1",
                        operation="op").to_body(),
        ))

        def reply():
            transport.send(Message(
                kind=MessageKinds.INVOKE_RESULT,
                source="provider", source_endpoint=wrapper_endpoint("M0"),
                target="caller", target_endpoint=wrapper_endpoint("Community"),
                body=InvokeResult.outcome(invocation_id, "e1",
                                          ok=ok).to_body(),
            ))

        transport.schedule("provider", reply_after_ms, reply)

    def test_tap_correlates_invoke_with_result(self):
        transport = self._sim_with_endpoints()
        health = HealthRegistry().attach(transport)
        self._invoke(transport, "i1", reply_after_ms=30.0)
        self._invoke(transport, "i2", reply_after_ms=10.0, ok=False)
        transport.run_until_idle()
        stats = health.health("M0")
        assert stats.successes == 1
        assert stats.failures == 1
        # Latency = provider work + result hop (default sim latencies).
        assert len(stats.latencies) == 2
        assert min(stats.latencies) >= 10.0

    def test_tap_ignores_unanswered_and_foreign_messages(self):
        transport = self._sim_with_endpoints()
        health = HealthRegistry().attach(transport)
        # An invoke whose result never comes leaves no outcome sample.
        transport.send(Message(
            kind=MessageKinds.INVOKE,
            source="caller", source_endpoint=wrapper_endpoint("Community"),
            target="provider", target_endpoint=wrapper_endpoint("M0"),
            body=Invoke(invocation_id="lost", execution_id="e9",
                        operation="op").to_body(),
        ))
        # A non-wrapper endpoint contributes nothing.
        transport.node("provider").register(client_endpoint("u"), lambda m: None)
        transport.send(Message(
            kind=MessageKinds.INVOKE,
            source="caller", source_endpoint=wrapper_endpoint("Community"),
            target="provider", target_endpoint=client_endpoint("u"),
            body=Invoke(invocation_id="i3", execution_id="e3",
                        operation="op").to_body(),
        ))
        transport.run_until_idle()
        assert health.health("M0").attempts == 0
        assert health.known_providers() == ["M0"]

    def test_detach_stops_observation(self):
        transport = self._sim_with_endpoints()
        health = HealthRegistry().attach(transport)
        health.detach()
        self._invoke(transport, "i1", reply_after_ms=5.0)
        transport.run_until_idle()
        assert health.health("M0").attempts == 0
