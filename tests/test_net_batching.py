"""Delivery batching tests: coalesced windows (sim) and the event
loop's per-turn window (wire).

Batching must change *when work is delivered*, never *what* is
delivered: every message still arrives exactly once, in arrival order,
within one window of its unbatched delivery time.
"""

from __future__ import annotations

import pytest

from repro.api import Platform, PlatformConfig
from repro.demo.travel import deploy_travel_scenario
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.net.simnet import SimTransport
from repro.net.wire.transport import WireTransport
from repro.perf import PerfConfig


def wire(transport, node_id, endpoint="ep"):
    inbox = []
    if not transport.has_node(node_id):
        transport.add_node(node_id)
    transport.node(node_id).register(endpoint, inbox.append)
    return inbox


def send(transport, source, target, kind="ping", body=None, endpoint="ep"):
    transport.send(Message(
        kind=kind, source=source, source_endpoint="out",
        target=target, target_endpoint=endpoint, body=body or {},
    ))


class TestSimBatching:
    def test_window_coalesces_same_target_messages(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0),
                                 batch_window_ms=3.0)
        transport.add_node("a")
        inbox = wire(transport, "b")
        for i in range(4):
            send(transport, "a", "b", body={"i": i})
        transport.run_until_idle()
        assert len(inbox) == 4
        assert transport.stats.delivered_total == 4
        assert transport.stats.batch_flushes == 1
        assert transport.stats.batched_messages == 4
        assert transport.stats.wire_arrivals() == 1
        assert transport.stats.batch_efficiency() == 4.0

    def test_batching_adds_at_most_one_window_of_latency(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0),
                                 batch_window_ms=3.0)
        transport.add_node("a")
        wire(transport, "b")
        send(transport, "a", "b")
        transport.run_until_idle()
        assert transport.simulator.now == pytest.approx(8.0)  # 5 + window

    def test_order_preserved_within_flush(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0),
                                 batch_window_ms=10.0)
        transport.add_node("a")
        inbox = wire(transport, "b")
        for i in range(5):
            send(transport, "a", "b", body={"i": i})
        transport.run_until_idle()
        assert [m.body["i"] for m in inbox] == [0, 1, 2, 3, 4]

    def test_messages_outside_window_get_new_flush(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=1.0),
                                 batch_window_ms=2.0)
        transport.add_node("a")
        inbox = wire(transport, "b")
        send(transport, "a", "b", body={"i": 0})
        # Advance virtual time past the first window, then send again.
        transport.run_until_idle()
        send(transport, "a", "b", body={"i": 1})
        transport.run_until_idle()
        assert [m.body["i"] for m in inbox] == [0, 1]
        assert transport.stats.batch_flushes == 2

    def test_batch_max_opens_overflow_batch(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0),
                                 batch_window_ms=10.0, batch_max=2)
        transport.add_node("a")
        inbox = wire(transport, "b")
        for i in range(5):
            send(transport, "a", "b", body={"i": i})
        transport.run_until_idle()
        assert len(inbox) == 5
        assert transport.stats.batch_flushes == 3  # 2 + 2 + 1

    def test_flush_to_failed_node_drops_messages(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0),
                                 batch_window_ms=3.0)
        transport.add_node("a")
        wire(transport, "b")
        send(transport, "a", "b")
        transport.fail_node("b")
        transport.run_until_idle()
        assert transport.stats.dropped_total == 1
        assert transport.stats.delivered_total == 0

    def test_zero_window_is_seed_behaviour(self):
        transport = SimTransport(latency=FixedLatency(remote_ms=5.0))
        transport.add_node("a")
        wire(transport, "b")
        for _ in range(3):
            send(transport, "a", "b")
        transport.run_until_idle()
        assert transport.stats.batch_flushes == 0
        assert transport.stats.wire_arrivals() == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SimTransport(batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            SimTransport(batch_max=0)

    def test_fast_message_never_held_by_a_slow_opener(self):
        """The one-window latency bound must hold for per-pair latency
        models: a message arriving *before* a window's opener must not
        wait for that window's flush."""

        class PerSourceLatency(LatencyModel):
            def sample_ms(self, source, target, rng):
                return 10.0 if source == "slow" else 1.0

        transport = SimTransport(latency=PerSourceLatency(),
                                 batch_window_ms=2.0)
        transport.add_node("slow")
        transport.add_node("fast")
        inbox = wire(transport, "b")
        arrivals = []
        transport.add_observer(lambda m, t: arrivals.append((m.source, t)))
        send(transport, "slow", "b")   # arrival 10, window flushes at 12
        send(transport, "fast", "b")   # arrival 1: own window, flush 3
        transport.run_until_idle()
        assert dict(arrivals)["fast"] == pytest.approx(3.0)
        assert dict(arrivals)["slow"] == pytest.approx(12.0)
        assert len(inbox) == 2

    def test_batch_window_rejected_on_non_sim_transports(self):
        """A coalescing window the transport cannot honour is an error,
        not a silent no-op (same contract as loss_rate/latency)."""
        from repro.api import PlatformConfig
        from repro.exceptions import SelfServError
        config = PlatformConfig(transport="wire",
                                perf=PerfConfig(batch_window_ms=2.0))
        with pytest.raises(SelfServError, match="batch_window_ms"):
            config.build_transport()
        instance = PlatformConfig(transport=SimTransport(),
                                  perf=PerfConfig(batch_window_ms=2.0))
        with pytest.raises(SelfServError, match="batch_window_ms"):
            instance.build_transport()


class TestEndToEndBatching:
    def test_batched_execution_same_results_fewer_arrivals(self):
        """The travel scenario is oblivious to batching, but the wire
        sees fewer arrival events."""
        outcomes = []
        for window in (0.0, 2.0):
            platform = Platform(PlatformConfig(
                perf=PerfConfig(batch_window_ms=window),
            ))
            deployed = deploy_travel_scenario(platform.deployer)
            session = platform.session("alice", "alice-laptop")
            results = session.gather(session.submit_many([
                (deployed.deployment, "arrangeTrip", {
                    "customer": "Alice", "destination": destination,
                    "departure_date": "2026-08-01",
                    "return_date": "2026-08-08",
                })
                for destination in ("sydney", "cairns")
            ]))
            assert all(r.ok for r in results)
            outcomes.append((
                [tuple(sorted(r.outputs.items())) for r in results],
                platform.transport.stats.delivered_total,
                platform.transport.stats.wire_arrivals(),
            ))
        (plain_outputs, plain_delivered, plain_arrivals) = outcomes[0]
        (batched_outputs, batched_delivered, batched_arrivals) = outcomes[1]
        assert batched_outputs == plain_outputs
        assert batched_delivered == plain_delivered
        assert batched_arrivals < plain_arrivals

    def test_tracer_surfaces_batching_numbers(self):
        platform = Platform(PlatformConfig(
            perf=PerfConfig(batch_window_ms=2.0),
        ))
        deployed = deploy_travel_scenario(platform.deployer)
        session = platform.session("bob", "bob-laptop")
        session.submit(deployed.deployment, "arrangeTrip", {
            "customer": "Bob", "destination": "sydney",
            "departure_date": "2026-08-01", "return_date": "2026-08-08",
        }).result()
        numbers = platform.tracer.batching()
        assert numbers["batch_flushes"] > 0
        assert numbers["batch_efficiency"] >= 1.0


class TestInprocDrainBatching:
    """The real-clock transport batches what one event-loop turn holds,
    in chunks of ``batch_max``; nothing waits for a window."""

    def test_drain_batching_delivers_everything(self):
        transport = WireTransport(batch_max=16)
        transport.add_node("a")
        inbox = wire(transport, "b")
        with transport:
            for i in range(50):
                send(transport, "a", "b", body={"i": i})
            assert transport.wait_for(
                lambda: len(inbox) == 50, timeout_ms=5000.0
            )
        assert [m.body["i"] for m in inbox] == list(range(50))

    def test_invalid_batch_max_rejected(self):
        with pytest.raises(ValueError):
            WireTransport(batch_max=0)
