"""Real-clock transport tests: :class:`WireTransport` delivering to its
local nodes on one event loop (no remote peer needed).

Every delivery and timer runs on the ``wire-loop`` thread; sends from
the test thread cross onto it once.  The socket-only behaviour lives in
``test_net_wire_transport.py``.
"""

import threading
import time

import pytest

from repro.exceptions import TransportError
from repro.net.message import Message
from repro.net.wire.transport import WireTransport


def send(transport, source, target, body=None, endpoint="ep"):
    transport.send(Message(
        kind="ping", source=source, source_endpoint="out",
        target=target, target_endpoint=endpoint, body=body or {},
    ))


class TestLifecycle:
    def test_send_before_start_raises(self):
        transport = WireTransport()
        transport.add_node("a")
        transport.add_node("b")
        transport.node("b").register("ep", lambda m: None)
        with pytest.raises(TransportError, match="before start"):
            send(transport, "a", "b")

    def test_context_manager_starts_and_stops(self):
        transport = WireTransport()
        transport.add_node("a")
        received = threading.Event()
        transport.add_node("b").register("ep",
                                         lambda m: received.set())
        with transport:
            send(transport, "a", "b")
            assert received.wait(timeout=2.0)

    def test_node_added_after_start_works(self):
        transport = WireTransport()
        transport.add_node("a")
        with transport:
            received = threading.Event()
            transport.add_node("late").register(
                "ep", lambda m: received.set()
            )
            send(transport, "a", "late")
            assert received.wait(timeout=2.0)

    def test_stop_is_idempotent(self):
        transport = WireTransport()
        transport.start()
        transport.stop()
        transport.stop()


class TestDelivery:
    def test_messages_processed_in_fifo_per_node(self):
        transport = WireTransport()
        transport.add_node("a")
        node_b = transport.add_node("b")
        seen = []
        done = threading.Event()

        def handler(message):
            seen.append(message.body["i"])
            if len(seen) == 20:
                done.set()

        node_b.register("ep", handler)
        with transport:
            for i in range(20):
                send(transport, "a", "b", body={"i": i})
            assert done.wait(timeout=2.0)
        assert seen == list(range(20))

    def test_handler_exception_does_not_kill_dispatcher(self):
        """A raising handler does not stop the loop's deliveries."""
        transport = WireTransport()
        transport.add_node("a")
        node_b = transport.add_node("b")
        done = threading.Event()
        calls = []

        def handler(message):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            done.set()

        node_b.register("ep", handler)
        with transport:
            send(transport, "a", "b")
            send(transport, "a", "b")
            assert done.wait(timeout=2.0)

    def test_raising_handler_loses_only_its_message(self):
        """One window: two messages to a handler that raises on its
        first call, then one to another endpoint.  Only the raising
        message is lost, and it is counted once, as dropped."""
        transport = WireTransport()
        transport.add_node("a")
        node_b = transport.add_node("b")
        calls, other = [], []

        def flaky(message):
            calls.append(message.body["i"])
            if len(calls) == 1:
                raise RuntimeError("boom")

        node_b.register("ep", flaky)
        node_b.register("other", other.append)

        def burst():
            # Sent on the loop thread, so all three join one window.
            send(transport, "a", "b", body={"i": 1})
            send(transport, "a", "b", body={"i": 2})
            send(transport, "a", "b", endpoint="other")

        with transport:
            transport.schedule("a", 0.0, burst)
            assert transport.wait_for(lambda: len(other) == 1,
                                      timeout_ms=2000)
        stats = transport.stats
        assert calls == [1, 2]
        assert (stats.batch_flushes, stats.batched_messages) == (1, 3)
        assert stats.dropped_total == 1
        assert stats.delivered_total == 2
        assert stats.sent_total == stats.delivered_total + stats.dropped_total

    def test_failed_node_drops(self):
        transport = WireTransport()
        transport.add_node("a")
        inbox = []
        transport.add_node("b").register("ep", inbox.append)
        with transport:
            transport.fail_node("b")
            send(transport, "a", "b")
            time.sleep(0.05)
        assert inbox == []
        assert transport.stats.dropped_total == 1


class TestTimers:
    def test_schedule_fires(self):
        transport = WireTransport()
        transport.add_node("a")
        fired = threading.Event()
        with transport:
            transport.schedule("a", 10.0, fired.set)
            assert fired.wait(timeout=2.0)

    def test_cancel_prevents_firing(self):
        transport = WireTransport()
        transport.add_node("a")
        fired = threading.Event()
        with transport:
            cancel = transport.schedule("a", 50.0, fired.set)
            cancel()
            assert not fired.wait(timeout=0.2)

    def test_wait_for_polls(self):
        transport = WireTransport()
        transport.add_node("a")
        box = []
        with transport:
            transport.schedule("a", 20.0, lambda: box.append(1))
            assert transport.wait_for(lambda: bool(box),
                                      timeout_ms=2000) is True

    def test_wait_for_times_out(self):
        transport = WireTransport()
        with transport:
            assert transport.wait_for(lambda: False,
                                      timeout_ms=50) is False

    def test_wait_for_on_loop_thread_raises(self):
        """A blocking wait on the thread that delivers could never
        finish: it is an error, not a hang."""
        transport = WireTransport()
        errors = []

        def waiter(message):
            try:
                transport.wait_for(lambda: False, timeout_ms=10)
            except TransportError as exc:
                errors.append(exc)

        transport.add_node("a").register("ep", waiter)
        with transport:
            send(transport, "a", "a")
            assert transport.wait_for(lambda: bool(errors),
                                      timeout_ms=2000)
        assert "wire-loop" in str(errors[0])

    def test_now_ms_monotonic(self):
        transport = WireTransport()
        t1 = transport.now_ms()
        time.sleep(0.01)
        assert transport.now_ms() > t1
