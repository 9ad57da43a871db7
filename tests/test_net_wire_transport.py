"""WireTransport: two real transports on loopback sockets.

Covers the transport contract ``test_net_inproc.py`` pins, plus the parts
only a socket can exercise: learned-route replies, hostile bytes on
the listener, reconnect-with-backoff when a peer restarts, frame-drop
accounting when a peer is gone for good, and the clean-shutdown
guarantee the leak fixture enforces suite-wide.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.api.config import PlatformConfig
from repro.api.platform import Platform
from repro.exceptions import SelfServError, TransportError
from repro.fleet.config import FleetConfig
from repro.kernel.envelopes import Execute, ExecuteResult
from repro.net.message import Message
from repro.net.wire.frames import encode_frame
from repro.net.wire.peers import DEFAULT_RECONNECT_POLICY
from repro.net.wire.transport import WireTransport
from repro.resilience.retry import RetryPolicy

RESULT_WAIT_S = 10.0

#: A reconnect schedule that gives up fast: unreachable-peer tests
#: should not serve the full ~1.5s production backoff.
FAST_RECONNECT = RetryPolicy(
    max_attempts=2, base_delay_ms=5.0, multiplier=2.0, max_delay_ms=20.0,
    jitter_fraction=0.0, retryable_statuses=(),
    retryable_fault_markers=(),
)


def wait_until(predicate, timeout=RESULT_WAIT_S):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def pair():
    """Two started wire transports: alpha (client) and beta (server)."""
    ta, tb = WireTransport(), WireTransport()
    inbox_a, inbox_b = [], []
    ta.add_node("alpha").register("client", inbox_a.append)
    tb.add_node("beta").register("svc", inbox_b.append)
    ta.start()
    tb.start()
    try:
        ta.register_peer("beta", tb.address)
        yield ta, tb, inbox_a, inbox_b
    finally:
        ta.stop()
        tb.stop()


def execute_to(target, request_key="rk"):
    envelope = Execute(operation="run", arguments={"n": 1},
                       request_key=request_key)
    return Message(kind=Execute.KIND, source="alpha",
                   source_endpoint="client", target=target,
                   target_endpoint="svc", body=envelope.to_body())


class TestRoundTrip:
    def test_envelope_crosses_and_arrives_validated(self, pair):
        ta, tb, _inbox_a, inbox_b = pair
        ta.send(execute_to("beta"))
        assert wait_until(lambda: inbox_b)
        message = inbox_b[0]
        assert message.envelope is not None
        assert message.envelope.operation == "run"
        assert message.source == "alpha"

    def test_reply_rides_learned_route(self, pair):
        """beta never registered alpha as a peer: the reply uses the
        connection the request arrived on."""
        ta, tb, inbox_a, inbox_b = pair
        ta.send(execute_to("beta"))
        assert wait_until(lambda: inbox_b)
        assert tb.wire_counters["routes_learned"] == 1
        reply = ExecuteResult(execution_id="e1", status="success",
                              request_key="rk")
        tb.send(Message(kind=ExecuteResult.KIND, source="beta",
                        source_endpoint="svc", target="alpha",
                        target_endpoint="client", body=reply.to_body()))
        assert wait_until(lambda: inbox_a)
        assert inbox_a[0].envelope.ok

    def test_burst_is_ordered_and_complete(self, pair):
        ta, _tb, _inbox_a, inbox_b = pair
        count = 50
        for index in range(count):
            ta.send(execute_to("beta", request_key=f"rk-{index:03d}"))
        assert wait_until(lambda: len(inbox_b) == count)
        keys = [m.envelope.request_key for m in inbox_b]
        assert keys == [f"rk-{i:03d}" for i in range(count)]
        assert ta.wire_counters["frames_sent"] == count

    def test_local_send_stays_off_the_wire(self, pair):
        ta, _tb, inbox_a, _inbox_b = pair
        ta.send(Message(kind="__note__", source="alpha",
                        source_endpoint="client", target="alpha",
                        target_endpoint="client", body={}))
        assert wait_until(lambda: inbox_a)
        assert ta.wire_counters["frames_sent"] == 0


class TestTopology:
    def test_unknown_target_raises(self, pair):
        ta, _tb, _a, _b = pair
        with pytest.raises(TransportError, match="unknown target"):
            ta.send(execute_to("gamma"))

    def test_local_node_cannot_be_peer(self, pair):
        ta, _tb, _a, _b = pair
        with pytest.raises(TransportError, match="local to this"):
            ta.register_peer("alpha", ("127.0.0.1", 1))

    def test_address_unavailable_before_start(self):
        transport = WireTransport()
        with pytest.raises(TransportError, match="before start"):
            transport.address
        transport.stop()  # never started: must be a clean no-op

    def test_send_to_peer_before_start_raises(self):
        transport = WireTransport()
        transport.add_node("alpha").register("client", lambda m: None)
        transport._peers["beta"] = ("127.0.0.1", 1)
        with pytest.raises(TransportError, match="before start"):
            transport.send(execute_to("beta"))
        transport.stop()

    def test_stop_is_idempotent_and_leaves_no_threads(self):
        transport = WireTransport()
        transport.add_node("alpha").register("client", lambda m: None)
        transport.start()
        transport.stop()
        transport.stop()
        lingering = [t.name for t in threading.enumerate()
                     if t.name == "wire-loop"]
        assert not lingering


class TestAdversity:
    def test_garbage_bytes_close_connection_not_transport(self, pair):
        """A peer speaking not-our-protocol is dropped; real peers are
        unaffected."""
        _ta, tb, _a, inbox_b = pair
        host, port = tb.address
        with socket.create_connection((host, port)) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
            # Server closes on the framing violation.
            sock.settimeout(RESULT_WAIT_S)
            assert sock.recv(1024) == b""
        assert wait_until(
            lambda: tb.wire_counters["framing_errors"] == 1
        )
        assert not inbox_b

    def test_bad_message_dropped_connection_survives(self, pair):
        """A well-framed but malformed message is counted and dropped;
        the same connection keeps carrying valid traffic."""
        ta, tb, _a, inbox_b = pair
        host, port = tb.address
        with socket.create_connection((host, port)) as sock:
            sock.sendall(encode_frame(b"{\"not\": \"a message\"}"))
            sock.sendall(encode_frame(b"\xff\xfe"))
            assert wait_until(
                lambda: tb.wire_counters["codec_errors"] == 2
            )
        ta.send(execute_to("beta"))
        assert wait_until(lambda: inbox_b)

    def test_unreachable_peer_drops_frames_after_backoff(self):
        transport = WireTransport(reconnect=FAST_RECONNECT)
        transport.add_node("alpha").register("client", lambda m: None)
        transport.start()
        try:
            # A port nothing listens on: dial fails through the policy.
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
            probe.close()
            transport.register_peer("beta", ("127.0.0.1", dead_port))
            transport.send(execute_to("beta"))
            assert wait_until(
                lambda: transport.wire_counters["frames_dropped"] >= 1
            )
            assert transport.wire_counters["dial_failures"] \
                == FAST_RECONNECT.max_attempts
        finally:
            transport.stop()

    def test_peer_restart_is_picked_up(self, pair):
        """beta dies and a new beta comes back on a new port: after
        re-registration traffic flows again (the recovered-shard path)."""
        ta, tb, _a, inbox_b = pair
        ta.send(execute_to("beta", request_key="before"))
        assert wait_until(lambda: inbox_b)
        tb.stop()
        reborn = WireTransport()
        inbox_reborn = []
        reborn.add_node("beta").register("svc", inbox_reborn.append)
        reborn.start()
        try:
            ta.register_peer("beta", reborn.address)
            ta.send(execute_to("beta", request_key="after"))
            assert wait_until(lambda: inbox_reborn)
            assert inbox_reborn[0].envelope.request_key == "after"
        finally:
            reborn.stop()

    def test_default_reconnect_is_the_resilience_schedule(self):
        """The backoff curve is the audited RetryPolicy, not an ad-hoc
        copy: same pure backoff_ms arithmetic."""
        policy = DEFAULT_RECONNECT_POLICY
        assert policy.max_attempts == 6

        class FixedRng:
            def uniform(self, low, high):
                return 1.0

        rng = FixedRng()
        delays = [policy.backoff_ms(a, rng)
                  for a in range(1, policy.max_attempts)]
        assert delays == sorted(delays)
        assert delays[-1] <= policy.max_delay_ms * 1.1


class TestConfigIntegration:
    def test_build_transport_by_name(self):
        transport = PlatformConfig(transport="wire").build_transport()
        assert isinstance(transport, WireTransport)
        transport.stop()

    def test_sim_only_fields_rejected_on_wire(self):
        with pytest.raises(SelfServError, match="loss_rate"):
            PlatformConfig(transport="wire",
                           loss_rate=0.2).build_transport()

    def test_platform_runs_on_wire_transport(self):
        """The classic platform API works unchanged over the socket
        transport (local nodes are delivered on its event loop)."""
        from repro.workload.generator import make_chain_workload
        from repro.workload.harness import composite_for_workload

        platform = Platform(PlatformConfig(transport="wire", trace=False))
        try:
            workload = make_chain_workload(2, seed=3,
                                           service_prefix="WireLocalSvc")
            for index, service in enumerate(workload.services):
                platform.deployer.deploy_elementary(
                    service, f"wire-local-{index}"
                )
            deployment = platform.deployer.deploy_composite(
                composite_for_workload(workload, name="WireLocal"),
                "wire-local-host",
            )
            platform.transport.start()
            session = platform.session("user", "user-host")
            result = session.submit(deployment, "run").result(
                timeout_ms=30_000
            )
            assert result.ok
        finally:
            platform.transport.stop()

    def test_fleet_mode_points_at_wire_fleet(self):
        with pytest.raises(SelfServError, match="repro.fleet.wire"):
            Platform(PlatformConfig(
                transport="wire", fleet=FleetConfig(shards=2)
            ))
