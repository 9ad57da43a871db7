"""Kernel actor substrate: dispatch, lifecycle, middleware, determinism."""

import pytest

from repro.api import Platform, PlatformConfig
from repro.exceptions import TransportError
from repro.kernel import (
    Actor,
    ActorKernel,
    ActorMiddleware,
    Invoke,
    InvokeResult,
    KernelCounters,
    Notify,
    handles,
)
from repro.net.message import Message
from repro.net.simnet import SimTransport
from repro.runtime.protocol import MessageKinds, wrapper_endpoint
from repro.services.composite import CompositeService
from repro.services.description import (
    OperationSpec,
    ServiceDescription,
    simple_description,
)
from repro.services.elementary import ElementaryService
from repro.services.profile import ServiceProfile
from repro.statecharts.builder import linear_chart


class EchoActor(Actor):
    """Minimal actor: answers ``invoke`` with its arguments echoed."""

    def __init__(self, name, host, transport, kernel=None):
        super().__init__(host, transport, kernel)
        self.name = name
        self.invokes = []

    @property
    def endpoint_name(self):
        return wrapper_endpoint(self.name)

    @handles(Invoke)
    def _on_invoke(self, invoke, message):
        self.invokes.append(invoke)
        self.reply(message, InvokeResult.outcome(
            invoke.invocation_id, invoke.execution_id,
            ok=True, outputs=dict(invoke.arguments),
        ))


class RecordingMiddleware(ActorMiddleware):
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def before_handle(self, actor, envelope, message):
        self.log.append(("before", self.tag, message.kind))

    def after_handle(self, actor, envelope, message, error=None):
        self.log.append(("after", self.tag, message.kind, error))

    def on_send(self, actor, envelope, message):
        self.log.append(("send", self.tag, message.kind))

    def on_malformed(self, actor, message, error):
        self.log.append(("malformed", self.tag, message.kind))


def _send(transport, kind, body, target_endpoint, source="client-node"):
    transport.send(Message(
        kind=kind, source=source, source_endpoint="test:src",
        target="h", target_endpoint=target_endpoint, body=body,
    ))


@pytest.fixture
def rig():
    transport = SimTransport()
    transport.add_node("h")
    transport.add_node("client-node")
    transport.node("client-node").register("test:src", lambda m: None)
    kernel = ActorKernel(transport)
    actor = EchoActor("Echo", "h", transport, kernel=kernel)
    actor.start()
    return transport, kernel, actor


class TestDispatchTable:
    def test_declarative_table_from_decorators(self):
        assert EchoActor.dispatch_table == {
            MessageKinds.INVOKE: "_on_invoke"
        }

    def test_subclass_inherits_and_extends(self):
        class Extended(EchoActor):
            @handles(Notify)
            def _on_notify(self, notify, message):
                pass

        assert Extended.dispatch_table[MessageKinds.INVOKE] == "_on_invoke"
        assert Extended.dispatch_table[MessageKinds.NOTIFY] == "_on_notify"

    def test_subclass_overrides_handler(self):
        class Override(EchoActor):
            @handles(Invoke)
            def _on_invoke_differently(self, invoke, message):
                pass

        assert Override.dispatch_table[MessageKinds.INVOKE] == (
            "_on_invoke_differently"
        )

    def test_runtime_participants_cover_their_verbs(self):
        from repro.runtime.client import RuntimeClient
        from repro.runtime.community_wrapper import CommunityWrapperRuntime
        from repro.runtime.composite_wrapper import CompositeWrapperRuntime
        from repro.runtime.coordinator import Coordinator
        from repro.runtime.service_wrapper import ServiceWrapperRuntime

        k = MessageKinds
        assert set(Coordinator.dispatch_table) == {
            k.NOTIFY, k.INVOKE_RESULT, k.SIGNAL,
        }
        assert set(ServiceWrapperRuntime.dispatch_table) == {k.INVOKE}
        assert set(CommunityWrapperRuntime.dispatch_table) == {
            k.INVOKE, k.INVOKE_RESULT,
        }
        assert set(CompositeWrapperRuntime.dispatch_table) == {
            k.EXECUTE, k.COMPLETE, k.EXECUTION_FAULT, k.SIGNAL,
        }
        assert set(RuntimeClient.dispatch_table) == {
            k.EXECUTE_ACK, k.EXECUTE_RESULT,
        }


class TestMailboxPolicy:
    def test_dispatch_and_reply(self, rig):
        transport, kernel, actor = rig
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1", "operation": "op",
               "arguments": {"a": 1}}, actor.endpoint_name)
        transport.run_until_idle()
        assert [i.invocation_id for i in actor.invokes] == ["i1"]
        assert actor.mailbox.handled == 1

    def test_unknown_verb_dropped_and_counted(self, rig):
        transport, kernel, actor = rig
        _send(transport, "mystery", {}, actor.endpoint_name)
        transport.run_until_idle()
        assert actor.mailbox.unknown_verbs == 1
        assert actor.mailbox.handled == 0
        assert actor.invokes == []

    def test_malformed_body_dropped_and_counted(self, rig):
        transport, kernel, actor = rig
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1", "oepration": "typo"},
              actor.endpoint_name)
        transport.run_until_idle()
        assert actor.mailbox.malformed == 1
        assert actor.invokes == []  # never reached the handler

    def test_malformed_reported_to_middleware(self, rig):
        transport, kernel, actor = rig
        log = []
        kernel.add_middleware(RecordingMiddleware("m", log))
        _send(transport, MessageKinds.INVOKE, {"bogus": 1},
              actor.endpoint_name)
        transport.run_until_idle()
        assert ("malformed", "m", MessageKinds.INVOKE) in log


class TestMiddlewareChain:
    def test_before_in_order_after_reversed(self, rig):
        transport, kernel, actor = rig
        log = []
        kernel.add_middleware(RecordingMiddleware("first", log))
        kernel.add_middleware(RecordingMiddleware("second", log))
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1"}, actor.endpoint_name)
        transport.run_until_idle()
        relevant = [e for e in log if e[0] in ("before", "after")
                    and e[2] == MessageKinds.INVOKE]
        assert [e[:2] for e in relevant] == [
            ("before", "first"), ("before", "second"),
            ("after", "second"), ("after", "first"),
        ]

    def test_on_send_sees_outbound_traffic(self, rig):
        transport, kernel, actor = rig
        log = []
        kernel.add_middleware(RecordingMiddleware("m", log))
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1"}, actor.endpoint_name)
        transport.run_until_idle()
        assert ("send", "m", MessageKinds.INVOKE_RESULT) in log

    def test_counters_installed_by_default(self, rig):
        transport, kernel, actor = rig
        assert isinstance(kernel.counters, KernelCounters)
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1"}, actor.endpoint_name)
        transport.run_until_idle()
        key = (actor.endpoint_name, MessageKinds.INVOKE)
        assert kernel.counters.handled[key] == 1
        assert kernel.counters.sent[
            (actor.endpoint_name, MessageKinds.INVOKE_RESULT)
        ] == 1
        assert kernel.counters.by_verb() == {MessageKinds.INVOKE: 1}
        assert kernel.counters.handled_total(actor.endpoint_name) == 1

    def test_handler_errors_counted_and_propagated(self, rig):
        transport, kernel, actor = rig

        class Exploding(EchoActor):
            @handles(Invoke)
            def _on_invoke(self, invoke, message):
                raise RuntimeError("boom")

        exploding = Exploding("Boom", "h", transport, kernel=kernel)
        exploding.start()
        with pytest.raises(RuntimeError):
            exploding.on_message(Message(
                kind=MessageKinds.INVOKE, source="h",
                source_endpoint="test:src", target="h",
                target_endpoint=exploding.endpoint_name,
                body={"invocation_id": "i1"},
            ))
        assert kernel.counters.errors[
            (exploding.endpoint_name, MessageKinds.INVOKE)
        ] == 1


class TestLifecycle:
    def test_start_registers_and_is_idempotent(self, rig):
        transport, kernel, actor = rig
        assert actor.started
        actor.start()  # no duplicate-endpoint error
        assert transport.node("h").has_endpoint(actor.endpoint_name)
        assert actor in kernel.actors()

    def test_stop_unregisters_and_is_idempotent(self, rig):
        transport, kernel, actor = rig
        actor.stop()
        actor.stop()
        assert not transport.node("h").has_endpoint(actor.endpoint_name)
        assert actor not in kernel.actors()

    def test_duplicate_endpoint_still_rejected_across_actors(self, rig):
        transport, kernel, actor = rig
        twin = EchoActor("Echo", "h", transport, kernel=kernel)
        with pytest.raises(TransportError, match="already has endpoint"):
            twin.start()


class TestDeliveryTaps:
    def test_tap_sees_deliveries_through_one_observer(self, rig):
        transport, kernel, actor = rig
        seen = []
        kernel.add_tap(lambda message, time_ms: seen.append(message.kind))
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1"}, actor.endpoint_name)
        transport.run_until_idle()
        assert MessageKinds.INVOKE in seen
        assert MessageKinds.INVOKE_RESULT in seen

    def test_tap_requires_transport(self):
        with pytest.raises(ValueError, match="no transport"):
            ActorKernel().add_tap(lambda m, t: None)

    def test_remove_tap(self, rig):
        transport, kernel, actor = rig
        seen = []
        tap = kernel.add_tap(lambda m, t: seen.append(m.kind))
        kernel.remove_tap(tap)
        _send(transport, MessageKinds.INVOKE,
              {"invocation_id": "i1"}, actor.endpoint_name)
        transport.run_until_idle()
        assert seen == []

    def test_last_tap_removes_the_transport_observer(self, rig):
        """Detaching the last tap must leave no per-delivery callback
        behind — a detached tracer/health registry is truly free."""
        transport, kernel, actor = rig
        before = len(transport._observers)
        tap = kernel.add_tap(lambda m, t: None)
        assert len(transport._observers) == before + 1
        kernel.remove_tap(tap)
        assert len(transport._observers) == before
        # And re-attaching works after the teardown.
        kernel.add_tap(tap)
        assert len(transport._observers) == before + 1

    def test_tracer_detach_via_kernel_frees_the_delivery_path(self, rig):
        from repro.monitoring.tracer import ExecutionTracer

        transport, kernel, actor = rig
        before = len(transport._observers)
        tracer = ExecutionTracer(transport).attach(via=kernel)
        tracer.detach()
        assert len(transport._observers) == before


def _run_platform(seed):
    """Deploy a tiny chain and run it; return the observable trace."""
    platform = Platform(PlatformConfig(seed=seed))
    service = ElementaryService(
        simple_description("S", "co", [("op", [], ["r"])]),
        ServiceProfile(latency_mean_ms=4.0, latency_jitter_ms=2.0),
    )
    service.bind("op", lambda args: {"r": "out"})
    platform.provider("hs").elementary(service, publish=False)
    composite = CompositeService(ServiceDescription("C"))
    composite.define_operation(
        OperationSpec("run"), linear_chart("c", [("s", "S", "op")]),
    )
    deployment = platform.deploy_composite(composite, "hc", publish=False)
    session = platform.session("u", "hu")
    results = session.gather(session.submit_many([
        (deployment, "run", {}) for _ in range(4)
    ]))
    timeline = [
        (event.time_ms, event.kind, event.source, event.target)
        for t in platform.tracer.timelines() for event in t.events
    ]
    counters = dict(platform.kernel.counters.handled)
    return [r.status for r in results], timeline, counters


class TestDeterminism:
    def test_dispatch_deterministic_on_sim_clock(self):
        """Same seed => bit-identical traces and kernel counters."""
        first = _run_platform(seed=11)
        second = _run_platform(seed=11)
        assert first == second

    def test_outcomes_stable_across_seeds(self):
        statuses_a, _, counters_a = _run_platform(seed=11)
        statuses_b, _, counters_b = _run_platform(seed=12)
        assert statuses_a == statuses_b == ["success"] * 4
        # The message shape is a protocol property, not a timing one.
        assert counters_a == counters_b
