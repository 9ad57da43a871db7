"""The actor substrate every runtime participant is built on.

The paper's execution model is uniform by design: "coordinators and
wrappers are uniform lightweight actors exchanging a small message
vocabulary precomputed into routing tables."  This module is that
uniformity, made code:

* :class:`Actor` — base class with a *declarative* verb -> handler
  dispatch table (the :func:`handles` decorator), a kernel-owned
  :class:`~repro.kernel.mailbox.Mailbox` as its delivery point, uniform
  lifecycle (``start``/``stop``), and envelope-only ``send``/``reply`` — no
  actor ever builds a raw dict body or a :class:`Message` by hand.
* :class:`ActorKernel` — the shared substrate one platform's actors
  live on: the middleware chain (see
  :mod:`repro.kernel.middleware`), the delivery-tap fan-out the passive
  subsystems (tracer, health registry) observe through, and the actor
  registry.

Endpoint names come exclusively from the ``repro.runtime.protocol``
helpers; subclasses implement :attr:`Actor.endpoint_name` with them.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Type,
)

from repro.kernel.envelopes import Envelope
from repro.kernel.mailbox import Mailbox
from repro.kernel.middleware import ActorMiddleware, KernelCounters
from repro.net.message import Message
from repro.net.transport import Transport

#: Signature of a delivery tap: ``tap(message, time_ms)`` (the same
#: shape as a transport observer — taps see every delivered message).
DeliveryTap = Callable[[Message, float], None]


def subscribe_deliveries(
    target: Any, callback: DeliveryTap
) -> "Callable[[], None]":
    """Attach ``callback`` to a delivery stream; returns the detach.

    ``target`` is an :class:`ActorKernel` (the callback rides the
    kernel's tap chain — one shared transport observer for every
    passive subsystem) or a bare :class:`~repro.net.transport.Transport`
    (v1 behaviour: a dedicated observer).  The tracer and the health
    registry both subscribe through here, so the kernel-or-transport
    fallback lives in exactly one place.
    """
    if isinstance(target, ActorKernel):
        target.add_tap(callback)
        return lambda: target.remove_tap(callback)
    target.add_observer(callback)
    return lambda: target.remove_observer(callback)


def handles(envelope_cls: "Type[Envelope]") -> "Callable[[Callable], Callable]":
    """Mark a method as the handler of one protocol verb.

    ::

        class MyWrapper(Actor):
            @handles(Invoke)
            def _on_invoke(self, invoke: Invoke, message: Message) -> None:
                ...

    Handlers receive the decoded envelope and the raw message (for
    ``reply_address()``).  The verb -> handler table is assembled per
    class by :meth:`Actor.__init_subclass__`; a class inherits its
    bases' handlers and may override them.
    """

    def mark(method: "Callable") -> "Callable":
        method._handles_kind = envelope_cls.KIND  # type: ignore[attr-defined]
        return method

    return mark


class ActorKernel:
    """The shared substrate a set of actors runs on.

    One kernel per platform (the :class:`~repro.api.Platform` and the
    :class:`~repro.deployment.Deployer` each ensure one exists): it owns
    the middleware chain every actor's mailbox and ``send`` run
    through, the single transport observer behind :meth:`add_tap`, and
    a registry of started actors.  Actors constructed without a kernel
    get a private empty one, so standalone construction (tests,
    microbenchmarks) needs no wiring.
    """

    def __init__(
        self,
        transport: Optional[Transport] = None,
        middleware: "Optional[List[ActorMiddleware]]" = None,
        counters: bool = True,
        zero_copy: bool = False,
    ) -> None:
        self.transport = transport
        self.middleware: "List[ActorMiddleware]" = list(middleware or ())
        #: Opt-in in-proc fast path (``repro.perf``): sends whose target
        #: address is an actor started on *this* kernel attach the typed
        #: envelope to the message instead of encoding it, and the
        #: receiving mailbox dispatches it without decoding.  The wire
        #: body stays available lazily (observers, durability logging
        #: and traffic stats see the identical encoding), and any
        #: address not on this kernel — another shard, a real socket —
        #: takes the full codec path.
        self.zero_copy = zero_copy
        #: ``(host, endpoint)`` addresses of actors started here; the
        #: zero-copy guard at send time.
        self._local_addresses: "set" = set()
        #: The default perf tap: uniform per-actor/per-verb counters.
        self.counters: Optional[KernelCounters] = None
        if counters:
            # Lock the counters only where delivery is actually
            # concurrent; without a transport, assume the worst.
            self.counters = KernelCounters(thread_safe=(
                transport.concurrent_delivery if transport is not None
                else True
            ))
            self.middleware.append(self.counters)
        self._taps: "List[DeliveryTap]" = []
        self._observing = False
        self._actors: "Dict[str, Actor]" = {}
        self._rebuild_hooks()

    # Middleware -------------------------------------------------------------

    def add_middleware(self, middleware: ActorMiddleware) -> ActorMiddleware:
        """Append one middleware to the chain (applies to all actors)."""
        self.middleware.append(middleware)
        self._rebuild_hooks()
        return middleware

    def _rebuild_hooks(self) -> None:
        """Cache per-hook call lists, skipping inherited no-op hooks.

        Actors and mailboxes iterate these lists on every message, so a
        middleware only costs the hot path for the hooks it actually
        overrides — a chain of passive counters adds nothing to the
        ``before_handle`` path, for example.  ``after_hooks`` is stored
        reversed (innermost-first, like unwinding nested decorators).
        """
        base = ActorMiddleware

        def overriding(name: str) -> list:
            return [
                getattr(mw, name) for mw in self.middleware
                if getattr(type(mw), name) is not getattr(base, name)
            ]

        self.before_hooks = overriding("before_handle")
        self.after_hooks = list(reversed(overriding("after_handle")))
        self.send_hooks = overriding("on_send")
        self.malformed_hooks = overriding("on_malformed")
        # Batch drain (see Mailbox.deliver_batch): batch-aware
        # middlewares get one after_handle_batch call per drain window;
        # the rest keep their per-message after_handle calls there too.
        self.batch_after_hooks = overriding("after_handle_batch")
        batch_aware = {
            id(mw) for mw in self.middleware
            if type(mw).after_handle_batch is not base.after_handle_batch
        }
        self.unbatched_after_hooks = list(reversed([
            mw.after_handle for mw in self.middleware
            if type(mw).after_handle is not base.after_handle
            and id(mw) not in batch_aware
        ]))

    # Delivery taps ----------------------------------------------------------

    def add_tap(self, tap: DeliveryTap) -> DeliveryTap:
        """Register a delivery tap fed from one kernel-owned observer.

        Taps see every message the transport delivers (after latency,
        before the handler) — the hook the execution tracer and the
        health registry observe through.  Requires the kernel to have
        been built with its transport.
        """
        if self.transport is None:
            raise ValueError(
                "this ActorKernel has no transport; delivery taps need "
                "ActorKernel(transport)"
            )
        if tap not in self._taps:
            self._taps.append(tap)
        if not self._observing:
            self.transport.add_observer(self._on_delivery)
            self._observing = True
        return tap

    def remove_tap(self, tap: DeliveryTap) -> None:
        if tap in self._taps:
            self._taps.remove(tap)
        if not self._taps and self._observing:
            # The last tap is gone: take the kernel's observer off the
            # delivery path entirely, so a detached tracer/health
            # registry leaves no per-message callback behind.
            self.transport.remove_observer(self._on_delivery)
            self._observing = False

    def _on_delivery(self, message: Message, time_ms: float) -> None:
        for tap in self._taps:
            tap(message, time_ms)

    # Actor registry ---------------------------------------------------------

    def actor_started(self, actor: "Actor") -> None:
        self._actors[f"{actor.host}/{actor.endpoint_name}"] = actor
        self._local_addresses.add((actor.host, actor.endpoint_name))

    def actor_stopped(self, actor: "Actor") -> None:
        self._actors.pop(f"{actor.host}/{actor.endpoint_name}", None)
        self._local_addresses.discard((actor.host, actor.endpoint_name))

    def actors(self) -> "List[Actor]":
        """Every actor currently started on this kernel."""
        return list(self._actors.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ActorKernel {len(self._actors)} actors, "
            f"{len(self.middleware)} middleware, {len(self._taps)} taps>"
        )


class Actor:
    """Base class of every runtime participant.

    Subclasses declare handlers with :func:`handles`, name their
    endpoint via the ``protocol.py`` helpers in :attr:`endpoint_name`,
    and communicate exclusively through :meth:`send`/:meth:`reply` with
    typed envelopes.  Everything else — decoding, unknown-verb and
    malformed-body policy, middleware, lifecycle — is kernel machinery
    shared by all of them.
    """

    #: kind -> handler method name; assembled by ``__init_subclass__``.
    dispatch_table: "Dict[str, str]" = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        table: Dict[str, str] = {}
        for base in reversed(cls.__mro__):
            for name, member in vars(base).items():
                kind = getattr(member, "_handles_kind", None)
                if kind is not None:
                    table[kind] = name
        cls.dispatch_table = table

    def __init__(
        self,
        host: str,
        transport: Transport,
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        self.host = host
        self.transport = transport
        self.kernel = kernel if kernel is not None else ActorKernel()
        self.mailbox = Mailbox(self)
        #: kind -> bound handler; resolved once so dispatch is one dict hit.
        self._handlers: "Dict[str, Callable[[Envelope, Message], None]]" = {
            kind: getattr(self, name)
            for kind, name in self.dispatch_table.items()
        }
        self._started = False

    # Identity ---------------------------------------------------------------

    @property
    def endpoint_name(self) -> str:
        """This actor's endpoint (subclasses use the protocol helpers)."""
        raise NotImplementedError

    @property
    def started(self) -> bool:
        return self._started

    # Lifecycle --------------------------------------------------------------

    def start(self) -> "Actor":
        """Register this actor's mailbox on its host node (idempotent)."""
        if not self._started:
            # The mailbox object itself (callable) is the handler, so
            # the transport's batch path can discover deliver_batch.
            self.transport.node(self.host).register(
                self.endpoint_name, self.mailbox
            )
            self.kernel.actor_started(self)
            self._started = True
        return self

    def stop(self) -> None:
        """Unregister from the host node (idempotent)."""
        if self._started:
            self.transport.node(self.host).unregister(self.endpoint_name)
            self.kernel.actor_stopped(self)
            self._started = False

    # Messaging --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Inbound entry point (the mailbox pipeline, callable directly)."""
        self.mailbox.deliver(message)

    def send(
        self, target: str, target_endpoint: str, envelope: Envelope
    ) -> None:
        """Encode ``envelope`` and put it on the wire from this actor.

        With the kernel's zero-copy fast path on and the target started
        on this same kernel, the frozen envelope rides the message
        as-is and no body dict is built; anything that later asks for
        ``message.body`` (WAL, observers) gets the identical encoding,
        materialised lazily.
        """
        kernel = self.kernel
        if (
            kernel.zero_copy
            and (target, target_endpoint) in kernel._local_addresses
        ):
            message = Message(
                kind=envelope.KIND,
                source=self.host,
                source_endpoint=self.endpoint_name,
                target=target,
                target_endpoint=target_endpoint,
                envelope=envelope,
            )
        else:
            message = Message(
                kind=envelope.KIND,
                source=self.host,
                source_endpoint=self.endpoint_name,
                target=target,
                target_endpoint=target_endpoint,
                body=envelope.to_body(),
            )
        for hook in kernel.send_hooks:
            hook(self, envelope, message)
        self.transport.send(message)

    def reply(self, message: Message, envelope: Envelope) -> None:
        """Send ``envelope`` back to ``message``'s reply address."""
        node, endpoint = message.reply_address()
        self.send(node, endpoint, envelope)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.endpoint_name!r} @ "
            f"{self.host!r})"
        )
