"""The kernel middleware chain: how cross-cutting concerns observe actors.

Before the kernel, every subsystem that wanted to watch execution
threaded its own tap through individual runtime components — the tracer
attached its own transport observer, the health registry attached
another, perf counters lived inside whichever actor happened to count.
The kernel replaces that with one chain: every actor's deliveries,
handler invocations, sends and decode failures flow through the
:class:`ActorMiddleware` hooks of its :class:`~repro.kernel.ActorKernel`,
so a new concern observes *all* actors by registering one object.

Two hook families:

* **actor hooks** (``before_handle``/``after_handle``/``on_send``/
  ``on_malformed``) fire on the actor's own dispatch path — this is
  where per-actor counters live;
* **delivery taps** (:meth:`~repro.kernel.ActorKernel.add_tap`) fan the
  transport's delivery stream out through one kernel-owned observer —
  this is where the passive subsystems (execution tracer, health
  registry) plug in without each attaching to the transport themselves.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.kernel.envelopes import Envelope
from repro.net.message import Message


class ActorMiddleware:
    """Base middleware: every hook is a no-op.

    ``before_handle`` hooks run in registration order, ``after_handle``
    in reverse (innermost middleware sees the handler's outcome first,
    like nested decorators).  Hooks must not mutate envelopes or
    messages — the chain observes, it does not rewrite.
    """

    def before_handle(
        self, actor: Any, envelope: Envelope, message: Message
    ) -> None:
        """About to run the actor's handler for ``envelope``."""

    def after_handle(
        self,
        actor: Any,
        envelope: Envelope,
        message: Message,
        error: Optional[BaseException] = None,
    ) -> None:
        """Handler finished; ``error`` is the exception it raised, if any."""

    def on_send(
        self, actor: Any, envelope: Envelope, message: Message
    ) -> None:
        """``actor`` is putting ``message`` (encoding ``envelope``) on the wire."""

    def on_malformed(
        self, actor: Any, message: Message, error: BaseException
    ) -> None:
        """A delivered body failed envelope decoding and was dropped."""

    def after_handle_batch(
        self, actor: Any, endpoint: str, tallies: "Dict[str, list]"
    ) -> None:
        """One mailbox drain window finished at ``endpoint``.

        ``tallies`` maps each verb handled in the window to a
        ``[handled, errored]`` pair.  A middleware that overrides this
        hook is *batch-aware*: on the batch drain path it receives one
        aggregated call per window **instead of** its per-message
        :meth:`after_handle` calls (which still fire on the unbatched
        path).  Middlewares that need per-message ordering — the
        durability log, tracers — simply don't override this and keep
        their exact per-message hooks on both paths.
        """


class KernelCounters(ActorMiddleware):
    """Uniform per-actor, per-verb counters — the kernel's perf tap.

    Installed by default on every :class:`~repro.kernel.ActorKernel`, so
    any actor's traffic shape can be read without instrumenting the
    actor itself (the counters the seed runtime kept ad hoc on
    individual wrappers).  Keys are ``(endpoint_name, kind)``.
    """

    def __init__(self, thread_safe: bool = True) -> None:
        self.handled: "Dict[Tuple[str, str], int]" = {}
        self.sent: "Dict[Tuple[str, str], int]" = {}
        self.errors: "Dict[Tuple[str, str], int]" = {}
        self.malformed: "Dict[str, int]" = {}
        # Malformed envelopes keyed (endpoint, verb, "sender_node/
        # sender_endpoint"): the per-endpoint total above loses exactly
        # the context a quarantine path needs — *which* verb from *whom*
        # failed to decode.
        self.malformed_detail: "Dict[Tuple[str, str, str], int]" = {}
        # One kernel's counters are shared by every actor on it.  On a
        # transport with concurrent delivery (the wire loop thread
        # handles while caller threads send through ``on_send``), the
        # increments race — a plain dict read-modify-write is not
        # atomic — so those kernels pass ``thread_safe=True``.  The simulator dispatches on one thread
        # and skips the lock entirely (it is on the firing hot path).
        self._lock = threading.Lock() if thread_safe else None

    def after_handle(
        self,
        actor: Any,
        envelope: Envelope,
        message: Message,
        error: Optional[BaseException] = None,
    ) -> None:
        # The message's own endpoint fields are the actor's identity on
        # this path; reading them avoids re-rendering endpoint_name (a
        # formatted property on some actors) on the hot path.
        key = (message.target_endpoint, message.kind)
        lock = self._lock
        if lock is None:
            if error is None:
                self.handled[key] = self.handled.get(key, 0) + 1
            else:
                self.errors[key] = self.errors.get(key, 0) + 1
            return
        with lock:
            if error is None:
                self.handled[key] = self.handled.get(key, 0) + 1
            else:
                self.errors[key] = self.errors.get(key, 0) + 1

    def on_send(
        self, actor: Any, envelope: Envelope, message: Message
    ) -> None:
        key = (message.source_endpoint, message.kind)
        lock = self._lock
        if lock is None:
            self.sent[key] = self.sent.get(key, 0) + 1
            return
        with lock:
            self.sent[key] = self.sent.get(key, 0) + 1

    def on_malformed(
        self, actor: Any, message: Message, error: BaseException
    ) -> None:
        endpoint = actor.endpoint_name
        detail = (
            endpoint,
            message.kind,
            f"{message.source}/{message.source_endpoint}",
        )
        lock = self._lock
        if lock is None:
            self.malformed[endpoint] = self.malformed.get(endpoint, 0) + 1
            self.malformed_detail[detail] = (
                self.malformed_detail.get(detail, 0) + 1
            )
            return
        with lock:
            self.malformed[endpoint] = self.malformed.get(endpoint, 0) + 1
            self.malformed_detail[detail] = (
                self.malformed_detail.get(detail, 0) + 1
            )

    def after_handle_batch(
        self, actor: Any, endpoint: str, tallies: "Dict[str, list]"
    ) -> None:
        """Batch-aggregated increments: one lock, one dict hit per verb.

        This is what kills the per-message counters tax on drained
        windows — a window of N notifies costs two increments total
        instead of N lock/increment round-trips.
        """
        handled = self.handled
        errors = self.errors
        lock = self._lock
        if lock is None:
            for kind, (ok, err) in tallies.items():
                key = (endpoint, kind)
                if ok:
                    handled[key] = handled.get(key, 0) + ok
                if err:
                    errors[key] = errors.get(key, 0) + err
            return
        with lock:
            for kind, (ok, err) in tallies.items():
                key = (endpoint, kind)
                if ok:
                    handled[key] = handled.get(key, 0) + ok
                if err:
                    errors[key] = errors.get(key, 0) + err

    # Queries ----------------------------------------------------------------

    def handled_total(self, endpoint: Optional[str] = None) -> int:
        return sum(
            count for (ep, _), count in self.handled.items()
            if endpoint is None or ep == endpoint
        )

    def sent_total(self, endpoint: Optional[str] = None) -> int:
        return sum(
            count for (ep, _), count in self.sent.items()
            if endpoint is None or ep == endpoint
        )

    def by_verb(self) -> "Dict[str, int]":
        """Handled messages aggregated over actors, keyed by verb."""
        totals: Dict[str, int] = {}
        for (_, kind), count in self.handled.items():
            totals[kind] = totals.get(kind, 0) + count
        return totals

    def clear(self) -> None:
        self.handled.clear()
        self.sent.clear()
        self.errors.clear()
        self.malformed.clear()
        self.malformed_detail.clear()
