"""The kernel's delivery layer: one :class:`Mailbox` per actor.

A mailbox is what the transport actually delivers to.  It owns the full
inbound pipeline — decode the body into its typed envelope, drop unknown
verbs (as a socket server would) and malformed bodies (counted, and
reported through the middleware chain), run the middleware hooks, then
dispatch to the handler the actor's verb table names.  Because the
pipeline lives here and not in each actor, the exact same actor code
runs unchanged on :class:`~repro.net.simnet.SimTransport` and
:class:`~repro.net.wire.WireTransport`; per-coordinator *decision*
structures (the PR 3 :class:`~repro.perf.CoordinatorDispatch` fast path)
remain a dispatch strategy plugged in beneath the handler, untouched by
this layer.

Two hot-path entrances (``repro.perf``):

* **zero-copy acceptance** — a message carrying its typed envelope
  (the kernel's opt-in in-proc fast path, see
  :meth:`~repro.kernel.actor.Actor.send`) skips decoding entirely; the
  envelope is frozen, so sharing it between sender and receiver is
  safe;
* :meth:`deliver_batch` — a transport drain window hands a whole run
  of messages over in one call, letting batch-aware middlewares (the
  kernel counters) aggregate their work per window instead of per
  message.  Per-message hooks that carry ordering semantics (the
  durability log's ``before_handle``) still fire once per message, in
  delivery order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.exceptions import ProtocolError
from repro.kernel.envelopes import ENVELOPE_TYPES
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.actor import Actor


class Mailbox:
    """Inbound pipeline of one actor: decode -> middleware -> dispatch."""

    __slots__ = ("actor", "delivered", "handled", "unknown_verbs",
                 "malformed")

    def __init__(self, actor: "Actor") -> None:
        self.actor = actor
        #: Messages the transport handed to this mailbox.
        self.delivered = 0
        #: Messages that reached a handler (and did not raise).
        self.handled = 0
        #: Messages dropped because no handler claims their verb.
        self.unknown_verbs = 0
        #: Messages dropped because their body failed envelope decoding.
        self.malformed = 0

    def deliver(self, message: Message) -> None:
        """Process one delivered message end to end."""
        self.delivered += 1
        actor = self.actor
        kind = message.kind
        handler = actor._handlers.get(kind)
        if handler is None:
            # Unknown verbs are dropped silently, as a socket server
            # would drop an unrecognised request — but counted, so a
            # misconfigured peer is visible in diagnostics.
            self.unknown_verbs += 1
            return
        kernel = actor.kernel
        envelope = message.envelope
        if envelope is None or envelope.KIND != kind:
            try:
                # A claimed verb always has an envelope (the dispatch
                # table is keyed by envelope KINDs), so index the
                # registry directly.
                envelope = ENVELOPE_TYPES[kind].from_body(message.body)
            except ProtocolError as exc:
                self.malformed += 1
                for hook in kernel.malformed_hooks:
                    hook(actor, message, exc)
                return
        # Hook lists hold only the middlewares that override each hook
        # (see ActorKernel._rebuild_hooks); after_hooks is pre-reversed.
        before = kernel.before_hooks
        after = kernel.after_hooks
        if before or after:
            for hook in before:
                hook(actor, envelope, message)
            error: Optional[BaseException] = None
            try:
                handler(envelope, message)
            except BaseException as exc:
                error = exc
                raise
            finally:
                for hook in after:
                    hook(actor, envelope, message, error)
        else:
            handler(envelope, message)
        self.handled += 1

    # The mailbox itself is registered as the endpoint handler, so the
    # transport's per-message path calls it directly...
    __call__ = deliver

    # ...and the batch path discovers this richer entry point.
    def deliver_batch(self, messages: "List[Message]") -> None:
        """Process one drain window of messages addressed to this actor.

        Identical per-message semantics to :meth:`deliver` — same
        decode, same unknown-verb/malformed policy, same per-message
        ``before_handle``/``after_handle`` hooks in the same order —
        except that *batch-aware* middlewares (those overriding
        ``after_handle_batch``) get one aggregated call per window in
        place of their per-message ``after_handle``.  A handler
        exception propagates exactly as on the per-message path; the
        aggregated tallies accumulated so far are flushed first, so
        counters never lose the window's completed work.
        """
        self.delivered += len(messages)
        actor = self.actor
        handlers = actor._handlers
        kernel = actor.kernel
        before = kernel.before_hooks
        after = kernel.unbatched_after_hooks
        batch_hooks = kernel.batch_after_hooks
        malformed_hooks = kernel.malformed_hooks
        envelope_types = ENVELOPE_TYPES
        tallies: "Optional[dict]" = {} if batch_hooks else None
        # Successes are tallied run-length: windows are usually
        # homogeneous in verb, so the happy path pays one dict update
        # per kind *run*, not per message — the difference between the
        # default counters costing ~1.3x and costing nothing.
        run_kind: "Optional[str]" = None
        run_ok = 0
        handled = 0
        try:
            for message in messages:
                kind = message.kind
                handler = handlers.get(kind)
                if handler is None:
                    self.unknown_verbs += 1
                    continue
                envelope = message.envelope
                if envelope is None or envelope.KIND != kind:
                    try:
                        envelope = envelope_types[kind].from_body(
                            message.body
                        )
                    except ProtocolError as exc:
                        self.malformed += 1
                        for hook in malformed_hooks:
                            hook(actor, message, exc)
                        continue
                for hook in before:
                    hook(actor, envelope, message)
                if after:
                    error: Optional[BaseException] = None
                    try:
                        handler(envelope, message)
                    except BaseException as exc:
                        error = exc
                        raise
                    finally:
                        for hook in after:
                            hook(actor, envelope, message, error)
                        if error is not None and tallies is not None:
                            tally = tallies.setdefault(kind, [0, 0])
                            tally[1] += 1
                else:
                    if tallies is None:
                        handler(envelope, message)
                    else:
                        try:
                            handler(envelope, message)
                        except BaseException:
                            tallies.setdefault(kind, [0, 0])[1] += 1
                            raise
                handled += 1
                if kind == run_kind:
                    run_ok += 1
                elif tallies is not None:
                    if run_ok:
                        tallies.setdefault(run_kind, [0, 0])[0] += run_ok
                    run_kind = kind
                    run_ok = 1
        finally:
            self.handled += handled
            if tallies is not None:
                if run_ok:
                    tallies.setdefault(run_kind, [0, 0])[0] += run_ok
                if tallies:
                    endpoint = messages[0].target_endpoint
                    for hook in batch_hooks:
                        hook(actor, endpoint, tallies)
