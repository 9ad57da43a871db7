"""Abstract transport interface shared by the simulated and wire nets.

The runtime layer is written against this interface only, so the exact
same coordinator/wrapper code runs on the deterministic simulator and on
real sockets — a key design constraint: the P2P protocol must not depend
on timing properties a simulator can't honour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.exceptions import TransportError
from repro.net.message import Message
from repro.net.node import Endpoint, Node
from repro.net.stats import TrafficStats


class Transport:
    """Base transport: node registry, failure injection, statistics."""

    #: Whether handlers can race other threads that use the transport.
    #: Consumers that keep shared mutable state (e.g. the kernel's
    #: counters middleware) synchronise only when this is True.
    concurrent_delivery = False

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self.stats = TrafficStats()
        self._observers: "List[Callable[[Message, float], None]]" = []

    # Observation -----------------------------------------------------------

    def add_observer(self, callback: "Callable[[Message, float], None]") -> None:
        """Register a delivery observer: ``callback(message, time_ms)``.

        Observers see every *delivered* message (after latency, before
        the handler runs).  This is the hook behind execution tracing and
        monitoring — it never mutates messages.
        """
        self._observers.append(callback)

    def remove_observer(
        self, callback: "Callable[[Message, float], None]"
    ) -> None:
        self._observers.remove(callback)

    # Node management -------------------------------------------------------

    def add_node(self, node_id: str) -> Node:
        """Create and register a node; raises on duplicates."""
        if node_id in self._nodes:
            raise TransportError(f"node {node_id!r} already registered")
        node = Node(node_id)
        self._nodes[node_id] = node
        return node

    def node(self, node_id: str) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise TransportError(f"unknown node {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> "List[str]":
        return list(self._nodes.keys())

    # Failure injection -------------------------------------------------------

    def fail_node(self, node_id: str) -> None:
        """Take a host down: its messages are dropped from now on."""
        self.node(node_id).up = False

    def recover_node(self, node_id: str) -> None:
        """Bring a failed host back up."""
        self.node(node_id).up = True

    def is_up(self, node_id: str) -> bool:
        return self.node(node_id).up

    # Core operations (implemented by subclasses) ------------------------------

    def send(self, message: Message) -> None:
        """Queue ``message`` for delivery.

        Fire-and-forget: delivery failure (target down, loss) is observed
        by the application through timeouts, exactly as with sockets.
        """
        raise NotImplementedError

    def schedule(
        self, node_id: str, delay_ms: float, callback: Callable[[], None]
    ) -> Callable[[], None]:
        """Run ``callback`` on ``node_id`` after ``delay_ms``.

        Models local work (service execution time) and timers (invocation
        timeouts).  Returns a cancel function.  The callback is skipped if
        the node is down when the timer fires — a dead host's timers die
        with it.
        """
        raise NotImplementedError

    def now_ms(self) -> float:
        """Current time in milliseconds (virtual or wall-clock)."""
        raise NotImplementedError

    def wait_for(
        self, predicate: Callable[[], bool], timeout_ms: Optional[float] = None
    ) -> bool:
        """Block (or simulate) until ``predicate()`` holds.

        Returns whether the predicate held before the timeout.  The
        simulated transport advances virtual time; the wire transport
        polls wall-clock time.  This is the only blocking primitive the
        client layer uses, which keeps client code transport-agnostic.
        """
        raise NotImplementedError

    # Shared helpers ----------------------------------------------------------

    def _precheck_send(self, message: Message) -> bool:
        """Record the send; returns False when it must be dropped at source."""
        if message.target not in self._nodes:
            raise TransportError(f"unknown target node {message.target!r}")
        source = self._nodes.get(message.source)
        if source is not None and not source.up:
            # A dead host sends nothing; silently ignore (its threads are
            # conceptually gone).
            return False
        self.stats.record_sent(message)
        return True

    def _deliver_now(self, message: Message) -> None:
        """Hand the message to the target endpoint if the target is up."""
        target = self._nodes[message.target]
        if not target.up or not target.has_endpoint(message.target_endpoint):
            self.stats.record_dropped(message)
            return
        self.stats.record_delivered(message)
        if self._observers:
            now = self.now_ms()
            for observer in self._observers:
                observer(message, now)
        target.endpoint(message.target_endpoint).deliver(message)

    def _deliver_batch_now(self, messages: "List[Message]") -> None:
        """Deliver one flushed window, handing same-endpoint runs over
        in single :meth:`Endpoint.deliver_batch` calls.

        Per-message semantics are preserved: each message is validated
        (target up, endpoint registered), recorded and shown to the
        observers individually, in order, exactly as a
        :meth:`_deliver_now` loop would.  Only *consecutive* messages
        to the same endpoint are grouped, and the group is formed
        before its handlers run — so a handler that takes its own node
        down mid-run still receives the rest of that run, like a
        socket server draining bytes it has already read off the wire.
        Messages to a different endpoint re-validate from scratch.
        """
        nodes = self._nodes
        stats = self.stats
        observers = self._observers
        i = 0
        n = len(messages)
        while i < n:
            message = messages[i]
            target_id = message.target
            endpoint_name = message.target_endpoint
            target = nodes[target_id]
            if not target.up or not target.has_endpoint(endpoint_name):
                stats.record_dropped(message)
                i += 1
                continue
            run = [message]
            i += 1
            while i < n:
                nxt = messages[i]
                if (
                    nxt.target != target_id
                    or nxt.target_endpoint != endpoint_name
                ):
                    break
                run.append(nxt)
                i += 1
            if observers:
                now = self.now_ms()
                for msg in run:
                    stats.record_delivered(msg)
                    for observer in observers:
                        observer(msg, now)
            else:
                for msg in run:
                    stats.record_delivered(msg)
            self._hand_over(target.endpoint(endpoint_name), run)

    def _hand_over(self, endpoint: Endpoint, run: "List[Message]") -> None:
        """Give one run to its endpoint; handler exceptions propagate."""
        endpoint.deliver_batch(run)
