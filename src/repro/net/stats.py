"""Traffic statistics collected by transports.

These counters are the measurement substrate for the paper's claims about
decentralised execution: message counts and byte volumes per node show how
coordination load concentrates on a central orchestrator versus spreading
across peers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.message import Message


@dataclass
class TrafficStats:
    """Counters over all messages a transport has carried."""

    sent_total: int = 0
    delivered_total: int = 0
    dropped_total: int = 0
    local_total: int = 0
    remote_total: int = 0
    bytes_total: int = 0
    #: Coalesced delivery events (``repro.perf`` batching): one flush
    #: hands a whole window's messages to a host in a single arrival.
    batch_flushes: int = 0
    #: Messages that arrived inside those flushes.
    batched_messages: int = 0
    sent_by_node: Counter = field(default_factory=Counter)
    received_by_node: Counter = field(default_factory=Counter)
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    by_pair: Counter = field(default_factory=Counter)

    def record_sent(self, message: Message) -> None:
        self.sent_total += 1
        size = message.size_bytes()
        self.bytes_total += size
        self.sent_by_node[message.source] += 1
        self.by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += size
        self.by_pair[(message.source, message.target)] += 1
        if message.is_local:
            self.local_total += 1
        else:
            self.remote_total += 1

    def record_delivered(self, message: Message) -> None:
        self.delivered_total += 1
        self.received_by_node[message.target] += 1

    def record_dropped(self, message: Message) -> None:
        self.dropped_total += 1

    def record_handler_error(self, message: Message) -> None:
        """A delivered message whose handler raised counts as dropped."""
        self.delivered_total -= 1
        self.received_by_node[message.target] -= 1
        self.dropped_total += 1

    def record_batch_flush(self, message_count: int) -> None:
        """One coalesced delivery event carrying ``message_count`` messages."""
        self.batch_flushes += 1
        self.batched_messages += message_count

    # Analysis helpers ------------------------------------------------------

    def batch_efficiency(self) -> float:
        """Mean messages per coalesced flush (0.0 when nothing batched).

        The headline batching number: how many per-message arrival
        events each delivery window saved.
        """
        if self.batch_flushes == 0:
            return 0.0
        return self.batched_messages / self.batch_flushes

    def wire_arrivals(self) -> int:
        """Physical arrival events: flushes plus unbatched deliveries.

        Without batching this equals :attr:`delivered_total`; with a
        coalescing window it is what the per-execution "message count"
        of CLAIM-FASTPATH measures — how many times a host was actually
        woken by the network.
        """
        return self.batch_flushes + max(
            0, self.delivered_total - self.batched_messages
        )

    def node_load(self, node_id: str) -> int:
        """Messages touching ``node_id`` (sent + received)."""
        return self.sent_by_node[node_id] + self.received_by_node[node_id]

    def peak_node_load(self) -> "Tuple[str, int]":
        """The busiest node and its message count.

        This is the headline number of the scalability claim: centralised
        orchestration concentrates nearly all traffic on one host.
        """
        nodes = set(self.sent_by_node) | set(self.received_by_node)
        if not nodes:
            return ("", 0)
        busiest = max(nodes, key=self.node_load)
        return busiest, self.node_load(busiest)

    def load_by_node(self) -> "Dict[str, int]":
        nodes = set(self.sent_by_node) | set(self.received_by_node)
        return {n: self.node_load(n) for n in sorted(nodes)}

    def load_concentration(self) -> float:
        """Fraction of total message load carried by the busiest node.

        1.0 means one node touches every message (perfectly centralised);
        1/N means perfectly even spread over N nodes.
        """
        loads = self.load_by_node()
        total = sum(loads.values())
        if total == 0:
            return 0.0
        return max(loads.values()) / total

    def top_nodes(self, count: int = 5) -> "List[Tuple[str, int]]":
        loads = self.load_by_node()
        ranked = sorted(loads.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]

    # Windowing --------------------------------------------------------------

    def snapshot(self) -> "TrafficStats":
        """An immutable-by-convention copy of every counter, taken now.

        Pair with :meth:`diff` to window a monotonically growing stats
        object over one experiment phase or health-sampling interval
        without hand-copying dicts::

            before = transport.stats.snapshot()
            ...  # run the phase
            window = transport.stats.diff(before)
        """
        return TrafficStats(
            sent_total=self.sent_total,
            delivered_total=self.delivered_total,
            dropped_total=self.dropped_total,
            local_total=self.local_total,
            remote_total=self.remote_total,
            bytes_total=self.bytes_total,
            batch_flushes=self.batch_flushes,
            batched_messages=self.batched_messages,
            sent_by_node=Counter(self.sent_by_node),
            received_by_node=Counter(self.received_by_node),
            by_kind=Counter(self.by_kind),
            bytes_by_kind=Counter(self.bytes_by_kind),
            by_pair=Counter(self.by_pair),
        )

    def diff(self, since: "TrafficStats") -> "TrafficStats":
        """Counters accumulated since an earlier :meth:`snapshot`.

        Counter entries that did not change are dropped from the per-key
        counters (``Counter`` subtraction keeps positives only), which is
        exactly the "what happened in this window" view callers want.
        """
        return TrafficStats(
            sent_total=self.sent_total - since.sent_total,
            delivered_total=self.delivered_total - since.delivered_total,
            dropped_total=self.dropped_total - since.dropped_total,
            local_total=self.local_total - since.local_total,
            remote_total=self.remote_total - since.remote_total,
            bytes_total=self.bytes_total - since.bytes_total,
            batch_flushes=self.batch_flushes - since.batch_flushes,
            batched_messages=(self.batched_messages
                              - since.batched_messages),
            sent_by_node=self.sent_by_node - since.sent_by_node,
            received_by_node=self.received_by_node - since.received_by_node,
            by_kind=self.by_kind - since.by_kind,
            bytes_by_kind=self.bytes_by_kind - since.bytes_by_kind,
            by_pair=self.by_pair - since.by_pair,
        )

    def reset(self) -> None:
        """Zero every counter (between benchmark repetitions)."""
        self.sent_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        self.local_total = 0
        self.remote_total = 0
        self.bytes_total = 0
        self.batch_flushes = 0
        self.batched_messages = 0
        self.sent_by_node.clear()
        self.received_by_node.clear()
        self.by_kind.clear()
        self.bytes_by_kind.clear()
        self.by_pair.clear()
