"""Execution history: past outcomes and current load per member service."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional


@dataclass
class ServiceStats:
    """Aggregates over one member's observed executions."""

    successes: int = 0
    failures: int = 0
    durations_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=256))
    ongoing: int = 0

    @property
    def attempts(self) -> int:
        return self.successes + self.failures

    def success_rate(self, prior: float = 1.0, prior_weight: int = 1) -> float:
        """Smoothed success rate.

        A Laplace-style prior keeps brand-new members from scoring 0/0 —
        they start at ``prior`` and converge to their true rate as
        observations accumulate.
        """
        return (self.successes + prior * prior_weight) / (
            self.attempts + prior_weight
        )

    def mean_duration_ms(self, default: float = 0.0) -> float:
        if not self.durations_ms:
            return default
        return sum(self.durations_ms) / len(self.durations_ms)


class ExecutionHistory:
    """Tracks outcomes and in-flight counts for a set of services.

    One instance is shared by a community wrapper and its selection
    policy; separate communities keep separate histories (members are
    judged per community, matching the paper's per-community delegation).
    """

    def __init__(self) -> None:
        self._stats: Dict[str, ServiceStats] = {}

    def stats(self, service: str) -> ServiceStats:
        found = self._stats.get(service)
        if found is None:
            found = ServiceStats()
            self._stats[service] = found
        return found

    # Recording ------------------------------------------------------------

    def record_start(self, service: str) -> None:
        """Note an invocation in flight (the 'ongoing executions' signal)."""
        self.stats(service).ongoing += 1

    def record_end(
        self, service: str, success: bool, duration_ms: float
    ) -> None:
        """Record the outcome of an invocation started earlier."""
        stats = self.stats(service)
        if stats.ongoing > 0:
            stats.ongoing -= 1
        if success:
            stats.successes += 1
        else:
            stats.failures += 1
        stats.durations_ms.append(duration_ms)

    # Queries ----------------------------------------------------------------

    def current_load(self, service: str) -> int:
        return self.stats(service).ongoing

    def success_rate(self, service: str) -> float:
        return self.stats(service).success_rate()

    def mean_duration_ms(self, service: str, default: float = 0.0) -> float:
        return self.stats(service).mean_duration_ms(default)

    def snapshot(self) -> "Dict[str, Dict[str, float]]":
        """Plain-dict view for reports and benchmarks."""
        return {
            service: {
                "successes": stats.successes,
                "failures": stats.failures,
                "ongoing": stats.ongoing,
                "success_rate": stats.success_rate(),
                "mean_duration_ms": stats.mean_duration_ms(),
            }
            for service, stats in self._stats.items()
        }
