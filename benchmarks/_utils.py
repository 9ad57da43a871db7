"""Shared helpers for the benchmark suite.

Every benchmark module follows the same pattern: run a parameter sweep
(in plain test code), assert the *shape* the paper claims (who wins, by
roughly what factor, where crossovers fall), persist the measured table
under ``benchmarks/results/<experiment>.txt``, and benchmark a
representative unit of work with pytest-benchmark.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

BENCH_DIR = os.path.dirname(__file__)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
#: Committed regression-gate baselines (``tools/check_bench.py``).
BASELINES_DIR = os.path.join(BENCH_DIR, "baselines")


def bench_modules() -> "List[str]":
    """The benchmark manifest: every bench module, repo-root-relative.

    CI's ``bench-gate`` job and ``tools/check_bench.py`` both
    discover benchmark modules through
    this one function instead of ad-hoc ``-k`` expressions or file
    lists, so a newly added ``test_bench_*.py`` cannot be silently
    skipped by any of them.
    """
    return sorted(
        f"benchmarks/{name}"
        for name in os.listdir(BENCH_DIR)
        if name.startswith("test_bench_") and name.endswith(".py")
    )


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width table rendering (stable across runs for diffing)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def write_result(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Persist one experiment's measured table; returns the text."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    table = format_table(headers, rows)
    text = f"# {experiment}: {title}\n\n{table}\n"
    if notes:
        text += f"\n{notes.strip()}\n"
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
