"""Measurement helpers: wall-clock, first-row latency, I/O deltas, tables.

The benchmark modules use these to print the paper-style comparisons
(who wins, by what factor) alongside pytest-benchmark's timing output,
and to persist the same tables into ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

#: samples per arm taken by :func:`alternating_medians` by default
SAMPLES = 5


@dataclass
class Measurement:
    """One measured run: elapsed seconds, optional first-row latency, I/O."""

    elapsed: float
    first_row: Optional[float] = None
    io: Dict[str, int] = field(default_factory=dict)
    rows: int = 0


def time_call(fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` once and time it; rows = len(result) when sized."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    rows = len(result) if hasattr(result, "__len__") else 0
    return Measurement(elapsed=elapsed, rows=rows)


def time_to_first_row(iterator_factory: Callable[[], Iterator[Any]]
                      ) -> Measurement:
    """Time both the first yielded row and full consumption."""
    start = time.perf_counter()
    iterator = iterator_factory()
    first: Optional[float] = None
    count = 0
    for __ in iterator:
        if first is None:
            first = time.perf_counter() - start
        count += 1
    elapsed = time.perf_counter() - start
    return Measurement(elapsed=elapsed, first_row=first, rows=count)


def alternating_medians(arms: Sequence[Callable[[], float]],
                        samples: int = SAMPLES) -> List[float]:
    """Median of ``samples`` timings per arm, the arms taken in turn.

    Each arm is a callable that applies its own settings and returns the
    seconds it measured.  One untimed warm-up round runs first, so
    neither arm pays for cold caches alone.  Every round then runs each
    arm once, the order flipping between rounds (A B, B A, A B, ...), so
    drift on a shared machine — a neighbour's load, a frequency change —
    falls on both arms alike instead of on whichever ran second, and
    the median discards the rounds it did hit.  Garbage is collected
    before every sample so one arm's garbage is not charged to the next.
    """
    for arm in arms:
        arm()
    timings: List[List[float]] = [[] for __ in arms]
    for round_no in range(samples):
        order = list(enumerate(arms))
        if round_no % 2:
            order.reverse()
        for index, arm in order:
            gc.collect()
            timings[index].append(arm())
    return [statistics.median(series) for series in timings]


def io_delta(db, fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` and capture the change in the database's I/O counters."""
    before = db.stats.snapshot()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    measurement = Measurement(elapsed=elapsed, io=db.stats.diff(before))
    if hasattr(result, "__len__"):
        measurement.rows = len(result)
    return measurement


class ReportTable:
    """A fixed-width ASCII table, printable and writable to a file."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row; floats are rendered with 4 significant places."""
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(f"{cell:.4g}")
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Iterable[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        separator = "-+-".join("-" * w for w in widths)
        body = [self.title, line(self.headers), separator]
        body.extend(line(row) for row in self.rows)
        return "\n".join(body)

    def emit(self, path: Optional[str] = None) -> str:
        """Print the table and optionally append it to ``path``."""
        text = self.render()
        print("\n" + text + "\n")
        if path is not None:
            with open(path, "a") as handle:
                handle.write(text + "\n\n")
        return text
