"""Shared measurement helpers: latency samples, percentiles, results."""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from typing import Dict, List, Optional, Tuple

#: how many times every workload builds its set-up to time it
SETUP_REPEATS = 3

#: slices of a run whose median completion rate is the throughput
THROUGHPUT_WINDOWS = 5

#: where runs write their spans and data directories (git-ignored)
OUT_DIR = ".perfbench"

#: units of every metric a run can print
UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "read_p50_ms": "ms",
    "read_tail_ms": "ms", "write_p50_ms": "ms", "write_tail_ms": "ms",
    "first_row_p50_ms": "ms", "text_query_p50_ms": "ms",
    "spatial_query_p50_ms": "ms", "vir_query_p50_ms": "ms",
    "chem_query_p50_ms": "ms", "failed_frac": "ratio",
    "rss_peak_mb": "MB", "write_amp": "ratio", "restart_s": "s",
}

#: the end-to-end metrics every workload reports on the result line
#: (the others apply to some workloads only and go on the detail line)
END_TO_END = ("setup_s", "throughput_ops_s", "read_p50_ms", "read_tail_ms",
              "first_row_p50_ms", "text_query_p50_ms", "rss_peak_mb")


class CheckFailed(Exception):
    """A query returned a wrong answer: the run is not correct."""


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rss_peak_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Latency samples per operation class, plus attempt/failure counts."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        #: answers compared with their expected value
        self.checked = 0
        #: (start, end) of every unit of work the throughput counts
        self.done: List[Tuple[float, float]] = []

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)

    def merge(self, other: "Samples") -> None:
        for kind, values in other.by_kind.items():
            self.by_kind.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.checked += other.checked
        self.done.extend(other.done)

    def p50_ms(self, kind: str) -> Optional[float]:
        values = self.by_kind.get(kind)
        return statistics.median(values) * 1000.0 if values else None

    def tail_ms(self, kind: str, pct: float) -> Optional[float]:
        values = self.by_kind.get(kind)
        return percentile(values, pct) * 1000.0 if values else None

    def count(self, kind: str) -> int:
        return len(self.by_kind.get(kind, ()))


def latency_metrics(samples: Samples, tail_pct: float) -> Dict[str, float]:
    """Every latency metric the samples support (absent kinds are left out).

    ``read``/``write`` samples hold every read/write statement; the four
    ``*_query`` kinds hold domain queries by cartridge; ``first_row``
    holds the time to the first row of text queries.
    """
    out: Dict[str, float] = {}
    for kind in ("read", "write"):
        if samples.count(kind):
            out[f"{kind}_p50_ms"] = samples.p50_ms(kind)
            out[f"{kind}_tail_ms"] = samples.tail_ms(kind, tail_pct)
    for kind in ("first_row", "text_query", "spatial_query", "vir_query",
                 "chem_query"):
        if samples.count(kind):
            out[f"{kind}_p50_ms"] = samples.p50_ms(kind)
    out["failed_frac"] = samples.failed / max(1, samples.attempted)
    return out


def throughput(done: List[Tuple[float, float]], start: float, end: float,
               windows: int = THROUGHPUT_WINDOWS) -> float:
    """Work per second: the median over ``windows`` equal slices of
    [start, end), so a short stall in one slice does not move the result.

    A unit of work running across a slice boundary counts in each slice
    by the share of its duration that falls there.
    """
    width = (end - start) / windows
    work = [0.0] * windows
    for begin, finish in done:
        duration = max(finish - begin, 1e-9)
        first = max(0, int((begin - start) / width))
        last = min(windows - 1, int((finish - start) / width))
        for slot in range(first, last + 1):
            low = max(begin, start + slot * width)
            high = min(finish, start + (slot + 1) * width)
            if high > low:
                work[slot] += (high - low) / duration
    return statistics.median(work) / width


def close(conn) -> None:
    """Close an in-process connection and its engine, and collect the
    garbage, so a discarded set-up does not weigh on the next one."""
    engine = conn.engine
    conn.close()
    engine.close()
    gc.collect()


def out_path(*parts: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, *parts)
