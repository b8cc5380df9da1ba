"""Executor benchmark: compiled-vs-interpreted, cold-vs-warm, batch sweep.

Measures the compile-and-batch execution pipeline against the
tree-walking interpreter on the same engine build (the
``compile_expressions`` toggle) and the vectorized columnar pipeline
against the compiled-closure baseline (the ``vectorized_execution``
toggle), and emits a machine-readable ``BENCH_executor.json`` at the
repo root so the perf trajectory is tracked across PRs.

Run directly::

    python benchmarks/bench_executor.py            # record: JSON + table
    python benchmarks/bench_executor.py --smoke --check   # CI perf gate

``--check`` compares *speedup ratios* (not absolute seconds, which vary
by machine) against the committed baseline JSON and fails on a >20%
regression; it also enforces the >= 2x floor on the filter-heavy
full-scan case.  Each two-arm case reports the median of
:data:`~repro.bench.harness.SAMPLES` alternating samples per arm
(:func:`~repro.bench.harness.alternating_medians`), so one noisy
sample cannot move a gated ratio.  The same entry points run under
pytest via :func:`test_executor_benchmark` so the suite keeps them
healthy.
"""

import argparse
import json
import os
import random
import sys
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Database, FetchResult, IndexMethods, PrecomputedScan
from repro.bench.harness import SAMPLES, ReportTable, alternating_medians
from repro.bench.workloads import make_corpus

REPORT_FILE = "executor.txt"
JSON_FILE = "BENCH_executor.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable results live at the repo root (text reports stay
#: under benchmarks/results/)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: several compiled-friendly predicates over one full scan — the
#: expression-evaluation-dominated workload the compiler targets
FILTER_SQL = ("SELECT id FROM t WHERE val < :1 AND grp LIKE 'g1%'"
              " AND id BETWEEN :2 AND :3 AND NOT (val * 2 > 1.9)")

#: regression tolerance for --check: a speedup ratio may not drop below
#: 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: acceptance floor: compiled+batched must beat the interpreter by >= 2x
#: on the filter-heavy full scan
FILTER_SPEEDUP_FLOOR = 2.0
#: acceptance target (recorded run): parallel morsel scan at 4 workers
#: over the serial compiled scan; the CI smoke gate uses the floor
PARALLEL_SPEEDUP_TARGET = 2.5
PARALLEL_SPEEDUP_FLOOR = 1.5
#: acceptance target (recorded run): vectorized columnar scan over the
#: compiled-closure baseline on the filter-heavy full scan; the CI
#: smoke gate uses the floor (full-suite load makes ratios wobble)
VECTORIZED_SPEEDUP_TARGET = 2.0
VECTORIZED_SPEEDUP_FLOOR = 1.5
#: grouped column folds must beat the row-at-a-time accumulator loop
VECTORIZED_AGG_FLOOR = 1.3
#: prefetch must show a measurable fetch/process overlap win
PREFETCH_SPEEDUP_FLOOR = 1.1
#: with parallel_execution off, the parallel-aware executor may cost at
#: most 5% over a plan that was never annotated for parallelism
SERIAL_OVERHEAD_CEILING = 1.05

#: synthetic I/O latency per ODCIIndexFetch batch in the prefetch
#: scenario (a real sleep — it must release the GIL for overlap)
SLOW_FETCH_SLEEP_S = 0.002


class SlowScanMethods(IndexMethods):
    """Equality indextype whose fetch models a slow external source."""

    def _table(self, ia):
        return f"{ia.index_name.lower()}_data"

    def index_create(self, ia, parameters, env):
        env.callback.execute(
            f"CREATE TABLE {self._table(ia)} (v VARCHAR2(32), rid ROWID)")
        column = ia.column_names[0]
        for rid, value in env.callback.query(
                f"SELECT rowid, {column} FROM {ia.table_name}"):
            env.callback.insert_row(self._table(ia), [value, rid])

    def index_drop(self, ia, env):
        env.callback.execute(f"DROP TABLE {self._table(ia)}")

    def index_insert(self, ia, rowid, new_values, env):
        env.callback.insert_row(self._table(ia), [new_values[0], rowid])

    def index_delete(self, ia, rowid, old_values, env):
        env.callback.execute(
            f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

    def index_start(self, ia, op_info, query_info, env):
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE v = :1",
            [op_info.operator_args[0]])
        return PrecomputedScan(sorted(r[0] for r in rows))

    def index_fetch(self, context, nrows, env):
        time.sleep(SLOW_FETCH_SLEEP_S)
        batch = context.next_batch(nrows)
        return FetchResult(rowids=batch, done=len(batch) < nrows)

    def index_close(self, context, env):
        context.close()


def build_scan_db(n_rows):
    db = Database(buffer_capacity=4096)
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(91)
    db.insert_rows("t", [[i, f"g{i % 16}", rng.random()]
                         for i in range(n_rows)])
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    return db


def build_text_db(n_docs):
    from repro.cartridges.text import install
    corpus = make_corpus(n_docs, words_per_doc=40, vocabulary_size=400,
                         seed=17)
    db = Database(buffer_capacity=4096)
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")
    return db, corpus


def _timed(db, sql, binds, repeats):
    """Warm the plan cache, then time ``repeats`` executions (one sample)."""
    db.plan_cache.clear()
    rows = db.execute(sql, binds).fetchall()
    start = time.perf_counter()
    for __ in range(repeats):
        db.execute(sql, binds).fetchall()
    return time.perf_counter() - start, len(rows)


def _compare(db, sql, binds, repeats, baseline, optimized,
             samples=SAMPLES):
    """Median seconds of two knob settings, sampled alternately.

    ``baseline`` and ``optimized`` map engine attributes to the values
    each arm runs with; every sample re-applies its arm's settings and
    re-plans.  Returns ``(baseline_s, optimized_s, rows)``.
    """
    row_counts = set()

    def arm(settings):
        def sample():
            for name, value in settings.items():
                setattr(db, name, value)
            elapsed, rows = _timed(db, sql, binds, repeats)
            row_counts.add(rows)
            return elapsed
        return sample

    baseline_s, optimized_s = alternating_medians(
        [arm(baseline), arm(optimized)], samples)
    assert len(row_counts) == 1, row_counts  # both arms, same answer
    return baseline_s, optimized_s, row_counts.pop()


def bench_filter_full_scan(n_rows, repeats):
    """Filter-heavy full scan: compiled+batched vs interpreter."""
    db = build_scan_db(n_rows)
    db.parallel_execution = False  # this case tracks the serial pipeline
    binds = [0.9, 100, n_rows - 100]
    interpreted, compiled, rows = _compare(
        db, FILTER_SQL, binds, repeats,
        {"compile_expressions": False}, {"compile_expressions": True})
    assert rows > 0
    return {"interpreted_s": round(interpreted, 4),
            "compiled_s": round(compiled, 4),
            "rows": rows,
            "speedup": round(interpreted / compiled, 3)}


def bench_vectorized_scan(n_rows, repeats):
    """Filter-heavy full scan: vector kernel vs compiled closures.

    Both modes run the compiled pipeline serially; the only difference
    is whether the scan filters on columnar batches with a generated
    vector kernel or calls the row closure through a context per row.
    The plan cache is cleared between modes because the vectorized
    annotation is stamped on the plan.
    """
    db = build_scan_db(n_rows)
    db.parallel_execution = False
    binds = [0.9, 100, n_rows - 100]
    closure, vectorized, rows = _compare(
        db, FILTER_SQL, binds, repeats,
        {"vectorized_execution": False}, {"vectorized_execution": True})
    assert rows > 0
    return {"closure_s": round(closure, 4),
            "vectorized_s": round(vectorized, 4),
            "rows": rows,
            "speedup": round(closure / vectorized, 3)}


def bench_vectorized_agg(n_rows, repeats):
    """GROUP BY aggregation: grouped column folds vs row accumulators."""
    db = build_scan_db(n_rows)
    db.parallel_execution = False
    sql = ("SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val)"
           " FROM t GROUP BY grp")
    closure, vectorized, groups = _compare(
        db, sql, [], repeats,
        {"vectorized_execution": False}, {"vectorized_execution": True})
    assert groups > 0
    return {"closure_s": round(closure, 4),
            "vectorized_s": round(vectorized, 4),
            "groups": groups,
            "speedup": round(closure / vectorized, 3)}


def bench_cold_vs_warm(n_rows, repeats):
    """Hard parse+plan+compile each execution vs the shared cached plan.

    Uses an indexed point query so per-execution work is small and the
    plan-time cost (now including expression compilation) is what gets
    measured; many repeats per mode keep the ratio stable.
    """
    db = build_scan_db(n_rows)
    sql = "SELECT grp FROM t WHERE id = :1"
    rounds = repeats * 20
    db.execute(sql, [1]).fetchall()
    start = time.perf_counter()
    for i in range(rounds):
        db.plan_cache.clear()
        db.execute(sql, [(i * 37) % n_rows]).fetchall()
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(rounds):
        db.execute(sql, [(i * 37) % n_rows]).fetchall()
    warm = time.perf_counter() - start
    return {"cold_s": round(cold, 4), "warm_s": round(warm, 4),
            "speedup": round(cold / warm, 3)}


def bench_parallel_scan(n_rows, repeats, dop=4):
    """Morsel-parallel full scan at ``dop`` workers vs the serial path.

    Both modes use the compiled pipeline; the plan cache is cleared
    between modes because parallel eligibility is annotated on the plan
    (runtime gates keep stale annotations *safe*, but a fair comparison
    needs each mode planned under its own settings).

    Vector kernels are pinned OFF in both modes: this case measures the
    morsel/exchange machinery against the closure loop it was built
    over.  With vectorization on, the serial loop is fast enough that
    GIL-bound morsel threads cannot beat it at bench scale — that
    trade-off is visible in vectorized_scan vs this case, not hidden
    by re-baselining.
    """
    db = build_scan_db(n_rows)
    db.vectorized_execution = False
    # tighter val bound than the compiled-vs-interp case: with ~13% of
    # rows surviving, the scan is reject-dominated — the workload the
    # morsel kernels target (survivor-side context + projection work is
    # identical in both modes and only dilutes the ratio)
    binds = [0.3, 100, n_rows - 100]
    db.max_dop = dop
    serial, parallel, rows = _compare(
        db, FILTER_SQL, binds, repeats,
        {"parallel_execution": False}, {"parallel_execution": True})
    assert rows > 0
    return {"serial_s": round(serial, 4),
            "parallel_s": round(parallel, 4),
            "dop": dop,
            "rows": rows,
            "speedup": round(serial / parallel, 3)}


def build_slow_scan_db(n_items):
    db = Database(buffer_capacity=4096)
    db.create_function("CatEqFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    # per-row consumer work downstream of the fetch, sized comparable
    # to the synthetic fetch latency — without it the scan is
    # fetch-latency-bound in both modes and overlap buys nothing
    db.create_function("Heavy",
                       lambda x: sum(i * i for i in range(800)) + x,
                       cost=2.0)
    db.register_methods("SlowScanMethods", SlowScanMethods)
    db.execute("CREATE OPERATOR Cat_Eq BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING CatEqFunc")
    db.execute("CREATE INDEXTYPE SlowScanType"
               " FOR Cat_Eq(VARCHAR2, VARCHAR2) USING SlowScanMethods")
    db.execute("CREATE TABLE items (id INTEGER, v VARCHAR2(16))")
    db.insert_rows("items", [[i, f"c{i % 4}"] for i in range(n_items)])
    db.execute("CREATE INDEX items_idx ON items(v)"
               " INDEXTYPE IS SlowScanType")
    db.execute("ANALYZE TABLE items COMPUTE STATISTICS")
    return db


def bench_prefetch_overlap(n_items, repeats, depth=2):
    """Async ODCI prefetch vs the serial fetch loop on a slow cartridge.

    Every ``ODCIIndexFetch`` sleeps (synthetic device latency); the
    query projects a deliberately expensive function per row.  With
    prefetch the next fetch's latency hides behind the previous batch's
    projection work; serially they add up.
    """
    db = build_slow_scan_db(n_items)
    sql = "SELECT Heavy(id) FROM items WHERE Cat_Eq(v, :1) = 1"
    binds = ["c1"]
    db.prefetch_min_rows = 1
    serial, prefetch, rows = _compare(
        db, sql, binds, repeats,
        {"prefetch_depth": 0}, {"prefetch_depth": depth})
    assert rows > 0
    return {"serial_s": round(serial, 4),
            "prefetch_s": round(prefetch, 4),
            "depth": depth,
            "rows": rows,
            "speedup": round(serial / prefetch, 3)}


def bench_serial_overhead(n_rows, repeats):
    """Cost of the parallel-aware executor when the feature is OFF.

    Compares the same serial scan under (a) plans never annotated for
    parallelism (eligibility threshold set unreachably high) and
    (b) plans annotated but runtime-gated off — i.e. what every
    serial-only deployment pays for this feature existing.  Both arms
    run the same serial loop and the ceiling is 5%, so this case takes
    three times the usual samples.
    """
    db = build_scan_db(n_rows)
    binds = [0.9, 100, n_rows - 100]
    db.parallel_execution = False
    bare, gated, __ = _compare(
        db, FILTER_SQL, binds, repeats,
        {"parallel_min_pages": 10 ** 9}, {"parallel_min_pages": 8},
        samples=3 * SAMPLES)
    return {"bare_s": round(bare, 4), "gated_off_s": round(gated, 4),
            "overhead_ratio": round(gated / bare, 3)}


def bench_domain_scan(n_docs, repeats):
    """Text-cartridge Contains scan: compiled vs interpreted pipeline."""
    db, corpus = build_text_db(n_docs)
    db.prefetch_depth = 0  # in-memory fetches: no latency worth hiding
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    binds = [corpus.common_word(5)]
    interpreted, compiled, rows = _compare(
        db, sql, binds, repeats,
        {"compile_expressions": False}, {"compile_expressions": True})
    assert rows > 0
    return {"interpreted_s": round(interpreted, 4),
            "compiled_s": round(compiled, 4),
            "rows": rows,
            "speedup": round(interpreted / compiled, 3)}


def bench_batch_sweep(n_docs, repeats, sizes=(8, 32, 128)):
    """ODCIIndexFetch batch-size sweep over the same domain scan."""
    db, corpus = build_text_db(n_docs)
    db.prefetch_depth = 0  # sweep measures the raw fetch loop
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    binds = [corpus.common_word(2)]
    sweep = {}
    for size in sizes:
        db.fetch_batch_size = size
        elapsed, __ = _timed(db, sql, binds, repeats)
        sweep[str(size)] = round(elapsed, 4)
    return sweep


def run_benchmarks(smoke=False):
    n_rows = 6000 if smoke else 20000
    n_docs = 300 if smoke else 1000
    n_items = 1500 if smoke else 4000
    repeats = 8 if smoke else 30
    prefetch_repeats = 3 if smoke else 8  # sleeps dominate; few rounds
    return {
        "meta": {"n_rows": n_rows, "n_docs": n_docs, "n_items": n_items,
                 "repeats": repeats, "samples": SAMPLES, "smoke": smoke},
        "cases": {
            "filter_full_scan": bench_filter_full_scan(n_rows, repeats),
            "vectorized_scan": bench_vectorized_scan(n_rows, repeats),
            "vectorized_agg": bench_vectorized_agg(n_rows, repeats),
            "parallel_scan": bench_parallel_scan(n_rows, repeats),
            "prefetch_overlap": bench_prefetch_overlap(
                n_items, prefetch_repeats),
            "serial_overhead": bench_serial_overhead(n_rows, repeats),
            "plan_cache": bench_cold_vs_warm(n_rows, repeats),
            "domain_scan": bench_domain_scan(n_docs, repeats),
            "batch_sweep": bench_batch_sweep(n_docs, repeats),
        },
    }


def render_table(results):
    cases = results["cases"]
    table = ReportTable(
        "executor — compiled+batched pipeline vs interpreter "
        f"(rows={results['meta']['n_rows']}, "
        f"repeats={results['meta']['repeats']})",
        ["case", "baseline_s", "optimized_s", "speedup"])
    fs = cases["filter_full_scan"]
    table.add_row("filter-heavy full scan (interp -> compiled)",
                  fs["interpreted_s"], fs["compiled_s"], fs["speedup"])
    vs = cases["vectorized_scan"]
    table.add_row("filter-heavy full scan (closure -> vectorized)",
                  vs["closure_s"], vs["vectorized_s"], vs["speedup"])
    va = cases["vectorized_agg"]
    table.add_row("group-by aggregation (closure -> vectorized)",
                  va["closure_s"], va["vectorized_s"], va["speedup"])
    ps = cases["parallel_scan"]
    table.add_row(f"parallel morsel scan (serial -> dop {ps['dop']})",
                  ps["serial_s"], ps["parallel_s"], ps["speedup"])
    po = cases["prefetch_overlap"]
    table.add_row(f"slow domain scan (serial -> prefetch {po['depth']})",
                  po["serial_s"], po["prefetch_s"], po["speedup"])
    so = cases["serial_overhead"]
    table.add_row("serial path, feature off (bare -> gated)",
                  so["bare_s"], so["gated_off_s"], so["overhead_ratio"])
    pc = cases["plan_cache"]
    table.add_row("plan cache (cold -> warm)",
                  pc["cold_s"], pc["warm_s"], pc["speedup"])
    ds = cases["domain_scan"]
    table.add_row("text domain scan (interp -> compiled)",
                  ds["interpreted_s"], ds["compiled_s"], ds["speedup"])
    for size, elapsed in cases["batch_sweep"].items():
        table.add_row(f"domain scan, fetch batch {size}", elapsed, "-", "-")
    return table


def check_against_baseline(results, baseline_path):
    """Ratio-based regression gate; returns a list of failure strings."""
    failures = []
    filter_speedup = results["cases"]["filter_full_scan"]["speedup"]
    if filter_speedup < FILTER_SPEEDUP_FLOOR:
        failures.append(
            f"filter_full_scan speedup {filter_speedup} is below the "
            f"{FILTER_SPEEDUP_FLOOR}x acceptance floor")
    vectorized_speedup = results["cases"]["vectorized_scan"]["speedup"]
    if vectorized_speedup < VECTORIZED_SPEEDUP_FLOOR:
        failures.append(
            f"vectorized_scan speedup {vectorized_speedup} is below the "
            f"{VECTORIZED_SPEEDUP_FLOOR}x CI floor")
    agg_speedup = results["cases"]["vectorized_agg"]["speedup"]
    if agg_speedup < VECTORIZED_AGG_FLOOR:
        failures.append(
            f"vectorized_agg speedup {agg_speedup} is below the "
            f"{VECTORIZED_AGG_FLOOR}x floor")
    # The 2.5x parallel target is asserted on the recorded full-size
    # run (see the committed baseline); smoke scale gates on the floor.
    parallel_speedup = results["cases"]["parallel_scan"]["speedup"]
    if parallel_speedup < PARALLEL_SPEEDUP_FLOOR:
        failures.append(
            f"parallel_scan speedup {parallel_speedup} is below the "
            f"{PARALLEL_SPEEDUP_FLOOR}x CI floor")
    prefetch_speedup = results["cases"]["prefetch_overlap"]["speedup"]
    if prefetch_speedup < PREFETCH_SPEEDUP_FLOOR:
        failures.append(
            f"prefetch_overlap speedup {prefetch_speedup} is below the "
            f"{PREFETCH_SPEEDUP_FLOOR}x floor (no overlap win)")
    overhead = results["cases"]["serial_overhead"]["overhead_ratio"]
    if overhead > SERIAL_OVERHEAD_CEILING:
        failures.append(
            f"serial_overhead ratio {overhead} exceeds the "
            f"{SERIAL_OVERHEAD_CEILING} ceiling with the feature off")
    # The domain scan at smoke scale is ODCI-dispatch dominated, so its
    # ratio is not stable across corpus sizes; gate it with an absolute
    # "compiled must not be slower" floor instead of the baseline ratio.
    domain_speedup = results["cases"]["domain_scan"]["speedup"]
    if domain_speedup < 0.9:
        failures.append(
            f"domain_scan: compiled pipeline slower than the interpreter "
            f"({domain_speedup}x)")
    if not os.path.exists(baseline_path):
        failures.append(f"no committed baseline at {baseline_path}")
        return failures
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    for case in ("filter_full_scan", "vectorized_scan", "plan_cache"):
        base = baseline["cases"].get(case, {}).get("speedup")
        now = results["cases"][case]["speedup"]
        if base is None:
            continue
        if now < base * CHECK_TOLERANCE:
            failures.append(
                f"{case}: speedup regressed >20% "
                f"(baseline {base}x, now {now}x)")
    return failures


def write_results(results):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(REPO_ROOT, JSON_FILE)
    with open(json_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    render_table(results).emit(os.path.join(RESULTS_DIR, REPORT_FILE))
    return json_path


# -- pytest entry point (keeps the script healthy inside the suite) --------

def test_executor_benchmark():
    """Smoke-size run: results must satisfy the acceptance floor."""
    results = run_benchmarks(smoke=True)
    speedup = results["cases"]["filter_full_scan"]["speedup"]
    assert speedup >= FILTER_SPEEDUP_FLOOR, (
        f"compiled+batched only {speedup}x over the interpreter")
    assert results["cases"]["plan_cache"]["speedup"] > 1.0
    # looser than the perf-job gates: under the full suite's load the
    # timings wobble, and the perf job (--smoke --check) holds the line
    vectorized = results["cases"]["vectorized_scan"]["speedup"]
    assert vectorized >= 1.2, f"vectorized scan only {vectorized}x"
    agg = results["cases"]["vectorized_agg"]["speedup"]
    assert agg >= 1.1, f"vectorized aggregation only {agg}x"
    parallel = results["cases"]["parallel_scan"]["speedup"]
    assert parallel >= 1.3, f"parallel scan only {parallel}x over serial"
    prefetch = results["cases"]["prefetch_overlap"]["speedup"]
    assert prefetch >= 1.0, f"prefetch slower than serial ({prefetch}x)"
    overhead = results["cases"]["serial_overhead"]["overhead_ratio"]
    assert overhead <= 1.15, f"feature-off overhead {overhead}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="compare speedup ratios against the committed "
                             "baseline instead of overwriting it")
    args = parser.parse_args(argv)

    results = run_benchmarks(smoke=args.smoke)
    if args.check:
        render_table(results).emit()
        failures = check_against_baseline(
            results, os.path.join(REPO_ROOT, JSON_FILE))
        for failure in failures:
            print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    path = write_results(results)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
