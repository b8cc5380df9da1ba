"""Per-layer metrics from a traced phase: span times plus counter deltas.

Inputs are a span summary (:meth:`spans.Tracer.summary`, merged across
processes for ``wire_oltp``), the start/end deltas of the engine's own
counters (:func:`counters`), and the workload's own operation counts.
A metric whose layer the workload never crosses is reported as 0.
"""

from __future__ import annotations

import re
from typing import Any, Dict

import spans as tr

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    "dbapi.self_ms_per_stmt",
    "server.wire_ms_per_stmt", "server.frames_per_stmt",
    "server.stmt_ms_per_stmt",
    "pipeline.self_ms_per_stmt", "pipeline.parse_ms_per_stmt",
    "pipeline.parses_per_stmt", "plan_cache.hit_ratio",
    "planner.plan_ms_per_stmt", "odci.stats_calls_per_stmt",
    "odci.stats_ms_per_stmt",
    "executor.self_ms_per_stmt", "executor.rows_examined_per_row_returned",
    "executor.vector_fallbacks",
    "odci.start_ms_per_query", "odci.fetch_ms_per_query",
    "odci.fetch_calls_per_query", "odci.close_ms_per_query",
    "odci.retries", "odci.errors",
    "callback.sql_calls_per_query", "callback.sql_ms_per_query",
    "callback.rows_per_query", "callback.fetch_value_calls_per_query",
    "callback.fetch_value_ms_per_query", "callback.dml_ms_per_txn",
    "text.self_ms_per_query", "spatial.self_ms_per_query",
    "vir.self_ms_per_query", "chem.self_ms_per_query",
    "spatial.exact_per_hit", "vir.full_compares_per_hit",
    "chem.exact_per_hit",
    "buffer.hit_ratio", "buffer.logical_reads_per_stmt",
    "iot.scan_ms_per_query", "lob.read_ms_per_query",
    "mvcc.live_versions", "locks.wait_ms_per_write",
    "dml.self_ms_per_write", "maint.entries_per_txn",
    "maint.batches_per_txn", "maint.ms_per_txn",
    "wal.bytes_per_txn", "wal.records_per_txn", "wal.fsyncs_per_commit",
    "wal.commit_wait_ms", "wal.checkpoints", "wal.checkpoint_ms_max",
    "recovery.ms", "recovery.redo_records",
    "share.dbapi", "share.server", "share.pipeline", "share.planner",
    "share.executor", "share.dispatch", "share.callbacks",
    "share.cartridges", "share.storage", "share.txn", "share.dml",
    "share.maintenance", "share.wal",
    "share.domain_path", "share.front_end", "share.write_path",
    "failed_frac", "trace.overhead_ratio", "trace.spans",
)

_SHARE_LAYERS = ("dbapi", "server", "pipeline", "planner", "executor",
                 "dispatch", "callbacks", "cartridges", "storage", "txn",
                 "dml", "maintenance", "wal")


def unit_of(name: str) -> str:
    if "ms" in re.split(r"[._]", name):
        return "ms"
    if name.startswith("share.") or name.endswith(("_ratio", "_frac")) \
            or "_per_" in name:
        return "ratio"
    return "count"


def counters(engine: Any) -> Dict[str, Any]:
    """A snapshot of the engine's existing counters."""
    snap: Dict[str, Any] = {"io": engine.stats.snapshot()}
    snap["dispatch"] = engine.dispatcher.snapshot()
    snap["maintenance"] = engine.dispatcher.maintenance_snapshot()
    cache = engine.plan_cache.stats
    snap["plan_cache"] = {"lookups": cache.lookups, "hits": cache.hits}
    snap["executor"] = engine.executor_stats.snapshot()
    snap["locks"] = engine.locks.stats.snapshot()
    snap["snapshots"] = engine.mvcc.stats.snapshot()
    snap["wal"] = engine.durability.wal_stats() \
        if engine.durability is not None else {}
    return snap


def _num(value: Any) -> float:
    return value if isinstance(value, (int, float)) \
        and not isinstance(value, bool) else 0


def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Numeric differences ``after - before``, nested one level."""
    out: Dict[str, Any] = {}
    for group, values in after.items():
        old = before.get(group, {})
        if group in ("dispatch", "maintenance"):
            out[group] = {
                key: {k: _num(v) - _num(old.get(key, {}).get(k, 0))
                      for k, v in entry.items()}
                for key, entry in values.items()}
        else:
            out[group] = {k: _num(v) - _num(old.get(k, 0))
                          for k, v in values.items()}
    out["snapshots_level"] = after.get("snapshots", {})
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def compute(summary: Dict[str, list], deltas: Dict[str, Any],
            ops: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric.

    ``ops`` holds the workload's counts for the traced phase: ``stmts``
    (statements the clients issued, commits included), ``queries``
    (domain-index queries), ``<kind>_queries`` and ``<kind>_rows`` per
    cartridge, ``rows`` (rows returned to clients), ``writes`` (write
    statements, commits included), ``txns``, ``commits``, and
    optionally ``recovery_ms``, ``redo_records``, ``overhead_ratio``,
    ``failed_frac``.
    """
    sel = tr.select
    stmts, queries = ops.get("stmts", 0), ops.get("queries", 0)
    writes, txns = ops.get("writes", 0), ops.get("txns", 0)
    ms = 1000.0
    m: Dict[str, float] = {}
    layers = tr.layer_times(summary)

    m["dbapi.self_ms_per_stmt"] = _div(layers.get("dbapi", 0.0) * ms, stmts)
    roundtrip = sel(summary, exact="server.roundtrip")
    requests = sel(summary, prefix="server.request.")
    replies = sel(summary, exact="server.reply_frame")
    wire = 0.0
    if roundtrip[0]:
        # the client's round trip minus the server's handling of it
        wire = max(0.0, roundtrip[1] - requests[1] - replies[1])
    m["server.wire_ms_per_stmt"] = _div(wire * ms, stmts)
    frames = sel(summary, exact="server.send_frame")[0] \
        + sel(summary, exact="server.recv_frame")[0]
    m["server.frames_per_stmt"] = _div(frames, stmts)
    m["server.stmt_ms_per_stmt"] = _div(requests[1] * ms, stmts)

    m["pipeline.self_ms_per_stmt"] = _div(
        layers.get("pipeline", 0.0) * ms, stmts)
    parse = sel(summary, exact="pipeline.parse")
    m["pipeline.parse_ms_per_stmt"] = _div(parse[1] * ms, stmts)
    m["pipeline.parses_per_stmt"] = _div(parse[0], stmts)
    cache = deltas.get("plan_cache", {})
    m["plan_cache.hit_ratio"] = _div(cache.get("hits", 0),
                                     cache.get("lookups", 0))
    m["planner.plan_ms_per_stmt"] = _div(
        sel(summary, exact="planner.plan_select")[1] * ms, stmts)
    stats = sel(summary, prefix="odci.ODCIStats")
    m["odci.stats_calls_per_stmt"] = _div(stats[0], stmts)
    m["odci.stats_ms_per_stmt"] = _div(stats[1] * ms, stmts)

    m["executor.self_ms_per_stmt"] = _div(
        layers.get("executor", 0.0) * ms, stmts)
    examined = sel(summary, exact="heap.fetch", ctx=None)[0] \
        + sel(summary, exact="heap.scan", ctx=None)[3]
    m["executor.rows_examined_per_row_returned"] = _div(
        examined, ops.get("rows", 0))
    executor = deltas.get("executor", {})
    m["executor.vector_fallbacks"] = executor.get("fallback_batches", 0) \
        + executor.get("factory_declines", 0)

    for routine, key in (("ODCIIndexStart", "start"),
                         ("ODCIIndexFetch", "fetch"),
                         ("ODCIIndexClose", "close")):
        span = sel(summary, exact="odci." + routine, ctx=None)
        m[f"odci.{key}_ms_per_query"] = _div(span[1] * ms, queries)
        if key == "fetch":
            m["odci.fetch_calls_per_query"] = _div(span[0], queries)
    dispatch = deltas.get("dispatch", {})
    m["odci.retries"] = sum(v.get("retries", 0) for v in dispatch.values())
    m["odci.errors"] = sum(v.get("failures", 0) for v in dispatch.values())

    # callback SQL run by scan routines (outside maintenance)
    cb_sql = sel(summary, exact="callback.sql", ctx="callback")
    cb_drain = sel(summary, exact="callback.drain", ctx="callback")
    m["callback.sql_calls_per_query"] = _div(cb_sql[0], queries)
    m["callback.sql_ms_per_query"] = _div(
        (cb_sql[1] + cb_drain[1]) * ms, queries)
    m["callback.rows_per_query"] = _div(cb_drain[3], queries)
    fetch_value = sel(summary, exact="callback.fetch_value", ctx="callback")
    m["callback.fetch_value_calls_per_query"] = _div(fetch_value[0], queries)
    m["callback.fetch_value_ms_per_query"] = _div(fetch_value[1] * ms,
                                                  queries)
    m["callback.dml_ms_per_txn"] = _div(
        sel(summary, exact="callback.dml", ctx="maint")[1] * ms, txns)

    for cart in ("text", "spatial", "vir", "chem"):
        span = sel(summary, prefix=cart + ".", ctx=None)
        m[f"{cart}.self_ms_per_query"] = _div(
            span[2] * ms, ops.get(f"{cart}_queries", 0))
    io = deltas.get("io", {})
    m["spatial.exact_per_hit"] = _div(io.get("spatial_exact_tests", 0),
                                      ops.get("spatial_rows", 0))
    m["vir.full_compares_per_hit"] = _div(
        io.get("vir_phase3_comparisons", 0), ops.get("vir_rows", 0))
    m["chem.exact_per_hit"] = _div(io.get("chem_exact_tests", 0),
                                   ops.get("chem_rows", 0))

    logical = io.get("logical_reads", 0)
    m["buffer.hit_ratio"] = 1.0 - _div(io.get("physical_reads", 0), logical) \
        if logical else 0.0
    m["buffer.logical_reads_per_stmt"] = _div(logical, stmts)
    m["iot.scan_ms_per_query"] = _div(
        sel(summary, exact="iot.scan", ctx="callback")[2] * ms, queries)
    lob_reads = sel(summary, exact="lob.read")[2] \
        - sel(summary, exact="lob.read", ctx="maint")[2]
    m["lob.read_ms_per_query"] = _div(lob_reads * ms, queries)

    level = deltas.get("snapshots_level", {})
    m["mvcc.live_versions"] = _num(level.get("versions_created", 0)) \
        - _num(level.get("versions_pruned", 0))
    m["locks.wait_ms_per_write"] = _div(
        deltas.get("locks", {}).get("wait_seconds", 0) * ms, writes)

    m["dml.self_ms_per_write"] = _div(layers.get("dml", 0.0) * ms, writes)
    maint = deltas.get("maintenance", {})
    m["maint.entries_per_txn"] = _div(
        sum(v.get("entries_flushed", 0) for v in maint.values()), txns)
    m["maint.batches_per_txn"] = _div(
        sum(v.get("batches_flushed", 0) for v in maint.values()), txns)
    m["maint.ms_per_txn"] = _div(
        sel(summary, prefix="maint.", ctx="maint")[1] * ms, txns)

    wal = deltas.get("wal", {})
    m["wal.bytes_per_txn"] = _div(wal.get("bytes_written", 0), txns)
    m["wal.records_per_txn"] = _div(wal.get("records", 0), txns)
    m["wal.fsyncs_per_commit"] = _div(wal.get("fsyncs", 0),
                                      wal.get("commit_records", 0))
    commit_wait = sel(summary, exact="wal.commit_flush")
    m["wal.commit_wait_ms"] = _div(commit_wait[1] * ms, commit_wait[0])
    m["wal.checkpoints"] = wal.get("checkpoints", 0)
    m["wal.checkpoint_ms_max"] = sel(summary, exact="wal.checkpoint")[4] * ms
    m["recovery.ms"] = ops.get("recovery_ms", 0.0)
    m["recovery.redo_records"] = ops.get("redo_records", 0)

    if roundtrip[0]:
        # server-side handling is charged to the layers it ran in
        layers["server"] -= requests[1] + replies[1]
    busy = sum(layers.get(name, 0.0) for name in _SHARE_LAYERS)
    for name in _SHARE_LAYERS:
        m["share." + name] = _div(layers.get(name, 0.0), busy)
    for group, members in tr.GROUPS.items():
        m["share." + group] = sum(m["share." + name] for name in members)
    m["failed_frac"] = ops.get("failed_frac", 0.0)
    m["trace.overhead_ratio"] = ops.get("overhead_ratio", 0.0)
    m["trace.spans"] = ops.get("spans", 0)
    return m
