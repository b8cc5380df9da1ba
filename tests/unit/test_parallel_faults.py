"""Fault semantics of parallel execution and async ODCI prefetch.

The tentpole promise of the parallel layer is that it changes *when*
work happens, never *what* the dispatcher contract observes: wall-clock
budgets, the fault taxonomy, bounded retry, and
``skip_unusable_indexes`` degrade-and-retry all behave exactly as in
the serial loop — and ``ODCIIndexClose`` fires exactly once per opened
scan even when prefetched batches are abandoned.  Every test here spies
on the real dispatcher seam with :class:`~repro.testing.FaultPlan`.
"""

import pytest

from repro import Database, FetchResult, IndexMethods, IndexState, \
    PrecomputedScan
from repro.errors import CallbackTimeoutError, ODCIError
from repro.testing import FaultPlan

pytestmark = pytest.mark.parallel


class EqScanMethods(IndexMethods):
    """Minimal equality indextype (index table + precomputed scan)."""

    def _table(self, ia):
        return f"{ia.index_name.lower()}_data"

    def index_create(self, ia, parameters, env):
        env.callback.execute(
            f"CREATE TABLE {self._table(ia)} (v VARCHAR2(100), rid ROWID)")
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
        batch = context.next_batch(nrows)
        return FetchResult(rowids=batch, done=len(batch) < nrows)

    def index_close(self, context, env):
        context.close()


QUERY = "SELECT v FROM t WHERE Eq_Val(v, :1) = 1"


@pytest.fixture
def db():
    db = Database()
    db.create_function("EqValFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    db.register_methods("EqScanMethods", EqScanMethods)
    db.execute("CREATE OPERATOR Eq_Val BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING EqValFunc")
    db.execute("CREATE INDEXTYPE EqScanType"
               " FOR Eq_Val(VARCHAR2, VARCHAR2) USING EqScanMethods")
    db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(100))")
    for i in range(40):
        db.execute("INSERT INTO t VALUES (:1, :2)",
                   [i, "match" if i % 2 == 0 else "other"])
    db.execute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS EqScanType")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    db.fetch_batch_size = 10  # 20 matches -> two full fetch batches
    yield db
    db.close()


def force_prefetch(db, depth=2):
    """Make every domain scan in ``db`` plan with prefetch ``depth``."""
    db.prefetch_depth = depth
    db.prefetch_min_rows = 1
    db.plan_cache.clear()


def serial_scan(db):
    """Pin ``db`` to the serial fetch loop (no prefetch annotation)."""
    db.prefetch_depth = 0
    db.plan_cache.clear()


class TestLimitEarlyStop:
    """Satellite: LIMIT stops the fetch loop at the batch boundary."""

    def test_serial_limit_issues_no_extra_fetch(self, db):
        serial_scan(db)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 10", ["match"]).fetchall()
        assert len(rows) == 10
        # 10 matches at batch size 10: exactly one fetch satisfies the
        # limit, and yield-then-check must not pull a second batch
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_limit_cancels_queued_prefetches(self, db):
        force_prefetch(db, depth=2)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 10", ["match"]).fetchall()
        assert len(rows) == 10
        # the producer may run at most ``depth`` fetches ahead of the
        # one batch the limit consumed; close() cancels the rest
        assert 1 <= plan.calls("ODCIIndexFetch") <= 3
        assert plan.calls("ODCIIndexClose") == 1

    def test_limit_with_offset_budgets_both(self, db):
        serial_scan(db)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 5 OFFSET 5",
                              ["match"]).fetchall()
        assert len(rows) == 5
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1


class TestPrefetchFaults:
    """Dispatcher taxonomy is preserved through the prefetch pipeline."""

    def test_transient_fetch_retried_through_prefetch(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        force_prefetch(db)
        with FaultPlan(db) as plan:
            plan.fail_transient("ODCIIndexFetch", times=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        assert rows == expected
        assert plan.outcomes("ODCIIndexFetch")[0] == "transient"
        assert db.engine.parallel_stats.prefetch_scans > 0

    def test_budget_timeout_surfaces_through_prefetch(self, db):
        force_prefetch(db)
        db.skip_unusable_indexes = False
        db.dispatcher.set_timeout("ODCIIndexFetch", 0.050)
        with FaultPlan(db) as plan:
            plan.delay("ODCIIndexFetch", ms=200)
            with pytest.raises(CallbackTimeoutError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1

    def test_hard_fetch_failure_degrades_and_retries(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        force_prefetch(db)
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        # degrade-and-retry: index UNUSABLE, functional fallback answers
        assert sorted(rows) == sorted(expected)
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE
        # the failed scan was opened once and closed exactly once; the
        # functional retry never opened a domain scan
        assert plan.calls("ODCIIndexStart") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_degrade_retry_reads_statement_snapshot(self, db):
        """The replanned retry runs against the *pinned* snapshot."""
        force_prefetch(db)
        other = db.connect()
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            cursor = db.execute(QUERY, ["match"])  # snapshot pinned here
            # a concurrent commit lands after the snapshot but before
            # the scan faults and the statement replans
            other.execute("INSERT INTO t VALUES (999, 'match')")
            other.execute("COMMIT")
            rows = cursor.fetchall()
        assert rows == [("match",)] * 20  # 20 pre-snapshot matches only
        # a fresh statement (fresh snapshot) sees the concurrent row
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 21

    def test_fetch_failure_propagates_with_skip_off(self, db):
        force_prefetch(db)
        db.skip_unusable_indexes = False
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            with pytest.raises(ODCIError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.VALID


class TestAbandonedCursor:
    def test_abandoned_prefetching_cursor_closes_once(self, db):
        force_prefetch(db, depth=2)
        with FaultPlan(db) as plan:
            cursor = db.execute(QUERY, ["match"])
            assert cursor.fetchone() is not None
            cursor.close()  # quiesces the pipeline, then closes the scan
            assert plan.calls("ODCIIndexClose") == 1
        # engine still healthy afterwards
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 20

    def test_abandoned_batches_are_counted(self, db):
        force_prefetch(db, depth=2)
        stats = db.engine.parallel_stats
        before = stats.prefetch_scans
        cursor = db.execute(QUERY, ["match"])
        assert cursor.fetchone() is not None
        cursor.close()
        assert stats.prefetch_scans > before


class TestParallelScanFaults:
    """Morsel exchange: errors re-raised in stream order, scans gated."""

    @pytest.fixture
    def scan_db(self):
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER, val NUMBER)")
        db.insert_rows("big", [[i, i / 1000.0] for i in range(5000)])
        db.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        db.parallel_min_pages = 1
        yield db
        db.close()

    def test_parallel_scan_engages_and_matches_serial(self, scan_db):
        sql = "SELECT id FROM big WHERE val < :1 AND NOT (id = :2)"
        scan_db.parallel_execution = False
        scan_db.plan_cache.clear()
        serial = scan_db.execute(sql, [0.5, 17]).fetchall()
        scan_db.parallel_execution = True
        scan_db.plan_cache.clear()
        before = scan_db.engine.parallel_stats.parallel_queries
        parallel = scan_db.execute(sql, [0.5, 17]).fetchall()
        assert parallel == serial
        assert scan_db.engine.parallel_stats.parallel_queries > before

    def test_idle_workers_release_the_scan_snapshot(self, scan_db):
        """A finished morsel task closes over its scan's snapshot; an
        idle worker must not keep it, or the low-water mark stays at
        that snapshot and pruning never cuts a version chain."""
        import gc
        import time
        engine = scan_db.engine
        scan_db.parallel_execution = True
        before = engine.parallel_stats.parallel_queries
        cursor = scan_db.execute("SELECT id FROM big WHERE val < :1",
                                 [0.5])
        assert len(cursor.fetchall()) == 500
        cursor.close()
        assert engine.parallel_stats.parallel_queries > before
        for __ in range(2):
            scan_db.execute("UPDATE big SET val = val + 1 WHERE id < 40")
            scan_db.execute("COMMIT")
        deadline = time.monotonic() + 5.0
        while True:
            gc.collect()  # only strong references may pin the mark
            if engine.mvcc.low_water_mark() == engine.mvcc.current_scn \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.01)  # the last worker may still be returning
        assert engine.mvcc.low_water_mark() == engine.mvcc.current_scn
        assert engine.prune_versions() >= 40

    def test_dml_target_scans_stay_serial(self, scan_db):
        # current-mode reads (UPDATE/DELETE selection) must not morsel
        before = scan_db.engine.parallel_stats.parallel_queries
        scan_db.execute("UPDATE big SET val = val + 1 WHERE val < 0.01")
        scan_db.execute("DELETE FROM big WHERE val > 990")
        scan_db.execute("COMMIT")
        assert scan_db.engine.parallel_stats.parallel_queries == before

    def test_explain_reports_parallel_marker(self, scan_db):
        text = "\n".join(scan_db.explain(
            "SELECT id FROM big WHERE val < 0.5"))
        assert "[PARALLEL dop=" in text

    def test_explain_reports_prefetch_marker(self, db):
        force_prefetch(db, depth=3)
        text = "\n".join(db.explain(QUERY, ["match"]))
        assert "[PREFETCH depth=3]" in text

    def test_user_parallel_stats_view_populates(self, scan_db):
        scan_db.execute("SELECT id FROM big WHERE val < 0.5").fetchall()
        row = scan_db.execute(
            "SELECT parallel_queries, morsels_dispatched, pool_size"
            " FROM user_parallel_stats").fetchall()[0]
        assert row[0] >= 1 and row[1] >= 1 and row[2] >= 1
