"""Columnar index probes and the settled IOT snapshot scan.

Cartridge callback SQL reaches its index tables through IOT key-prefix
probes (text postings) and B-tree range probes (spatial tiles, VIR
coarse vectors).  These tests pin the storage side of the columnar
probe path: a snapshot scan over an IOT whose rows no version chain or
hidden bulk-load fence can change skips version resolution entirely,
and otherwise resolves only the rows that may differ.  They also pin
the spatial primary filter's one-probe-per-group-code shape and the
cached ``RowId`` hash.
"""

import pickle

import pytest

from repro.sql.engine import Engine
from repro.storage.heap import RowId

pytestmark = pytest.mark.vectorized


def _postings(session, n=40):
    session.execute("CREATE TABLE p (tok VARCHAR2(8), rid INTEGER,"
                    " freq INTEGER, PRIMARY KEY (tok, rid))"
                    " ORGANIZATION INDEX")
    for i in range(n):
        session.execute("INSERT INTO p VALUES (:1, :2, :3)",
                        ["a" if i % 2 else "b", i, i])


def _count_resolves(monkeypatch, storage):
    calls = []
    real = storage.versions.resolve

    def spy(rowid, current, snapshot):
        calls.append(rowid)
        return real(rowid, current, snapshot)

    monkeypatch.setattr(storage.versions, "resolve", spy)
    return calls


class TestExplainMarkers:
    @pytest.fixture
    def session(self):
        s = Engine().connect()
        _postings(s, n=400)
        s.execute("CREATE TABLE h (k INTEGER, v INTEGER)")
        s.insert_rows("h", [[i % 50, i] for i in range(2000)])
        s.execute("CREATE INDEX h_k ON h(k)")
        return s

    @staticmethod
    def _scan_line(session, sql, label):
        bind = "a" if label.startswith("IOT") else 1
        return next(line for line in session.explain(sql, [bind])
                    if label in line)

    def test_projected_probes_are_vectorized(self, session):
        for sql, label in (
                ("SELECT rid FROM p WHERE tok = :1", "IOT PREFIX SCAN"),
                ("SELECT v FROM h WHERE k = :1", "INDEX RANGE SCAN")):
            assert "[VECTORIZED]" in self._scan_line(session, sql, label)

    def test_pseudo_column_filter_stays_on_the_row_path(self, session):
        """rowid is not a column vector: the probe runs compiled, on
        the row path, as a heap scan would."""
        for sql, label in (
                ("SELECT rid FROM p WHERE tok = :1 AND rowid IS NULL",
                 "IOT PREFIX SCAN"),
                ("SELECT v FROM h WHERE k = :1 AND rowid IS NULL",
                 "INDEX RANGE SCAN")):
            line = self._scan_line(session, sql, label)
            assert "[ROW]" in line and "[COMPILED]" in line

    def test_knob_off_drops_the_markers(self, session):
        session.vectorized_execution = False
        session.plan_cache.clear()
        line = self._scan_line(session, "SELECT v FROM h WHERE k = :1",
                               "INDEX RANGE SCAN")
        assert "[VECTORIZED]" not in line and "[ROW]" not in line


class TestSettledSnapshotScan:
    def test_settled_scan_resolves_nothing(self, monkeypatch):
        s = Engine().connect()
        _postings(s)
        storage = s.catalog.get_table("p").storage
        calls = _count_resolves(monkeypatch, storage)
        rows = list(storage.key_prefix_scan(
            ["a"], snapshot=s.engine.mvcc.take_snapshot(None)))
        assert [row[1] for __, row in rows] == list(range(1, 40, 2))
        assert calls == []

    def test_foreign_write_resolves_only_its_rows(self, monkeypatch):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        _postings(s1)
        storage = s1.catalog.get_table("p").storage
        s1.begin()
        s1.execute("UPDATE p SET freq = 99 WHERE tok = 'a' AND rid = 5")
        calls = _count_resolves(monkeypatch, storage)
        rows = s2.execute("SELECT rid, freq FROM p WHERE tok = 'a'"
                          ).fetchall()
        assert (5, 5) in rows and len(rows) == 20
        assert len(calls) == 1
        s1.commit()
        del calls[:]
        assert (5, 99) in s2.execute(
            "SELECT rid, freq FROM p WHERE tok = 'a'").fetchall()
        assert calls == []

    def test_columnar_batches_match_row_scan(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        _postings(s1, n=600)
        storage = s1.catalog.get_table("p").storage
        s1.begin()
        s1.execute("DELETE FROM p WHERE tok = 'a' AND rid = 7")
        s1.execute("UPDATE p SET tok = 'a' WHERE tok = 'b' AND rid = 8")
        for settled in (False, True):
            snap = engine.mvcc.take_snapshot(None)
            rows = list(storage.key_prefix_scan(["a"], snapshot=snap))
            batches = list(storage.key_prefix_scan(["a"], snapshot=snap,
                                                   columnar=True))
            assert [rid for rids, __ in batches for rid in rids] \
                == [rid for rid, __ in rows]
            assert [list(r) for __, cols in batches for r in zip(*cols)] \
                == [row for __, row in rows]
            assert len(rows) == 300
            s1.commit()

    def test_hidden_fence_resolves_every_row(self, monkeypatch):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE q (tok VARCHAR2(8), rid INTEGER,"
                   " PRIMARY KEY (tok, rid)) ORGANIZATION INDEX")
        old = engine.mvcc.take_snapshot(None)
        s1.insert_rows("q", [["a", i] for i in range(10)])  # bulk path
        s1.commit()
        storage = s1.catalog.get_table("q").storage
        calls = _count_resolves(monkeypatch, storage)
        assert list(storage.key_prefix_scan(["a"], snapshot=old)) == []
        assert len(calls) == 10
        assert len(s2.execute("SELECT rid FROM q WHERE tok = 'a'"
                              ).fetchall()) == 10


class TestBTreeProbeBounds:
    """B-tree range probes agree with a full scan of an unindexed copy
    of the table, NULL bounds included, and a half-open probe borrows
    the opposite bound from a range conjunct on the same column."""

    @pytest.fixture
    def db(self):
        from repro import Database
        db = Database()
        for name in ("h", "f"):
            db.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER)")
            db.insert_rows(name, [[i % 50, i] for i in range(2000)])
        db.execute("CREATE INDEX h_k ON h(k)")
        return db

    @staticmethod
    def _outcome(db, sql, binds):
        try:
            return sorted(db.execute(sql, binds).fetchall())
        except Exception as exc:  # noqa: BLE001 — outcome parity
            return type(exc).__name__

    @pytest.mark.parametrize("where,binds", [
        ("k >= :1", [None]),
        ("k = :1", [None]),
        ("k >= :1 AND k <= :2", [3, None]),
        ("k >= :1 AND k <= :2", [3, 7]),
        ("k > :1 AND k < :2 AND v < :3", [3, 7, 900]),
        ("k <= :1 AND k >= :2", [7, 3]),
        ("k >= :1 AND k <= :2", [3, "x"]),
    ])
    def test_probe_matches_full_scan(self, db, where, binds):
        plan = "\n".join(db.explain(f"SELECT v FROM h WHERE {where}",
                                     binds))
        assert "INDEX RANGE SCAN h_k" in plan
        assert self._outcome(db, f"SELECT k, v FROM h WHERE {where}",
                             binds) \
            == self._outcome(db, f"SELECT k, v FROM f WHERE {where}", binds)

    def test_half_open_range_borrows_the_opposite_bound(self, db):
        from repro.sql.planner import BTreeScan
        sql = "SELECT v FROM h WHERE k >= :1 AND k <= :2"
        scan = db.planner.plan_select(
            db.pipeline.parse(sql).statement).root.child
        assert isinstance(scan, BTreeScan) and scan.borrowed == "high"
        structure = db.catalog.get_index("h_k").structure
        visited = []
        real = structure.range_scan

        def spy(*args, **kwargs):
            for entry in real(*args, **kwargs):
                visited.append(entry)
                yield entry

        structure.range_scan = spy
        try:
            rows = db.execute(sql, [3, 5]).fetchall()
        finally:
            del structure.range_scan
        assert len(rows) == len(visited) == 120


class TestSpatialGroupedProbe:
    def test_one_callback_statement_per_group_code(self, monkeypatch):
        from repro import Database
        from repro.cartridges.spatial import install, make_rect
        from repro.cartridges.spatial.tiling import tessellate
        from repro.core.callbacks import CallbackSession
        db = Database()
        install(db)
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        db.execute("CREATE TABLE parks (gid INTEGER,"
                   " geometry SDO_GEOMETRY)")
        for gid in range(40):
            x, y = (gid * 97) % 900, (gid * 53) % 900
            db.insert_row("parks", [gid, make_rect(gt, x, y, x + 40,
                                                   y + 40)])
        db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                   " INDEXTYPE IS SpatialIndexType")
        window = make_rect(gt, 100, 100, 260, 260)
        statements = []
        real = CallbackSession.execute

        def spy(self, sql, params=None):
            statements.append(sql)
            return real(self, sql, params)

        monkeypatch.setattr(CallbackSession, "execute", spy)
        db.execute("SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
                   " 'mask=ANYINTERACT')", [window]).fetchall()
        probes = [sql for sql in statements if "_tiles" in sql]
        groups = {tile.grpcode for tile in tessellate(window)}
        assert len(tessellate(window)) > len(groups)
        assert len(probes) == len(groups)


class TestRowIdHash:
    def test_hash_is_cached_and_survives_pickling(self):
        rid = RowId(3, 14, 15)
        assert hash(rid) == hash((3, 14, 15)) == rid._hash
        clone = pickle.loads(pickle.dumps(rid))
        assert clone == rid and hash(clone) == hash(rid)
        assert {rid: 1}[RowId(3, 14, 15)] == 1
        assert RowId(3, 14, 15) < RowId(3, 15, 0)

    def test_rowids_pickled_without_the_cached_hash_still_load(self):
        clone = pickle.loads(pickle.dumps(_LegacyRowId(3, 14, 15)))
        assert type(clone) is RowId and clone == RowId(3, 14, 15)
        assert hash(clone) == hash(RowId(3, 14, 15))


class _LegacyRowId:
    """Pickles like a RowId written before the hash was cached: a bare
    instance plus its four slots as state."""

    def __init__(self, segment_id, page_no, slot):
        self.key = (segment_id, page_no, slot)

    def __reduce_ex__(self, protocol):
        segment_id, page_no, slot = self.key
        return (object.__new__, (RowId,),
                (None, {"segment_id": segment_id, "page_no": page_no,
                        "slot": slot, "sort_key": self.key}))
