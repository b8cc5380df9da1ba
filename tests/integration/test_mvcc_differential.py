"""Differential proof: snapshot reads == locked (current-mode) reads.

Two identically-seeded databases run the same single-session workload —
one with ``snapshot_reads`` on (the default MVCC read path), one with it
off (the pre-MVCC current-mode read path).  Every query result must be
identical, across heap tables, IOTs, and all four cartridges.  In a
single-session workload the two paths are observationally equivalent by
construction; this suite pins that equivalence down so the MVCC resolve
logic can never silently drop or duplicate rows.
"""

import random

import pytest

from repro import Database

pytestmark = pytest.mark.mvcc


def _pair(installer=None):
    """Two fresh databases, snapshot reads on/off, same cartridges."""
    dbs = []
    for snapshot_reads in (True, False):
        db = Database()
        if installer is not None:
            installer(db)
        db.snapshot_reads = snapshot_reads
        dbs.append(db)
    return dbs


def _run_both(dbs, fn):
    """Run ``fn(db)`` on both databases, assert equal return values."""
    results = [fn(db) for db in dbs]
    assert results[0] == results[1]
    return results[0]


class TestHeapAndIOT:
    def test_heap_dml_and_scans(self):
        dbs = _pair()
        rng_seed = 11

        def workload(db):
            rng = random.Random(rng_seed)
            out = []
            db.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(30))")
            db.execute("CREATE INDEX t_k ON t(k)")
            for i in range(80):
                db.execute("INSERT INTO t VALUES (:1, :2)",
                           [i, f"v{i % 7}"])
            for __ in range(60):
                op = rng.random()
                k = rng.randrange(80)
                if op < 0.4:
                    db.execute("UPDATE t SET v = :1 WHERE k = :2",
                               [f"u{rng.randrange(9)}", k])
                elif op < 0.6:
                    db.execute("DELETE FROM t WHERE k = :1", [k])
                else:
                    out.append(sorted(db.execute(
                        "SELECT k, v FROM t WHERE k >= :1 AND k < :2",
                        [k, k + 17]).fetchall()))
            out.append(sorted(db.execute("SELECT k, v FROM t").fetchall()))
            out.append(db.execute("SELECT COUNT(*) FROM t").fetchall())
            return out

        _run_both(dbs, workload)

    def test_iot_dml_and_range_scans(self):
        dbs = _pair()

        def workload(db):
            out = []
            db.execute("CREATE TABLE p (k INTEGER, v VARCHAR2(30),"
                       " PRIMARY KEY (k)) ORGANIZATION INDEX")
            for i in range(50):
                db.execute("INSERT INTO p VALUES (:1, :2)", [i, f"v{i}"])
            db.execute("DELETE FROM p WHERE k >= 40")
            db.execute("UPDATE p SET v = 'mid' WHERE k >= 20 AND k < 30")
            out.append(db.execute(
                "SELECT k, v FROM p WHERE k >= 15 AND k <= 35").fetchall())
            out.append(db.execute("SELECT COUNT(*) FROM p").fetchall())
            # explicit txn with savepoint unwind
            db.begin()
            db.execute("UPDATE p SET v = 'x' WHERE k = 0")
            db.execute("SAVEPOINT s1")
            db.execute("DELETE FROM p WHERE k = 1")
            db.execute("ROLLBACK TO SAVEPOINT s1")
            db.commit()
            out.append(db.execute(
                "SELECT k, v FROM p WHERE k <= 2").fetchall())
            return out

        _run_both(dbs, workload)


class TestCartridges:
    def test_text(self):
        from repro.cartridges.text import install
        dbs = _pair(install)
        words = ["oracle", "unix", "java", "linux", "cobol"]

        def workload(db):
            rng = random.Random(3)
            out = []
            db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))")
            for i in range(40):
                body = " ".join(rng.sample(words, 3))
                db.execute("INSERT INTO docs VALUES (:1, :2)", [i, body])
            db.execute("CREATE INDEX docs_text ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            for __ in range(20):
                i = rng.randrange(40)
                db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                           [" ".join(rng.sample(words, 2)), i])
                word = rng.choice(words)
                out.append(sorted(db.execute(
                    "SELECT id FROM docs WHERE Contains(body, :1)",
                    [word]).fetchall()))
            return out

        _run_both(dbs, workload)

    def test_spatial(self):
        from repro.cartridges.spatial import install, make_rect
        dbs = _pair(install)

        def workload(db):
            rng = random.Random(5)
            gt = db.catalog.get_object_type("SDO_GEOMETRY")
            out = []
            db.execute("CREATE TABLE parks (gid INTEGER,"
                       " geometry SDO_GEOMETRY)")
            for gid in range(30):
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.insert_row("parks", [gid, make_rect(
                    gt, x, y, x + rng.uniform(20, 120),
                    y + rng.uniform(20, 120))])
            db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                       " INDEXTYPE IS SpatialIndexType")
            window = make_rect(gt, 200, 200, 600, 600)
            for __ in range(8):
                gid = rng.randrange(30)
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.execute("UPDATE parks SET geometry = :1 WHERE gid = :2",
                           [make_rect(gt, x, y, x + 60, y + 60), gid])
                out.append(sorted(db.execute(
                    "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
                    " 'mask=ANYINTERACT')", [window]).fetchall()))
            return out

        _run_both(dbs, workload)

    def test_chemistry(self):
        from repro.cartridges.chemistry import install
        dbs = _pair(install)
        mols = ["CCO", "CC(=O)O", "CCCC", "C1CCCCC1", "CCN"]

        def workload(db):
            rng = random.Random(9)
            out = []
            db.execute("CREATE TABLE molecules (mid INTEGER,"
                       " mol VARCHAR2(256))")
            for mid in range(25):
                db.execute("INSERT INTO molecules VALUES (:1, :2)",
                           [mid, rng.choice(mols)])
            db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                       " INDEXTYPE IS ChemIndexType")
            for __ in range(10):
                mid = rng.randrange(25)
                db.execute("UPDATE molecules SET mol = :1 WHERE mid = :2",
                           [rng.choice(mols), mid])
                probe = rng.choice(mols)
                out.append(sorted(db.execute(
                    "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)",
                    [probe]).fetchall()))
                out.append(sorted(db.execute(
                    "SELECT mid FROM molecules WHERE"
                    " Chem_Substructure(mol, 'CC')").fetchall()))
            return out

        _run_both(dbs, workload)

    def test_vir(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        dbs = _pair(install)
        rows, centre = make_signature_table(120, cluster_every=8, seed=2)
        weights = ("globalcolor=0.5,localcolor=0.2,"
                   "texture=0.2,structure=0.1")

        def workload(db):
            image_type = db.catalog.get_object_type("IMAGE_T")
            out = []
            db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
            db.insert_rows("images", [
                [i, image_type.new(signature=sig, width=64, height=64)]
                for i, sig in rows])
            db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")
            out.append(sorted(db.execute(
                "SELECT iid FROM images WHERE"
                " VIRSimilar(img.signature, :1, :2, 8)",
                [centre, weights]).fetchall()))
            db.execute("DELETE FROM images WHERE iid < 10")
            out.append(sorted(db.execute(
                "SELECT iid FROM images WHERE"
                " VIRSimilar(img.signature, :1, :2, 12)",
                [centre, weights]).fetchall()))
            return out

        _run_both(dbs, workload)


# ---------------------------------------------------------------------------
# index probes: vectorized == closure == interpreter under MVCC
# ---------------------------------------------------------------------------

#: IOT prefix probes and B-tree range probes — the access paths of
#: cartridge callback SQL — with residual filters over NULL-heavy columns
PROBES = [
    ("SELECT rid, freq, note FROM p WHERE tok = :1", ["a"]),
    ("SELECT rid, note FROM p WHERE tok = :1 AND freq > :2", ["a", 2]),
    ("SELECT rid, freq FROM p WHERE tok = :1 AND note IS NULL", ["b"]),
    ("SELECT rid FROM p WHERE tok = :1", ["z"]),
    ("SELECT k, v, w FROM h WHERE k = :1", [5]),
    ("SELECT k, v FROM h WHERE k >= :1 AND k <= :2 AND w IS NULL", [2, 6]),
    ("SELECT k, w FROM h WHERE k >= :1 AND v < :2", [0, 20]),
]

#: engine configurations of the three execution tiers; the interpreter
#: (compile_expressions off) is the oracle
TIERS = ({}, {"vectorized_execution": False},
         {"compile_expressions": False})


def _probe_tables(s):
    s.execute("CREATE TABLE p (tok VARCHAR2(8), rid INTEGER,"
              " freq INTEGER, note VARCHAR2(8),"
              " PRIMARY KEY (tok, rid)) ORGANIZATION INDEX")
    s.execute("CREATE TABLE h (k INTEGER, v INTEGER, w VARCHAR2(8))")
    s.execute("CREATE INDEX h_k ON h(k)")
    for i in range(128):
        s.execute("INSERT INTO p VALUES (:1, :2, :3, :4)",
                  ["a" if i % 2 else "b", i,
                   None if i % 3 == 0 else i % 7,
                   None if i % 4 == 0 else f"n{i}"])
        s.execute("INSERT INTO h VALUES (:1, :2, :3)",
                  [None if i % 15 == 0 else i % 8,
                   None if i % 5 == 0 else i * 2,
                   None if i % 3 == 0 else f"w{i}"])


def _probe_all(s, probes=PROBES):
    return [s.execute(sql, binds).fetchall() for sql, binds in probes]


def _three_tiers(scenario):
    """Run ``scenario(engine)`` on one fresh engine per tier; every
    tier must return what the interpreter returns."""
    from repro.sql.engine import Engine
    results = [scenario(Engine(**kw)) for kw in TIERS]
    assert results[0] == results[2]
    assert results[1] == results[2]
    return results[2]


def _iot_part(results):
    """The IOT probes of one ``_probe_all`` result (fully versioned;
    the B-tree probes share the native-index snapshot gap)."""
    return results[:4]


@pytest.mark.vectorized
class TestIndexProbeSnapshots:
    def test_probes_run_vectorized(self):
        from repro.sql.engine import Engine
        s = Engine().connect()
        _probe_tables(s)
        for sql, binds in PROBES:
            plan = "\n".join(s.explain(sql, binds))
            assert "[VECTORIZED]" in plan, plan
        s2 = Engine(vectorized_execution=False).connect()
        _probe_tables(s2)
        for sql, binds in PROBES:
            assert "[VECTORIZED]" not in "\n".join(s2.explain(sql, binds))

    def test_uncommitted_delete_inside_range(self):
        def scenario(engine):
            s1, s2 = engine.connect(), engine.connect()
            _probe_tables(s1)
            before = _probe_all(s2)
            s1.begin()
            s1.execute("DELETE FROM p WHERE tok = 'a' AND rid = 3")
            s1.execute("DELETE FROM p WHERE tok = 'b' AND rid = 4")
            s1.execute("DELETE FROM h WHERE k = 5")
            during = _probe_all(s2)
            own = _probe_all(s1)
            s1.rollback()
            after = _probe_all(s2)
            # the IOT probes never see the in-flight deletes; the
            # deleting session sees its own
            assert _iot_part(during) == _iot_part(before)
            assert (3, 3, "n3") not in own[0]
            # rollback re-inserts B-tree entries, so equal keys may
            # come back in another order
            assert [sorted(map(repr, r)) for r in after] \
                == [sorted(map(repr, r)) for r in before]
            return [before, during, own, after]

        _three_tiers(scenario)

    def test_delete_committed_after_snapshot(self):
        def scenario(engine):
            s1, s2 = engine.connect(), engine.connect()
            _probe_tables(s1)
            s2.execute("SET TRANSACTION READ ONLY")
            before = _probe_all(s2)
            s1.execute("DELETE FROM p WHERE tok = 'a' AND rid < 8")
            s1.execute("DELETE FROM h WHERE v < 10")
            pinned = _probe_all(s2)
            s2.execute("COMMIT")
            after = _probe_all(s2)
            assert _iot_part(pinned) == _iot_part(before)
            assert all(rid >= 8 for rid, __, __ in after[0])
            return [before, pinned, after]

        _three_tiers(scenario)

    def test_bulk_load_fence_the_snapshot_cannot_see(self):
        probes = [("SELECT rid, note FROM q WHERE tok = :1", ["a"]),
                  ("SELECT k, v FROM g WHERE k >= :1 AND w IS NULL", [0])]

        def scenario(engine):
            s1, s2 = engine.connect(), engine.connect()
            s1.execute("CREATE TABLE q (tok VARCHAR2(8), rid INTEGER,"
                       " note VARCHAR2(8), PRIMARY KEY (tok, rid))"
                       " ORGANIZATION INDEX")
            s1.execute("CREATE TABLE g (k INTEGER, v INTEGER,"
                       " w VARCHAR2(8))")
            s1.execute("CREATE INDEX g_k ON g(k)")
            s2.execute("SET TRANSACTION READ ONLY")
            before = _probe_all(s2, probes)
            # empty tables: both loads take the bulk path, one fence
            s1.insert_rows("q", [["a", i, None if i % 2 else f"n{i}"]
                                 for i in range(20)])
            s1.insert_rows("g", [[i % 6, i, None if i % 3 else "w"]
                                 for i in range(20)])
            s1.commit()
            fenced = _probe_all(s2, probes)
            s2.execute("COMMIT")
            after = _probe_all(s2, probes)
            assert before == fenced == [[], []]
            assert len(after[0]) == 20 and after[1]
            return [before, fenced, after]

        _three_tiers(scenario)

    def test_iot_row_rekeyed_out_of_range(self):
        def scenario(engine):
            s1, s2 = engine.connect(), engine.connect()
            _probe_tables(s1)
            s2.execute("SET TRANSACTION READ ONLY")
            before = _probe_all(s2)
            # one re-key commits after the snapshot, one stays in flight
            s1.execute("UPDATE p SET tok = 'z' WHERE tok = 'a' AND rid = 3")
            s1.begin()
            s1.execute("UPDATE p SET tok = 'z' WHERE tok = 'a' AND rid = 5")
            pinned = _probe_all(s2)
            s1.commit()
            still = _probe_all(s2)
            s2.execute("COMMIT")
            after = _probe_all(s2)
            assert _iot_part(pinned) == _iot_part(still) \
                == _iot_part(before)
            assert [rid for rid, in after[3]] == [3, 5]
            assert {3, 5}.isdisjoint(rid for rid, __, __ in after[0])
            return [before, pinned, still, after]

        _three_tiers(scenario)
