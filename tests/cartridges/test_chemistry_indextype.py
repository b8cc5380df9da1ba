"""Chemistry cartridge through the SQL engine (§3.2.4), LOB and FILE."""

import pytest

from repro.bench.workloads import make_molecule_table
from repro.cartridges.chemistry import (
    parse_smiles, protect_external_index, random_substructure, to_smiles)
from repro.cartridges.chemistry.indextype import (
    chem_match, chem_similar, chem_substructure, chem_tautomer)


@pytest.fixture
def mols_db(chem_db):
    rows = make_molecule_table(80, seed=6)
    chem_db.execute("CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
    chem_db.insert_rows("molecules", [list(r) for r in rows])
    chem_db.rows_data = rows
    return chem_db


@pytest.fixture
def lob_db(mols_db):
    mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                    " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
    return mols_db


@pytest.fixture
def file_db(mols_db):
    mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                    " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')")
    return mols_db


class TestFunctionalOperators:
    def test_chem_match(self):
        assert chem_match("CCO", "OCC") == 1
        assert chem_match("CCO", "CCN") == 0

    def test_chem_tautomer(self):
        assert chem_tautomer("CC=O", "CCO") == 1
        assert chem_tautomer("CC=O", "CCN") == 0

    def test_chem_substructure(self):
        assert chem_substructure("C1CCCCC1", "CCC") == 1
        assert chem_substructure("CC", "CCC") == 0

    def test_chem_similar_threshold(self):
        assert chem_similar("CCO", "CCO", 0.99) == 1.0
        assert chem_similar("CCO", "NNN", 0.99) == 0


@pytest.mark.parametrize("storage_fixture", ["lob_db", "file_db"])
class TestBothStorages:
    """Every behaviour must hold identically over LOB and FILE storage."""

    def test_match_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[10][1]
        rows = db.query(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)", [target])
        expected = sorted(i for i, s in db.rows_data if chem_match(s, target))
        assert sorted(r[0] for r in rows) == expected

    def test_substructure_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        import random
        rng = random.Random(7)
        sub = to_smiles(random_substructure(
            rng, parse_smiles(db.rows_data[5][1]), size=3))
        rows = db.query(
            "SELECT mid FROM molecules WHERE Chem_Substructure(mol, :1)",
            [sub])
        expected = sorted(i for i, s in db.rows_data
                          if chem_substructure(s, sub))
        assert sorted(r[0] for r in rows) == expected

    def test_tautomer_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[3][1]
        rows = db.query(
            "SELECT mid FROM molecules WHERE Chem_Tautomer(mol, :1)",
            [target])
        assert 3 in [r[0] for r in rows]

    def test_similarity_with_score(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[4][1]
        rows = db.query(
            "SELECT mid, Chem_Score(1) FROM molecules "
            "WHERE Chem_Similar(mol, :1, 0.4, 1) "
            "ORDER BY Chem_Score(1) DESC LIMIT 3", [target])
        assert rows[0][0] == 4
        assert rows[0][1] == 1.0

    def test_maintenance_insert_delete(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        db.execute("INSERT INTO molecules VALUES (500, 'CC(=O)OC')")
        rows = db.query(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CC(=O)OC')")
        assert 500 in [r[0] for r in rows]
        db.execute("DELETE FROM molecules WHERE mid = 500")
        rows = db.query(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CC(=O)OC')")
        assert 500 not in [r[0] for r in rows]

    def test_plan_uses_domain_index(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        plan = db.explain(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CCO')")
        assert any("DOMAIN INDEX SCAN mol_idx" in line for line in plan)

    def test_drop_index_cleans_storage(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        db.execute("DROP INDEX mol_idx")
        assert not db.catalog.has_table("mol_idx_meta")
        if storage_fixture == "file_db":
            assert db.files.listdir() == []


class TestStorageDifferences:
    def test_lob_writes_buffered_file_writes_eager(self, mols_db):
        db = mols_db
        db.execute("CREATE TABLE m2 (mid INTEGER, mol VARCHAR2(512))")
        db.insert_rows("m2", [list(r) for r in db.rows_data])
        before = db.stats.snapshot()
        db.execute("CREATE INDEX lob_i ON molecules(mol)"
                   " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
        lob_delta = db.stats.diff(before)
        before = db.stats.snapshot()
        db.execute("CREATE INDEX file_i ON m2(mol)"
                   " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')")
        file_delta = db.stats.diff(before)
        assert lob_delta["file_writes"] == 0
        assert file_delta["file_writes"] > 0

    def test_lob_rollback_consistent_without_events(self, lob_db):
        """LOB-resident index data is inside the transaction boundary."""
        lob_db.begin()
        lob_db.execute("INSERT INTO molecules VALUES (600, 'CCCCC')")
        lob_db.rollback()
        rows = lob_db.query(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CCCCC')")
        assert 600 not in [r[0] for r in rows]

    def test_file_rollback_leaves_stale_entries(self, file_db):
        """§5: external index data is NOT rolled back with the base table."""
        index = file_db.catalog.get_index("mol_idx")
        domain = index.domain
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, domain)
        index_file = domain.methods._index_file(domain.index_info(), env)
        live_before = len(list(index_file.records()))
        file_db.begin()
        file_db.execute("INSERT INTO molecules VALUES (601, 'CCCCC')")
        file_db.rollback()
        live_after = len(list(index_file.records()))
        assert live_after == live_before + 1  # stale entry survives

    def test_events_repair_external_index(self, file_db):
        protect_external_index(file_db, "mol_idx")
        index = file_db.catalog.get_index("mol_idx")
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, index.domain)
        index_file = index.domain.methods._index_file(
            index.domain.index_info(), env)
        live_before = len(list(index_file.records()))
        file_db.begin()
        file_db.execute("INSERT INTO molecules VALUES (602, 'CCCCC')")
        file_db.rollback()
        live_after = len(list(index_file.records()))
        assert live_after == live_before  # rebuilt from the base table

    def test_commit_event_compacts_tombstones(self, file_db):
        protect_external_index(file_db, "mol_idx")
        file_db.begin()
        file_db.execute("DELETE FROM molecules WHERE mid < 5")
        file_db.commit()
        index = file_db.catalog.get_index("mol_idx")
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, index.domain)
        index_file = index.domain.methods._index_file(
            index.domain.index_info(), env)
        records = list(index_file.raw_records())
        assert not any(r.tombstone for r in records)


def _chem_index(db, storage, rows):
    db.execute("CREATE TABLE m (id INTEGER, mol VARCHAR2(512))")
    db.insert_rows("m", [list(r) for r in rows])
    db.execute("CREATE INDEX m_idx ON m(mol) INDEXTYPE IS ChemIndexType"
               f" PARAMETERS (':Storage {storage}')")
    db.execute("ANALYZE TABLE m COMPUTE STATISTICS")
    return db


def _index_file(db, name="m_idx"):
    from repro.core.callbacks import CallbackPhase
    domain = db.catalog.get_index(name).domain
    env = db.make_env(CallbackPhase.SCAN, domain)
    return domain.methods._index_file(domain.index_info(), env)


INDEX_SQL = {
    "match": "SELECT id FROM m WHERE Chem_Match(mol, :1)",
    "tautomer": "SELECT id FROM m WHERE Chem_Tautomer(mol, :1)",
    "substructure": "SELECT id FROM m WHERE Chem_Substructure(mol, :1)",
    "similar": "SELECT id FROM m WHERE Chem_Similar(mol, :1, 0.5)",
}
FUNCTIONAL = {
    "match": chem_match,
    "tautomer": chem_tautomer,
    "substructure": chem_substructure,
    "similar": lambda mol, query: chem_similar(mol, query, 0.5),
}


@pytest.mark.parametrize("storage", ["LOB", "FILE"])
class TestNullValueMaintenance:
    """A row updated from NULL has no index record for its tombstone to
    cancel; the record written after that tombstone must stay live."""

    def _null_then_update(self, chem_db, storage):
        rows = [(0, None)] + [(i, "CCCCCCCC") for i in range(1, 500)]
        db = _chem_index(chem_db, storage, rows)
        db.begin()
        db.execute("UPDATE m SET mol = 'CN' WHERE id = 0")
        db.commit()
        return db

    def test_update_from_null_is_indexed(self, chem_db, storage):
        db = self._null_then_update(chem_db, storage)
        sql = INDEX_SQL["substructure"]
        assert any("DOMAIN INDEX SCAN m_idx" in line
                   for line in db.explain(sql, ["CN"]))
        assert db.execute(sql, ["CN"]).fetchall() == [(0,)]
        assert db.execute("SELECT id FROM m WHERE"
                          " ChemSubstructureFunc(mol, 'CN') = 1"
                          ).fetchall() == [(0,)]

    def test_compact_keeps_row_after_orphan_tombstone(self, chem_db,
                                                      storage):
        db = self._null_then_update(chem_db, storage)
        assert _index_file(db).compact() == 500
        assert db.execute(INDEX_SQL["match"], ["CN"]).fetchall() == [(0,)]

    def test_update_batch_appends_once(self, chem_db, storage, monkeypatch):
        from repro.cartridges.chemistry.storage import FingerprintIndexFile
        db = _chem_index(chem_db, storage,
                         [(i, "CCO" if i % 2 else None) for i in range(40)])
        calls = []
        original = FingerprintIndexFile.append_many
        monkeypatch.setattr(FingerprintIndexFile, "append_many",
                            lambda self, records: calls.append(len(records))
                            or original(self, records))
        monkeypatch.setattr(FingerprintIndexFile, "append",
                            lambda self, record: calls.append("single"))
        db.execute("UPDATE m SET mol = 'CCN' WHERE id < 10")
        db.execute("DELETE FROM m WHERE id >= 30")
        assert "single" not in calls
        assert calls == [20, 10]  # 10 tombstones + 10 records; 10 tombstones
        assert sorted(r[0] for r in db.execute(
            INDEX_SQL["match"], ["CCN"]).fetchall()) == list(range(10))


@pytest.mark.parametrize("storage", ["LOB", "FILE"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_equals_functional_after_random_dml(chem_db, storage, seed):
    """Random insert/update/delete (NULLs included): each operator through
    the index equals its functional operator over the live rows."""
    import random
    from repro.cartridges.chemistry import random_molecule
    rng = random.Random(seed)
    pool = ["CCO", "OCC", "CC=O", "CN", "NCCO", "C1CCCCC1", "CC(=O)OC",
            "CCCCCCCC", "CC", None, None]
    pool += [to_smiles(random_molecule(rng, size=rng.randint(2, 10)))
             for __ in range(8)]
    model = {i: rng.choice(pool) for i in range(60)}
    db = _chem_index(chem_db, storage, sorted(model.items()))
    next_id = len(model)
    for __ in range(80):
        roll = rng.random()
        if roll < 0.3 or not model:
            model[next_id] = rng.choice(pool)
            db.execute("INSERT INTO m VALUES (:1, :2)",
                       [next_id, model[next_id]])
            next_id += 1
        elif roll < 0.75:
            victim = rng.choice(sorted(model))
            model[victim] = rng.choice(pool)
            db.execute("UPDATE m SET mol = :1 WHERE id = :2",
                       [model[victim], victim])
        else:
            victim = rng.choice(sorted(model))
            del model[victim]
            db.execute("DELETE FROM m WHERE id = :1", [victim])
    db.execute("UPDATE m SET mol = NULL WHERE id < 5")
    db.execute("UPDATE m SET mol = 'CCN' WHERE id < 3")
    for i in [k for k in model if k < 5]:
        model[i] = "CCN" if i < 3 else None
    for operator, sql in INDEX_SQL.items():
        assert any("DOMAIN INDEX SCAN m_idx" in line
                   for line in db.explain(sql, ["CCO"]))
        for query in ("CCO", "CC=O", "CN", "CCN", "C1CCCCC1", "CC"):
            got = sorted(r[0] for r in db.execute(sql, [query]).fetchall())
            expected = sorted(i for i, mol in model.items()
                              if FUNCTIONAL[operator](mol, query))
            assert got == expected, (operator, query)
