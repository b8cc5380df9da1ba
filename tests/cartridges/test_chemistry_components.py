"""Chemistry components: molecule model, fingerprints, search, index file."""

import random

import pytest

from repro.cartridges.chemistry import (
    FingerprintIndexFile, Record, certificate, compile_pattern, fingerprint,
    full_match, nearest_neighbors, parse_smiles, path_strings,
    random_molecule, random_substructure, similarity, substructure_match,
    tanimoto, tautomer_key, to_smiles)
from repro.cartridges.chemistry.fingerprint import (
    fingerprint_bytes, fingerprint_from_bytes, popcount, screen_passes)
from repro.cartridges.chemistry.storage import tombstone_record
from repro.errors import ExecutionError, StorageError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import RowId


class TestSmilesParser:
    def test_linear_chain(self):
        mol = parse_smiles("CCO")
        assert mol.atoms == ("C", "C", "O")
        assert mol.bond_count == 2

    def test_bond_orders(self):
        mol = parse_smiles("C=C#N")
        orders = sorted(order for __, __, order in mol.bonds)
        assert orders == [2, 3]

    def test_branches(self):
        mol = parse_smiles("CC(C)(C)O")
        # central carbon bonded to three carbons and... count degrees
        adjacency = mol.neighbors()
        degrees = sorted(len(a) for a in adjacency)
        assert max(degrees) == 4

    def test_ring_closure(self):
        benzene_like = parse_smiles("C1CCCCC1")
        assert benzene_like.bond_count == 6
        adjacency = benzene_like.neighbors()
        assert all(len(a) == 2 for a in adjacency)

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCBr")
        assert mol.atoms == ("Cl", "C", "Br")

    def test_ring_with_double_bond(self):
        mol = parse_smiles("C1=CC=CC=C1")
        assert mol.bond_count == 6
        assert sorted(order for __, __, order in mol.bonds) == [1, 1, 1, 2, 2, 2]

    def test_unclosed_ring_rejected(self):
        with pytest.raises(ExecutionError):
            parse_smiles("C1CC")

    def test_unbalanced_branch_rejected(self):
        with pytest.raises(ExecutionError):
            parse_smiles("C(C")
        with pytest.raises(ExecutionError):
            parse_smiles("C)C")

    def test_bad_character(self):
        with pytest.raises(ExecutionError):
            parse_smiles("CxC")

    def test_empty(self):
        with pytest.raises(ExecutionError):
            parse_smiles("")


class TestWriterRoundtrip:
    @pytest.mark.parametrize("notation", [
        "C", "CCO", "CC(C)C", "C1CCCCC1", "C=CC#N", "ClC(Br)I",
        "CC(=O)OC1CCCCC1",
    ])
    def test_roundtrip_isomorphic(self, notation):
        mol = parse_smiles(notation)
        again = parse_smiles(to_smiles(mol))
        assert certificate(mol) == certificate(again)
        assert mol.atom_count == again.atom_count
        assert mol.bond_count == again.bond_count

    def test_random_molecules_roundtrip(self):
        rng = random.Random(1)
        for __ in range(30):
            mol = random_molecule(rng, size=rng.randint(2, 15))
            again = parse_smiles(to_smiles(mol))
            assert certificate(mol) == certificate(again)


class TestCertificates:
    def test_isomorphic_relabelings_agree(self):
        # same molecule written two ways
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        assert certificate(a) == certificate(b)

    def test_different_molecules_differ(self):
        assert certificate(parse_smiles("CCO")) != certificate(
            parse_smiles("CCN"))
        assert certificate(parse_smiles("CCC")) != certificate(
            parse_smiles("CCCC"))
        # structural isomers: same formula, different connectivity
        assert certificate(parse_smiles("CCCC")) != certificate(
            parse_smiles("CC(C)C"))

    def test_bond_order_matters(self):
        assert certificate(parse_smiles("CC")) != certificate(
            parse_smiles("C=C"))

    def test_tautomer_key_ignores_bond_orders(self):
        assert tautomer_key(parse_smiles("CC=O")) == tautomer_key(
            parse_smiles("CCO"))
        assert tautomer_key(parse_smiles("CC=O")) != tautomer_key(
            parse_smiles("CCN"))

    def test_full_match(self):
        assert full_match(parse_smiles("C(C)O"), parse_smiles("OCC"))
        assert not full_match(parse_smiles("CCO"), parse_smiles("CC=O"))


class TestFingerprints:
    def test_paths_enumerated(self):
        paths = path_strings(parse_smiles("CCO"))
        assert "C" in paths
        assert "O" in paths
        assert "C1C" in paths
        assert min("C1C1O", "O1C1C") in paths

    def test_identical_molecules_same_fp(self):
        assert fingerprint(parse_smiles("CCO")) == fingerprint(
            parse_smiles("OCC"))

    def test_screening_property_on_random_substructures(self):
        rng = random.Random(2)
        for __ in range(30):
            mol = random_molecule(rng, size=rng.randint(4, 14))
            sub = random_substructure(rng, mol, size=rng.randint(1, 4))
            assert screen_passes(fingerprint(sub), fingerprint(mol))

    def test_tanimoto_bounds(self):
        a = fingerprint(parse_smiles("CCO"))
        b = fingerprint(parse_smiles("CCN"))
        assert 0 <= tanimoto(a, b) < 1
        assert tanimoto(a, a) == 1.0
        assert tanimoto(0, 0) == 1.0

    def test_serialize_roundtrip(self):
        fp = fingerprint(parse_smiles("CC(=O)O"))
        assert fingerprint_from_bytes(fingerprint_bytes(fp)) == fp

    def test_popcount_counts_set_bits(self):
        rng = random.Random(9)
        for value in [0, 1, (1 << 511) | 1] + [rng.getrandbits(512)
                                               for __ in range(50)]:
            assert popcount(value) == bin(value).count("1")


class TestSubstructureSearch:
    def test_chain_in_ring(self):
        assert substructure_match(parse_smiles("CCC"),
                                  parse_smiles("C1CCCCC1"))

    def test_ring_not_in_chain(self):
        assert not substructure_match(parse_smiles("C1CC1"),
                                      parse_smiles("CCCCCC"))

    def test_element_mismatch(self):
        assert not substructure_match(parse_smiles("N"), parse_smiles("CCO"))

    def test_bond_order_respected(self):
        assert substructure_match(parse_smiles("C=C"), parse_smiles("CC=CC"))
        assert not substructure_match(parse_smiles("C#C"),
                                      parse_smiles("CC=CC"))

    def test_self_match(self):
        mol = parse_smiles("CC(=O)OC")
        assert substructure_match(mol, mol)

    def test_larger_pattern_never_matches(self):
        assert not substructure_match(parse_smiles("CCCC"),
                                      parse_smiles("CC"))

    def test_random_substructures_always_match(self):
        rng = random.Random(3)
        for __ in range(25):
            mol = random_molecule(rng, size=rng.randint(4, 12))
            sub = random_substructure(rng, mol, size=rng.randint(1, 5))
            assert substructure_match(sub, mol)

    @pytest.mark.parametrize("pattern, molecule", [
        ("CCC", "C1CCCCC1"), ("C1CC1", "CCCCCC"), ("N", "CCO"),
        ("C=C", "CC=CC"), ("C#C", "CC=CC"), ("CC(=O)OC", "CC(=O)OC"),
        ("CCCC", "CC"), ("CO", "OC(C)C=O"), ("C(C)(C)C", "CC(C)CC"),
        ("C(C)(C)(C)C", "CC(C)CC")])
    def test_prepared_matcher_agrees_with_oracle(self, pattern, molecule):
        p, m = parse_smiles(pattern), parse_smiles(molecule)
        assert compile_pattern(p)(m) is substructure_match(p, m)

    def test_prepared_matcher_reused_across_molecules(self):
        rng = random.Random(5)
        mols = [random_molecule(rng, size=rng.randint(2, 14))
                for __ in range(40)]
        for pattern in ("CC", "CO", "C=O", "CCN", "C1CCCCC1"):
            matches = compile_pattern(parse_smiles(pattern))
            for mol in mols:
                assert matches(mol) is substructure_match(
                    parse_smiles(pattern), mol)

    def test_cached_adjacency_mirrors_neighbors(self):
        mol = parse_smiles("CC(=O)OC1CC1")
        assert mol.adjacency is mol.adjacency
        assert [dict(edges) for edges in mol.neighbors()] \
            == list(mol.adjacency)
        assert mol == parse_smiles("CC(=O)OC1CC1")

    def test_shared_molecules_matched_from_many_threads(self):
        """Parsed molecules are shared across sessions: threads racing to
        build a molecule's cached adjacency must all get correct answers."""
        import sys
        import threading
        rng = random.Random(8)
        texts = [to_smiles(random_molecule(rng, size=rng.randint(3, 14)))
                 for __ in range(60)]
        patterns = [parse_smiles(p) for p in ("CC", "CO", "C=O", "CCN")]
        expected = [[substructure_match(p, parse_smiles(t).skeleton())
                     for t in texts] for p in patterns]
        # fresh molecules (skeletons) whose adjacency nobody built yet
        shared = [parse_smiles(t).skeleton() for t in texts]
        errors = []

        def worker():
            try:
                for k, pattern in enumerate(patterns):
                    matches = compile_pattern(pattern)
                    assert [matches(m) for m in shared] == expected[k]
            except AssertionError as exc:  # reported after join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for __ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_similarity_and_nn(self):
        rng = random.Random(4)
        mols = [random_molecule(rng, 8) for __ in range(20)]
        query = mols[5]
        ranked = nearest_neighbors(query, list(enumerate(mols)), k=3)
        assert len(ranked) == 3
        assert ranked[0][0] == 5 and ranked[0][1] == 1.0
        assert ranked[0][1] >= ranked[1][1] >= ranked[2][1]
        assert similarity(query, query) == 1.0


class TestFingerprintIndexFile:
    @pytest.fixture
    def index_file(self):
        store = bytearray()

        class Handle:
            def __init__(self):
                self.pos = 0

            def seek(self, offset, whence=0):
                self.pos = offset if whence == 0 else (
                    self.pos + offset if whence == 1 else len(store) + offset)

            def read(self, count=-1):
                out = bytes(store[self.pos:]) if count < 0 \
                    else bytes(store[self.pos:self.pos + count])
                self.pos += len(out)
                return out

            def write(self, data):
                end = self.pos + len(data)
                if len(store) < self.pos:
                    store.extend(b"\x00" * (self.pos - len(store)))
                store[self.pos:end] = data
                self.pos = end
                return len(data)

            def truncate(self, size=None):
                del store[self.pos if size is None else size:]

        index = FingerprintIndexFile(Handle)
        index.initialize()
        return index

    def _record(self, i, fp=0b1010, tomb=False):
        return Record(rowid=RowId(1, 0, i), cert_hash=i * 7,
                      taut_hash=i * 13, fingerprint=fp, tombstone=tomb)

    def test_append_and_read(self, index_file):
        index_file.append(self._record(1))
        index_file.append(self._record(2))
        records = list(index_file.records())
        assert [r.rowid.slot for r in records] == [1, 2]
        assert index_file.record_count() == 2

    def test_append_many(self, index_file):
        index_file.append_many([self._record(i) for i in range(5)])
        assert len(list(index_file.records())) == 5

    def test_tombstone_hides_entry(self, index_file):
        index_file.append(self._record(1))
        index_file.append(self._record(2))
        index_file.tombstone(RowId(1, 0, 1))
        assert [r.rowid.slot for r in index_file.records()] == [2]
        assert index_file.record_count() == 3  # physical records

    def test_tombstone_then_reinsert_same_rowid(self, index_file):
        index_file.append(self._record(1, fp=1))
        index_file.tombstone(RowId(1, 0, 1))
        index_file.append(self._record(1, fp=2))
        live = list(index_file.records())
        assert len(live) == 1
        assert live[0].fingerprint == 2

    def test_orphan_tombstone_does_not_hide_later_record(self, index_file):
        """A row whose old value was NULL has no record to cancel."""
        index_file.append(self._record(2))
        index_file.tombstone(RowId(1, 0, 1))
        index_file.append(self._record(1, fp=7))
        live = list(index_file.records())
        assert [(r.rowid.slot, r.fingerprint) for r in live] \
            == [(2, 0b1010), (1, 7)]

    def test_tombstone_cancels_only_earlier_records(self, index_file):
        index_file.append_many([
            tombstone_record(RowId(1, 0, 1)), self._record(1, fp=1),
            tombstone_record(RowId(1, 0, 1)), self._record(1, fp=2),
            tombstone_record(RowId(1, 0, 3))])
        assert [r.fingerprint for r in index_file.records()] == [2]

    def test_compact_keeps_row_after_orphan_tombstone(self, index_file):
        index_file.tombstone(RowId(1, 0, 1))
        index_file.append(self._record(1))
        assert index_file.compact() == 1
        assert [r.rowid.slot for r in index_file.records()] == [1]
        assert not any(r.tombstone for r in index_file.raw_records())

    def test_scan_reads_record_area_once(self, index_file):
        index_file.append_many([self._record(i) for i in range(50)])
        reads = []
        opener = index_file._open

        def counting():
            handle = opener()
            original = handle.read
            handle.read = lambda count=-1: reads.append(count) \
                or original(count)
            return handle

        index_file._open = counting
        assert len(index_file.records()) == 50
        # the header, then the whole record area
        assert len(reads) == 2

    def test_compact_removes_dead(self, index_file):
        for i in range(4):
            index_file.append(self._record(i))
        index_file.tombstone(RowId(1, 0, 0))
        assert index_file.compact() == 3
        assert index_file.record_count() == 3
        assert [r.rowid.slot for r in index_file.records()] == [1, 2, 3]

    def test_hash_lookups(self, index_file):
        index_file.append(self._record(3))
        assert index_file.find_by_cert(21)[0].rowid.slot == 3
        assert index_file.find_by_tautomer(39)[0].rowid.slot == 3
        assert index_file.find_by_cert(999) == []

    def test_uninitialized_rejected(self):
        class Empty:
            def seek(self, *a):
                pass

            def read(self, n=-1):
                return b""

        index = FingerprintIndexFile(Empty)
        with pytest.raises(StorageError):
            index.record_count()

    def test_record_pack_roundtrip(self):
        record = Record(rowid=RowId(7, 3, 2), cert_hash=123456789,
                        taut_hash=987654321, fingerprint=(1 << 200) | 5)
        assert Record.unpack(record.pack()) == record
