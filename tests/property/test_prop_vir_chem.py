"""Property tests: VIR filter admissibility and chemistry invariants."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cartridges.chemistry.fingerprint import (
    fingerprint, screen_passes, tanimoto)
from repro.cartridges.chemistry.molecule import (
    Molecule, certificate, parse_smiles, random_molecule,
    random_substructure, tautomer_key, to_smiles)
from repro.cartridges.chemistry.search import (
    compile_pattern, substructure_match)
from repro.cartridges.vir.signature import (
    SIGNATURE_LENGTH, Weights, coarse_distance, coarse_vector,
    component_bound, signature_distance)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                 width=32)
signatures = st.lists(unit, min_size=SIGNATURE_LENGTH,
                      max_size=SIGNATURE_LENGTH).map(tuple)
weight_values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@st.composite
def weight_sets(draw):
    values = [draw(weight_values) for __ in range(4)]
    if sum(values) == 0:
        values[0] = 1.0
    return Weights(*values)


class TestVirAdmissibility:
    @given(signatures, signatures, weight_sets())
    @settings(max_examples=150, deadline=None)
    def test_coarse_distance_lower_bounds_true_distance(self, a, b, weights):
        coarse = coarse_distance(coarse_vector(a), coarse_vector(b), weights)
        true = signature_distance(a, b, weights)
        assert coarse <= true + 1e-6

    @given(signatures, signatures, weight_sets(),
           st.floats(min_value=0.1, max_value=60, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_phase1_radius_never_drops_a_match(self, a, b, weights,
                                               threshold):
        if signature_distance(a, b, weights) > threshold:
            return
        ca, cb = coarse_vector(a), coarse_vector(b)
        for i, weight in enumerate(weights.as_tuple()):
            if weight <= 0:
                continue
            assert abs(ca[i] - cb[i]) <= component_bound(
                threshold, weights, i) + 1e-6

    @given(signatures, weight_sets())
    @settings(max_examples=60, deadline=None)
    def test_distance_is_a_pseudometric(self, a, weights):
        assert signature_distance(a, a, weights) == 0

    @given(signatures, signatures, signatures, weight_sets())
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c, weights):
        ab = signature_distance(a, b, weights)
        bc = signature_distance(b, c, weights)
        ac = signature_distance(a, c, weights)
        assert ac <= ab + bc + 1e-6


molecule_seeds = st.integers(min_value=0, max_value=10_000)
molecule_sizes = st.integers(min_value=1, max_value=14)


def mol_from(seed, size):
    return random_molecule(random.Random(seed), size=size)


class TestChemistryInvariants:
    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=80, deadline=None)
    def test_writer_parser_roundtrip_preserves_identity(self, seed, size):
        mol = mol_from(seed, size)
        again = parse_smiles(to_smiles(mol))
        assert certificate(mol) == certificate(again)
        assert tautomer_key(mol) == tautomer_key(again)

    @given(molecule_seeds, molecule_sizes, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_certificate_invariant_under_relabeling(self, seed, size, rng):
        mol = mol_from(seed, size)
        permutation = list(range(mol.atom_count))
        rng.shuffle(permutation)
        atoms = [None] * mol.atom_count
        for old, new in enumerate(permutation):
            atoms[new] = mol.atoms[old]
        bonds = frozenset(
            (min(permutation[i], permutation[j]),
             max(permutation[i], permutation[j]), order)
            for i, j, order in mol.bonds)
        relabeled = Molecule(tuple(atoms), bonds)
        assert certificate(mol) == certificate(relabeled)
        assert fingerprint(mol) == fingerprint(relabeled)

    @given(molecule_seeds, molecule_sizes,
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_screening_soundness(self, seed, size, sub_size):
        """substructure_match ⇒ screen passes (the Daylight property)."""
        rng = random.Random(seed)
        mol = random_molecule(rng, size=size)
        sub = random_substructure(rng, mol, size=sub_size)
        assert substructure_match(sub, mol)
        assert screen_passes(fingerprint(sub), fingerprint(mol))

    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=60, deadline=None)
    def test_tautomer_key_coarser_than_certificate(self, seed, size):
        mol = mol_from(seed, size)
        skeleton = mol.skeleton()
        assert tautomer_key(mol) == tautomer_key(skeleton)

    @given(molecule_seeds, molecule_seeds, molecule_sizes)
    @settings(max_examples=60, deadline=None)
    def test_tanimoto_bounds_and_identity(self, seed_a, seed_b, size):
        a = fingerprint(mol_from(seed_a, size))
        b = fingerprint(mol_from(seed_b, size))
        assert 0.0 <= tanimoto(a, b) <= 1.0
        assert tanimoto(a, a) == 1.0

    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=40, deadline=None)
    def test_self_substructure(self, seed, size):
        mol = mol_from(seed, size)
        assert substructure_match(mol, mol)


def brute_force_contains(pattern, molecule):
    """Subgraph monomorphism by trying every injective atom map."""
    bonds = {(i, j): order for i, j, order in molecule.bonds}

    def order_of(a, b):
        return bonds.get((min(a, b), max(a, b)))

    for image in itertools.permutations(range(molecule.atom_count),
                                        pattern.atom_count):
        if all(pattern.atoms[p] == molecule.atoms[m]
               for p, m in enumerate(image)) and \
                all(order_of(image[i], image[j]) == order
                    for i, j, order in pattern.bonds):
            return True
    return False


class TestPreparedMatcher:
    """compile_pattern(p)(m) must equal the substructure_match oracle."""

    @given(molecule_seeds, molecule_sizes,
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_embedded_substructure(self, seed, size, sub_size):
        rng = random.Random(seed)
        mol = random_molecule(rng, size=size)
        sub = random_substructure(rng, mol, size=sub_size)
        assert compile_pattern(sub)(mol) is substructure_match(sub, mol)
        assert compile_pattern(sub)(mol)

    @given(molecule_seeds, molecule_seeds, molecule_sizes,
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_unrelated_pairs(self, seed_p, seed_m, size, pattern_size):
        pattern = mol_from(seed_p, pattern_size)
        mol = mol_from(seed_m, size)
        assert compile_pattern(pattern)(mol) \
            is substructure_match(pattern, mol)

    @given(molecule_seeds, molecule_seeds,
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_small_molecules_match_brute_force(self, seed_p, seed_m, size,
                                               pattern_size, embedded):
        mol = mol_from(seed_m, size)
        if embedded:
            pattern = random_substructure(random.Random(seed_p), mol,
                                          size=pattern_size)
        else:
            pattern = mol_from(seed_p, pattern_size)
        expected = brute_force_contains(pattern, mol)
        assert substructure_match(pattern, mol) is expected
        assert compile_pattern(pattern)(mol) is expected

    @given(molecule_seeds, molecule_sizes, st.lists(
        st.tuples(molecule_seeds, st.integers(min_value=1, max_value=14)),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_one_prepared_pattern_many_molecules(self, seed, size, others):
        """A prepared matcher keeps no state from one molecule to the next."""
        pattern = random_substructure(random.Random(seed),
                                      mol_from(seed, size), size=3)
        matches = compile_pattern(pattern)
        for other_seed, other_size in others:
            mol = mol_from(other_seed, other_size)
            assert matches(mol) is substructure_match(pattern, mol)
