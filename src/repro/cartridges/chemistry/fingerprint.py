"""Path fingerprints with the Daylight screening property.

A molecule's fingerprint sets bits for every linear atom-bond path up to
:data:`PATH_LENGTH` atoms.  Because every path of a substructure is also
a path of any molecule containing it, screening is *sound*::

    substructure_match(q, m)  ⇒  fingerprint(q) & fingerprint(m) == fingerprint(q)

(the property-based tests verify this).  Tanimoto similarity over these
bit vectors is the cartridge's structural-similarity measure — as in
Daylight, similarity is *defined* on fingerprints, so the index needs no
verification step for Chem_Similar.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import FrozenSet, List, Set, Tuple

from repro.cartridges.chemistry.molecule import Molecule

#: Fingerprint width in bits.
FP_BITS = 512
#: Number of bits set per path.
BITS_PER_PATH = 2
#: Maximum path length in atoms.
PATH_LENGTH = 5


def path_strings(molecule: Molecule,
                 max_atoms: int = PATH_LENGTH) -> FrozenSet[str]:
    """Every linear path of 1..max_atoms atoms, direction-canonicalized."""
    adjacency = molecule.neighbors()
    paths: Set[str] = set()

    def walk(path_atoms: List[int], text_parts: List[str]) -> None:
        text = "".join(text_parts)
        reverse = _reverse_path(text_parts)
        paths.add(min(text, reverse))
        if len(path_atoms) >= max_atoms:
            return
        last = path_atoms[-1]
        for neighbor, order in adjacency[last]:
            if neighbor in path_atoms:
                continue
            walk(path_atoms + [neighbor],
                 text_parts + [str(order), molecule.atoms[neighbor]])

    for start in range(molecule.atom_count):
        walk([start], [molecule.atoms[start]])
    return frozenset(paths)


def _reverse_path(parts: List[str]) -> str:
    return "".join(reversed(parts))


def fingerprint(molecule: Molecule, bits: int = FP_BITS) -> int:
    """Bit-vector fingerprint of the molecule's paths, as a Python int."""
    return _fingerprint_cached(molecule, bits)


@lru_cache(maxsize=8192)
def _fingerprint_cached(molecule: Molecule, bits: int) -> int:
    mask = 0
    for path in path_strings(molecule):
        digest = hashlib.md5(path.encode()).digest()
        for k in range(BITS_PER_PATH):
            position = int.from_bytes(digest[4 * k:4 * k + 4], "big") % bits
            mask |= 1 << position
    return mask


def screen_passes(query_fp: int, candidate_fp: int) -> bool:
    """Daylight screen: can ``candidate`` possibly contain ``query``?"""
    return query_fp & candidate_fp == query_fp


if hasattr(int, "bit_count"):          # Python >= 3.10
    def popcount(value: int) -> int:
        """Number of set bits."""
        return value.bit_count()
else:
    def popcount(value: int) -> int:
        """Number of set bits."""
        return bin(value).count("1")


def tanimoto(fp_a: int, fp_b: int) -> float:
    """Tanimoto coefficient |a∧b| / |a∨b| (1.0 for two empty prints)."""
    union = popcount(fp_a | fp_b)
    if union == 0:
        return 1.0
    return popcount(fp_a & fp_b) / union


def fingerprint_bytes(fp: int, bits: int = FP_BITS) -> bytes:
    """Serialize a fingerprint to fixed-width bytes (index file format)."""
    return fp.to_bytes(bits // 8, "big")


def fingerprint_from_bytes(data: bytes) -> int:
    """Deserialize a fingerprint."""
    return int.from_bytes(data, "big")
