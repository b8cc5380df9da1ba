"""Molecule model: a SMILES subset, canonical certificates, generators.

The supported linear notation covers organic chemistry basics: element
symbols (C, N, O, S, P, B, F, I, Cl, Br), single/double/triple bonds
(``-``, ``=``, ``#``), branches ``( )``, and ring closures ``1``-``9``
(e.g. benzene-like rings as ``C1=CC=CC=C1``).  No aromatics-as-lowercase,
charges, isotopes, or explicit hydrogens — enough structure for the
search algorithms while staying implementable.

Canonical identity uses a Weisfeiler-Lehman certificate: iterated
neighbourhood-hash refinement of atom labels.  WL can in principle
collide on pathological regular graphs; for molecule-like graphs it is a
standard, reliable canonical key (and exact operators re-verify against
the stored structure anyway).

The *tautomer key* is the certificate of the bond-order-erased skeleton
— two structures differing only in the placement of double bonds and
protons (as our model expresses them) share it, simulating Daylight's
tautomer-insensitive lookup.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ExecutionError

#: Element symbols accepted by the parser (two-letter symbols first).
ELEMENTS = ("Cl", "Br", "C", "N", "O", "S", "P", "B", "F", "I")

_BOND_CHARS = {"-": 1, "=": 2, "#": 3}
_BOND_SYMBOL = {1: "", 2: "=", 3: "#"}


@dataclass(frozen=True)
class Molecule:
    """An undirected labelled graph: atoms (elements) + bonds (orders)."""

    atoms: Tuple[str, ...]
    bonds: FrozenSet[Tuple[int, int, int]]  # (i, j, order) with i < j

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @property
    def bond_count(self) -> int:
        return len(self.bonds)

    def neighbors(self) -> List[List[Tuple[int, int]]]:
        """adjacency[i] = [(neighbour, bond order), ...]"""
        adjacency: List[List[Tuple[int, int]]] = [[] for __ in self.atoms]
        for i, j, order in self.bonds:
            adjacency[i].append((j, order))
            adjacency[j].append((i, order))
        return adjacency

    @cached_property
    def adjacency(self) -> Tuple[Dict[int, int], ...]:
        """adjacency[i] = {neighbour: bond order}, built once per molecule.

        Parsed molecules are shared across sessions, so the mappings are
        read-only by contract: they are fully built before the single
        store that publishes them, and nothing mutates them after.
        """
        adjacency: List[Dict[int, int]] = [{} for __ in self.atoms]
        for i, j, order in self.bonds:
            adjacency[i][j] = order
            adjacency[j][i] = order
        return tuple(adjacency)

    def bond_order(self, i: int, j: int) -> Optional[int]:
        """Order of the bond between atoms i and j, or None."""
        a, b = min(i, j), max(i, j)
        for x, y, order in self.bonds:
            if x == a and y == b:
                return order
        return None

    def skeleton(self) -> "Molecule":
        """The molecule with every bond order erased to 1 (tautomer key)."""
        return Molecule(self.atoms,
                        frozenset((i, j, 1) for i, j, __ in self.bonds))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_smiles(text: str) -> Molecule:
    """Parse the SMILES subset into a :class:`Molecule`."""
    return _parse_cached(text.strip())


@lru_cache(maxsize=4096)
def _parse_cached(text: str) -> Molecule:
    if not text:
        raise ExecutionError("empty molecule notation")
    atoms: List[str] = []
    bonds: Dict[Tuple[int, int], int] = {}
    stack: List[int] = []
    ring_open: Dict[str, Tuple[int, int]] = {}
    previous: Optional[int] = None
    pending_order = 1
    i = 0
    n = len(text)

    def add_bond(a: int, b: int, order: int) -> None:
        key = (min(a, b), max(a, b))
        if key in bonds:
            raise ExecutionError(f"duplicate bond {key} in {text!r}")
        bonds[key] = order

    while i < n:
        ch = text[i]
        if ch == "(":
            if previous is None:
                raise ExecutionError(f"branch before any atom in {text!r}")
            stack.append(previous)
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise ExecutionError(f"unbalanced ')' in {text!r}")
            previous = stack.pop()
            i += 1
            continue
        if ch in _BOND_CHARS:
            pending_order = _BOND_CHARS[ch]
            i += 1
            continue
        if ch.isdigit():
            if previous is None:
                raise ExecutionError(f"ring digit before any atom in {text!r}")
            if ch in ring_open:
                partner, open_order = ring_open.pop(ch)
                order = pending_order if pending_order != 1 else open_order
                add_bond(previous, partner, order)
            else:
                ring_open[ch] = (previous, pending_order)
            pending_order = 1
            i += 1
            continue
        matched = None
        for symbol in ELEMENTS:
            if text.startswith(symbol, i):
                matched = symbol
                break
        if matched is None:
            raise ExecutionError(
                f"unexpected character {ch!r} at {i} in {text!r}")
        atoms.append(matched)
        index = len(atoms) - 1
        if previous is not None:
            add_bond(previous, index, pending_order)
        previous = index
        pending_order = 1
        i += len(matched)

    if stack:
        raise ExecutionError(f"unbalanced '(' in {text!r}")
    if ring_open:
        raise ExecutionError(
            f"unclosed ring closure(s) {sorted(ring_open)} in {text!r}")
    if not atoms:
        raise ExecutionError(f"no atoms in {text!r}")
    return Molecule(tuple(atoms),
                    frozenset((a, b, order)
                              for (a, b), order in bonds.items()))


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def to_smiles(molecule: Molecule) -> str:
    """Write a molecule back to the linear notation (spanning-tree walk).

    Not canonical — use :func:`certificate` for identity — but always
    re-parseable: ``parse_smiles(to_smiles(m))`` is isomorphic to ``m``.
    """
    if molecule.atom_count == 0:
        raise ExecutionError("cannot write an empty molecule")
    adjacency = molecule.neighbors()
    visited = [False] * molecule.atom_count
    ring_bonds: List[Tuple[int, int, int]] = []
    tree: Dict[int, List[Tuple[int, int]]] = {i: [] for i in
                                              range(molecule.atom_count)}
    # build a DFS spanning tree; non-tree edges become ring closures
    stack = [0]
    visited[0] = True
    parent = {0: None}
    order_visited = [0]
    while stack:
        current = stack.pop()
        for neighbor, order in sorted(adjacency[current]):
            if not visited[neighbor]:
                visited[neighbor] = True
                parent[neighbor] = current
                tree[current].append((neighbor, order))
                stack.append(neighbor)
                order_visited.append(neighbor)
            elif parent.get(current) != neighbor:
                a, b = min(current, neighbor), max(current, neighbor)
                if (a, b, order) not in ring_bonds:
                    ring_bonds.append((a, b, order))
    if not all(visited):
        raise ExecutionError("molecule graph is disconnected")

    ring_digit: Dict[int, List[Tuple[str, int]]] = {}
    for digit, (a, b, order) in enumerate(ring_bonds, start=1):
        if digit > 9:
            raise ExecutionError("too many rings for the notation (max 9)")
        ring_digit.setdefault(a, []).append((str(digit), order))
        ring_digit.setdefault(b, []).append((str(digit), 1))

    def write(atom: int) -> str:
        parts = [molecule.atoms[atom]]
        for digit, order in ring_digit.get(atom, ()):
            parts.append(_BOND_SYMBOL[order] + digit)
        children = tree[atom]
        for index, (child, order) in enumerate(children):
            text = _BOND_SYMBOL[order] + write(child)
            if index < len(children) - 1:
                parts.append(f"({text})")
            else:
                parts.append(text)
        return "".join(parts)

    return write(0)


# ---------------------------------------------------------------------------
# canonical certificates
# ---------------------------------------------------------------------------

def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


def certificate(molecule: Molecule) -> str:
    """Weisfeiler-Lehman canonical certificate (full-structure identity)."""
    adjacency = molecule.neighbors()
    labels = [f"{symbol}/{len(adjacency[i])}"
              for i, symbol in enumerate(molecule.atoms)]
    rounds = max(1, molecule.atom_count)
    for __ in range(rounds):
        new_labels = []
        for i in range(molecule.atom_count):
            neighborhood = sorted(f"{order}:{labels[j]}"
                                  for j, order in adjacency[i])
            new_labels.append(
                f"{_hash64(labels[i] + '|' + ';'.join(neighborhood)):016x}")
        if sorted(new_labels) == sorted(labels):
            labels = new_labels
            break
        labels = new_labels
    edge_labels = sorted(
        f"{order}:{min(labels[i], labels[j])}-{max(labels[i], labels[j])}"
        for i, j, order in molecule.bonds)
    body = ",".join(sorted(labels)) + "#" + ",".join(edge_labels)
    return f"{molecule.atom_count}:{molecule.bond_count}:{_hash64(body):016x}"


def tautomer_key(molecule: Molecule) -> str:
    """Certificate of the bond-order-erased skeleton."""
    return certificate(molecule.skeleton())


# ---------------------------------------------------------------------------
# synthetic molecule generation
# ---------------------------------------------------------------------------

_ELEMENT_WEIGHTS = [("C", 0.62), ("N", 0.12), ("O", 0.14), ("S", 0.05),
                    ("P", 0.03), ("F", 0.04)]

_MAX_DEGREE = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1,
               "B": 3, "I": 1, "Cl": 1, "Br": 1}


def random_molecule(rng: random.Random, size: int = 12,
                    ring_probability: float = 0.3) -> Molecule:
    """Generate a random connected molecule-like graph.

    Atoms follow organic element frequencies; a random spanning tree is
    decorated with occasional ring-closing edges and double bonds,
    respecting rough valence limits.
    """
    if size < 1:
        raise ExecutionError("molecule size must be >= 1")
    atoms: List[str] = []
    for __ in range(size):
        roll = rng.random()
        cumulative = 0.0
        for symbol, weight in _ELEMENT_WEIGHTS:
            cumulative += weight
            if roll <= cumulative:
                atoms.append(symbol)
                break
        else:
            atoms.append("C")
    degree = [0] * size
    bonds: Dict[Tuple[int, int], int] = {}

    def can_bond(i: int, extra: int = 1) -> bool:
        return degree[i] + extra <= _MAX_DEGREE[atoms[i]]

    for i in range(1, size):
        candidates = [j for j in range(i) if can_bond(j)]
        if not candidates:
            candidates = list(range(i))
        j = rng.choice(candidates)
        order = 2 if (rng.random() < 0.15 and can_bond(i, 2)
                      and can_bond(j, 2)) else 1
        bonds[(j, i)] = order
        degree[i] += order
        degree[j] += order
    # occasional ring-closing edges
    if size >= 4:
        attempts = max(1, int(size * ring_probability))
        for __ in range(attempts):
            i, j = rng.randrange(size), rng.randrange(size)
            a, b = min(i, j), max(i, j)
            if a == b or (a, b) in bonds:
                continue
            if can_bond(a) and can_bond(b):
                bonds[(a, b)] = 1
                degree[a] += 1
                degree[b] += 1
    return Molecule(tuple(atoms),
                    frozenset((a, b, order)
                              for (a, b), order in bonds.items()))


def random_substructure(rng: random.Random, molecule: Molecule,
                        size: int = 4) -> Molecule:
    """A random connected induced piece of ``molecule`` (query workload)."""
    if molecule.atom_count == 0:
        raise ExecutionError("empty molecule")
    size = min(size, molecule.atom_count)
    adjacency = molecule.neighbors()
    start = rng.randrange(molecule.atom_count)
    chosen = {start}
    frontier = [j for j, __ in adjacency[start]]
    while len(chosen) < size and frontier:
        nxt = rng.choice(frontier)
        chosen.add(nxt)
        frontier = [j for i in chosen for j, __ in adjacency[i]
                    if j not in chosen]
    index_of = {atom: k for k, atom in enumerate(sorted(chosen))}
    atoms = tuple(molecule.atoms[a] for a in sorted(chosen))
    bonds = frozenset(
        (index_of[i], index_of[j], order)
        for i, j, order in molecule.bonds
        if i in chosen and j in chosen)
    return Molecule(atoms, bonds)
