"""Structure search algorithms: exact, tautomer, substructure, similarity.

These are the "complex operations on in-memory data structures" the
paper notes dominate chemistry query time (§3.2.4) — identical for the
LOB-resident and file-resident index, which is why the two storage
models end up with comparable query performance.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.cartridges.chemistry.fingerprint import fingerprint, tanimoto
from repro.cartridges.chemistry.molecule import (
    Molecule, certificate, tautomer_key)


def full_match(molecule: Molecule, query: Molecule) -> bool:
    """Exact (full-structure) match via canonical certificates."""
    return (molecule.atom_count == query.atom_count
            and molecule.bond_count == query.bond_count
            and certificate(molecule) == certificate(query))


def tautomer_match(molecule: Molecule, query: Molecule) -> bool:
    """Tautomer-insensitive match: bond-order-erased certificates agree."""
    return tautomer_key(molecule) == tautomer_key(query)


def similarity(molecule: Molecule, query: Molecule) -> float:
    """Tanimoto similarity of the two path fingerprints."""
    return tanimoto(fingerprint(molecule), fingerprint(query))


def substructure_match(pattern: Molecule, molecule: Molecule) -> bool:
    """Subgraph-monomorphism test: does ``molecule`` contain ``pattern``?

    Pattern atoms map injectively to molecule atoms with equal element
    symbols; every pattern bond must exist in the molecule with the same
    order (extra molecule bonds are allowed).  Backtracking with a
    most-constrained-first variable order.
    """
    if pattern.atom_count > molecule.atom_count \
            or pattern.bond_count > molecule.bond_count:
        return False
    p_adj = pattern.neighbors()
    m_adj = molecule.neighbors()

    # order pattern atoms so each (after the first) touches a previous one
    order = _connected_order(pattern, p_adj)
    mapping = [-1] * pattern.atom_count
    used = [False] * molecule.atom_count

    def candidates(p_atom: int) -> Sequence[int]:
        # if some earlier-mapped neighbour exists, restrict to its adjacency
        for neighbor, bond in p_adj[p_atom]:
            if mapping[neighbor] >= 0:
                return [m for m, m_order in m_adj[mapping[neighbor]]
                        if m_order == bond]
        return range(molecule.atom_count)

    def feasible(p_atom: int, m_atom: int) -> bool:
        if used[m_atom]:
            return False
        if pattern.atoms[p_atom] != molecule.atoms[m_atom]:
            return False
        if len(p_adj[p_atom]) > len(m_adj[m_atom]):
            return False
        for neighbor, bond in p_adj[p_atom]:
            mapped = mapping[neighbor]
            if mapped >= 0 and molecule.bond_order(m_atom, mapped) != bond:
                return False
        return True

    def backtrack(position: int) -> bool:
        if position == len(order):
            return True
        p_atom = order[position]
        for m_atom in candidates(p_atom):
            if feasible(p_atom, m_atom):
                mapping[p_atom] = m_atom
                used[m_atom] = True
                if backtrack(position + 1):
                    return True
                mapping[p_atom] = -1
                used[m_atom] = False
        return False

    return backtrack(0)


def compile_pattern(pattern: Molecule) -> Callable[[Molecule], bool]:
    """Prepare ``pattern`` once; the result tests molecules like
    :func:`substructure_match` (``compile_pattern(p)(m) ==
    substructure_match(p, m)``).

    Everything that depends only on the pattern is computed here: the
    atom order, and per position the element, the degree, the anchor
    (the first earlier-mapped neighbour, whose molecule adjacency
    supplies the candidates) and the back-bonds every candidate must
    carry.  The search itself is the same backtracking, run over the
    molecule's cached ``{neighbour: order}`` adjacency.
    """
    p_adj = pattern.neighbors()
    order = _connected_order(pattern, p_adj)
    position = {atom: k for k, atom in enumerate(order)}
    n_atoms = pattern.atom_count
    n_bonds = pattern.bond_count
    elements = [pattern.atoms[atom] for atom in order]
    degrees = [len(p_adj[atom]) for atom in order]
    anchors: List[Optional[int]] = []
    back_bonds: List[Tuple[Tuple[int, int], ...]] = []
    for k, atom in enumerate(order):
        earlier = [(position[neighbor], bond)
                   for neighbor, bond in p_adj[atom]
                   if position[neighbor] < k]
        anchors.append(earlier[0][0] if earlier else None)
        back_bonds.append(tuple(earlier))

    def matches(molecule: Molecule) -> bool:
        if n_atoms > molecule.atom_count or n_bonds > molecule.bond_count:
            return False
        m_atoms = molecule.atoms
        m_adj = molecule.adjacency
        every_atom = range(len(m_atoms))
        mapped = [-1] * n_atoms          # molecule atom per position
        used = [False] * len(m_atoms)

        def backtrack(k: int) -> bool:
            if k == n_atoms:
                return True
            element, degree = elements[k], degrees[k]
            backs, anchor = back_bonds[k], anchors[k]
            for m_atom in (every_atom if anchor is None
                           else m_adj[mapped[anchor]]):
                if used[m_atom] or m_atoms[m_atom] != element:
                    continue
                bonds = m_adj[m_atom]
                if len(bonds) < degree:
                    continue
                for earlier, bond in backs:
                    if bonds.get(mapped[earlier]) != bond:
                        break
                else:
                    mapped[k] = m_atom
                    used[m_atom] = True
                    if backtrack(k + 1):
                        return True
                    used[m_atom] = False
            return False

        return backtrack(0)

    return matches


def _connected_order(pattern: Molecule, p_adj) -> List[int]:
    seen = [False] * pattern.atom_count
    order: List[int] = []
    # start at the highest-degree atom (most constrained)
    start = max(range(pattern.atom_count), key=lambda i: len(p_adj[i]))
    stack = [start]
    seen[start] = True
    while stack:
        atom = stack.pop()
        order.append(atom)
        for neighbor, __ in sorted(p_adj[atom],
                                   key=lambda e: -len(p_adj[e[0]])):
            if not seen[neighbor]:
                seen[neighbor] = True
                stack.append(neighbor)
    # disconnected pattern pieces (rare) go last, in index order
    for i in range(pattern.atom_count):
        if not seen[i]:
            order.append(i)
    return order


def nearest_neighbors(query: Molecule,
                      candidates: Sequence[Tuple[object, Molecule]],
                      k: int) -> List[Tuple[object, float]]:
    """Top-k (tag, similarity) pairs by Tanimoto, descending."""
    query_fp = fingerprint(query)
    scored = [(tag, tanimoto(fingerprint(mol), query_fp))
              for tag, mol in candidates]
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return scored[:max(0, k)]
