"""Seeded input generators.

Everything the workloads load or query is made here from the run's
seed, as plain Python values, so the program under test receives only
generated inputs and the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from typing import List, Tuple

# -- text: Zipfian documents ------------------------------------------------

_SYLLABLES = ["ba", "co", "di", "fu", "ge", "hi", "jo", "ka", "lu", "me",
              "ni", "po", "qua", "re", "si", "tu", "ve", "wo", "xi", "za"]


def vocabulary(size: int) -> List[str]:
    """``size`` distinct pronounceable words; index = Zipf rank."""
    words = []
    for index in range(size):
        value, parts = index, []
        for __ in range(3):
            parts.append(_SYLLABLES[value % len(_SYLLABLES)])
            value //= len(_SYLLABLES)
        words.append("".join(parts) + str(index % 7))
    return words


def documents(rng: random.Random, count: int, vocab: List[str],
              words_per_doc: int = 40) -> List[str]:
    """Documents whose word ranks follow a Zipf distribution."""
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    return [" ".join(rng.choices(vocab, weights=weights, k=words_per_doc))
            for __ in range(count)]


# -- spatial: rectangles ------------------------------------------------------

#: side of the square world the rectangles live in (the spatial
#: cartridge's tiling covers [0, 1024) on both axes)
WORLD = 1024.0


def rectangles(rng: random.Random, count: int, min_size: float = 10.0,
               max_size: float = 60.0) -> List[Tuple[float, float, float,
                                                    float]]:
    """(xmin, ymin, xmax, ymax) rectangles scattered over the world."""
    out = []
    for __ in range(count):
        width = rng.uniform(min_size, max_size)
        height = rng.uniform(min_size, max_size)
        x = rng.uniform(0.0, WORLD - width)
        y = rng.uniform(0.0, WORLD - height)
        out.append((x, y, x + width, y + height))
    return out


# -- VIR: clustered image signatures ----------------------------------------

#: (component, length) in storage order — the VIR signature layout
_COMPONENTS = (12, 16, 8, 8)


def signature(rng: random.Random, spread: float = 0.12) -> Tuple[float, ...]:
    """A signature whose components each fluctuate around a base level."""
    values: List[float] = []
    for length in _COMPONENTS:
        base = rng.random()
        values.extend(min(1.0, max(0.0, base + rng.uniform(-spread, spread)))
                      for __ in range(length))
    return tuple(values)


def near(rng: random.Random, centre: Tuple[float, ...],
         amount: float) -> Tuple[float, ...]:
    """A signature within ``amount`` of ``centre`` on every value."""
    return tuple(min(1.0, max(0.0, v + rng.uniform(-amount, amount)))
                 for v in centre)


def signatures(rng: random.Random, count: int, centres: List[Tuple],
               cluster_every: int = 25, noise: float = 0.03
               ) -> List[Tuple[float, ...]]:
    """``count`` signatures; every ``cluster_every``-th is near a centre."""
    out = []
    for i in range(count):
        if i % cluster_every == 0:
            out.append(near(rng, centres[(i // cluster_every) % len(centres)],
                            noise))
        else:
            out.append(signature(rng))
    return out


# -- chemistry: molecules in linear notation -------------------------------

_ELEMENTS = ["C"] * 6 + ["N", "N", "O", "O", "S", "Cl"]
_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "Cl": 1}


def molecule(rng: random.Random, size: int) -> str:
    """A random connected molecule as a SMILES-subset string.

    A random tree respecting valence limits, written depth first with
    branches in parentheses, plus at most one ring closure.
    """
    atoms = [rng.choice(_ELEMENTS[:6])]
    degree = [0]
    children: List[List[int]] = [[]]
    parent_of = [-1]
    for index in range(1, size):
        open_atoms = [i for i in range(index)
                      if degree[i] < _VALENCE[atoms[i]]]
        if not open_atoms:
            break
        parent = rng.choice(open_atoms)
        atoms.append(rng.choice(_ELEMENTS))
        degree.append(1)
        degree[parent] += 1
        children[parent].append(index)
        children.append([])
        parent_of.append(parent)
    ring = None
    leaves = [i for i in range(len(atoms)) if not children[i]
              and parent_of[i] > 0 and degree[i] < _VALENCE[atoms[i]]]
    if leaves and degree[0] < _VALENCE[atoms[0]] and rng.random() < 0.3:
        ring = rng.choice(leaves)

    def write(i: int) -> str:
        text = atoms[i]
        if ring is not None and i in (0, ring):
            text += "1"
        kids = children[i]
        for kid in kids[:-1]:
            text += "(" + write(kid) + ")"
        if kids:
            text += write(kids[-1])
        return text

    return write(0)


def molecules(rng: random.Random, count: int, min_size: int = 5,
              max_size: int = 16) -> List[str]:
    return [molecule(rng, rng.randint(min_size, max_size))
            for __ in range(count)]


#: small fragments used as substructure queries
FRAGMENTS = ["CCO", "CNC", "CC(C)C", "COC", "CCN", "CS", "CCl", "NCO"]
