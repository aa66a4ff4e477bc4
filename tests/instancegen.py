"""Seeded random instances shared across the test suite.

Every generator takes an explicit random.Random so each test controls its
own seed and stays reproducible.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from ordcone.cone import Weights, classify_weights
from ordcone.pathsolve import CategoryGraph, Edge

DATA_DIR = Path(__file__).parent / "data"


def load_fixture(name: str) -> CategoryGraph:
    return CategoryGraph.from_dict(json.loads((DATA_DIR / name).read_text()))


def pointed_weights(rng: random.Random, k: int, positive: bool = False) -> Weights:
    """Random admissible pointed weights; zeros allowed unless positive=True."""
    omega: list[Fraction] = []
    gamma: list[Fraction] = []
    for _ in range(k - 1):
        if positive:
            om = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            ga = Fraction(rng.randint(1, 3), 4) / om
        else:
            om = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            if om == 0:
                ga = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            elif rng.random() < 0.35:
                ga = Fraction(0)
            else:
                ga = Fraction(rng.randint(0, 3), 4) / om
        omega.append(om)
        gamma.append(ga)
    return classify_weights(k, omega, gamma)


def degenerate_weights(rng: random.Random, k: int) -> Weights:
    """Random weights with at least one pair product equal to one."""
    while True:
        omega: list[Fraction] = []
        gamma: list[Fraction] = []
        saw_degenerate = False
        for _ in range(k - 1):
            om = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            if rng.random() < 0.5:
                ga = 1 / om
                saw_degenerate = True
            else:
                ga = Fraction(rng.randint(0, 3), 4) / om
            omega.append(om)
            gamma.append(ga)
        if saw_degenerate:
            return classify_weights(k, omega, gamma)


def int_vector(rng: random.Random, k: int, hi: int = 9) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, hi)) for _ in range(k))


def random_graph(
    rng: random.Random,
    k: int,
    max_nodes: int = 12,
    max_edges: int = 30,
    max_length: int = 5,
    fractional: bool = False,
) -> tuple[CategoryGraph, str, str]:
    """Random digraph; returns (graph, source, target).

    Lengths are integers in 1..max_length, or with fractional=True a/b with
    a in 1..4*max_length and b in 1..4.  Both settings consume the random
    stream in the same order, category before length, for every edge.
    """
    n = rng.randint(2, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        a, b = rng.sample(range(n), 2)
        category = rng.randint(1, k)
        if fractional:
            length = Fraction(rng.randint(1, 4 * max_length), rng.randint(1, 4))
        else:
            length = Fraction(rng.randint(1, max_length))
        edges.append(Edge(src=names[a], dst=names[b], category=category, length=length))
    return CategoryGraph(k=k, nodes=names, edges=edges), names[0], names[-1]
