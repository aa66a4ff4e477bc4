"""Seeded input generators for the benchmark workloads.

Every generator draws from an explicit ``random.Random`` and returns plain
JSON-ready data (dicts, lists, decimal strings), so a given seed always
yields byte-identical inputs; ``canonical_bytes`` is the serialisation the
benchmark digests to prove it.  Nothing here imports ``ordcone``: the
package receives only the generated inputs.

Each workload draws its pool from a fixed pool seed, so that the output of
every pool entry can be checked against a reference recorded once (see
``references.py``).  The ``--seed`` of a run chooses the order in which the
pool is visited (a fresh shuffle per pass); the library is stateless, so a
pass does the same work whatever the order and runs stay comparable across
seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ROUTE_POOL_SEED = 26010
FILTER_POOL_SEED = 26011
CLI_POOL_SEED = 26012

ROUTE_POOL_SIZE = 25
ROUTE_SIDE = 12
ROUTE_K = 4

FILTER_KS = (4, 6, 8)
FILTER_PER_K = 5
FILTER_LEVEL = Fraction(60)

CLI_GRAPH_SIDE = 10
CLI_SMALL_SIDE = 4
CLI_K = 3


def canonical_bytes(data: object) -> bytes:
    """The one serialisation every input digest and graph file uses."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def node_name(row: int, col: int) -> str:
    return f"r{row:02d}c{col:02d}"


def grid_graph(rng: random.Random, side: int, k: int) -> dict:
    """Bidirectional side x side grid; each street has one category and an
    integer length 1-9, shared by both directions."""
    edges = []
    for row in range(side):
        for col in range(side):
            for d_row, d_col in ((0, 1), (1, 0)):
                row2, col2 = row + d_row, col + d_col
                if row2 >= side or col2 >= side:
                    continue
                category = rng.randint(1, k)
                length = str(rng.randint(1, 9))
                a, b = node_name(row, col), node_name(row2, col2)
                edges.append({"from": a, "to": b, "category": category, "length": length})
                edges.append({"from": b, "to": a, "category": category, "length": length})
    nodes = [{"id": node_name(r, c)} for r in range(side) for c in range(side)]
    return {"K": k, "nodes": nodes, "edges": edges}


def strict_weights(rng: random.Random, k: int) -> tuple[list[str], list[str]]:
    """Pointed weights with every omega_i > 0 and gamma_i > 0.

    omega_i * gamma_i is 1/4, 1/2 or 3/4: never near the Pareto cone (where
    efficient sets blow up) and never degenerate.
    """
    omega: list[str] = []
    gamma: list[str] = []
    for _ in range(k - 1):
        om = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        ga = Fraction(rng.randint(1, 3), 4) / om
        omega.append(str(om))
        gamma.append(str(ga))
    return omega, gamma


def route_pool() -> list[dict]:
    """route-grid: 12x12 grids with K=4, corner to corner, strict weights."""
    rng = random.Random(ROUTE_POOL_SEED)
    pool = []
    for index in range(ROUTE_POOL_SIZE):
        graph = grid_graph(rng, ROUTE_SIDE, ROUTE_K)
        omega, gamma = strict_weights(rng, ROUTE_K)
        pool.append(
            {
                "name": f"route-{index:02d}",
                "graph": graph,
                "source": node_name(0, 0),
                "target": node_name(ROUTE_SIDE - 1, ROUTE_SIDE - 1),
                "omega": omega,
                "gamma": gamma,
            }
        )
    return pool


def interior_dual(omega: list[Fraction], gamma: list[Fraction]) -> list[Fraction]:
    """A dual vector nu with every ratio nu_{i+1}/nu_i strictly inside
    (omega_i, 1/gamma_i): the midpoint of that interval."""
    nu = [Fraction(1)]
    for om, ga in zip(omega, gamma):
        nu.append(nu[-1] * (om + 1 / ga) / 2)
    return nu


def level_set_points(rng: random.Random, omega: list[Fraction], gamma: list[Fraction], n: int) -> list[dict]:
    """n points, about 70 % on the level set nu . y = FILTER_LEVEL of an
    interior dual vector nu, the rest lifted above it by a nonzero,
    componentwise nonnegative step.

    Points on the level set never strictly dominate each other (the order
    is pointed and nu is interior), so every one of them must survive
    filtering.  Ids start with "L" (level) or "U" (lifted).
    """
    k = len(omega) + 1
    nu = interior_dual(omega, gamma)

    def on_level() -> list[Fraction]:
        shares = [rng.randint(0, 9) for _ in range(k)]
        if not any(shares):
            shares[rng.randrange(k)] = 1
        total = sum(shares)
        return [FILTER_LEVEL * s / (nu[i] * total) for i, s in enumerate(shares)]

    lifted_count = round(n * 3 / 10)
    points = [("L", on_level()) for _ in range(n - lifted_count)]
    for _ in range(lifted_count):
        base = on_level()
        step = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(k)]
        if not any(step):
            step[rng.randrange(k)] = Fraction(1)
        points.append(("U", [b + s for b, s in zip(base, step)]))
    rng.shuffle(points)
    return [
        {"id": f"{kind}{index:03d}", "vector": [str(v) for v in vector]}
        for index, (kind, vector) in enumerate(points)
    ]


def filter_pool() -> list[dict]:
    """filter-front: FILTER_PER_K point sets for each K in FILTER_KS, n in 60-80."""
    rng = random.Random(FILTER_POOL_SEED)
    pool = []
    for k in FILTER_KS:
        for index in range(FILTER_PER_K):
            omega, gamma = strict_weights(rng, k)
            n = rng.randint(60, 80)
            points = level_set_points(
                rng, [Fraction(x) for x in omega], [Fraction(x) for x in gamma], n
            )
            pool.append(
                {
                    "name": f"filter-k{k}-{index}",
                    "k": k,
                    "omega": omega,
                    "gamma": gamma,
                    "points": points,
                }
            )
    return pool


def cli_pool() -> dict:
    """cli-mix: the input files (name -> JSON text) and the command rotation.

    Each command is an argv for ``python -m ordcone.cli``; an argument
    "@name" names an input file and is resolved to its path by the
    benchmark.  Every command is expected to exit 0.  The cheapest command
    comes first, because set-up runs the first one as its warm-up.
    """
    rng = random.Random(CLI_POOL_SEED)
    big = grid_graph(rng, CLI_GRAPH_SIDE, CLI_K)
    small = grid_graph(rng, CLI_SMALL_SIDE, CLI_K)
    points = [
        [str(rng.randint(0, 6)) for _ in range(CLI_K)] for _ in range(8)
    ]
    files = {
        "grid10.json": canonical_bytes(big).decode(),
        "grid4.json": canonical_bytes(small).decode(),
        "points.json": canonical_bytes(points).decode(),
    }
    far = node_name(CLI_GRAPH_SIDE - 1, CLI_GRAPH_SIDE - 1)
    near = node_name(CLI_SMALL_SIDE - 1, CLI_SMALL_SIDE - 1)
    start = node_name(0, 0)
    weights = ["--omega-vec", "1.5,2", "--gamma-vec", "0.2,0.25"]
    route = ["--json", "route", "--graph", "@grid10.json", "--source", start, "--target", far, *weights]
    commands = [
        {"name": "filter", "command": "filter",
         "argv": ["--json", "filter", "--k", str(CLI_K), "--omega", "1", "--gamma", "0.5",
                  "--points-file", "@points.json"]},
        {"name": "cone-k9", "command": "cone",
         "argv": ["cone", "--k", "9", "--omega", "1.5", "--gamma", "0.2"]},
        {"name": "verify-k6", "command": "verify",
         "argv": ["--json", "verify", "--k", "6", "--omega", "1.5", "--gamma", "0.2"]},
        {"name": "verify-graph", "command": "verify",
         "argv": ["--json", "verify", "--graph", "@grid4.json", "--source", start,
                  "--target", near, "--omega", "1.5", "--gamma", "0.2"]},
        {"name": "route-one", "command": "route", "argv": route},
        {"name": "route-all", "command": "route", "argv": [*route, "--mode", "all_paths"]},
        {"name": "sweep", "command": "sweep",
         "argv": ["sweep", "--graph", "@grid10.json", "--source", start, "--target", far,
                  "--omega-grid", "1;2", "--gamma-grid", "0.25;0.5;1", "--no-timings"]},
    ]
    return {"files": files, "commands": commands}

