"""Acceptance criteria for the whole package.

Each test exercises one end-to-end guarantee, compares the primary
implementation against an independent route to the same answer, and prints
a single PASS/FAIL line.  Run `pytest tests/test_acceptance.py -v -s` to see
the lines; every comparison is exact, with an explicit wall-clock budget.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from instancegen import (
    degenerate_weights,
    int_vector,
    load_fixture,
    pointed_weights,
    random_graph,
)
from ordcone.cone import (
    classify_weights,
    dual_contains,
    facet_count,
    facet_matrix,
    merge_degenerate,
    special_matrix,
)
from ordcone.dominance import (
    PointSet,
    filter_nondominated,
    pareto_cone,
    pareto_transform,
    weakly_dominates,
)
from ordcone.exactnum import dot, mat_vec, normalize_ray, vec, vec_sub
from ordcone.oracle import (
    double_description,
    enumerate_simple_paths,
    ray_membership,
    sampled_dual_check,
)
from ordcone.pathsolve import PathCapExceeded, counting_vector, efficient_paths
from ordcone.cone import spanning_rays

F = Fraction


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _canon(rows) -> frozenset:
    return frozenset(normalize_ray(vec(row)) for row in rows)


def test_01_facet_count_positive_weights():
    budget = 5.0
    start = time.perf_counter()
    rng = random.Random(101)
    failures = []
    checked = 0
    for k in range(2, 7):
        for _ in range(10):
            w = pointed_weights(rng, k, positive=True)
            rows = len(facet_matrix(w).rows)
            expected = 2 ** (k - 1)
            if rows != expected or facet_count(w) != expected:
                failures.append(f"K={k}: {rows} rows, formula {facet_count(w)}")
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "facet-count-positive-weights",
        not failures and checked == 50 and elapsed <= budget,
        failures[0] if failures else f"{checked} cones in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_02_facet_count_zero_patterns():
    budget = 5.0
    start = time.perf_counter()
    rng = random.Random(202)
    failures = []
    checked = 0

    def check(w):
        nonlocal checked
        expected = facet_count(w)
        rows = len(facet_matrix(w).rows)
        if rows != expected:
            failures.append(
                f"K={w.k} gamma={w.gamma}: enumerated {rows}, formula {expected}"
            )
        checked += 1
        return expected

    # the two pinned instances: zeros at pairs {1, 3} of K=5, and gamma = 0
    pinned = classify_weights(5, [1, 2, 1, 2], [0, "0.25", 0, "0.125"])
    if check(pinned) != 10:
        failures.append("K=5 zeros at {1,3} should give 10 facets")
    for k in range(2, 7):
        flat = classify_weights(k, [2] * (k - 1), [0] * (k - 1))
        if check(flat) != k:
            failures.append(f"gamma = 0 at K={k} should give {k} facets")
    while checked < 50:
        k = rng.randint(2, 6)
        w = pointed_weights(rng, k, positive=True)
        gamma = [
            F(0) if rng.random() < 0.5 else value for value in w.gamma
        ]
        check(classify_weights(k, w.omega, gamma))
    elapsed = time.perf_counter() - start
    _report(
        "facet-count-zero-patterns",
        not failures and elapsed <= budget,
        failures[0] if failures else f"{checked} cones in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def _golden_k4(om, ga):
    o1, o2, o3 = om
    g1, g2, g3 = ga
    return [
        (1, o1, o1 * o2, o1 * o2 * o3),
        (g3, o1 * g3, o1 * o2 * g3, o1 * o2),
        (g2, o1 * g2, o1, o1 * o3),
        (g2 * g3, o1 * g2 * g3, o1 * g3, o1),
        (g1, 1, o2, o2 * o3),
        (g1 * g3, g3, o2 * g3, o2),
        (g1 * g2, g2, 1, o3),
        (g1 * g2 * g3, g2 * g3, g3, 1),
    ]


def _golden_k5_zeros_at_1_and_3(om, g2, g4):
    o1, o2, o3, o4 = om
    return [
        (1, o1, o1 * o2, o1 * o2 * o3, o1 * o2 * o3 * o4),
        (0, 1, o2, o2 * o3, o2 * o3 * o4),
        (g2, o1 * g2, o1, o1 * o3, o1 * o3 * o4),
        (0, g2, 1, o3, o3 * o4),
        (0, 0, 0, 1, o4),
        (g4, o1 * g4, o1 * o2 * g4, o1 * o2 * o3 * g4, o1 * o2 * o3),
        (0, g4, o2 * g4, o2 * o3 * g4, o2 * o3),
        (g2 * g4, o1 * g2 * g4, o1 * g4, o1 * o3 * g4, o1 * o3),
        (0, g2 * g4, g4, o3 * g4, o3),
        (0, 0, 0, g4, 1),
    ]


def test_03_golden_facet_matrices():
    budget = 1.0
    start = time.perf_counter()
    rng = random.Random(303)
    failures = []
    for _ in range(5):
        om = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3)]
        ga = [F(1, rng.randint(2, 5)) / o for o in om]
        w = classify_weights(4, om, ga)
        got = _canon(facet_matrix(w).rows)
        want = _canon(_golden_k4(om, ga))
        if got != want or len(got) != 8:
            failures.append(f"K=4 mismatch for omega={om} gamma={ga}")

        om5 = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)]
        g2 = F(1, rng.randint(2, 6)) / om5[1]
        g4 = F(1, rng.randint(2, 6)) / om5[3]
        w5 = classify_weights(5, om5, [0, g2, 0, g4])
        got5 = _canon(facet_matrix(w5).rows)
        want5 = _canon(_golden_k5_zeros_at_1_and_3(om5, g2, g4))
        if got5 != want5 or len(got5) != 10:
            failures.append(f"K=5 mismatch for omega={om5} g2={g2} g4={g4}")
    elapsed = time.perf_counter() - start
    _report(
        "golden-facet-matrices",
        not failures and elapsed <= budget,
        failures[0] if failures else f"10 matrices in {elapsed:.3f}s (budget {budget:.0f}s)",
    )


def test_04_facets_vs_double_description():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(404)
    failures = []
    for i in range(100):
        k = rng.randint(2, 6)
        w = pointed_weights(rng, k)
        primary = _canon(facet_matrix(w).rows)
        oracle = double_description(spanning_rays(w))
        if primary != oracle:
            failures.append(
                f"instance {i} K={k}: {len(primary)} primary vs {len(oracle)} oracle facets"
            )
    elapsed = time.perf_counter() - start
    _report(
        "facets-vs-double-description",
        not failures and elapsed <= budget,
        failures[0] if failures else f"100 cones in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_05_dominance_vs_ray_membership():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(505)
    failures = []
    for i in range(1000):
        k = rng.randint(2, 5)
        w = pointed_weights(rng, k)
        rays = spanning_rays(w)
        hrep = facet_matrix(w)
        y1 = int_vector(rng, k, hi=6)
        y2 = int_vector(rng, k, hi=6)
        primary = weakly_dominates(hrep, y1, y2)
        diff = vec_sub(y2, y1)
        cert = ray_membership(rays, diff)
        if primary != cert.feasible:
            failures.append(f"instance {i}: facets say {primary}, membership says {cert.feasible}")
            continue
        if not cert.verify(rays.columns, diff):
            failures.append(f"instance {i}: certificate failed verification")
            continue
        if primary and not sampled_dual_check(w, y1, y2):
            failures.append(f"instance {i}: sampled disutilities refute a facet-approved pair")
    elapsed = time.perf_counter() - start
    _report(
        "dominance-vs-ray-membership",
        not failures and elapsed <= budget,
        failures[0] if failures else f"1000 triples in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_06_filter_transform_commutation():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(606)
    failures = []
    for i in range(200):
        k = rng.randint(2, 4)
        hrep = facet_matrix(pointed_weights(rng, k))
        n = rng.randint(1, 100)
        points = PointSet.from_vectors([int_vector(rng, k, hi=5) for _ in range(n)])
        kept = filter_nondominated(hrep, points)
        image_of_kept = pareto_transform(hrep.rows, kept)
        image = pareto_transform(hrep.rows, points)
        kept_in_image = filter_nondominated(pareto_cone(len(hrep.rows)), image)
        if sorted(image_of_kept.ids) != sorted(kept_in_image.ids) or sorted(
            image_of_kept.points
        ) != sorted(kept_in_image.points):
            failures.append(f"instance {i}: K={k}, n={n}")
    elapsed = time.perf_counter() - start
    _report(
        "filter-transform-commutation",
        not failures and elapsed <= budget,
        failures[0] if failures else f"200 point sets in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_07_solver_vs_enumeration():
    budget = 60.0
    start = time.perf_counter()
    rng = random.Random(707)
    failures = []
    checked = skipped = 0
    while checked < 100:
        k = rng.randint(2, 4)
        graph, source, target = random_graph(rng, k, max_nodes=12, max_edges=30)
        w = pointed_weights(rng, k)
        try:
            paths = enumerate_simple_paths(graph, source, target, cap=400)
        except PathCapExceeded:
            skipped += 1
            continue
        solved = efficient_paths(graph, source, target, w, mode="all_paths")
        one = efficient_paths(graph, source, target, w, mode="one_per_vector")
        checked += 1
        if not paths:
            if solved or one:
                failures.append(f"instance {checked}: solver found paths where none exist")
            continue
        outcomes = [counting_vector(graph, p) for p in paths]
        kept = filter_nondominated(facet_matrix(w), PointSet.from_vectors(outcomes))
        efficient_vectors = set(kept.points)
        expected_paths = {p for p, o in zip(paths, outcomes) if o in efficient_vectors}
        if {p for p, _ in solved} != expected_paths:
            failures.append(f"instance {checked}: efficient path sets differ")
        elif {v for _, v in solved} != efficient_vectors:
            failures.append(f"instance {checked}: efficient vector sets differ")
        elif {v for _, v in one} != efficient_vectors or len(one) != len(efficient_vectors):
            failures.append(f"instance {checked}: one_per_vector is not one per vector")
    elapsed = time.perf_counter() - start
    _report(
        "solver-vs-enumeration",
        not failures and elapsed <= budget,
        failures[0]
        if failures
        else f"100 graphs ({skipped} dense ones regenerated) in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_08_fixture_routes():
    budget = 1.0
    start = time.perf_counter()
    failures = []
    loop = load_fixture("loop_detour.json")
    twin = load_fixture("twin_corridor.json")
    ordinal = classify_weights(2, [1], [0])

    def vectors(graph, w):
        return {v for _, v in efficient_paths(graph, "s", "t", w)}

    if vectors(loop, ordinal) != {(F(9), F(0)), (F(0), F(1))}:
        failures.append("loop detour under the ordinal order")
    for gamma in (F(1, 9), F(1, 8), F(1, 5)):
        w = classify_weights(2, [1], [gamma])
        if vectors(loop, w) != {(F(0), F(1))}:
            failures.append(f"loop detour with gamma={gamma}")
    if vectors(twin, ordinal) != {(F(6), F(0)), (F(0), F(4))}:
        failures.append("twin corridor under the ordinal order")
    if vectors(twin, classify_weights(2, [2], [0])) != {(F(6), F(0))}:
        failures.append("twin corridor with omega=2")
    elapsed = time.perf_counter() - start
    _report(
        "fixture-routes",
        not failures and elapsed <= budget,
        failures[0] if failures else f"6 scenarios in {elapsed:.3f}s (budget {budget:.0f}s)",
    )


def _widen(rng: random.Random, w):
    """A componentwise larger admissible pointed weight set."""
    omega = []
    gamma = []
    for i in range(w.k - 1):
        om_old = w.omega[i]
        ga_old = w.gamma[i]
        if ga_old == 0:
            om = om_old + F(rng.randint(0, 2), 2)
        else:
            # grow omega but stay strictly inside om * ga_old < 1
            om = om_old + (F(1) / ga_old - om_old) * F(rng.randint(0, 1), 2)
        if om == 0:
            ga = ga_old + F(rng.randint(0, 2), 2)
        else:
            ga = ga_old + (F(1) / om - ga_old) * F(rng.randint(0, 1), 2)
        omega.append(om)
        gamma.append(ga)
    return classify_weights(w.k, omega, gamma)


def test_09_nested_efficient_sets():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(909)
    failures = []
    checked = 0
    while checked < 20:
        k = rng.randint(2, 4)
        graph, source, target = random_graph(rng, k, max_nodes=10, max_edges=22)
        w1 = pointed_weights(rng, k)
        w2 = _widen(rng, w1)
        w3 = _widen(rng, w2)
        sets = []
        for w in (w1, w2, w3):
            sets.append({v for _, v in efficient_paths(graph, source, target, w)})
        checked += 1
        if not (sets[2] <= sets[1] <= sets[0]):
            failures.append(
                f"instance {checked}: sizes {len(sets[0])}, {len(sets[1])}, {len(sets[2])} not nested"
            )
    elapsed = time.perf_counter() - start
    _report(
        "nested-efficient-sets",
        not failures and elapsed <= budget,
        failures[0] if failures else f"20 weight chains in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_10_degenerate_merge_consistency():
    budget = 10.0
    start = time.perf_counter()
    rng = random.Random(1010)
    failures = []
    for i in range(50):
        k = rng.randint(2, 5)
        w = degenerate_weights(rng, k)
        merged, lift = merge_degenerate(w)
        if not merged.pointed:
            failures.append(f"instance {i}: merge left a degenerate pair")
            continue
        hrep = facet_matrix(merged)
        lifted_rows = [
            tuple(
                sum((row[r] * lift[r][c] for r in range(merged.k)), F(0))
                for c in range(k)
            )
            for row in hrep.rows
        ]
        if not all(dual_contains(w, lifted) for lifted in lifted_rows):
            failures.append(f"instance {i}: a lifted facet row is not a consistent disutility")
            continue
        for _ in range(2):
            y1 = int_vector(rng, k)
            y2 = int_vector(rng, k)
            merged_dominates = weakly_dominates(hrep, mat_vec(lift, y1), mat_vec(lift, y2))
            if merged_dominates:
                if not sampled_dual_check(w, y1, y2):
                    failures.append(f"instance {i}: original-space disutilities refute the merge")
            else:
                diff = vec_sub(y2, y1)
                if not any(dot(lifted, diff) < 0 for lifted in lifted_rows):
                    failures.append(f"instance {i}: no lifted facet certifies the refusal")
    elapsed = time.perf_counter() - start
    _report(
        "degenerate-merge-consistency",
        not failures and elapsed <= budget,
        failures[0] if failures else f"50 merges in {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_11_special_case_identities():
    budget = 1.0
    start = time.perf_counter()
    rng = random.Random(1111)
    failures = []
    for _ in range(8):
        k = rng.randint(2, 5)

        pareto = classify_weights(k, [0] * (k - 1), [0] * (k - 1))
        if _canon(facet_matrix(pareto).rows) != _canon(special_matrix("pareto", pareto)):
            failures.append(f"pareto identity at K={k}")

        omega = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(k - 1)]
        gz = classify_weights(k, omega, [0] * (k - 1))
        if _canon(facet_matrix(gz).rows) != _canon(special_matrix("gamma_zero", gz)):
            failures.append(f"gamma-zero identity at K={k}")

        gamma = [F(rng.randint(0, 3), 4) for _ in range(k - 1)]
        oz = classify_weights(k, [0] * (k - 1), gamma)
        if _canon(facet_matrix(oz).rows) != _canon(special_matrix("omega_zero", oz)):
            failures.append(f"omega-zero identity at K={k}")

        w2 = pointed_weights(rng, 2, positive=True)
        if _canon(facet_matrix(w2).rows) != _canon(special_matrix("k2", w2)):
            failures.append("K=2 identity")
    elapsed = time.perf_counter() - start
    _report(
        "special-case-identities",
        not failures and elapsed <= budget,
        failures[0] if failures else f"32 identities in {elapsed:.3f}s (budget {budget:.0f}s)",
    )


def test_12_lexicographic_limit():
    budget = 10.0
    start = time.perf_counter()
    rng = random.Random(1212)
    failures = []
    checked = 0
    while checked < 20:
        k = rng.randint(2, 3)
        graph, source, target = random_graph(
            rng, k, max_nodes=8, max_edges=14, max_length=4
        )
        try:
            paths = enumerate_simple_paths(graph, source, target, cap=400)
        except PathCapExceeded:
            continue
        if not paths:
            continue
        lengths = [int(e.length) for e in graph.edges]
        total = sum(lengths)
        bound = total // math.gcd(*lengths) + 1
        w = classify_weights(k, [bound] * (k - 1), [0] * (k - 1))
        outcomes = [counting_vector(graph, p) for p in paths]
        # steep omega with gamma = 0 prioritizes scarcity of the worst
        # categories: the unique efficient vector minimizes the reversed tuple
        best = min(outcomes, key=lambda v: tuple(reversed(v)))
        got = {v for _, v in efficient_paths(graph, source, target, w)}
        checked += 1
        if got != {best}:
            failures.append(
                f"instance {checked}: expected {best}, solver kept {sorted(got)}"
            )
    elapsed = time.perf_counter() - start
    _report(
        "lexicographic-limit",
        not failures and elapsed <= budget,
        failures[0] if failures else f"20 graphs in {elapsed:.2f}s (budget {budget:.0f}s)",
    )
