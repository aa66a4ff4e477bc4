"""Certificate-producing membership, double description, path enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from instancegen import int_vector, load_fixture, pointed_weights, random_graph
from ordcone.cone import (
    classify_weights,
    facet_matrix,
    mark_extreme_rays,
    spanning_rays,
)
from ordcone.exactnum import DimensionMismatch, dot, normalize_ray, vec
from ordcone.oracle import (
    MembershipCertificate,
    NonPointedInput,
    OracleError,
    double_description,
    enumerate_simple_paths,
    ray_membership,
    sampled_dual_check,
)
from ordcone.pathsolve import CategoryGraph, Edge, PathCapExceeded, UnknownNode

F = Fraction


def test_ray_membership_feasible_with_coefficients():
    rays = [vec([-1, 1]), vec([1, 0])]
    cert = ray_membership(rays, vec([1, 1]))
    assert cert.feasible
    assert cert.coefficients == (1, 2)
    assert cert.witness is None
    assert cert.verify(rays, vec([1, 1]))


def test_ray_membership_infeasible_with_witness():
    rays = [vec([-1, 1]), vec([1, 0])]
    target = vec([-1, -1])
    cert = ray_membership(rays, target)
    assert not cert.feasible
    assert cert.coefficients is None
    assert cert.witness is not None
    assert cert.verify(rays, target)


def test_ray_membership_edge_cases():
    assert ray_membership([], vec([0, 0])).feasible
    empty_miss = ray_membership([], vec([1, 0]))
    assert not empty_miss.feasible
    assert empty_miss.verify([], vec([1, 0]))
    # zero-length rays and target: feasible, with all-zero coefficients
    for rays in ([()], [(), ()], []):
        empty = ray_membership(rays, ())
        assert empty.feasible and empty.coefficients == (0,) * len(rays)
        assert empty.verify(rays, ())
    # zero target is always the empty combination
    zero = ray_membership([vec([1, 2])], vec([0, 0]))
    assert zero.feasible
    assert zero.verify([vec([1, 2])], vec([0, 0]))
    # every ray must have the target's length: longer, shorter and ragged
    for rays in ([vec([1, 0, 0])], [vec([1])], [vec([1, 0]), vec([1])]):
        with pytest.raises(DimensionMismatch):
            ray_membership(rays, vec([1, 0]))
        assert not MembershipCertificate(True, (F(1),) * len(rays), None).verify(
            rays, vec([1, 0])
        )
        assert not MembershipCertificate(False, None, vec([-1, 0])).verify(rays, vec([1, 0]))


def test_ray_membership_target_outside_span():
    rays = [vec([1, 0]), vec([2, 0])]
    target = vec([0, 1])
    cert = ray_membership(rays, target)
    assert not cert.feasible
    assert cert.verify(rays, target)


def test_ray_membership_accepts_vrep():
    w = classify_weights(3, ["1.2", "1"], ["0.5", "0"])
    rays = spanning_rays(w)
    cert = ray_membership(rays, vec([0, 1, 0]))
    assert cert.feasible
    assert cert.verify(rays.columns, vec([0, 1, 0]))


def test_certificate_rejects_tampering():
    rays = [vec([-1, 1]), vec([1, 0])]
    good = ray_membership(rays, vec([1, 1]))
    bad_count = MembershipCertificate(True, (F(1),), None)
    assert not bad_count.verify(rays, vec([1, 1]))
    negative = MembershipCertificate(True, (F(-1), F(0)), None)
    assert not negative.verify(rays, vec([1, 1]))
    off_target = MembershipCertificate(True, good.coefficients, None)
    assert not off_target.verify(rays, vec([1, 2]))
    fake_witness = MembershipCertificate(False, None, vec([1, 1]))
    assert not fake_witness.verify(rays, vec([1, 1]))
    missing_witness = MembershipCertificate(False, None, None)
    assert not missing_witness.verify(rays, vec([1, 1]))


def test_ray_membership_random_certificates_always_verify():
    rng = random.Random(13)
    feasible_seen = infeasible_seen = 0
    for _ in range(120):
        k = rng.randint(2, 5)
        rays = spanning_rays(pointed_weights(rng, k))
        target = tuple(F(rng.randint(-4, 4)) for _ in range(k))
        cert = ray_membership(rays, target)
        assert cert.verify(rays.columns, target)
        if cert.feasible:
            feasible_seen += 1
        else:
            infeasible_seen += 1
    assert feasible_seen and infeasible_seen

    # pointed cones with zero weights, K 1-7: the flag is the facet test
    values = [F(0)] * 4 + [F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5)]
    feasible_seen = infeasible_seen = 0
    for _ in range(150):
        k = rng.randint(1, 7)
        omega = [rng.choice(values) for _ in range(k - 1)]
        gamma = [
            ga if om * ga < 1 else F(0)
            for om, ga in zip(omega, (rng.choice(values) for _ in range(k - 1)))
        ]
        w = classify_weights(k, omega, gamma)
        rays = spanning_rays(w)
        target = tuple(F(rng.randint(-4, 4)) for _ in range(k))
        cert = ray_membership(rays, target)
        assert cert.feasible == all(dot(row, target) >= 0 for row in facet_matrix(w).rows)
        assert cert.verify(rays.columns, target)
        if cert.feasible:
            feasible_seen += 1
        else:
            infeasible_seen += 1
    assert feasible_seen > 10 and infeasible_seen > 10


def test_double_description_known_cones():
    ordinal = classify_weights(2, [1], [0])
    assert double_description(spanning_rays(ordinal)) == frozenset(
        {(F(1), F(1)), (F(0), F(1))}
    )
    pareto = classify_weights(3, [0, 0], [0, 0])
    assert double_description(spanning_rays(pareto)) == frozenset(
        {(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))}
    )


def test_double_description_matches_facets_random():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randint(2, 5)
        w = pointed_weights(rng, k)
        primary = frozenset(normalize_ray(row) for row in facet_matrix(w).rows)
        assert double_description(spanning_rays(w)) == primary


def test_double_description_rejects_bad_input():
    degenerate = classify_weights(2, [2], ["0.5"])
    with pytest.raises(NonPointedInput):
        double_description(spanning_rays(degenerate))
    with pytest.raises(OracleError):
        double_description([vec([1, 0]), vec([2, 0])])
    with pytest.raises(OracleError):
        double_description([])


def test_enumerate_simple_paths_fixture():
    graph = load_fixture("loop_detour.json")
    paths = enumerate_simple_paths(graph, "s", "t")
    assert paths == [(0, 1, 2, 3, 4, 5, 6, 7, 8), (9,)]
    assert enumerate_simple_paths(graph, "s", "s") == [()]
    with pytest.raises(PathCapExceeded):
        enumerate_simple_paths(graph, "s", "t", cap=1)
    with pytest.raises(UnknownNode):
        enumerate_simple_paths(graph, "s", "nowhere")


def test_enumerate_simple_paths_long_chain_and_order():
    # a chain far deeper than the interpreter's recursion limit
    names = [f"c{i:04d}" for i in range(3000)]
    chain = CategoryGraph(
        k=1,
        nodes=names,
        edges=[Edge(src=a, dst=b, category=1, length=F(1)) for a, b in zip(names, names[1:])],
    )
    assert enumerate_simple_paths(chain, names[0], names[-1]) == [tuple(range(2999))]

    # depth-first over sorted adjacency lists: paths come out ordered by
    # their sequence of adjacency keys
    rng = random.Random(41)
    for _ in range(40):
        graph, source, target = random_graph(rng, 2, max_nodes=7, max_edges=16)
        rank_in_list = {
            index: position
            for indices in graph.adjacency.values()
            for position, index in enumerate(indices)
        }
        paths = enumerate_simple_paths(graph, source, target)
        keys = [[rank_in_list[e] for e in path] for path in paths]
        assert keys == sorted(keys)


def test_mark_extreme_rays_agrees_with_ray_membership():
    # each marked column lies outside the cone of the other marked columns,
    # and each unmarked column lies inside the cone of the marked ones
    rng = random.Random(29)
    values = [F(0)] * 4 + [F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5)]
    for _ in range(160):
        k = rng.randint(1, 6)
        omega = [rng.choice(values) for _ in range(k - 1)]
        gamma = [
            ga if om * ga < 1 else F(0)
            for om, ga in zip(omega, (rng.choice(values) for _ in range(k - 1)))
        ]
        marked = mark_extreme_rays(spanning_rays(classify_weights(k, omega, gamma)))
        flags = marked.extreme_mask
        kept = [j for j, flag in enumerate(flags) if flag]
        for j, column in enumerate(marked.columns):
            others = [marked.columns[i] for i in kept if i != j]
            assert ray_membership(others, column).feasible is not flags[j]


def test_sampled_dual_check_examples():
    ordinal = classify_weights(2, [1], [0])
    assert not sampled_dual_check(ordinal, [0, 2], [1, 1])
    assert sampled_dual_check(ordinal, [0, 1], [1, 1])
    # rows (1, 2, 6), (1/4, 1, 3), (1/20, 1/5, 1): the difference (3, -1, 0)
    # is refuted by the second row alone, (4, -1, 0) passes every row
    w = classify_weights(3, [2, 3], ["0.25", "0.2"])
    assert not sampled_dual_check(w, [0, 1, 0], [3, 0, 0])
    assert sampled_dual_check(w, [0, 1, 0], [4, 0, 0])
    with pytest.raises(DimensionMismatch):
        sampled_dual_check(w, [0, 1], [4, 0, 0])


def test_sampled_dual_check_never_contradicts_facets():
    from ordcone.dominance import weakly_dominates

    rng = random.Random(23)
    for _ in range(60):
        k = rng.randint(2, 4)
        w = pointed_weights(rng, k)
        hrep = facet_matrix(w)
        y1 = int_vector(rng, k, hi=5)
        y2 = int_vector(rng, k, hi=5)
        if weakly_dominates(hrep, y1, y2):
            assert sampled_dual_check(w, y1, y2)
