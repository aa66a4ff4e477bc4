"""Weight classification, spanning rays, facet descriptions, merging."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from instancegen import degenerate_weights, int_vector, pointed_weights
from ordcone.cone import (
    ConeError,
    FormulaInapplicable,
    NegativeWeight,
    NothingToMerge,
    NotPointed,
    ProductExceedsOne,
    SpecialCaseMismatch,
    classify_weights,
    dual_contains,
    facet_count,
    facet_matrix,
    facet_normal,
    mark_extreme_rays,
    merge_degenerate,
    outcome_space,
    representation_matrix,
    spanning_rays,
    special_matrix,
)
from ordcone.dominance import weakly_dominates
from ordcone.exactnum import dot, mat_vec, normalize_ray, rank, vec
from ordcone.oracle import ray_membership, sampled_dual_check

F = Fraction


def _canonical_rows(rows):
    return frozenset(normalize_ray(row) for row in rows)


def test_classify_weights_pointed_and_degenerate():
    w = classify_weights(4, ["1.5", "0", "2"], ["0.2", "3", "0.5"])
    assert w.k == 4
    assert w.omega == (F(3, 2), F(0), F(2))
    assert w.gamma == (F(1, 5), F(3), F(1, 2))
    assert w.degenerate == (3,)
    assert not w.pointed
    assert w.classification == "degenerate"

    p = classify_weights(3, [1, 2], ["0.5", "0.25"])
    assert p.degenerate == ()
    assert p.pointed
    assert p.classification == "pointed"

    single = classify_weights(1, [], [])
    assert single.pointed


def test_classify_weights_rejects_inadmissible_input():
    with pytest.raises(NegativeWeight) as err:
        classify_weights(3, [1, -2], [0, 0])
    assert err.value.name == "omega"
    assert err.value.index == 2

    with pytest.raises(NegativeWeight) as err:
        classify_weights(2, [1], ["-0.5"])
    assert err.value.name == "gamma"
    assert err.value.index == 1

    with pytest.raises(ProductExceedsOne) as err:
        classify_weights(3, [2, 1], ["0.6", 0])
    assert err.value.index == 1

    with pytest.raises(ConeError):
        classify_weights(3, [1], [0, 0])
    with pytest.raises(ConeError):
        classify_weights(0, [], [])


def test_spanning_rays_layout():
    w = classify_weights(3, [2, "0.5"], ["0.25", 0])
    rays = spanning_rays(w)
    assert rays.labels == ("u1", "u2", "g1", "g2")
    assert rays.columns == (
        (F(-2), F(1), F(0)),
        (F(0), F(-1, 2), F(1)),
        (F(1), F(-1, 4), F(0)),
        (F(0), F(1), F(0)),
    )
    assert rays.extreme_mask is None
    # matrix property holds the rays as columns
    assert rays.matrix == (
        (F(-2), F(0), F(1), F(0)),
        (F(1), F(-1, 2), F(-1, 4), F(1)),
        (F(0), F(1), F(0), F(0)),
    )
    # K = 1 has no pairs; its cone is the half-line spanned by e1 = (1)
    single = spanning_rays(classify_weights(1, [], []))
    assert single.labels == ("e1",)
    assert single.columns == ((F(1),),)
    assert mark_extreme_rays(single).extreme_mask == (True,)


def test_mark_extreme_rays_all_positive_weights():
    w = classify_weights(3, [2, 3], ["0.25", "0.2"])
    marked = mark_extreme_rays(spanning_rays(w))
    assert marked.extreme_mask == (True, True, True, True)


def test_mark_extreme_rays_redundant_g_ray():
    # with gamma_2 = 0 the second g ray is e_2 = 2.5 u^1 + 3 g^1
    w = classify_weights(3, ["1.2", "1"], ["0.5", "0"])
    marked = mark_extreme_rays(spanning_rays(w))
    assert marked.extreme_mask == (True, True, True, False)
    cert = ray_membership([marked.columns[0], marked.columns[2]], marked.columns[3])
    assert cert.feasible
    assert cert.coefficients == (F(5, 2), F(3))
    assert cert.verify([marked.columns[0], marked.columns[2]], marked.columns[3])
    # with omega_1 = 0 the first u ray is e_2, and gamma_2 > 0 makes it
    # redundant: e_2 = g^2 + 0.5 u^2
    w = classify_weights(3, [0, 0], [0, "0.5"])
    assert mark_extreme_rays(spanning_rays(w)).extreme_mask == (False, True, True, True)


def test_mark_extreme_rays_duplicate_columns():
    # omega_1 = 0 and gamma_2 = 0 make u^1 and g^2 the same ray e_2
    w = classify_weights(3, [0, 1], ["0.5", 0])
    marked = mark_extreme_rays(spanning_rays(w))
    assert marked.columns[0] == marked.columns[3] == (F(0), F(1), F(0))
    assert marked.extreme_mask == (True, True, True, False)


def test_mark_extreme_rays_pareto():
    w = classify_weights(2, [0], [0])
    marked = mark_extreme_rays(spanning_rays(w))
    assert marked.extreme_mask == (True, True)
    # a degenerate pair puts a line in the cone, which has no extreme rays
    with pytest.raises(NotPointed):
        mark_extreme_rays(spanning_rays(classify_weights(2, [2], ["0.5"])))


def test_facet_normal_componentwise_product():
    w = classify_weights(
        5, [2, F(5, 2), 3, F(1, 2)], [F(1, 3), F(1, 5), F(1, 4), F(1, 7)]
    )
    normal = facet_normal(("g", "u", "g", "u"), w)
    g1, om2, g3, om4 = F(1, 3), F(5, 2), F(1, 4), F(1, 2)
    assert normal == (g1 * g3, g3, om2 * g3, om2, om2 * om4)
    with pytest.raises(ConeError):
        facet_normal(("g", "u"), w)
    with pytest.raises(ConeError):
        facet_normal(("g", "x", "g", "u"), w)

    # the definitional nested product, on seeded weights with zeros
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(1, 8)
        w = pointed_weights(rng, k)
        selection = tuple(rng.choice("ug") for _ in range(k - 1))
        expected = []
        for c in range(1, k + 1):
            product = F(1)
            for i in range(1, k):
                if selection[i - 1] == "u" and c > i:
                    product *= w.omega[i - 1]
                elif selection[i - 1] == "g" and c <= i:
                    product *= w.gamma[i - 1]
            expected.append(product)
        assert facet_normal(selection, w) == tuple(expected)


def test_facet_matrix_standard_ordinal():
    w = classify_weights(3, [1, 1], [0, 0])
    h = facet_matrix(w)
    assert h.rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert h.selections == (("u", "u"), ("g", "u"), ("u", "g"))
    assert h.matrix_rank == 3
    assert h.pointed


def test_facet_matrix_enumeration_order_all_positive():
    w = classify_weights(3, [2, 3], ["0.25", "0.2"])
    h = facet_matrix(w)
    assert h.selections == (
        ("u", "u"),
        ("g", "u"),
        ("u", "g"),
        ("g", "g"),
    )
    assert len(h.rows) == 4


def test_facet_matrix_drops_zero_rows_and_duplicates():
    w = classify_weights(3, [0, 3], ["0.5", 0])
    h = facet_matrix(w)
    assert h.rows == ((1, 0, 0), (F(1, 2), 1, 3), (0, 0, 1))
    assert h.selections == (("u", "u"), ("g", "u"), ("g", "g"))
    assert h.pointed


def test_facet_matrix_single_category():
    w = classify_weights(1, [], [])
    h = facet_matrix(w)
    assert h.rows == ((F(1),),)
    assert h.pointed


def test_facet_matrix_requires_pointed():
    w = classify_weights(2, [2], ["0.5"])
    with pytest.raises(NotPointed):
        facet_matrix(w)


def test_facet_count_closed_form():
    all_pos = classify_weights(4, [1, 2, 3], ["0.5", "0.25", "0.125"])
    assert facet_count(all_pos) == 8

    # zeros at pair indices 1 and 3: 2^2 + 2^2 + 2^1 = 10
    mixed = classify_weights(5, [1, 2, 1, 2], [0, "0.25", 0, "0.125"])
    assert facet_count(mixed) == 10
    assert len(facet_matrix(mixed).rows) == 10

    all_zero = classify_weights(4, [1, 2, 3], [0, 0, 0])
    assert facet_count(all_zero) == 4

    with pytest.raises(FormulaInapplicable):
        facet_count(classify_weights(3, [0, 1], [1, 0]))
    with pytest.raises(NotPointed):
        facet_count(classify_weights(2, [2], ["0.5"]))


def test_facet_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(2, 6)
        w = pointed_weights(rng, k, positive=True)
        if rng.random() < 0.5:
            # knock out a random subset of gamma entries
            gamma = list(w.gamma)
            for i in range(k - 1):
                if rng.random() < 0.4:
                    gamma[i] = F(0)
            w = classify_weights(k, w.omega, gamma)
        assert facet_count(w) == len(facet_matrix(w).rows)
    # the facet normals of a pointed cone span R^K, which is why facet_matrix
    # sets matrix_rank to K without an elimination
    rng = random.Random(8)
    for _ in range(60):
        k = rng.randint(1, 8)
        w = pointed_weights(rng, k)
        w = classify_weights(
            k,
            [F(0) if rng.random() < 0.4 else om for om in w.omega],
            [F(0) if rng.random() < 0.4 else ga for ga in w.gamma],
        )
        h = facet_matrix(w)
        assert h.matrix_rank == rank(h.rows) == k


def test_facet_normals_orthogonal_to_selected_rays():
    rng = random.Random(21)
    for _ in range(40):
        k = rng.randint(2, 6)
        w = pointed_weights(rng, k)
        rays = spanning_rays(w)
        h = facet_matrix(w)
        u_cols = rays.columns[: k - 1]
        g_cols = rays.columns[k - 1 :]
        for row, selection in zip(h.rows, h.selections):
            for i, choice in enumerate(selection):
                chosen = u_cols[i] if choice == "u" else g_cols[i]
                assert dot(row, chosen) == 0
            for col in rays.columns:
                assert dot(row, col) >= 0
            assert dual_contains(w, row)


def test_representation_matrix_values():
    w = classify_weights(2, [2], ["0.25"])
    assert representation_matrix(w) == ((1, 2), (F(1, 4), 1))

    w3 = classify_weights(3, [2, 3], ["0.5", "0.2"])
    assert representation_matrix(w3) == (
        (1, 2, 6),
        (F(1, 2), 1, 3),
        (F(1, 10), F(1, 5), 1),
    )

    # the definitional nested products, on seeded weights with zeros
    rng = random.Random(19)
    for _ in range(200):
        k = rng.randint(1, 8)
        w = pointed_weights(rng, k) if k == 1 or rng.random() < 0.7 else degenerate_weights(rng, k)
        expected = []
        for i in range(1, k + 1):
            row = []
            for j in range(1, k + 1):
                product = F(1)
                for ell in range(i, j):
                    product *= w.omega[ell - 1]
                for ell in range(j, i):
                    product *= w.gamma[ell - 1]
                row.append(product)
            expected.append(tuple(row))
        assert representation_matrix(w) == tuple(expected)


def test_representation_matrix_rank_and_dual_membership():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(2, 5)
        w = pointed_weights(rng, k)
        m = representation_matrix(w)
        assert rank(m) == k
        for row in m:
            assert dual_contains(w, row)
    degenerate = classify_weights(2, [2], ["0.5"])
    assert rank(representation_matrix(degenerate)) == 1


def test_dual_contains_examples():
    w = classify_weights(3, [1, 1], [0, 0])
    assert dual_contains(w, [1, 2, 4])
    assert dual_contains(w, [1, 1, 1])
    assert not dual_contains(w, [2, 1, 1])
    assert not dual_contains(w, [-1, 0, 0])
    with pytest.raises(ConeError):
        dual_contains(w, [1, 2])


def test_special_matrix_families():
    pareto = classify_weights(3, [0, 0], [0, 0])
    assert special_matrix("pareto", pareto) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    ordinal = classify_weights(3, [1, 1], [0, 0])
    assert special_matrix("standard_ordinal", ordinal) == (
        (1, 1, 1),
        (0, 1, 1),
        (0, 0, 1),
    )

    gz = classify_weights(3, [2, 3], [0, 0])
    assert special_matrix("gamma_zero", gz) == ((1, 2, 6), (0, 1, 3), (0, 0, 1))

    oz = classify_weights(3, [0, 0], ["0.5", "0.25"])
    assert special_matrix("omega_zero", oz) == (
        (1, 0, 0),
        (F(1, 2), 1, 0),
        (F(1, 8), F(1, 4), 1),
    )

    two = classify_weights(2, [3], ["0.25"])
    assert special_matrix("k2", two) == ((1, 3), (F(1, 4), 1))

    ws = classify_weights(3, [2, 4], ["0.5", "0.25"])
    assert special_matrix("weighted_sum", ws) == ((1, 2, 8),)


def test_special_matrix_rejects_wrong_family():
    w = classify_weights(3, [2, 3], ["0.1", "0.2"])
    for kind in ("pareto", "standard_ordinal", "gamma_zero", "omega_zero", "weighted_sum"):
        with pytest.raises(SpecialCaseMismatch):
            special_matrix(kind, w)
    with pytest.raises(SpecialCaseMismatch):
        special_matrix("k2", classify_weights(3, [1, 1], [0, 0]))
    with pytest.raises(SpecialCaseMismatch):
        special_matrix("nope", w)


def test_special_matrices_match_facets_canonically():
    rng = random.Random(29)
    for _ in range(10):
        k = rng.randint(2, 5)
        omega = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(k - 1)]
        gz = classify_weights(k, omega, [0] * (k - 1))
        assert _canonical_rows(special_matrix("gamma_zero", gz)) == _canonical_rows(
            facet_matrix(gz).rows
        )
        gamma = [F(rng.randint(0, 3), 4) for _ in range(k - 1)]
        oz = classify_weights(k, [0] * (k - 1), gamma)
        assert _canonical_rows(special_matrix("omega_zero", oz)) == _canonical_rows(
            facet_matrix(oz).rows
        )


def test_merge_degenerate_two_categories():
    w = classify_weights(2, [2], ["0.5"])
    merged, lift = merge_degenerate(w)
    assert merged.k == 1
    assert merged.omega == ()
    assert merged.pointed
    assert lift == ((1, 2),)


def test_merge_degenerate_three_categories():
    w = classify_weights(3, [2, 3], ["0.5", 0])
    merged, lift = merge_degenerate(w)
    assert merged.k == 2
    assert merged.omega == (6,)
    assert merged.gamma == (0,)
    assert lift == ((1, 2, 0), (0, 0, 1))

    merged, lift = merge_degenerate(classify_weights(3, [2, 3], ["0.5", "0.25"]))
    assert merged.k == 2
    assert merged.omega == (6,)
    assert merged.gamma == (F(1, 8),)
    assert lift == ((1, 2, 0), (0, 0, 1))

    # two separate runs: categories 1-2 and 3-5
    merged, lift = merge_degenerate(
        classify_weights(5, [2, 1, 1, 4], ["0.5", "0.5", 1, "0.25"])
    )
    assert merged.k == 2
    assert merged.omega == (2,)
    assert merged.gamma == (F(1, 4),)
    assert lift == ((1, 2, 0, 0, 0), (0, 0, 1, 1, 4))


def test_merge_degenerate_cascade_to_single_category():
    w = classify_weights(3, [2, 2], ["0.5", "0.5"])
    merged, lift = merge_degenerate(w)
    assert merged.k == 1
    assert lift == ((1, 2, 4),)


def test_merge_degenerate_requires_degenerate_pair():
    with pytest.raises(NothingToMerge):
        merge_degenerate(classify_weights(2, [2], ["0.25"]))


def test_outcome_space_merges_or_rejects():
    pointed = classify_weights(2, [2], ["0.25"])
    space = outcome_space(pointed, strict=True)
    assert space.active is pointed and not space.merged
    assert space.map_vector((F(1), F(3))) == (F(1), F(3))

    degenerate = classify_weights(3, [2, 3], ["0.5", 0])
    space = outcome_space(degenerate, strict=False)
    assert space.merged and space.original is degenerate
    assert (space.active, space.lift) == merge_degenerate(degenerate)
    assert space.map_vector((F(1), F(1), F(2))) == (F(3), F(2))
    with pytest.raises(NotPointed) as err:
        outcome_space(degenerate, strict=True)
    assert "pointed" in str(err.value) and "strict" in str(err.value)


def test_merge_preserves_dominance_exactly():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 8)
        w = degenerate_weights(rng, k)
        merged, lift = merge_degenerate(w)
        assert merged.pointed
        h = facet_matrix(merged)
        lifted_rows = [
            tuple(
                sum((row[r] * lift[r][c] for r in range(merged.k)), F(0))
                for c in range(k)
            )
            for row in h.rows
        ]
        # every lifted facet normal is a consistent original-space disutility
        for lifted in lifted_rows:
            assert dual_contains(w, lifted)
        y1 = int_vector(rng, k)
        y2 = int_vector(rng, k)
        a1 = mat_vec(lift, y1)
        a2 = mat_vec(lift, y2)
        if weakly_dominates(h, a1, a2):
            assert sampled_dual_check(w, y1, y2)
        else:
            diff = vec(x2 - x1 for x1, x2 in zip(y1, y2))
            assert any(dot(lifted, diff) < 0 for lifted in lifted_rows)
