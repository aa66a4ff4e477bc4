"""Exact arithmetic and small linear algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordcone.exactnum import (
    DimensionMismatch,
    ParseError,
    ZeroVector,
    dot,
    is_zero,
    mat,
    mat_vec,
    normalize_ray,
    nullspace,
    parse_decimal,
    rank,
    rational,
    scale,
    solve,
    transpose,
    vec,
    vec_add,
    vec_sub,
    zeros,
)


def test_parse_decimal_is_exact():
    assert parse_decimal("0.4") == Fraction(2, 5)
    assert parse_decimal("-1.25") == Fraction(-5, 4)
    assert parse_decimal("+2.50") == Fraction(5, 2)
    assert parse_decimal("17") == Fraction(17)
    assert parse_decimal(" 3.5 ") == Fraction(7, 2)
    # 0.4 has no finite binary expansion; the parse must not round-trip a float
    assert parse_decimal("0.4") != Fraction(0.4)


@pytest.mark.parametrize(
    "text",
    ["", "abc", "1/3", "1e3", "..", "0x1", "1.", ".5", "nan", "1 2", "--1"],
)
def test_parse_decimal_rejects_non_decimals(text):
    with pytest.raises(ParseError):
        parse_decimal(text)


def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational(Fraction(7, 2)) == Fraction(7, 2)
    assert rational("0.125") == Fraction(1, 8)
    with pytest.raises(ParseError):
        rational(0.5)  # floats are never accepted silently


def test_vec_and_mat_builders():
    assert vec(["0.5", 2, Fraction(1, 3)]) == (
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
    )
    assert mat([[1, 2], ["0.5", "0.25"]]) == (
        (Fraction(1), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 4)),
    )
    with pytest.raises(DimensionMismatch):
        mat([[1, 2], [3]])


def test_elementwise_ops_and_dimension_checks():
    u = vec([1, 2, 3])
    v = vec([4, 5, 6])
    assert dot(u, v) == 32
    assert vec_add(u, v) == (5, 7, 9)
    assert vec_sub(v, u) == (3, 3, 3)
    assert scale(Fraction(1, 2), v) == (2, Fraction(5, 2), 3)
    assert is_zero(zeros(4))
    assert not is_zero(vec([0, 1]))
    for op in (dot, vec_add, vec_sub):
        with pytest.raises(DimensionMismatch):
            op(u, vec([1, 2]))
    with pytest.raises(DimensionMismatch):
        mat_vec(mat([[1, 2]]), vec([1, 2, 3]))


def test_matrix_products_and_transpose():
    a = mat([[1, 2], [3, 4]])
    assert transpose(a) == ((1, 3), (2, 4))
    assert transpose(()) == ()
    assert mat_vec(a, vec([1, 1])) == (3, 7)


def test_normalize_ray_examples():
    assert normalize_ray(vec([0, 3, 6])) == (0, 1, 2)
    assert normalize_ray(vec([-2, 4])) == (-1, 2)
    assert normalize_ray(vec(["0.5"])) == (1,)
    with pytest.raises(ZeroVector):
        normalize_ray(zeros(3))


_small_fraction = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@given(
    st.lists(_small_fraction, min_size=1, max_size=5).filter(
        lambda values: any(x != 0 for x in values)
    ),
    st.fractions(
        min_value=Fraction(1, 6), max_value=Fraction(5), max_denominator=6
    ),
)
def test_normalize_ray_canonical(values, factor):
    v = tuple(values)
    canon = normalize_ray(v)
    # positive rescaling never changes the representative
    assert normalize_ray(scale(factor, v)) == canon
    # idempotent, first nonzero entry is +-1, signs preserved
    assert normalize_ray(canon) == canon
    first = next(x for x in canon if x != 0)
    assert abs(first) == 1
    assert all((a > 0) == (b > 0) and (a < 0) == (b < 0) for a, b in zip(v, canon))


def test_rank_nullspace_solve_small_cases():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    assert mat_vec(m, basis[0]) == zeros(3)
    assert solve(m, vec([6, 12, 2])) is not None
    assert solve(mat([[1, 1], [1, 1]]), vec([0, 1])) is None
    assert rank(()) == 0
    assert nullspace(()) == ()
    assert solve((), ()) == ()


def test_linear_algebra_random_consistency():
    rng = random.Random(7)
    for _ in range(40):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        m = mat(
            [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)]
        )
        basis = nullspace(m)
        for direction in basis:
            assert mat_vec(m, direction) == zeros(n_rows)
        assert rank(m) + len(basis) == n_cols
        x = vec([rng.randint(-3, 3) for _ in range(n_cols)])
        b = mat_vec(m, x)
        found = solve(m, b)
        assert found is not None
        assert mat_vec(m, found) == b
