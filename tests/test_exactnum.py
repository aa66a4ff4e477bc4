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
    # ragged matrices, with the short row last or first
    for ragged in (((1, 2), (1,)), ((1,), (1, 2))):
        with pytest.raises(DimensionMismatch):
            rank(ragged)
        with pytest.raises(DimensionMismatch):
            nullspace(ragged)
        with pytest.raises(DimensionMismatch):
            solve(ragged, vec([1, 1]))


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


def _reference_solutions(m, b):
    """Rank, nullspace basis and one solution (or None) of m @ x = b.

    A textbook Fraction Gauss-Jordan elimination of [m | b]: each pivot row
    is divided by its pivot, and the pivot column is cleared in every other
    row.  It is the reference for the integer kernel behind rank, nullspace
    and solve.
    """
    n = len(m[0])
    rows = [[*row, rhs] for row, rhs in zip(m, b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -rows[r][f]
            basis.append(tuple(v))
    solution = None
    if all(rows[r][n] == 0 for r in range(len(pivots), len(rows))):
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][n]
        solution = tuple(x)
    return len(pivots), tuple(basis), solution


def test_linear_algebra_matches_fraction_reference():
    rng = random.Random(18)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 6, 7]))

    inconsistent = rank_deficient = 0
    for _ in range(1200):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.3:
            rows[rng.randrange(n_rows)] = [Fraction(0)] * n_cols
        if n_rows > 1 and rng.random() < 0.3:
            factor = rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
            rows[rng.randrange(1, n_rows)] = [factor * x for x in rows[0]]
        m = mat(rows)
        b = vec([entry() for _ in range(n_rows)])
        expected_rank, expected_basis, expected_solution = _reference_solutions(m, b)
        assert rank(m) == expected_rank
        assert nullspace(m) == expected_basis
        assert solve(m, b) == expected_solution
        inconsistent += expected_solution is None
        rank_deficient += expected_rank < min(n_rows, n_cols)
    assert inconsistent > 100 and rank_deficient > 100
