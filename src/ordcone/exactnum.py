"""Exact rational scalars, vectors, and matrices.

Every geometric decision in this package is tie-sensitive: facet identity,
extremality of a ray, and dominance between outcome vectors all hinge on
inner products that must be exactly zero, not merely small.  Floating point
would silently merge or split faces, so every routine below is exact, and
every value a public routine takes or returns is a ``fractions.Fraction``
(except ``int_row``, which hands out the scaled ints).

Inside the elimination kernels the values are Python ``int``s instead:
``int_row`` multiplies a row by the LCM of its denominators, and the
Gauss-Jordan pass keeps each row divided by the gcd of its entries, so a
multiply-add is one int operation rather than a gcd and a new Fraction, and
entries stay small.  Scaling a row, a ray or an inequality by a positive
number keeps the sign of every entry and every inner product, every ratio
between entries, the ray it names and the sense of the inequality, so the
integer kernels decide exactly what the Fraction ones would.

Vectors are plain tuples of fractions; matrices are tuples of row vectors.
Tuples keep the values hashable, which the cone code relies on for
deduplicating canonical ray representatives.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_DECIMAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


class ExactnumError(ValueError):
    """Base class for errors raised by this module."""


class ParseError(ExactnumError):
    """Text does not denote a plain decimal number."""


class DimensionMismatch(ExactnumError):
    """Operands do not have compatible dimensions."""


class ZeroVector(ExactnumError):
    """The zero vector cannot represent a ray."""


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal literal such as "0.4" or "-1.25" into an exact fraction.

    Only plain decimals are accepted (optional sign, digits, optional
    fractional part).  The result is exact: parse_decimal("0.4") == 2/5,
    never a binary approximation.
    """
    stripped = text.strip()
    if not _DECIMAL.fullmatch(stripped):
        raise ParseError(f"not a decimal number: {text!r}")
    return Fraction(stripped)


def rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, Fraction, or decimal string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_decimal(value)
    raise ParseError(f"cannot interpret {value!r} as an exact rational")


def vec(values: Iterable[Fraction | int | str]) -> Vec:
    """Build an exact vector from rationals, ints, or decimal strings."""
    return tuple(rational(v) for v in values)


def mat(rows: Iterable[Iterable[Fraction | int | str]]) -> Mat:
    """Build an exact matrix, checking that all rows have equal length."""
    built = tuple(vec(row) for row in rows)
    if built and any(len(row) != len(built[0]) for row in built):
        raise DimensionMismatch("matrix rows have unequal lengths")
    return built


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def is_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"add of lengths {len(u)} and {len(v)}")
    return tuple(map(add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"sub of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def scale(c: Fraction | int, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def mat_vec(m: Mat, v: Vec) -> Vec:
    """Matrix-vector product, exact."""
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"matrix is {len(m)}x{len(m[0])}, vector has {len(v)}")
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def normalize_ray(v: Vec) -> Vec:
    """Scale a ray by a positive rational so its first nonzero entry is +-1.

    The sign of every entry is preserved, so two rays are positive multiples
    of one another exactly when their normal forms are equal.  Raises
    ZeroVector for the zero vector, which names no ray.
    """
    for x in v:
        if x != 0:
            return tuple(entry / abs(x) for entry in v)
    raise ZeroVector("zero vector has no ray representative")


def int_row(values: Iterable[Fraction | int]) -> tuple[int, ...]:
    """The values times the LCM of their denominators, as ints.

    The scale is positive, so signs, ratios, the ray a vector names and the
    sense of an inequality row are all unchanged.
    """
    values = tuple(values)
    common = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (common // x.denominator) for x in values)


def _echelon(rows: list[list[int]], cols: int) -> list[int]:
    """Integer Gauss-Jordan over the first `cols` columns, in place; return pivot cols.

    Pivots are chosen as in the textbook Fraction elimination, but a row is
    cleared by cross-multiplying with the pivot row instead of dividing, and
    every updated row is divided by the gcd of its entries.  Each row stays
    a nonzero multiple of its Fraction counterpart, so pivot row r divided
    by its pivot entry is row r of the reduced row echelon form, which is
    unique.  Any trailing columns ride along, which is how augmented systems
    are solved.  Raises DimensionMismatch for ragged rows.
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch("matrix rows have unequal lengths")
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        for i in range(len(rows)):
            a = rows[i][c]
            if i != r and a != 0:
                row = [p * x - a * y for x, y in zip(rows[i], pivot)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m: Mat) -> int:
    if not m:
        return 0
    rows = [list(int_row(row)) for row in m]
    return len(_echelon(rows, len(m[0])))


def solve_affine(m: Mat, b: Vec) -> tuple[Vec | None, tuple[Vec, ...]]:
    """All solutions of m @ x = b from one elimination of [m | b].

    Returns one exact solution (None when the system is inconsistent) and a
    basis of the right nullspace of m (() when m has full column rank).
    """
    if len(m) != len(b):
        raise DimensionMismatch("right-hand side does not match row count")
    if not m:
        return (), ()
    n = len(m[0])
    rows = [list(int_row((*row, rhs))) for row, rhs in zip(m, b)]
    pivots = _echelon(rows, n)
    particular = None
    if all(rows[r][n] == 0 for r in range(len(pivots), len(rows))):
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = Fraction(rows[r][n], rows[r][c])
        particular = tuple(x)
    basis: list[Vec] = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-rows[r][f], rows[r][c])
        basis.append(tuple(v))
    return particular, tuple(basis)


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of the right nullspace of m, () when m has full column rank."""
    return solve_affine(m, zeros(len(m)))[1]


def solve(m: Mat, b: Vec) -> Vec | None:
    """One exact solution of m @ x = b, or None when the system is inconsistent."""
    return solve_affine(m, b)[0]
