"""Independent cross-checks for the cone, dominance, and routing layers.

Each oracle here reaches a result by a different route than the primary
implementation it guards:

* ray_membership decides "is v a nonnegative combination of these rays?" by
  Fourier-Motzkin elimination and returns a checkable certificate either
  way: combination coefficients when feasible, and otherwise a separating
  vector that scores every ray nonnegatively but v negatively.
* double_description enumerates facet normals incrementally from the
  spanning rays, never consulting the closed-form facet products.
* enumerate_simple_paths lists every simple path by exhaustive search, so
  the label-setting solver can be compared against filter-after-enumerate.
* sampled_dual_check probes weak dominance with the rows of the
  representation matrix, each an explicit consistent disutility vector; a
  False refutes dominance outright, a True is only supporting evidence.

The public functions take and return Fraction vectors.  Inside, the
elimination works on Python ints: Fourier-Motzkin rows, double-description constraints
and generators, and the dual-check rows are scaled by positive integers
(see exactnum.int_row), which keeps every sign and every ray, so the
answers are those of the same algorithms run on Fractions.  Certificates are
verified by Fraction substitution, so a bug in the elimination itself cannot
silently report the wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from ordcone.cone import ConeVRep, Weights, representation_matrix
from ordcone.exactnum import (
    DimensionMismatch,
    Mat,
    Vec,
    dot,
    int_row,
    is_zero,
    normalize_ray,
    nullspace,
    rank,
    scale,
    solve,
    solve_affine,
    transpose,
    vec,
    vec_sub,
    zeros,
)
from ordcone.pathsolve import CategoryGraph, Path, PathCapExceeded, UnknownNode


class OracleError(ValueError):
    """Base class for oracle failures."""


class NonPointedInput(OracleError):
    """The generators contain an opposite pair, so the cone has a line."""


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a ray-membership query, checkable by substitution.

    Exactly one of `coefficients` (feasible case: nonnegative lambda with
    sum lambda_j * ray_j = target) and `witness` (infeasible case: n with
    n . ray_j >= 0 for all j but n . target < 0) is set.
    """

    feasible: bool
    coefficients: Vec | None
    witness: Vec | None

    def verify(self, columns: Sequence[Vec], target: Vec) -> bool:
        """Re-check the certificate against the original data.

        A column whose length differs from the target's fails the check.
        """
        if any(len(col) != len(target) for col in columns):
            return False
        if self.feasible:
            if self.coefficients is None or len(self.coefficients) != len(columns):
                return False
            if any(c < 0 for c in self.coefficients):
                return False
            total = tuple(
                sum((c * col[i] for c, col in zip(self.coefficients, columns)), Fraction(0))
                for i in range(len(target))
            )
            return total == tuple(target)
        if self.witness is None:
            return False
        if any(dot(self.witness, col) < 0 for col in columns):
            return False
        return dot(self.witness, target) < 0


_IntVec = tuple[int, ...]  # a row or ray scaled to ints by a positive factor


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _primitive(values: Sequence[int]) -> _IntVec:
    """The int vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*values)
    return tuple(x // g for x in values) if g > 1 else tuple(values)


def _prune_rows(rows: list[_IntVec], free: int) -> list[_IntVec]:
    """Drop inequality rows whose coefficients repeat an earlier row's direction.

    A row is (coefficients over the `free` variables, rhs, provenance).  Of
    the rows sharing a primitive coefficient direction d, with coefficients
    s * d, the one with the smallest bound rhs / s is kept, compared by
    cross-multiplying; an all-zero direction compares its raw rhs.
    """
    best: dict[_IntVec, tuple[_IntVec, int]] = {}
    for row in rows:
        coeffs = row[:free]
        size = gcd(*coeffs) or 1
        key = tuple(c // size for c in coeffs)
        kept = best.get(key)
        if kept is None or row[free] * kept[1] < kept[0][free] * size:
            best[key] = (row, size)
    return [row for row, _ in best.values()]


def ray_membership(rays: ConeVRep | Sequence[Vec], target: Sequence) -> MembershipCertificate:
    """Decide whether target lies in the cone spanned by the given rays.

    The linear part of the system is removed first by one exact elimination
    of [rays | target], which gives both a particular solution and the
    kernel; Fourier-Motzkin then runs on the nonnegativity constraints over
    the remaining free parameters, carrying multipliers so an infeasible run
    yields a separating witness (the multipliers combine the constraints
    into an inequality no nonnegative lambda can satisfy, and solving back
    through the equalities turns them into the witness vector).  The
    Fourier-Motzkin rows are int tuples, each divided by the gcd of its
    entries; back-substitution divides by the coefficients in Fractions, so
    every bound is independent of the row scale.  Raises DimensionMismatch
    when a ray's length differs from the target's.
    """
    columns = tuple(rays.columns) if isinstance(rays, ConeVRep) else tuple(vec(c) for c in rays)
    goal = vec(target)
    if any(len(col) != len(goal) for col in columns):
        raise DimensionMismatch(f"every ray must have the target's length {len(goal)}")
    m = len(columns)
    if not goal:
        # every ray is the empty vector, so any coefficients sum to the target
        return MembershipCertificate(feasible=True, coefficients=zeros(m), witness=None)
    if m == 0:
        if is_zero(goal):
            return MembershipCertificate(feasible=True, coefficients=(), witness=None)
        return MembershipCertificate(
            feasible=False, coefficients=None, witness=scale(Fraction(-1), goal)
        )
    matrix: Mat = tuple(tuple(col[i] for col in columns) for i in range(len(goal)))
    particular, kernel = solve_affine(matrix, goal)
    if particular is None:
        # target is not even in the linear span: any left-null direction that
        # scores the target separates it (it scores every ray exactly zero).
        for candidate in nullspace(transpose(matrix)):
            value = dot(candidate, goal)
            if value != 0:
                witness = candidate if value < 0 else scale(Fraction(-1), candidate)
                return MembershipCertificate(feasible=False, coefficients=None, witness=witness)
        raise OracleError("inconsistent system produced no separating direction")
    free = len(kernel)
    rows: list[_IntVec] = []
    for j in range(m):
        provenance = (int(jj == j) for jj in range(m))
        rows.append(int_row((*(-basis[j] for basis in kernel), particular[j], *provenance)))
    stages: list[list[_IntVec]] = []
    for var in range(free):
        stages.append(rows)
        merged = [row for row in rows if row[var] == 0]
        positive = [row for row in rows if row[var] > 0]
        negative = [row for row in rows if row[var] < 0]
        for p in positive:
            wp = p[var]
            for n in negative:
                wn = -n[var]
                merged.append(_primitive([wp * x + wn * y for x, y in zip(n, p)]))
        rows = _prune_rows(merged, free)
    infeasible = next((row[free + 1 :] for row in rows if row[free] < 0), None)
    if infeasible is not None:
        # provenance s >= 0 satisfies: s . lambda is the constant rhs < 0 on
        # the solution space of the equalities, hence s lies in the row space
        # of the ray matrix and pulls back to the separating witness.
        witness = solve(columns, vec(infeasible))
        if witness is None:
            raise OracleError("witness recovery failed; multipliers left the row space")
        if dot(witness, goal) >= 0 or any(dot(witness, col) < 0 for col in columns):
            raise OracleError("recovered witness failed substitution")
        return MembershipCertificate(feasible=False, coefficients=None, witness=witness)
    assignment = [Fraction(0)] * free
    for var in range(free - 1, -1, -1):
        lower = None
        upper = None
        for row in stages[var]:
            c = row[var]
            if c == 0:
                continue
            rest = row[free] - sum(
                (row[j] * assignment[j] for j in range(var + 1, free)), Fraction(0)
            )
            bound = rest / c
            if c > 0:
                upper = bound if upper is None else min(upper, bound)
            else:
                lower = bound if lower is None else max(lower, bound)
        if lower is not None:
            assignment[var] = lower
        elif upper is not None:
            assignment[var] = min(Fraction(0), upper)
    coefficients = list(particular)
    for var, t in enumerate(assignment):
        if t != 0:
            coefficients = [
                c + t * basis_j for c, basis_j in zip(coefficients, kernel[var])
            ]
    certificate = MembershipCertificate(
        feasible=True, coefficients=tuple(coefficients), witness=None
    )
    if not certificate.verify(columns, goal):
        raise OracleError("feasible certificate failed substitution")
    return certificate


def double_description(rays: ConeVRep | Sequence[Vec]) -> frozenset[Vec]:
    """Facet normals of the cone spanned by the rays, by double description.

    The dual cone is built one ray constraint at a time in stored column
    order, shrinking an explicit lineality basis until the dual is pointed;
    its extreme rays (recognized by the rank of their active constraint
    sets) are exactly the facet normals, returned in canonical ray form.
    Constraints, lineality vectors and generators are primitive int tuples:
    every update is a positive integer combination, so no ray or sign
    changes.  Inputs containing an opposite ray pair span a line and are
    rejected, as are inputs that do not span the full space (their facet
    normals would not be unique).
    """
    columns = tuple(rays.columns) if isinstance(rays, ConeVRep) else tuple(vec(c) for c in rays)
    if not columns:
        raise OracleError("no rays given")
    dim = len(columns[0])
    # normalize_ray rejects a zero column
    constraints = [_primitive(int_row(normalize_ray(col))) for col in columns]
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            if constraints[i] == tuple(-x for x in constraints[j]):
                raise NonPointedInput(
                    f"columns {i} and {j} are opposite rays; the cone contains a line"
                )
    if rank(columns) < dim:
        raise OracleError("rays do not span the space; facet normals are not unique")

    lineality: list[_IntVec] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    generators: list[_IntVec] = []
    processed: list[_IntVec] = []

    for constraint in constraints:
        off_line = [w for w in lineality if _idot(constraint, w) != 0]
        if off_line:
            pivot = off_line[0]
            value = _idot(constraint, pivot)
            if value < 0:
                pivot = tuple(-x for x in pivot)
                value = -value
            new_lineality: list[_IntVec] = []
            for w in lineality:
                if w is off_line[0]:
                    continue
                adjusted = _shift(w, pivot, _idot(constraint, w), value)
                if any(adjusted):
                    new_lineality.append(adjusted)
            adjusted_generators = [pivot]
            for g in generators:
                adjusted_generators.append(_shift(g, pivot, _idot(constraint, g), value))
            lineality = new_lineality
            generators = adjusted_generators
        else:
            scores = [_idot(constraint, g) for g in generators]
            kept = [g for g, s in zip(generators, scores) if s >= 0]
            positive = [(g, s) for g, s in zip(generators, scores) if s > 0]
            negative = [(g, s) for g, s in zip(generators, scores) if s < 0]
            for p, sp in positive:
                for n, sn in negative:
                    kept.append(_primitive([sp * x - sn * y for x, y in zip(n, p)]))
            generators = kept
        processed.append(constraint)
        generators = _extreme_only(generators, processed, dim, len(lineality))

    if lineality:
        raise OracleError("constraints left a lineality space; cone was not full-dimensional")
    return frozenset(normalize_ray(vec(g)) for g in generators)


def _shift(w: _IntVec, pivot: _IntVec, score: int, value: int) -> _IntVec:
    """Move w along the pivot onto the constraint's hyperplane, as a primitive vector.

    `score` and `value` are the constraint's products with w and the pivot,
    value > 0, so value * w - score * pivot is a positive multiple of the
    Fraction update w - (score / value) * pivot.
    """
    return _primitive([value * x - score * y for x, y in zip(w, pivot)])


def _extreme_only(
    generators: list[_IntVec], processed: list[_IntVec], dim: int, lineality_dim: int
) -> list[_IntVec]:
    """Keep one representative per extreme ray of the current dual cone.

    Generators are primitive, so two name the same ray exactly when they
    are equal.
    """
    survivors = [g for g in dict.fromkeys(generators) if any(g)]
    needed = dim - 1 - lineality_dim
    kept: list[_IntVec] = []
    for g in survivors:
        active = tuple(a for a in processed if _idot(a, g) == 0)
        if len(active) == len(processed):
            # orthogonal to every constraint so far: absorbed by lineality
            continue
        if rank(active) >= needed:
            kept.append(g)
    return kept


def enumerate_simple_paths(
    graph: CategoryGraph, source: str, target: str, cap: int = 100_000
) -> list[Path]:
    """Every simple source-target path, by exhaustive depth-first search.

    Neighbors are explored in node-id-sorted order, so the output order is
    deterministic.  The search keeps an explicit stack of adjacency
    iterators, one per node on the current trail, so path length is not
    bounded by Python's recursion limit.  source == target yields only the
    empty path.  Raises PathCapExceeded when more than `cap` paths exist.
    """
    if source not in graph.adjacency:
        raise UnknownNode(source)
    if target not in graph.adjacency:
        raise UnknownNode(target)
    if source == target:
        return [()]
    found: list[Path] = []
    trail: list[int] = []  # edge indices; trail[i] leaves the node of stack[i]
    visited = {source}
    stack = [iter(graph.adjacency[source])]
    while stack:
        edge_index = next(stack[-1], None)
        if edge_index is None:
            stack.pop()
            if trail:
                visited.remove(graph.edges[trail.pop()].dst)
            continue
        edge = graph.edges[edge_index]
        if edge.dst in visited:
            continue
        if edge.dst == target:
            found.append((*trail, edge_index))
            if len(found) > cap:
                raise PathCapExceeded(
                    f"more than {cap} simple paths between {source!r} and {target!r}"
                )
        else:
            trail.append(edge_index)
            visited.add(edge.dst)
            stack.append(iter(graph.adjacency[edge.dst]))
    return found


def sampled_dual_check(weights: Weights, y1: Sequence, y2: Sequence) -> bool:
    """Spot-check weak dominance of y1 over y2 with consistent disutilities.

    Scores y2 - y1 under every row of the representation matrix, each of
    which is a consistent disutility vector.  A False return refutes weak
    dominance; a True return is evidence, not proof.  Nonnegative mixes of
    the rows would add nothing: a mix of rows that all score the difference
    nonnegatively scores it nonnegatively too.
    """
    k = weights.k
    a = vec(y1)
    b = vec(y2)
    if len(a) != k or len(b) != k:
        raise DimensionMismatch(f"expected {k} components, got {len(a)} and {len(b)}")
    difference = int_row(vec_sub(b, a))
    return all(_idot(int_row(row), difference) >= 0 for row in representation_matrix(weights))
