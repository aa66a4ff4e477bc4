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
* sampled_dual_check probes weak dominance with explicit consistent
  disutility vectors; a False refutes dominance outright, a True is only
  supporting evidence.

Certificates are verified by substitution, so a bug in the elimination
itself cannot silently report the wrong answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ordcone.cone import ConeVRep, Weights, representation_matrix
from ordcone.exactnum import (
    Mat,
    Vec,
    dot,
    is_zero,
    normalize_ray,
    nullspace,
    rank,
    scale,
    solve,
    transpose,
    vec,
    vec_sub,
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
        """Re-check the certificate against the original data."""
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


_Row = tuple[Vec, Fraction, Vec]  # coefficients over free vars, rhs, provenance


def _prune_rows(rows: list[_Row]) -> list[_Row]:
    """Drop inequality rows whose coefficients repeat an earlier row's direction."""
    best: dict[Vec, tuple[Fraction, Vec]] = {}
    order: list[Vec] = []
    for coeffs, rhs, provenance in rows:
        factor = None
        for c in coeffs:
            if c != 0:
                factor = abs(c)
                break
        if factor is None:
            key = coeffs
        else:
            key = tuple(c / factor for c in coeffs)
            rhs = rhs / factor
            provenance = tuple(p / factor for p in provenance)
        if key not in best:
            best[key] = (rhs, provenance)
            order.append(key)
        elif rhs < best[key][0]:
            best[key] = (rhs, provenance)
    return [(key, best[key][0], best[key][1]) for key in order]


def ray_membership(rays: ConeVRep | Sequence[Vec], target: Sequence) -> MembershipCertificate:
    """Decide whether target lies in the cone spanned by the given rays.

    The linear part of the system is removed first by exact elimination;
    Fourier-Motzkin then runs on the nonnegativity constraints over the
    remaining free parameters, carrying multipliers so an infeasible run
    yields a separating witness (the multipliers combine the constraints
    into an inequality no nonnegative lambda can satisfy, and solving back
    through the equalities turns them into the witness vector).
    """
    columns = tuple(rays.columns) if isinstance(rays, ConeVRep) else tuple(vec(c) for c in rays)
    goal = vec(target)
    m = len(columns)
    if m == 0:
        if is_zero(goal):
            return MembershipCertificate(feasible=True, coefficients=(), witness=None)
        return MembershipCertificate(
            feasible=False, coefficients=None, witness=scale(Fraction(-1), goal)
        )
    matrix: Mat = tuple(tuple(col[i] for col in columns) for i in range(len(goal)))
    particular = solve(matrix, goal)
    if particular is None:
        # target is not even in the linear span: any left-null direction that
        # scores the target separates it (it scores every ray exactly zero).
        for candidate in nullspace(transpose(matrix)):
            value = dot(candidate, goal)
            if value != 0:
                witness = candidate if value < 0 else scale(Fraction(-1), candidate)
                return MembershipCertificate(feasible=False, coefficients=None, witness=witness)
        raise OracleError("inconsistent system produced no separating direction")
    kernel = nullspace(matrix)
    free = len(kernel)
    rows: list[_Row] = []
    for j in range(m):
        coeffs = tuple(-basis[j] for basis in kernel)
        provenance = tuple(
            Fraction(1) if jj == j else Fraction(0) for jj in range(m)
        )
        rows.append((coeffs, particular[j], provenance))
    stages: list[list[_Row]] = []
    for var in range(free):
        stages.append(rows)
        merged: list[_Row] = [row for row in rows if row[0][var] == 0]
        positive = [row for row in rows if row[0][var] > 0]
        negative = [row for row in rows if row[0][var] < 0]
        for cp, bp, mp in positive:
            for cn, bn, mn in negative:
                wp = -cn[var]
                wn = cp[var]
                coeffs = tuple(wn * x + wp * y for x, y in zip(cn, cp))
                rhs = wn * bn + wp * bp
                provenance = tuple(wn * x + wp * y for x, y in zip(mn, mp))
                merged.append((coeffs, rhs, provenance))
        rows = _prune_rows(merged)
    infeasible = None
    for coeffs, rhs, provenance in rows:
        if rhs < 0:
            infeasible = provenance
            break
    if infeasible is not None:
        # provenance s >= 0 satisfies: s . lambda is the constant rhs < 0 on
        # the solution space of the equalities, hence s lies in the row space
        # of the ray matrix and pulls back to the separating witness.
        witness = solve(tuple(zip(*matrix)), infeasible)
        if witness is None:
            raise OracleError("witness recovery failed; multipliers left the row space")
        witness = tuple(witness)
        if dot(witness, goal) >= 0 or any(dot(witness, col) < 0 for col in columns):
            raise OracleError("recovered witness failed substitution")
        return MembershipCertificate(feasible=False, coefficients=None, witness=witness)
    assignment = [Fraction(0)] * free
    for var in range(free - 1, -1, -1):
        lower = None
        upper = None
        for coeffs, rhs, _ in stages[var]:
            c = coeffs[var]
            if c == 0:
                continue
            rest = rhs - sum(
                (coeffs[j] * assignment[j] for j in range(var + 1, free)), Fraction(0)
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
    Inputs containing an opposite ray pair span a line and are rejected, as
    are inputs that do not span the full space (their facet normals would
    not be unique).
    """
    columns = tuple(rays.columns) if isinstance(rays, ConeVRep) else tuple(vec(c) for c in rays)
    if not columns:
        raise OracleError("no rays given")
    dim = len(columns[0])
    canonical = [normalize_ray(col) for col in columns]
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            if canonical[i] == tuple(-x for x in canonical[j]):
                raise NonPointedInput(
                    f"columns {i} and {j} are opposite rays; the cone contains a line"
                )
    if rank(columns) < dim:
        raise OracleError("rays do not span the space; facet normals are not unique")

    lineality: list[Vec] = [
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    ]
    generators: list[Vec] = []
    processed: list[Vec] = []

    for constraint in columns:
        off_line = [w for w in lineality if dot(constraint, w) != 0]
        if off_line:
            pivot = off_line[0]
            value = dot(constraint, pivot)
            if value < 0:
                pivot = scale(Fraction(-1), pivot)
                value = -value
            new_lineality: list[Vec] = []
            for w in lineality:
                if w is off_line[0]:
                    continue
                coeff = dot(constraint, w) / value
                adjusted = vec_sub(w, scale(coeff, pivot))
                if not is_zero(adjusted):
                    new_lineality.append(adjusted)
            adjusted_generators = [pivot]
            for g in generators:
                coeff = dot(constraint, g) / value
                adjusted_generators.append(vec_sub(g, scale(coeff, pivot)))
            lineality = new_lineality
            generators = adjusted_generators
        else:
            kept = [g for g in generators if dot(constraint, g) >= 0]
            positive = [g for g in generators if dot(constraint, g) > 0]
            negative = [g for g in generators if dot(constraint, g) < 0]
            for p in positive:
                for n in negative:
                    combo = vec_sub(scale(dot(constraint, p), n), scale(dot(constraint, n), p))
                    kept.append(combo)
            generators = kept
        processed.append(constraint)
        generators = _extreme_only(generators, processed, dim, len(lineality))

    if lineality:
        raise OracleError("constraints left a lineality space; cone was not full-dimensional")
    return frozenset(normalize_ray(g) for g in generators)


def _extreme_only(
    generators: list[Vec], processed: list[Vec], dim: int, lineality_dim: int
) -> list[Vec]:
    """Keep one representative per extreme ray of the current dual cone."""
    seen: set[Vec] = set()
    survivors: list[Vec] = []
    for g in generators:
        if is_zero(g):
            continue
        key = normalize_ray(g)
        if key in seen:
            continue
        seen.add(key)
        survivors.append(g)
    needed = dim - 1 - lineality_dim
    kept: list[Vec] = []
    for g in survivors:
        active = tuple(a for a in processed if dot(a, g) == 0)
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


def sampled_dual_check(
    weights: Weights,
    y1: Sequence,
    y2: Sequence,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Spot-check weak dominance of y1 over y2 with consistent disutilities.

    Scores both vectors under every row of the representation matrix and
    under `samples` random nonnegative combinations of those rows (all of
    which are consistent disutility vectors).  A False return refutes weak
    dominance; a True return is evidence, not proof.
    """
    a = vec(y1)
    b = vec(y2)
    rows = representation_matrix(weights)
    rng = random.Random(seed)
    probes: list[Vec] = list(rows)
    for _ in range(samples):
        mix = [Fraction(rng.randint(0, 8), rng.randint(1, 8)) for _ in rows]
        probe = tuple(
            sum((c * row[i] for c, row in zip(mix, rows)), Fraction(0))
            for i in range(weights.k)
        )
        probes.append(probe)
    return all(dot(nu, a) <= dot(nu, b) for nu in probes)
