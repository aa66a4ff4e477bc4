"""Dominance between outcome vectors and nondominated filtering.

A facet description turns dominance into a componentwise test: y1 weakly
dominates y2 exactly when every facet normal scores y2 - y1 nonnegatively.
Strict dominance additionally requires the vectors to differ, which is only
an antisymmetric relation when the cone is pointed; the strict operations
therefore refuse rank-deficient facet matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ordcone.cone import ConeHRep, NotPointed
from ordcone.exactnum import Mat, Vec, dot, identity, mat_vec, rank, vec, vec_sub


class DominanceError(ValueError):
    """Base class for dominance-layer errors."""


class EmptyPointSet(DominanceError):
    """Filtering an empty point set has no meaningful result."""


class RankDeficient(DominanceError):
    """The transformation matrix does not have full column rank."""


@dataclass(frozen=True)
class PointSet:
    """Outcome vectors with stable identifiers.

    Duplicate vectors are allowed and kept apart by their ids; filtering
    preserves ids so callers can recover which original rows survived.
    """

    points: tuple[Vec, ...]
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.ids):
            raise DominanceError("points and ids must have equal length")

    @staticmethod
    def from_vectors(
        vectors: Iterable[Sequence], ids: Sequence[str] | None = None
    ) -> "PointSet":
        points = tuple(vec(v) for v in vectors)
        if ids is None:
            ids = tuple(str(i) for i in range(len(points)))
        return PointSet(points=points, ids=tuple(ids))


def pareto_cone(k: int) -> ConeHRep:
    """Facet description of the nonnegative orthant (componentwise dominance)."""
    return ConeHRep(k=k, rows=identity(k), selections=None, matrix_rank=k)


def weakly_dominates(cone: ConeHRep, y1: Vec, y2: Vec) -> bool:
    """True when y2 - y1 lies in the dominance cone (y1 at least as good)."""
    diff = vec_sub(vec(y2), vec(y1))
    return all(dot(row, diff) >= 0 for row in cone.rows)


def dominates(cone: ConeHRep, y1: Vec, y2: Vec) -> bool:
    """Strict dominance: weak dominance between distinct vectors.

    Requires a pointed cone; otherwise two distinct vectors can each weakly
    dominate the other and "strict" loses its meaning.
    """
    if not cone.pointed:
        raise NotPointed("strict dominance requires a pointed cone")
    a = vec(y1)
    b = vec(y2)
    return a != b and weakly_dominates(cone, a, b)


def filter_nondominated(cone: ConeHRep, points: PointSet) -> PointSet:
    """The subset of points not strictly dominated by any other point.

    Pairwise exact scan.  Duplicates of a surviving vector all survive:
    strict dominance never holds between equal vectors.
    """
    if not points.points:
        raise EmptyPointSet("cannot filter an empty point set")
    if not cone.pointed:
        raise NotPointed("nondominated filtering requires a pointed cone")
    kept_points: list[Vec] = []
    kept_ids: list[str] = []
    for i, candidate in enumerate(points.points):
        dominated = False
        for j, other in enumerate(points.points):
            if i != j and dominates(cone, other, candidate):
                dominated = True
                break
        if not dominated:
            kept_points.append(candidate)
            kept_ids.append(points.ids[i])
    return PointSet(points=tuple(kept_points), ids=tuple(kept_ids))


def pareto_transform(matrix: Mat, points: PointSet) -> PointSet:
    """Map every point through a full-column-rank matrix, keeping ids.

    With the facet matrix of a pointed cone, cone dominance on the inputs
    becomes plain componentwise dominance on the images, so efficient sets
    can be computed by any Pareto machinery after this transform.  The rank
    condition keeps the map injective; without it distinct outcomes could
    collapse onto one image.
    """
    if not points.points:
        raise EmptyPointSet("cannot transform an empty point set")
    width = len(points.points[0])
    found = rank(matrix)
    if found != width:
        raise RankDeficient(f"transform needs rank {width}, got {found}")
    images = tuple(mat_vec(matrix, p) for p in points.points)
    return PointSet(points=images, ids=points.ids)
