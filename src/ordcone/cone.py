"""Weighted ordinal ordering cones.

An outcome vector counts, per quality category 1..K (1 best, K worst), how
much of each category a decision uses.  Smaller is better in every category.
A pair of marginal weight vectors (omega, gamma), each of length K-1,
declares how adjacent categories trade off:

* omega_i:  giving up one unit of category i+1 is worth at most omega_i
  extra units of category i,
* gamma_i:  giving up one unit of category i is worth at most gamma_i extra
  units of category i+1.

Weights are admissible when omega_i >= 0, gamma_i >= 0 and
omega_i * gamma_i <= 1 for every i.  The induced dominance cone is spanned
by 2(K-1) rays (one `u` and one `g` ray per adjacent pair) and, when every
product omega_i * gamma_i is strictly below one, the cone is pointed and has
an explicit facet description: each facet normal is a componentwise product
over per-pair factors, one selection of `u` or `g` per pair.  The dual cone
consists of the consistent per-category disutility vectors nu
(nonnegative, omega_i * nu_i <= nu_{i+1} and nu_i >= gamma_i * nu_{i+1}).

A product omega_i * gamma_i = 1 pins nu_{i+1} to omega_i * nu_i, which is
the same as merging categories i and i+1 after rescaling.  merge_degenerate
performs that reduction in one pass, one merged category per run of
degenerate pairs, and returns the linear map that carries outcome vectors
into the merged space.  outcome_space is the one place that decides what
degenerate weights become: an OutcomeSpace with merged weights and that
lift, or, under `strict`, a NotPointed error.

Facet normals, the representation matrix and the merge are all products of
adjacent weights, so each is built from running products rather than
re-multiplied entry by entry.

K = 1 has no pairs: the cone is the half-line of nonnegative outcomes,
spanned by the single ray e1 = (1), which is also its single facet normal.

Everything here is exact rational arithmetic; see :mod:`ordcone.exactnum`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from ordcone.exactnum import Mat, Vec, is_zero, mat_vec, normalize_ray, vec


class ConeError(ValueError):
    """Base class for weight and cone errors."""


class NegativeWeight(ConeError):
    """A marginal weight is negative."""

    def __init__(self, name: str, index: int, value: Fraction) -> None:
        self.name = name
        self.index = index
        super().__init__(f"{name}[{index}] = {value} is negative")


class ProductExceedsOne(ConeError):
    """omega_i * gamma_i > 1, outside the admissible weight set."""

    def __init__(self, index: int, product: Fraction) -> None:
        self.index = index
        super().__init__(f"omega[{index}] * gamma[{index}] = {product} exceeds one")


class NotPointed(ConeError):
    """Operation requires a pointed cone (all products strictly below one)."""


class NothingToMerge(ConeError):
    """merge_degenerate was called on weights without degenerate pairs."""


class FormulaInapplicable(ConeError):
    """The closed-form facet count needs strictly positive omega weights."""


class SpecialCaseMismatch(ConeError):
    """Weights do not satisfy the prerequisites of the requested special case."""


@dataclass(frozen=True)
class Weights:
    """Admissible marginal weights for K ordered categories.

    `degenerate` lists the 1-based pair indices i with
    omega_i * gamma_i = 1.  The cone is pointed exactly when the list is
    empty.  K = 1 (no pairs at all) is allowed; it arises when degenerate
    pairs are merged away and is trivially pointed.
    """

    k: int
    omega: Vec
    gamma: Vec
    degenerate: tuple[int, ...]

    @property
    def pointed(self) -> bool:
        return not self.degenerate

    @property
    def classification(self) -> str:
        return "pointed" if self.pointed else "degenerate"


def classify_weights(
    k: int,
    omega: Sequence[Fraction | int | str],
    gamma: Sequence[Fraction | int | str],
) -> Weights:
    """Validate a weight pair and record its degenerate indices.

    Raises NegativeWeight or ProductExceedsOne (with the offending 1-based
    index) for inadmissible input.
    """
    if k < 1:
        raise ConeError(f"category count must be at least 1, got {k}")
    om = vec(omega)
    ga = vec(gamma)
    if len(om) != k - 1 or len(ga) != k - 1:
        raise ConeError(
            f"expected {k - 1} omega and gamma entries for K={k}, "
            f"got {len(om)} and {len(ga)}"
        )
    for name, values in (("omega", om), ("gamma", ga)):
        for i, value in enumerate(values, start=1):
            if value < 0:
                raise NegativeWeight(name, i, value)
    degenerate = []
    for i in range(1, k):
        product = om[i - 1] * ga[i - 1]
        if product > 1:
            raise ProductExceedsOne(i, product)
        if product == 1:
            degenerate.append(i)
    return Weights(k=k, omega=om, gamma=ga, degenerate=tuple(degenerate))


@dataclass(frozen=True)
class ConeVRep:
    """Spanning rays of a dominance cone, in fixed column order.

    Columns are u^1..u^{K-1} followed by g^1..g^{K-1}; at K = 1 the only
    column is e1 = (1).  `extreme_mask` is None until mark_extreme_rays has
    run; afterwards it flags the columns that are extreme rays of the
    spanned cone.
    """

    k: int
    columns: tuple[Vec, ...]
    labels: tuple[str, ...]
    extreme_mask: tuple[bool, ...] | None = None

    @property
    def matrix(self) -> Mat:
        """K x 2(K-1) matrix whose columns are the spanning rays."""
        return tuple(
            tuple(col[i] for col in self.columns) for i in range(self.k)
        )


@dataclass(frozen=True)
class ConeHRep:
    """Facet description of a pointed dominance cone.

    Row j is an inward facet normal; `selections` records, per row, the
    u/g choice per adjacent pair that produced it (None for cones built
    directly from a matrix, such as the Pareto cone).  `matrix_rank` is the
    rank of the row matrix as its builder states it (facet_matrix: k, see
    there); the represented cone is pointed exactly when it equals k.
    """

    k: int
    rows: Mat
    selections: tuple[tuple[str, ...], ...] | None
    matrix_rank: int

    @property
    def pointed(self) -> bool:
        return self.matrix_rank == self.k


def spanning_rays(weights: Weights) -> ConeVRep:
    """The 2(K-1) spanning rays of the dominance cone, u block then g block.

    K = 1 has no pairs, so the cone is spanned by the single ray e1 = (1).
    """
    k = weights.k
    if k == 1:
        return ConeVRep(k=1, columns=((Fraction(1),),), labels=("e1",))
    columns: list[Vec] = []
    labels: list[str] = []
    for i in range(1, k):
        ray = [Fraction(0)] * k
        ray[i - 1] = -weights.omega[i - 1]
        ray[i] = Fraction(1)
        columns.append(tuple(ray))
        labels.append(f"u{i}")
    for i in range(1, k):
        ray = [Fraction(0)] * k
        ray[i - 1] = Fraction(1)
        ray[i] = -weights.gamma[i - 1]
        columns.append(tuple(ray))
        labels.append(f"g{i}")
    return ConeVRep(k=k, columns=tuple(columns), labels=tuple(labels))


def mark_extreme_rays(vrep: ConeVRep) -> ConeVRep:
    """Flag the columns that are extreme rays of the spanned cone.

    `vrep` holds the u-then-g columns of spanning_rays, and the weights are
    read back from that layout: u^i has -omega_i in row i and g^i has
    -gamma_i in row i+1.  The weights must be pointed; degenerate ones raise
    NotPointed, because a cone that contains a line has no extreme rays.

    The weights alone decide extremality.  A column with a negative entry
    (u^i with omega_i > 0, g^i with gamma_i > 0) is always extreme.  Every
    other column is a unit vector e_j, and another column generates it when
    omega_{j-1} > 0 or gamma_j > 0:
        (1 - omega_{j-1} gamma_{j-1}) e_j = u^{j-1} + omega_{j-1} g^{j-1},
        (1 - omega_j gamma_j) e_j = g^j + gamma_j u^j.
    Each remaining column is exposed by a dual vector nu that is zero on it
    alone: the ratios nu_{i+1} / nu_i lie strictly inside [omega_i,
    1 / gamma_i] except at the column's own pair (omega_i for u^i,
    1 / gamma_i for g^i); for e_j take nu_j = 0 and every other nu_i > 0.
    A column that repeats an earlier one (omega_i = 0 and gamma_{i+1} = 0
    make u^i and g^{i+1} both e_{i+1}) stays unmarked, so each extreme ray
    is marked exactly once.
    """
    k = vrep.k
    columns = vrep.columns
    weights = classify_weights(
        k,
        [-columns[i][i] for i in range(k - 1)],
        [-columns[k - 1 + i][i + 1] for i in range(k - 1)],
    )
    if not weights.pointed:
        raise NotPointed(
            f"extreme rays require a pointed cone; degenerate pairs {weights.degenerate}"
        )
    seen: set[int] = set()
    mask: list[bool] = []
    for col in columns:
        if min(col) < 0:
            mask.append(True)
            continue
        j = col.index(1)  # 0-based: the column is e_{j+1}
        mask.append(
            j not in seen
            and (j == 0 or weights.omega[j - 1] == 0)
            and (j == k - 1 or weights.gamma[j] == 0)
        )
        seen.add(j)
    return replace(vrep, extreme_mask=tuple(mask))


def facet_normal(selection: Sequence[str], weights: Weights) -> Vec:
    """Inward facet normal for one u/g selection, as a componentwise product.

    For pair i the factor on component c is omega_i when `u` is selected and
    c > i, gamma_i when `g` is selected and c <= i, and 1 otherwise.  So
    component c is the product of omega_i over u-pairs i < c times the
    product of gamma_i over g-pairs i >= c: one forward and one backward
    running product.
    """
    k = weights.k
    if len(selection) != k - 1:
        raise ConeError(f"selection needs {k - 1} entries, got {len(selection)}")
    for choice in selection:
        if choice not in ("u", "g"):
            raise ConeError(f"selection entries must be 'u' or 'g', got {choice!r}")
    backward = [Fraction(1)] * k
    for i in range(k - 2, -1, -1):
        backward[i] = backward[i + 1] * (weights.gamma[i] if selection[i] == "g" else 1)
    entries: list[Fraction] = []
    forward = Fraction(1)
    for c in range(k):
        entries.append(forward * backward[c])
        if c < k - 1 and selection[c] == "u":
            forward *= weights.omega[c]
    return tuple(entries)


def facet_matrix(weights: Weights) -> ConeHRep:
    """All facet normals of a pointed cone, one row per distinct facet.

    Selections are enumerated in binary order (u = 0, g = 1, pair index 1
    least significant).  Rows that are identically zero are dropped; rows
    proportional to an earlier row keep only the first occurrence.
    `matrix_rank` is K without an elimination: the cone contains the
    nonnegative orthant and, for pointed weights, no line, so its facet
    normals span R^K.
    """
    if not weights.pointed:
        raise NotPointed(
            f"facet description requires a pointed cone; degenerate pairs {weights.degenerate}"
        )
    k = weights.k
    rows: list[Vec] = []
    selections: list[tuple[str, ...]] = []
    seen: set[Vec] = set()
    for code in range(2 ** (k - 1)):
        selection = tuple(
            "g" if (code >> i) & 1 else "u" for i in range(k - 1)
        )
        normal = facet_normal(selection, weights)
        if is_zero(normal):
            continue
        canonical = normalize_ray(normal)
        if canonical in seen:
            continue
        seen.add(canonical)
        rows.append(normal)
        selections.append(selection)
    return ConeHRep(k=k, rows=tuple(rows), selections=tuple(selections), matrix_rank=k)


def facet_count(weights: Weights) -> int:
    """Closed-form facet count for pointed weights with every omega_i > 0.

    With J = {j_1 < ... < j_l} the set of pair indices where gamma is zero,
    the count is 2^(K-1-l) + sum_k 2^(K-1-j_k-(l-k)).  All gamma positive
    gives the full 2^(K-1); gamma identically zero gives K.
    """
    if not weights.pointed:
        raise NotPointed("facet count requires a pointed cone")
    for i, value in enumerate(weights.omega, start=1):
        if value == 0:
            raise FormulaInapplicable(f"omega[{i}] = 0; count formula needs omega > 0")
    k = weights.k
    zero_positions = [i for i in range(1, k) if weights.gamma[i - 1] == 0]
    ell = len(zero_positions)
    total = 2 ** (k - 1 - ell)
    for pos, j in enumerate(zero_positions, start=1):
        total += 2 ** (k - 1 - j - (ell - pos))
    return total


def representation_matrix(weights: Weights) -> Mat:
    """K x K matrix whose rows all lie in the dual cone.

    Entry (i, j) is the product omega_i * ... * omega_{j-1} above the
    diagonal, 1 on it, and gamma_j * ... * gamma_{i-1} below.  The matrix
    has full rank exactly when the weights are pointed, and its rows evaluate
    outcome vectors under K canonical consistent disutility profiles.  Each
    row is built outward from its diagonal as running products.
    """
    k = weights.k
    rows: list[Vec] = []
    for i in range(k):
        row = [Fraction(1)] * k
        for j in range(i + 1, k):
            row[j] = row[j - 1] * weights.omega[j - 1]
        for j in range(i - 1, -1, -1):
            row[j] = row[j + 1] * weights.gamma[j]
        rows.append(tuple(row))
    return tuple(rows)


def dual_contains(weights: Weights, nu: Sequence[Fraction | int | str]) -> bool:
    """Is nu a consistent nonnegative disutility vector for these weights?

    Requires nu >= 0 with omega_i * nu_i <= nu_{i+1} and
    nu_i >= gamma_i * nu_{i+1} for every adjacent pair.
    """
    values = vec(nu)
    if len(values) != weights.k:
        raise ConeError(f"expected {weights.k} components, got {len(values)}")
    if any(value < 0 for value in values):
        return False
    for i in range(1, weights.k):
        if weights.omega[i - 1] * values[i - 1] > values[i]:
            return False
        if values[i - 1] < weights.gamma[i - 1] * values[i]:
            return False
    return True


# The families special_matrix knows, in the order the CLI reports matches:
# each family's defining condition and the message when it fails.
_SPECIAL_CONDITIONS = {
    "pareto": (lambda w: not any(w.omega + w.gamma), "pareto case needs omega = gamma = 0"),
    "standard_ordinal": (
        lambda w: all(v == 1 for v in w.omega) and not any(w.gamma),
        "standard ordinal case needs omega = 1, gamma = 0",
    ),
    "gamma_zero": (lambda w: not any(w.gamma), "gamma-zero case needs gamma = 0"),
    "omega_zero": (lambda w: not any(w.omega), "omega-zero case needs omega = 0"),
    "k2": (lambda w: w.k == 2, "k2 case needs exactly two categories"),
    "weighted_sum": (
        lambda w: all(o * g == 1 for o, g in zip(w.omega, w.gamma)),
        "weighted-sum case needs omega_i * gamma_i = 1 for every pair",
    ),
}
SPECIAL_KINDS = tuple(_SPECIAL_CONDITIONS)


def special_matrix(kind: str, weights: Weights) -> Mat:
    """Closed-form dominance matrix for a named special weight family.

    Once a family's condition holds, its matrix is representation_matrix:
    the identity for pareto, cumulative omega products on and above the
    diagonal for standard_ordinal and gamma_zero, cumulative gamma products
    on and below it for omega_zero, and ((1, omega), (gamma, 1)) for k2.
    The weighted-sum family keeps only the first row, the cumulative omega
    products, because omega_i * gamma_i = 1 makes every other row a multiple
    of it.  Raises SpecialCaseMismatch when the weights do not satisfy the
    family's defining conditions.
    """
    if kind not in _SPECIAL_CONDITIONS:
        raise SpecialCaseMismatch(
            f"unknown special case {kind!r}; expected one of {SPECIAL_KINDS}"
        )
    holds, requirement = _SPECIAL_CONDITIONS[kind]
    if not holds(weights):
        raise SpecialCaseMismatch(requirement)
    matrix = representation_matrix(weights)
    return matrix[:1] if kind == "weighted_sum" else matrix


def merge_degenerate(weights: Weights) -> tuple[Weights, Mat]:
    """Merge away degenerate pairs; return the reduced weights and the lift map.

    A degenerate pair i (omega_i * gamma_i = 1) forces every consistent
    disutility vector to satisfy nu_{i+1} = omega_i * nu_i, so categories i
    and i+1 carry a single degree of freedom.  Each maximal run of categories
    a..b joined by degenerate pairs therefore becomes one merged category,
    with nu_c = p_c * nu_a on the run, where p_c = omega_a * ... * omega_{c-1}
    (p_a = 1).  The returned lift is the K' x K matrix carrying original
    outcome vectors into the merged space: the run's row holds p_c on its
    categories and 0 elsewhere.  The pair b that leaves the run now links
    nu_a to nu_{b+1}, so it becomes (omega_b * p_b, gamma_b / p_b); the pair
    before the run is unchanged.  Both keep their product omega_i * gamma_i,
    so no merge creates a degenerate pair and the result is always pointed.
    """
    if weights.pointed:
        raise NothingToMerge("no degenerate pair to merge")
    k = weights.k
    degenerate = set(weights.degenerate)
    lift: list[Vec] = []
    omega: list[Fraction] = []
    gamma: list[Fraction] = []
    row = [Fraction(0)] * k
    p = Fraction(1)
    for c in range(k):
        row[c] = p
        if c + 1 in degenerate:
            p *= weights.omega[c]
            continue
        lift.append(tuple(row))
        if c < k - 1:
            omega.append(weights.omega[c] * p)
            gamma.append(weights.gamma[c] / p)
        row = [Fraction(0)] * k
        p = Fraction(1)
    return classify_weights(len(lift), omega, gamma), tuple(lift)


@dataclass(frozen=True)
class OutcomeSpace:
    """The outcome space that results under some weights live in.

    `active` is `original` with its degenerate pairs merged away and `lift`
    the matrix carrying original outcome vectors into the merged space.
    When the weights are pointed nothing is merged: `active` is `original`,
    `lift` is None, and map_vector returns its input unchanged.  Graphs are
    carried over by pathsolve.map_graph.
    """

    original: Weights
    active: Weights
    lift: Mat | None = None

    @property
    def merged(self) -> bool:
        return self.lift is not None

    def map_vector(self, y: Vec) -> Vec:
        return y if self.lift is None else mat_vec(self.lift, y)


def outcome_space(weights: Weights, strict: bool) -> OutcomeSpace:
    """Merge degenerate pairs away, or raise NotPointed when `strict` is set."""
    if weights.pointed:
        return OutcomeSpace(weights, weights)
    if strict:
        raise NotPointed(
            f"degenerate weight pairs {weights.degenerate} rejected under strict: "
            "the cone is not pointed"
        )
    active, lift = merge_degenerate(weights)
    return OutcomeSpace(weights, active, lift)
