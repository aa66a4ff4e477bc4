"""Weighted ordinal dominance cones and multi-category efficient routing.

The package models outcomes whose components count (or measure) how much of
each ordered quality category a decision uses, compares such outcomes with
weighted ordinal ordering cones, and enumerates efficient paths in graphs
whose edges carry a category label and a length.  All computation is exact
rational arithmetic; see :mod:`ordcone.exactnum`.
"""

from ordcone.cone import (
    ConeHRep,
    ConeVRep,
    OutcomeSpace,
    Weights,
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
from ordcone.dominance import (
    PointSet,
    dominates,
    filter_nondominated,
    pareto_cone,
    pareto_transform,
    weakly_dominates,
)
from ordcone.pathsolve import (
    CategoryGraph, counting_vector, efficient_paths, map_graph, weight_sweep
)

__all__ = [
    "CategoryGraph",
    "ConeHRep",
    "ConeVRep",
    "OutcomeSpace",
    "PointSet",
    "Weights",
    "classify_weights",
    "counting_vector",
    "dominates",
    "dual_contains",
    "efficient_paths",
    "facet_count",
    "facet_matrix",
    "facet_normal",
    "filter_nondominated",
    "map_graph",
    "mark_extreme_rays",
    "merge_degenerate",
    "outcome_space",
    "pareto_cone",
    "pareto_transform",
    "representation_matrix",
    "spanning_rays",
    "special_matrix",
    "weakly_dominates",
    "weight_sweep",
]
