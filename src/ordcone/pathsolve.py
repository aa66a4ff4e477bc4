"""Efficient paths in graphs whose edges carry a quality category and a length.

Each edge contributes its length to one of K ordered categories, so a path's
outcome is a K-vector of per-category totals.  Paths are compared with a
weighted ordinal ordering cone: the facet matrix of a pointed cone turns cone
dominance into componentwise comparison of transformed costs, and every
transformed edge cost is nonnegative.  That makes a label-setting search
correct: cycles can only add nonnegative transformed cost, so only simple
paths matter, and a label whose transformed cost is strictly dominated at a
node can never complete into an efficient path.

Labels carry integer-scaled transformed costs: once per search, every
transformed edge cost is multiplied by one positive integer (the LCM of the
facet-matrix denominators times the LCM of the edge-length denominators).
One positive factor keeps both the componentwise order used for pruning and
the lexicographic order of the heap, so the search visits, keeps and returns
exactly what it would on the rationals, while every comparison is on plain
ints.  Counting vectors are not carried by labels; they are rebuilt once per
returned path with `counting_vector`.

Nodes are numbered once per search, in sorted node-id order, so the heap
breaks cost ties by number exactly as it would by name.  A label's visited
set is an int bitmask over those numbers, and a popped label is rescanned
only against the permanent labels its push test has not already seen.

Two result modes exist.  `one_per_vector` returns one representative path
per efficient outcome vector; `all_paths` returns every efficient path,
bounded by an explicit cap because ties can multiply paths combinatorially.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from operator import le
from typing import Iterable, Mapping, Sequence

from ordcone.cone import NotPointed, OutcomeSpace, Weights, facet_matrix, outcome_space
from ordcone.exactnum import Vec, rational, transpose, vec_add, zeros

Path = tuple[int, ...]
ScaledCost = tuple[int, ...]

MODES = ("one_per_vector", "all_paths")


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class UnknownNode(GraphError):
    """A node id was referenced but never declared."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"unknown node id: {node_id!r}")


class BadEdge(GraphError):
    """An edge has an invalid category or a nonpositive length."""


class PathCapExceeded(RuntimeError):
    """More paths were found than the configured cap allows."""


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    category: int
    length: Fraction


class CategoryGraph:
    """Directed graph with category-labeled, positively weighted edges.

    Nodes are referenced by string ids; coordinates are optional display
    metadata (latitude, longitude) and never enter any computation.
    Adjacency lists are sorted by destination id so every traversal in this
    package is deterministic.
    """

    def __init__(
        self,
        k: int,
        nodes: Sequence[str],
        edges: Sequence[Edge],
        coords: Mapping[str, tuple[float, float]] | None = None,
    ) -> None:
        if k < 1:
            raise GraphError(f"category count must be at least 1, got {k}")
        if len(set(nodes)) != len(nodes):
            raise GraphError("node ids must be unique")
        self.k = k
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.coords: dict[str, tuple[float, float]] = dict(coords or {})
        known = set(self.nodes)
        for name in self.coords:
            if name not in known:
                raise UnknownNode(name)
        for edge in edges:
            if edge.src not in known:
                raise UnknownNode(edge.src)
            if edge.dst not in known:
                raise UnknownNode(edge.dst)
            if not 1 <= edge.category <= k:
                raise BadEdge(
                    f"edge {edge.src}->{edge.dst}: category {edge.category} outside 1..{k}"
                )
            if edge.length <= 0:
                raise BadEdge(
                    f"edge {edge.src}->{edge.dst}: length {edge.length} is not positive"
                )
        self.edges: tuple[Edge, ...] = tuple(edges)
        adjacency: dict[str, list[int]] = {name: [] for name in self.nodes}
        order = sorted(
            range(len(self.edges)),
            key=lambda i: (
                self.edges[i].dst,
                self.edges[i].category,
                self.edges[i].length,
                i,
            ),
        )
        for index in order:
            adjacency[self.edges[index].src].append(index)
        self.adjacency: dict[str, tuple[int, ...]] = {
            name: tuple(indices) for name, indices in adjacency.items()
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CategoryGraph":
        """Build a graph from the canonical JSON layout.

        Expected shape: {"K": int, "nodes": [{"id": str, "lat"?, "lon"?}],
        "edges": [{"from": str, "to": str, "category": int,
        "length": decimal string}]}.  Lengths must be decimal strings or
        integers; floats are rejected to keep the arithmetic exact.
        """
        try:
            k = data["K"]
            node_entries = data["nodes"]
            edge_entries = data["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"graph document is missing required key: {exc}") from exc
        if isinstance(k, bool) or not isinstance(k, int):
            raise GraphError(f'"K" must be an integer, got {k!r}')
        nodes: list[str] = []
        coords: dict[str, tuple[float, float]] = {}
        for entry in node_entries:
            try:
                node_id = entry["id"]
            except (KeyError, TypeError) as exc:
                raise GraphError(f"node entry {entry!r} lacks an id") from exc
            if not isinstance(node_id, str):
                raise GraphError(f"node id must be a string, got {node_id!r}")
            nodes.append(node_id)
            if "lat" in entry and "lon" in entry:
                try:
                    lat, lon = float(entry["lat"]), float(entry["lon"])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise GraphError(
                        f"node {node_id!r}: lat and lon must be numbers: {exc}"
                    ) from exc
                if not (isfinite(lat) and isfinite(lon)):
                    raise GraphError(f"node {node_id!r}: lat and lon must be finite")
                coords[node_id] = (lat, lon)
        edges: list[Edge] = []
        for entry in edge_entries:
            try:
                src = entry["from"]
                dst = entry["to"]
                category = entry["category"]
                raw_length = entry["length"]
            except (KeyError, TypeError) as exc:
                raise GraphError(f"edge entry {entry!r} lacks a field: {exc}") from exc
            if isinstance(raw_length, float):
                raise GraphError(
                    f"edge {src}->{dst}: length must be a decimal string, not a float"
                )
            if isinstance(category, bool) or not isinstance(category, int):
                raise GraphError(f"edge {src}->{dst}: category must be an integer")
            try:
                length = rational(raw_length)
            except ValueError as exc:
                raise GraphError(f"edge {src}->{dst}: bad length: {exc}") from exc
            edges.append(Edge(src=src, dst=dst, category=category, length=length))
        return cls(k=k, nodes=nodes, edges=edges, coords=coords)

    def path_nodes(self, path: Path) -> tuple[str, ...]:
        """Node sequence visited by an edge-index path (requires nonempty path)."""
        if not path:
            return ()
        sequence = [self.edges[path[0]].src]
        for index in path:
            edge = self.edges[index]
            if edge.src != sequence[-1]:
                raise GraphError("edge indices do not form a connected walk")
            sequence.append(edge.dst)
        return tuple(sequence)


def counting_vector(graph: CategoryGraph, path: Path) -> Vec:
    """Per-category totals of edge lengths along a connected edge sequence."""
    totals = [Fraction(0)] * graph.k
    previous_end: str | None = None
    for index in path:
        edge = graph.edges[index]
        if previous_end is not None and edge.src != previous_end:
            raise GraphError("edge indices do not form a connected walk")
        previous_end = edge.dst
        totals[edge.category - 1] += edge.length
    return tuple(totals)


def map_graph(space: OutcomeSpace, graph: CategoryGraph) -> CategoryGraph:
    """Carry a graph into an outcome space's merged categories.

    Each original category maps to the single merged category whose lift
    row touches it, scaling the edge length by the row entry, so every path's
    counting vector becomes space.map_vector of its original one.  Without a
    merge the graph is returned unchanged.
    """
    if space.lift is None:
        return graph
    if graph.k != space.original.k:
        raise GraphError(
            f"weights are for {space.original.k} categories, graph has {graph.k}"
        )
    into = {
        original_cat: (merged_cat, factor)
        for merged_cat, row in enumerate(space.lift, start=1)
        for original_cat, factor in enumerate(row, start=1)
        if factor != 0
    }
    edges = [
        Edge(e.src, e.dst, into[e.category][0], e.length * into[e.category][1])
        for e in graph.edges
    ]
    return CategoryGraph(space.active.k, graph.nodes, edges, graph.coords)


class _Label:
    """A partial path: its visited-node bitmask, how many permanent labels
    at its node the push test already cleared it against, and the edge that
    reached it from its predecessor label."""

    __slots__ = ("visited", "checked", "pred", "edge")

    def __init__(self, visited, checked, pred, edge) -> None:
        self.visited = visited
        self.checked = checked
        self.pred = pred
        self.edge = edge


def _scaled(value: Fraction, scale: int) -> int:
    """value * scale as an int; scale must be a multiple of value's denominator."""
    return value.numerator * (scale // value.denominator)


def _strictly_dominated(
    tcost: ScaledCost, permanent: list[ScaledCost], merge_equal: bool
) -> bool:
    for other in permanent:
        if all(map(le, other, tcost)):
            if other != tcost or merge_equal:
                return True
    return False


def _path_of(label: _Label) -> Path:
    edges: list[int] = []
    while label.pred is not None:
        edges.append(label.edge)
        label = label.pred
    edges.reverse()
    return tuple(edges)


def efficient_paths(
    graph: CategoryGraph,
    source: str,
    target: str,
    weights: Weights,
    mode: str = "one_per_vector",
    cap: int | None = None,
) -> list[tuple[Path, Vec]]:
    """All efficient simple source-target paths under the weighted cone order.

    Returns (edge-index path, counting vector) pairs, ordered
    lexicographically by transformed cost and, among ties, by discovery
    order (which follows node-id-sorted adjacency).  Labels hold transformed
    costs scaled to exact ints by one positive factor, which changes neither
    order; each returned counting vector is rebuilt once from its path.  An
    unreachable target yields an empty list; source == target yields the
    empty path.  The weights must be pointed; degenerate weights have no
    strict dominance to prune with (resolve them first with
    cone.outcome_space and route in map_graph(space, graph) under
    space.active).

    The search runs on integer node numbers, assigned once per call in
    sorted node-id order.  The heap key is (cost, node number, push
    counter), and because numbers follow names, equal costs break ties
    exactly as the node ids themselves would.  A label's `visited` set is an
    int bitmask over the node numbers.  It is redundant: lengths are
    positive and the facet matrix has full column rank, so a walk that
    re-enters a node is strictly dominated by its own permanent ancestor
    label there and is pruned at push.  It stays because the bit test is
    cheaper than the dominance scan it skips.

    A label is tested for dominance twice: against the permanent labels at
    its node when it is pushed, and again when it is popped.  Permanent
    lists only grow during a call, and the push test already cleared the
    label against the first `checked` of them, so the pop test scans only
    the ones added since; every prune decision is the one a full rescan
    would make.
    """
    if mode not in MODES:
        raise GraphError(f"unknown mode {mode!r}; expected one of {MODES}")
    if source not in graph.adjacency:
        raise UnknownNode(source)
    if target not in graph.adjacency:
        raise UnknownNode(target)
    if weights.k != graph.k:
        raise GraphError(
            f"weights are for {weights.k} categories, graph has {graph.k}"
        )
    if not weights.pointed:
        raise NotPointed(
            f"routing requires a pointed cone; degenerate pairs {weights.degenerate}"
        )
    if source == target:
        return [((), zeros(graph.k))]

    hrep = facet_matrix(weights)
    matrix_scale = lcm(*(x.denominator for row in hrep.rows for x in row))
    length_scale = lcm(*(edge.length.denominator for edge in graph.edges))
    columns = transpose(
        tuple(tuple(_scaled(x, matrix_scale) for x in row) for row in hrep.rows)
    )
    cost_of_edge: list[ScaledCost] = []
    for edge in graph.edges:
        length = _scaled(edge.length, length_scale)
        cost_of_edge.append(tuple(length * c for c in columns[edge.category - 1]))
    merge_equal = mode == "one_per_vector"

    names = sorted(graph.nodes)
    number = {name: i for i, name in enumerate(names)}
    # per node number: (destination number, its visited bit, edge index),
    # in graph.adjacency order
    out_arcs = [
        tuple(
            (number[graph.edges[i].dst], 1 << number[graph.edges[i].dst], i)
            for i in graph.adjacency[name]
        )
        for name in names
    ]
    origin = number[source]
    goal = number[target]

    counter = itertools.count()
    heap: list[tuple[ScaledCost, int, int, _Label]] = [
        ((0,) * len(hrep.rows), origin, next(counter), _Label(1 << origin, 0, None, None))
    ]
    permanent: list[list[ScaledCost]] = [[] for _ in names]
    finished: list[_Label] = []
    while heap:
        tcost, node, _, label = heapq.heappop(heap)
        settled = permanent[node]
        if len(settled) > label.checked and _strictly_dominated(
            tcost, settled[label.checked :], merge_equal
        ):
            continue
        settled.append(tcost)
        if node == goal:
            finished.append(label)
            if cap is not None and len(finished) > cap:
                raise PathCapExceeded(
                    f"more than {cap} efficient paths; raise the cap to continue"
                )
            # A simple path never leaves and re-enters its endpoint, so
            # labels at the target need no extension.
            continue
        visited = label.visited
        for dst, bit, edge_index in out_arcs[node]:
            if visited & bit:
                continue
            extended = vec_add(tcost, cost_of_edge[edge_index])
            reached = permanent[dst]
            if _strictly_dominated(extended, reached, merge_equal):
                continue
            heapq.heappush(
                heap,
                (
                    extended,
                    dst,
                    next(counter),
                    _Label(visited | bit, len(reached), label, edge_index),
                ),
            )
    paths = [_path_of(label) for label in finished]
    return [(path, counting_vector(graph, path)) for path in paths]


@dataclass(frozen=True)
class SweepRow:
    """Result of one grid cell in a weight sweep."""

    weights: Weights
    vector_count: int | None
    path_count: int | None
    error: str | None
    runtime_ms: float


def weight_sweep(
    graph: CategoryGraph,
    source: str,
    target: str,
    grid: Iterable[Weights],
    mode: str = "one_per_vector",
    cap: int | None = None,
    strict: bool = True,
) -> list[SweepRow]:
    """Run efficient_paths for every weight set in the grid.

    Each cell is resolved by cone.outcome_space: under `strict` (the
    default) degenerate weights give an error row, otherwise they are merged
    and the cell is routed in map_graph(space, graph), so its counts are of
    merged vectors.  Failures (degenerate weights under `strict`, cap
    overflow, graph errors) are recorded per row so one bad cell never
    aborts the sweep.  runtime_ms covers the merge and the solve.
    """
    rows: list[SweepRow] = []
    for weights in grid:
        started = time.perf_counter()
        try:
            space = outcome_space(weights, strict)
            results = efficient_paths(
                map_graph(space, graph), source, target, space.active, mode, cap
            )
        except (NotPointed, PathCapExceeded, GraphError) as exc:
            elapsed = (time.perf_counter() - started) * 1000.0
            rows.append(SweepRow(weights, None, None, str(exc), elapsed))
            continue
        elapsed = (time.perf_counter() - started) * 1000.0
        distinct = len({counts for _, counts in results})
        rows.append(SweepRow(weights, distinct, len(results), None, elapsed))
    return rows
