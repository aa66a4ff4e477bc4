"""Graph model and the label-setting efficient-path solver."""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from math import lcm
from operator import le

import pytest

from instancegen import degenerate_weights, load_fixture, pointed_weights, random_graph
from ordcone.cone import NotPointed, classify_weights, facet_matrix, merge_degenerate
from ordcone.dominance import PointSet, filter_nondominated
from ordcone.exactnum import mat_vec, transpose, vec_add, zeros
from ordcone.oracle import enumerate_simple_paths
from ordcone.pathsolve import (
    BadEdge,
    CategoryGraph,
    Edge,
    GraphError,
    PathCapExceeded,
    UnknownNode,
    counting_vector,
    efficient_paths,
    weight_sweep,
)

F = Fraction

ORDINAL2 = classify_weights(2, [1], [0])


def _tie_graph() -> CategoryGraph:
    return CategoryGraph(
        k=2,
        nodes=["s", "a", "b", "t"],
        edges=[
            Edge("s", "a", 1, F(1)),
            Edge("a", "t", 1, F(1)),
            Edge("s", "b", 1, F(1)),
            Edge("b", "t", 1, F(1)),
        ],
    )


def test_graph_validation():
    with pytest.raises(GraphError):
        CategoryGraph(k=0, nodes=["a"], edges=[])
    with pytest.raises(GraphError):
        CategoryGraph(k=1, nodes=["a", "a"], edges=[])
    with pytest.raises(UnknownNode):
        CategoryGraph(k=1, nodes=["a"], edges=[Edge("a", "b", 1, F(1))])
    with pytest.raises(BadEdge):
        CategoryGraph(k=1, nodes=["a", "b"], edges=[Edge("a", "b", 2, F(1))])
    with pytest.raises(BadEdge):
        CategoryGraph(k=1, nodes=["a", "b"], edges=[Edge("a", "b", 1, F(0))])
    with pytest.raises(UnknownNode):
        CategoryGraph(k=1, nodes=["a"], edges=[], coords={"b": (0.0, 0.0)})


def test_from_dict_round_trip_and_rejections():
    doc = {
        "K": 2,
        "nodes": [{"id": "s", "lat": 1.0, "lon": 2.0}, {"id": "t"}],
        "edges": [
            {"from": "s", "to": "t", "category": 1, "length": "1.5"},
            {"from": "s", "to": "t", "category": 2, "length": 2},
        ],
    }
    graph = CategoryGraph.from_dict(doc)
    assert graph.k == 2
    assert graph.nodes == ("s", "t")
    assert graph.coords == {"s": (1.0, 2.0)}
    assert graph.edges[0].length == F(3, 2)
    assert graph.edges[1].length == F(2)

    def rejects(mutate):
        bad = {
            "K": 2,
            "nodes": [{"id": "s"}, {"id": "t"}],
            "edges": [{"from": "s", "to": "t", "category": 1, "length": "1"}],
        }
        mutate(bad)
        with pytest.raises(GraphError):
            CategoryGraph.from_dict(bad)

    rejects(lambda d: d.pop("K"))
    rejects(lambda d: d.update(K="2"))
    rejects(lambda d: d["nodes"].append({"lat": 0}))
    rejects(lambda d: d["nodes"].append({"id": 7}))
    rejects(lambda d: d["edges"][0].pop("from"))
    rejects(lambda d: d["edges"][0].update(length=1.5))
    rejects(lambda d: d["edges"][0].update(length="-1"))
    rejects(lambda d: d["edges"][0].update(category="1"))
    rejects(lambda d: d["edges"][0].update(category=3))
    rejects(lambda d: d["edges"][0].update(category=True))
    rejects(lambda d: d.update(K=True))
    rejects(lambda d: d["nodes"][0].update(lat="abc", lon=0))
    rejects(lambda d: d["nodes"][0].update(lat=0, lon=None))
    rejects(lambda d: d["nodes"][0].update(lat="nan", lon=0))
    rejects(lambda d: d["nodes"][0].update(lat=0, lon=10**400))


def test_adjacency_is_sorted_and_deterministic():
    graph = CategoryGraph(
        k=2,
        nodes=["s", "b", "a"],
        edges=[
            Edge("s", "b", 1, F(1)),
            Edge("s", "a", 2, F(1)),
            Edge("s", "a", 1, F(2)),
            Edge("s", "a", 1, F(1)),
        ],
    )
    # destination id first, then category, then length, then declaration order
    assert graph.adjacency["s"] == (3, 2, 1, 0)
    assert graph.adjacency["a"] == ()


def test_counting_vector_and_path_nodes():
    graph = load_fixture("loop_detour.json")
    chain = tuple(range(9))
    assert counting_vector(graph, chain) == (9, 0)
    assert counting_vector(graph, (9,)) == (0, 1)
    assert counting_vector(graph, ()) == (0, 0)
    assert graph.path_nodes((9,)) == ("s", "t")
    assert graph.path_nodes(()) == ()
    with pytest.raises(GraphError):
        counting_vector(graph, (0, 9))
    with pytest.raises(GraphError):
        graph.path_nodes((0, 9))


def test_efficient_paths_argument_errors():
    graph = _tie_graph()
    with pytest.raises(GraphError):
        efficient_paths(graph, "s", "t", ORDINAL2, mode="fastest")
    with pytest.raises(UnknownNode):
        efficient_paths(graph, "nope", "t", ORDINAL2)
    with pytest.raises(UnknownNode):
        efficient_paths(graph, "s", "nope", ORDINAL2)
    with pytest.raises(GraphError):
        efficient_paths(graph, "s", "t", classify_weights(3, [1, 1], [0, 0]))
    with pytest.raises(NotPointed):
        efficient_paths(graph, "s", "t", classify_weights(2, [2], ["0.5"]))


def test_efficient_paths_trivial_cases():
    graph = _tie_graph()
    assert efficient_paths(graph, "s", "s", ORDINAL2) == [((), (0, 0))]
    lonely = CategoryGraph(k=2, nodes=["s", "t"], edges=[Edge("t", "s", 1, F(1))])
    assert efficient_paths(lonely, "s", "t", ORDINAL2) == []


def test_efficient_paths_loop_detour():
    graph = load_fixture("loop_detour.json")
    ordinal = efficient_paths(graph, "s", "t", ORDINAL2)
    assert ordinal == [((9,), (0, 1)), (tuple(range(9)), (9, 0))]
    for gamma in ("0.125", [F(1, 9)]):
        w = (
            classify_weights(2, [1], gamma)
            if isinstance(gamma, list)
            else classify_weights(2, [1], [gamma])
        )
        assert efficient_paths(graph, "s", "t", w) == [((9,), (0, 1))]


def test_efficient_paths_twin_corridor():
    graph = load_fixture("twin_corridor.json")
    ordinal = efficient_paths(graph, "s", "t", ORDINAL2)
    assert ordinal == [((6, 7, 8, 9), (0, 4)), ((0, 1, 2, 3, 4, 5), (6, 0))]
    steep = classify_weights(2, [2], [0])
    assert efficient_paths(graph, "s", "t", steep) == [((0, 1, 2, 3, 4, 5), (6, 0))]


def test_single_category_routing_is_shortest_path():
    graph = CategoryGraph(
        k=1,
        nodes=["s", "a", "t"],
        edges=[
            Edge("s", "a", 1, F(2)),
            Edge("a", "t", 1, F(3)),
            Edge("s", "t", 1, F(6)),
        ],
    )
    w = classify_weights(1, [], [])
    assert efficient_paths(graph, "s", "t", w) == [((0, 1), (5,))]


def test_modes_on_tied_vectors():
    graph = _tie_graph()
    one = efficient_paths(graph, "s", "t", ORDINAL2, mode="one_per_vector")
    assert one == [((0, 1), (2, 0))]
    both = efficient_paths(graph, "s", "t", ORDINAL2, mode="all_paths")
    assert both == [((0, 1), (2, 0)), ((2, 3), (2, 0))]
    with pytest.raises(PathCapExceeded):
        efficient_paths(graph, "s", "t", ORDINAL2, mode="all_paths", cap=1)


def test_results_are_deterministic():
    graph = load_fixture("twin_corridor.json")
    first = efficient_paths(graph, "s", "t", ORDINAL2, mode="all_paths")
    second = efficient_paths(graph, "s", "t", ORDINAL2, mode="all_paths")
    assert first == second


def test_solver_matches_enumeration_small_random():
    # Fractional lengths and weights make the solver's integer scaling of
    # transformed costs use factors other than 1.
    rng = random.Random(17)
    checked = 0
    fractional_lengths = 0
    while checked < 12:
        k = rng.randint(2, 3)
        graph, source, target = random_graph(
            rng, k, max_nodes=8, max_edges=14, fractional=True
        )
        w = pointed_weights(rng, k)
        try:
            paths = enumerate_simple_paths(graph, source, target, cap=3000)
        except PathCapExceeded:
            continue
        solved = efficient_paths(graph, source, target, w, mode="all_paths")
        one = efficient_paths(graph, source, target, w, mode="one_per_vector")
        if not paths:
            assert solved == [] and one == []
            continue
        outcomes = [counting_vector(graph, p) for p in paths]
        kept = filter_nondominated(facet_matrix(w), PointSet.from_vectors(outcomes))
        efficient_vectors = set(kept.points)
        expected_paths = {
            p for p, o in zip(paths, outcomes) if o in efficient_vectors
        }
        assert {p for p, _ in solved} == expected_paths
        assert {v for _, v in solved} == efficient_vectors
        assert {v for _, v in one} == efficient_vectors
        assert len(one) == len(efficient_vectors)
        for path, counts in solved:
            assert counts == counting_vector(graph, path)
            nodes = graph.path_nodes(path)
            assert len(set(nodes)) == len(nodes)
        rows = facet_matrix(w).rows
        for results in (solved, one):
            costs = [mat_vec(rows, v) for _, v in results]
            assert costs == sorted(costs)
        fractional_lengths += any(e.length.denominator != 1 for e in graph.edges)
        checked += 1
    assert fractional_lengths > 0


class _RefLabel:
    __slots__ = ("node", "tcost", "visited", "pred", "edge")

    def __init__(self, node, tcost, visited, pred, edge) -> None:
        self.node = node
        self.tcost = tcost
        self.visited = visited
        self.pred = pred
        self.edge = edge


def _ref_scaled(value, scale):
    return value.numerator * (scale // value.denominator)


def _ref_strictly_dominated(tcost, permanent, merge_equal):
    for other in permanent:
        if all(map(le, other, tcost)):
            if other != tcost or merge_equal:
                return True
    return False


def _ref_path_of(label):
    edges = []
    while label.pred is not None:
        edges.append(label.edge)
        label = label.pred
    edges.reverse()
    return tuple(edges)


def _reference_efficient_paths(graph, source, target, weights, mode, cap):
    """The label loop as it was before node numbers and bitmasks.

    Nodes are looked up by name, each label carries a frozenset of visited
    names, and a popped label is rescanned against every permanent label at
    its node.  It is the reference that efficient_paths must match exactly:
    the same paths and vectors in the same order, and the same cap overflow.
    """
    if source == target:
        return [((), zeros(graph.k))]

    hrep = facet_matrix(weights)
    matrix_scale = lcm(*(x.denominator for row in hrep.rows for x in row))
    length_scale = lcm(*(edge.length.denominator for edge in graph.edges))
    columns = transpose(
        tuple(tuple(_ref_scaled(x, matrix_scale) for x in row) for row in hrep.rows)
    )
    cost_of_edge = [
        tuple(
            _ref_scaled(edge.length, length_scale) * c
            for c in columns[edge.category - 1]
        )
        for edge in graph.edges
    ]
    merge_equal = mode == "one_per_vector"
    rows = len(hrep.rows)

    counter = itertools.count()
    start = _RefLabel(
        node=source,
        tcost=(0,) * rows,
        visited=frozenset((source,)),
        pred=None,
        edge=None,
    )
    heap = [(start.tcost, source, next(counter), start)]
    permanent = {name: [] for name in graph.nodes}
    finished = []
    while heap:
        _, _, _, label = heapq.heappop(heap)
        if _ref_strictly_dominated(label.tcost, permanent[label.node], merge_equal):
            continue
        permanent[label.node].append(label.tcost)
        if label.node == target:
            finished.append(label)
            if cap is not None and len(finished) > cap:
                raise PathCapExceeded(
                    f"more than {cap} efficient paths; raise the cap to continue"
                )
            # A simple path never leaves and re-enters its endpoint, so
            # labels at the target need no extension.
            continue
        for edge_index in graph.adjacency[label.node]:
            edge = graph.edges[edge_index]
            if edge.dst in label.visited:
                continue
            tcost = vec_add(label.tcost, cost_of_edge[edge_index])
            if _ref_strictly_dominated(tcost, permanent[edge.dst], merge_equal):
                continue
            heapq.heappush(
                heap,
                (
                    tcost,
                    edge.dst,
                    next(counter),
                    _RefLabel(
                        node=edge.dst,
                        tcost=tcost,
                        visited=label.visited | {edge.dst},
                        pred=label,
                        edge=edge_index,
                    ),
                ),
            )
    paths = [_ref_path_of(label) for label in finished]
    return [(path, counting_vector(graph, path)) for path in paths]


def _outcome(solver, *args):
    try:
        return solver(*args)
    except PathCapExceeded as exc:
        return str(exc)


def test_solver_matches_reference_label_loop():
    # Node ids are drawn so that declaration order, numeric order and sorted
    # order all differ ("v7" sorts after "v10").  Short integer lengths and
    # repeated edges make costs tie, so the heap's tie-break decides the
    # order; unreachable targets, source == target and cap overflows occur
    # too, and each kind is counted so the seed keeps covering it.
    rng = random.Random(19)
    seen = {"unreachable": 0, "same": 0, "parallel": 0, "capped": 0, "tied": 0}
    for trial in range(360):
        k = 1 + trial % 4
        n = rng.randint(2, 9)
        names = [f"v{i}" for i in rng.sample(range(40), n)]
        edges = []
        for _ in range(rng.randint(1, 3 * n)):
            a, b = rng.sample(names, 2)
            if rng.random() < 0.6:
                length = Fraction(rng.randint(1, 2))
            else:
                length = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            edges.append(Edge(a, b, rng.randint(1, k), length))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        graph = CategoryGraph(k=k, nodes=names, edges=edges)
        source, target = rng.sample(names, 2)
        if rng.random() < 0.1:
            source = target
        w = pointed_weights(rng, k, positive=rng.random() < 0.5)
        for mode in ("one_per_vector", "all_paths"):
            args = (graph, source, target, w, mode, None)
            expected = _reference_efficient_paths(*args)
            assert efficient_paths(*args) == expected, (trial, mode)
            if len(expected) > 1:
                cap = rng.randrange(len(expected))
                capped = (graph, source, target, w, mode, cap)
                reference = _outcome(_reference_efficient_paths, *capped)
                assert isinstance(reference, str)
                assert _outcome(efficient_paths, *capped) == reference, (trial, mode)
                seen["capped"] += 1
            if mode == "all_paths":
                vectors = [v for _, v in expected]
                seen["tied"] += len(set(vectors)) < len(vectors)
                seen["unreachable"] += not expected
                seen["same"] += source == target
        pairs = [(e.src, e.dst) for e in edges]
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 20, seen


def test_weight_sweep_records_errors_per_row():
    graph = _tie_graph()
    grid = [
        ORDINAL2,
        classify_weights(2, [2], ["0.5"]),
        classify_weights(2, [2], [0]),
    ]
    rows = weight_sweep(graph, "s", "t", grid)
    assert rows[0].vector_count == 1
    assert rows[0].path_count == 1
    assert rows[0].error is None
    assert rows[1].vector_count is None
    assert rows[1].error is not None
    assert "pointed" in rows[1].error
    assert rows[2].vector_count == 1
    assert all(r.runtime_ms >= 0 for r in rows)


def test_weight_sweep_records_cap_overflow():
    graph = _tie_graph()
    rows = weight_sweep(graph, "s", "t", [ORDINAL2], mode="all_paths", cap=1)
    assert rows[0].error is not None
    assert "cap" in rows[0].error


def test_merged_weight_sweep_matches_lifted_enumeration():
    # With strict=False degenerate cells are merged and routed in the merged
    # space.  The oracle enumerates every simple path, lifts its counting
    # vector with merge_degenerate's map and filters under the merged cone.
    rng = random.Random(41)
    checked = 0
    nonempty = 0
    while checked < 120:
        k = rng.randint(2, 4)
        graph, source, target = random_graph(
            rng, k, max_nodes=8, max_edges=16, fractional=True
        )
        w = degenerate_weights(rng, k)
        try:
            paths = enumerate_simple_paths(graph, source, target, cap=3000)
        except PathCapExceeded:
            continue
        active, lift = merge_degenerate(w)
        lifted = [mat_vec(lift, counting_vector(graph, p)) for p in paths]
        kept = (
            set(filter_nondominated(facet_matrix(active), PointSet.from_vectors(lifted)).points)
            if paths
            else set()
        )
        kept_paths = sum(v in kept for v in lifted)
        for mode, path_count in (("all_paths", kept_paths), ("one_per_vector", len(kept))):
            [row] = weight_sweep(graph, source, target, [w], mode=mode, strict=False)
            assert row.error is None
            assert row.vector_count == len(kept)
            assert row.path_count == path_count
        nonempty += bool(kept)
        checked += 1
    assert nonempty > 0
    # the merge needs weights for the graph's own category count
    [row] = weight_sweep(_tie_graph(), "s", "t", [degenerate_weights(rng, 3)], strict=False)
    assert "categories" in row.error
