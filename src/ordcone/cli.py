"""Command-line interface for cone inspection, dominance queries, and routing.

Exit codes are part of the contract:

* 0: success
* 1: usage errors, unreadable or malformed input files, unknown node ids
* 2: inadmissible weights (negative entries, a pair product above one, or a
     degenerate pair under --strict)
* 3: path-count cap exceeded
* 4: a verification check found a mismatch

All numeric output is exact: values whose denominator divides a power of
ten print as decimals, everything else as num/den.  JSON documents are
emitted with sorted keys, so identical configuration and seed produce
byte-identical output.  Degenerate weights are merged automatically (with a
notice on stderr) unless --strict is given; routing, dominance, and
filtering then happen in the merged outcome space, whose vectors are
reported alongside the originals.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path as FilePath
from typing import Sequence

from ordcone.cone import (
    SPECIAL_KINDS,
    ConeError,
    FormulaInapplicable,
    NegativeWeight,
    NotPointed,
    OutcomeSpace,
    ProductExceedsOne,
    SpecialCaseMismatch,
    Weights,
    classify_weights,
    facet_count,
    facet_matrix,
    mark_extreme_rays,
    outcome_space,
    representation_matrix,
    spanning_rays,
    special_matrix,
)
from ordcone.dominance import (
    DominanceError,
    PointSet,
    dominates,
    filter_nondominated,
    weakly_dominates,
)
from ordcone.exactnum import (
    ExactnumError,
    Vec,
    int_row,
    mat_vec,
    normalize_ray,
    parse_decimal,
    vec_sub,
)
from ordcone.oracle import (
    OracleError,
    double_description,
    enumerate_simple_paths,
    ray_membership,
    sampled_dual_check,
)
from ordcone.pathsolve import (
    MODES,
    CategoryGraph,
    GraphError,
    PathCapExceeded,
    UnknownNode,
    counting_vector,
    efficient_paths,
    map_graph,
    weight_sweep,
)


class CLIError(Exception):
    """Input problem surfaced to the user with exit code 1."""


class _UsageError(Exception):
    """Raised by the argument parser instead of exiting the process."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Global invocation options shared by every subcommand."""

    json_out: bool
    seed: int
    cap: int
    strict: bool


def _decimal_places(denominator: int) -> int | None:
    """Digits after the point of a fraction over this denominator, None if not 10-smooth."""
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    return max(twos, fives) if denominator == 1 else None


def fmt_exact(value: Fraction) -> str:
    """Render a rational exactly: decimal when finite, num/den otherwise."""
    if _decimal_places(value.denominator) is None:
        return f"{value.numerator}/{value.denominator}"
    return fmt_decimal(value)


def fmt_decimal(value: Fraction) -> str:
    """Exact decimal expansion; fails when the denominator is not 10-smooth."""
    if value.denominator == 1:
        return str(value.numerator)
    places = _decimal_places(value.denominator)
    if places is None:
        raise CLIError(f"{value} has no finite decimal expansion")
    scaled = abs(value.numerator) * 10**places // value.denominator
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def fmt_vec(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(fmt_exact(v) for v in values) + ")"


def json_vec(values: Sequence[Fraction]) -> list[str]:
    return [fmt_exact(v) for v in values]


def parse_vector(text: str, expected: int, what: str) -> Vec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise CLIError(f"{what} needs {expected} comma-separated values, got {len(parts)}")
    try:
        return tuple(parse_decimal(p) for p in parts)
    except ExactnumError as exc:
        raise CLIError(f"bad value in {what}: {exc}") from exc


def count_arg(text: str) -> int:
    """argparse type for counts (--cap, --samples): a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def add_weight_options(parser: argparse.ArgumentParser, with_k: bool = True) -> None:
    if with_k:
        parser.add_argument("--k", type=int, help="number of quality categories")
    parser.add_argument("--omega", metavar="X", help="decimal, broadcast to every pair")
    parser.add_argument(
        "--omega-vec", metavar="X,Y,...", help="per-pair decimals (K-1 values)"
    )
    parser.add_argument("--gamma", metavar="X", help="decimal, broadcast to every pair")
    parser.add_argument(
        "--gamma-vec", metavar="X,Y,...", help="per-pair decimals (K-1 values)"
    )


def weights_from_options(ns: argparse.Namespace, k: int) -> Weights:
    """Assemble weights from broadcast or per-pair options (default zero)."""

    def side(name: str, scalar: str | None, vector: str | None) -> Vec:
        if scalar is not None and vector is not None:
            raise CLIError(f"give either --{name} or --{name}-vec, not both")
        if vector is not None:
            return parse_vector(vector, k - 1, f"--{name}-vec")
        text = scalar if scalar is not None else "0"
        try:
            value = parse_decimal(text)
        except ExactnumError as exc:
            raise CLIError(f"bad --{name}: {exc}") from exc
        return (value,) * (k - 1)

    omega = side("omega", ns.omega, ns.omega_vec)
    gamma = side("gamma", ns.gamma, ns.gamma_vec)
    return classify_weights(k, omega, gamma)


def command_space(config: RunConfig, ns: argparse.Namespace, k: int) -> OutcomeSpace:
    """The outcome space of a command's weight options; a merge is noted on stderr."""
    space = outcome_space(weights_from_options(ns, k), config.strict)
    if space.merged:
        print(
            f"notice: degenerate pairs {list(space.original.degenerate)} merged; "
            f"continuing with K={space.active.k}",
            file=sys.stderr,
        )
    return space


def load_graph(path: str) -> CategoryGraph:
    try:
        text = FilePath(path).read_text()
    except OSError as exc:
        raise CLIError(f"cannot read graph file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(f"graph file is not valid JSON: {exc}") from exc
    return CategoryGraph.from_dict(data)


def emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# cone


def cmd_cone(config: RunConfig, ns: argparse.Namespace) -> int:
    if ns.k is None:
        raise CLIError("--k is required for the cone command")
    space = command_space(config, ns, ns.k)
    original, active = space.original, space.active
    vrep = mark_extreme_rays(spanning_rays(active))
    hrep = facet_matrix(active)
    try:
        count: int | None = facet_count(active)
        count_note = None
    except FormulaInapplicable as exc:
        count = None
        count_note = str(exc)
    kinds = []
    for kind in SPECIAL_KINDS:
        try:
            special_matrix(kind, original)
        except SpecialCaseMismatch:
            continue
        kinds.append(kind)
    rep = representation_matrix(active)

    if config.json_out:
        payload = {
            "k": original.k,
            "omega": json_vec(original.omega),
            "gamma": json_vec(original.gamma),
            "classification": original.classification,
            "degenerate_pairs": list(original.degenerate),
            "special_cases": kinds,
            "merged": {
                "k": active.k,
                "omega": json_vec(active.omega),
                "gamma": json_vec(active.gamma),
                "lift": [json_vec(row) for row in space.lift],
            }
            if space.merged
            else None,
            "spanning_rays": [
                {
                    "label": label,
                    "ray": json_vec(column),
                    "extreme": bool(flag),
                }
                for label, column, flag in zip(
                    vrep.labels, vrep.columns, vrep.extreme_mask or ()
                )
            ],
            "facets": [
                {"normal": json_vec(row), "selection": "".join(sel)}
                for row, sel in zip(hrep.rows, hrep.selections or ())
            ],
            "facet_count_closed_form": count,
            "facet_count_note": count_note,
            "representation_matrix": [json_vec(row) for row in rep],
        }
        emit_json(payload)
        return 0

    print(
        f"weights: K={original.k} omega=[{', '.join(json_vec(original.omega))}] "
        f"gamma=[{', '.join(json_vec(original.gamma))}]"
    )
    print(f"classification: {original.classification}")
    if original.degenerate:
        print(f"degenerate pairs: {list(original.degenerate)}")
    if space.merged:
        print(
            f"merged to K={active.k}: omega=[{', '.join(json_vec(active.omega))}] "
            f"gamma=[{', '.join(json_vec(active.gamma))}]"
        )
    print(f"special cases: {', '.join(kinds) if kinds else 'none'}")
    print("spanning rays:")
    for label, column, flag in zip(vrep.labels, vrep.columns, vrep.extreme_mask or ()):
        marker = "extreme" if flag else "redundant"
        print(f"  {label} = {fmt_vec(column)}  [{marker}]")
    print(f"facets: {len(hrep.rows)}")
    for row, sel in zip(hrep.rows, hrep.selections or ()):
        print(f"  {fmt_vec(row)}  selection={''.join(sel)}")
    if count is not None:
        print(f"closed-form facet count: {count}")
    else:
        print(f"closed-form facet count: not applicable ({count_note})")
    print("representation matrix:")
    for row in rep:
        print(f"  {fmt_vec(row)}")
    return 0


# ---------------------------------------------------------------------------
# dominates / filter


def cmd_dominates(config: RunConfig, ns: argparse.Namespace) -> int:
    if ns.k is None:
        raise CLIError("--k is required for the dominates command")
    space = command_space(config, ns, ns.k)
    y1 = parse_vector(ns.y1, ns.k, "--y1")
    y2 = parse_vector(ns.y2, ns.k, "--y2")
    a1 = space.map_vector(y1)
    a2 = space.map_vector(y2)
    hrep = facet_matrix(space.active)
    weak = weakly_dominates(hrep, a1, a2)
    strict = dominates(hrep, a1, a2)
    reverse_weak = weakly_dominates(hrep, a2, a1)
    if config.json_out:
        emit_json(
            {
                "y1": json_vec(y1),
                "y2": json_vec(y2),
                "weakly_dominates": weak,
                "dominates": strict,
                "reverse_weakly_dominates": reverse_weak,
                "merged": space.merged,
            }
        )
        return 0
    print(f"y1 = {fmt_vec(y1)}")
    print(f"y2 = {fmt_vec(y2)}")
    print(f"y1 weakly dominates y2: {'yes' if weak else 'no'}")
    print(f"y1 dominates y2: {'yes' if strict else 'no'}")
    print(f"y2 weakly dominates y1: {'yes' if reverse_weak else 'no'}")
    return 0


def load_points(ns: argparse.Namespace, k: int) -> PointSet:
    if (ns.points is None) == (ns.points_file is None):
        raise CLIError("give exactly one of --points or --points-file")
    if ns.points is not None:
        groups = [g for g in ns.points.split(";") if g.strip()]
        vectors = [parse_vector(g, k, "--points entry") for g in groups]
        return PointSet.from_vectors(vectors)
    try:
        data = json.loads(FilePath(ns.points_file).read_text())
    except OSError as exc:
        raise CLIError(f"cannot read points file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"points file is not valid JSON: {exc}") from exc
    vectors: list[Vec] = []
    ids: list[str] = []
    if not isinstance(data, list):
        raise CLIError("points file must hold a JSON list")
    for index, entry in enumerate(data):
        if isinstance(entry, dict):
            ids.append(str(entry.get("id", index)))
            raw = entry.get("vector")
        else:
            ids.append(str(index))
            raw = entry
        if not isinstance(raw, list) or len(raw) != k:
            raise CLIError(f"point {index} must be a list of {k} decimal strings")
        try:
            vectors.append(tuple(parse_decimal(str(v)) for v in raw))
        except ExactnumError as exc:
            raise CLIError(f"point {index}: {exc}") from exc
    return PointSet(points=tuple(vectors), ids=tuple(ids))


def cmd_filter(config: RunConfig, ns: argparse.Namespace) -> int:
    if ns.k is None:
        raise CLIError("--k is required for the filter command")
    space = command_space(config, ns, ns.k)
    points = load_points(ns, ns.k)
    # The library sees positional ids, so repeated or colliding input ids
    # cannot make a dominated point look kept.
    work = PointSet(
        points=tuple(space.map_vector(p) for p in points.points),
        ids=tuple(str(i) for i in range(len(points.points))),
    )
    kept = filter_nondominated(facet_matrix(space.active), work)
    survivors = [(points.ids[int(i)], points.points[int(i)]) for i in kept.ids]
    if config.json_out:
        emit_json(
            {
                "kept": [
                    {"id": pid, "vector": json_vec(point)} for pid, point in survivors
                ],
                "kept_count": len(survivors),
                "input_count": len(points.points),
                "merged": space.merged,
            }
        )
        return 0
    print(f"kept {len(survivors)} of {len(points.points)} points:")
    for pid, point in survivors:
        print(f"  {pid}: {fmt_vec(point)}")
    return 0


# ---------------------------------------------------------------------------
# route / sweep


def route_document(config: RunConfig, graph: CategoryGraph, ns: argparse.Namespace) -> dict:
    space = command_space(config, ns, graph.k)
    active = space.active
    cap = config.cap if ns.mode == "all_paths" else None
    results = efficient_paths(
        map_graph(space, graph), ns.source, ns.target, active, mode=ns.mode, cap=cap
    )
    hrep = facet_matrix(active)
    paths = []
    for path, active_counts in results:
        entry = {
            "nodes": list(graph.path_nodes(path)) if path else [ns.source],
            "edge_indices": list(path),
            "count_vector": json_vec(counting_vector(graph, path)),
            "transformed_cost": json_vec(mat_vec(hrep.rows, active_counts)),
        }
        if space.merged:
            entry["merged_count_vector"] = json_vec(active_counts)
        paths.append(entry)
    return {
        "source": ns.source,
        "target": ns.target,
        "mode": ns.mode,
        "k": graph.k,
        "omega": json_vec(space.original.omega),
        "gamma": json_vec(space.original.gamma),
        "merged": {"k": active.k, "omega": json_vec(active.omega), "gamma": json_vec(active.gamma)}
        if space.merged
        else None,
        "paths": paths,
        "path_count": len(paths),
        "vector_count": len({counts for _, counts in results}),
    }


def cmd_route(config: RunConfig, ns: argparse.Namespace) -> int:
    graph = load_graph(ns.graph)
    emit_json(route_document(config, graph, ns))
    return 0


def parse_grid(text: str, k: int, what: str) -> list[Vec]:
    """Parse a grid: entries separated by ';', each a scalar or a K-1 vector."""
    cells: list[Vec] = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = [p.strip() for p in token.split(",")]
        try:
            values = [parse_decimal(p) for p in parts]
        except ExactnumError as exc:
            raise CLIError(f"bad value in {what}: {exc}") from exc
        if len(values) == 1:
            cells.append(tuple(values * (k - 1)))
        elif len(values) == k - 1:
            cells.append(tuple(values))
        else:
            raise CLIError(
                f"{what} entries must be scalars or {k - 1}-vectors, got {len(values)} values"
            )
    if not cells:
        raise CLIError(f"{what} is empty")
    return cells


def cmd_sweep(config: RunConfig, ns: argparse.Namespace) -> int:
    graph = load_graph(ns.graph)
    for node in (ns.source, ns.target):
        if node not in graph.adjacency:
            raise UnknownNode(node)
    omega_cells = parse_grid(ns.omega_grid, graph.k, "--omega-grid")
    gamma_cells = parse_grid(ns.gamma_grid, graph.k, "--gamma-grid")
    # (omega text, gamma text, weights, or the message of inadmissible ones)
    cells: list[tuple[str, str, Weights | str]] = []
    for omega in omega_cells:
        for gamma in gamma_cells:
            try:
                weights: Weights | str = classify_weights(graph.k, omega, gamma)
            except ConeError as exc:
                weights = str(exc)
            cells.append(
                (",".join(map(fmt_exact, omega)), ",".join(map(fmt_exact, gamma)), weights)
            )
    grid = [weights for _, _, weights in cells if isinstance(weights, Weights)]
    cap = config.cap if ns.mode == "all_paths" else None
    solved = iter(weight_sweep(graph, ns.source, ns.target, grid, ns.mode, cap, config.strict))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["omega", "gamma", "vector_count", "path_count", "runtime_ms"])
    for omega_text, gamma_text, weights in cells:
        row = next(solved) if isinstance(weights, Weights) else None
        error = weights if row is None else row.error
        if error is not None:
            print(f"sweep: omega={omega_text} gamma={gamma_text}: {error}", file=sys.stderr)
            writer.writerow([omega_text, gamma_text, "", "", ""])
            continue
        runtime = "" if ns.no_timings else f"{row.runtime_ms:.3f}"
        writer.writerow([omega_text, gamma_text, row.vector_count, row.path_count, runtime])
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig, ns: argparse.Namespace) -> int:
    graph = load_graph(ns.graph) if ns.graph else None
    if graph is not None:
        k = graph.k
    elif ns.k is not None:
        k = ns.k
    else:
        raise CLIError("verify needs --k or --graph")
    space = command_space(config, ns, k)
    active = space.active
    checks: list[tuple[str, str, str]] = []  # name, status, detail

    vrep = spanning_rays(active)
    hrep = facet_matrix(active)
    rows = list(hrep.rows)
    if ns.debug_corrupt_facet is not None:
        index = ns.debug_corrupt_facet
        if not 0 <= index < len(rows):
            raise CLIError(f"--debug-corrupt-facet row {index} out of range")
        corrupted = list(rows[index])
        corrupted[0] += 1
        rows[index] = tuple(corrupted)

    primary_normals = {normalize_ray(row): i for i, row in enumerate(rows)}
    oracle_normals = double_description(vrep)
    if set(primary_normals) == oracle_normals:
        checks.append(
            ("facets-vs-double-description", "ok", f"{len(oracle_normals)} facets agree")
        )
    else:
        extra = [
            f"row {i}: {fmt_vec(rows[i])}"
            for normal, i in sorted(primary_normals.items(), key=lambda kv: kv[1])
            if normal not in oracle_normals
        ]
        missing = [fmt_vec(n) for n in sorted(oracle_normals - set(primary_normals))]
        detail = "; ".join(
            (["offending " + e for e in extra]) + ["missing " + m for m in missing]
        )
        checks.append(("facets-vs-double-description", "mismatch", detail))

    marked = mark_extreme_rays(vrep)
    mask = marked.extreme_mask or ()
    kept_columns = [c for c, flag in zip(marked.columns, mask) if flag]
    details: list[str] = []
    for label, column, flag in zip(marked.labels, marked.columns, mask):
        others = [c for c in kept_columns if c is not column]
        if ray_membership(others, column).feasible == flag:
            details.append(
                f"column {label} marked extreme yet redundant"
                if flag
                else f"column {label} unmarked but not generated by marked rays"
            )
    checks.append(
        (
            "extreme-rays-vs-membership",
            "mismatch" if details else "ok",
            "; ".join(details) if details else f"{sum(mask)} of {len(mask)} columns extreme",
        )
    )

    scaled_rows = [int_row(row) for row in rows]
    rng = random.Random(config.seed)
    mismatches = 0
    for _ in range(ns.samples):
        y1 = tuple(Fraction(rng.randint(0, 6)) for _ in range(k))
        y2 = tuple(Fraction(rng.randint(0, 6)) for _ in range(k))
        difference = vec_sub(space.map_vector(y2), space.map_vector(y1))
        scaled_difference = int_row(difference)
        primary = all(sum(map(mul, row, scaled_difference)) >= 0 for row in scaled_rows)
        cert = ray_membership(vrep, difference)
        if primary != cert.feasible or not cert.verify(vrep.columns, difference):
            mismatches += 1
            continue
        if primary and not sampled_dual_check(space.original, y1, y2):
            mismatches += 1
    checks.append(
        (
            "dominance-vs-ray-membership",
            "ok" if mismatches == 0 else "mismatch",
            f"{ns.samples} sampled pairs"
            if mismatches == 0
            else f"{mismatches} of {ns.samples} sampled pairs disagree",
        )
    )

    if graph is not None:
        work_graph = map_graph(space, graph)
        try:
            all_paths = enumerate_simple_paths(work_graph, ns.source, ns.target, cap=config.cap)
        except PathCapExceeded:
            checks.append(
                (
                    "solver-vs-enumeration",
                    "skipped",
                    f"more than {config.cap} simple paths; raise --cap to run this check",
                )
            )
            all_paths = None
        if all_paths is not None:
            solved = efficient_paths(
                work_graph, ns.source, ns.target, active, mode="all_paths", cap=None
            )
            if all_paths:
                outcomes = [counting_vector(work_graph, p) for p in all_paths]
                kept = filter_nondominated(
                    hrep,
                    PointSet.from_vectors(outcomes, ids=[str(i) for i in range(len(outcomes))]),
                )
                reference_vectors = set(kept.points)
                expected = {tuple(p) for p, v in zip(all_paths, outcomes) if v in reference_vectors}
            else:
                expected = set()
                reference_vectors = set()
            got = {p for p, _ in solved}
            agree = got == expected and {v for _, v in solved} == reference_vectors
            checks.append(
                (
                    "solver-vs-enumeration",
                    "ok" if agree else "mismatch",
                    f"{len(got)} efficient paths over {len(all_paths)} simple paths"
                    if agree
                    else f"solver {len(got)} paths vs enumeration {len(expected)}",
                )
            )

    failed = [c for c in checks if c[1] == "mismatch"]
    if config.json_out:
        emit_json(
            {
                "checks": [
                    {"name": name, "status": status, "detail": detail}
                    for name, status, detail in checks
                ],
                "ok": not failed,
            }
        )
    else:
        for name, status, detail in checks:
            print(f"check {name}: {status} ({detail})")
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# export-geojson


def cmd_export_geojson(config: RunConfig, ns: argparse.Namespace) -> int:
    graph = load_graph(ns.graph)
    try:
        result = json.loads(FilePath(ns.result).read_text())
    except OSError as exc:
        raise CLIError(f"cannot read result file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"result file is not valid JSON: {exc}") from exc
    paths = result.get("paths") if isinstance(result, dict) else None
    if not isinstance(paths, list):
        raise CLIError('result file lacks a "paths" list; is it a route document?')
    for index, entry in enumerate(paths):
        nodes = entry.get("nodes", []) if isinstance(entry, dict) else None
        if not (
            isinstance(nodes, list)
            and all(isinstance(node, str) for node in nodes)
            and isinstance(entry.get("count_vector", []), list)
        ):
            raise CLIError(f"path {index} of the result file is not a route path object")
    needed = {node for entry in paths for node in entry.get("nodes", [])}
    if ns.include_edges:
        needed.update(n for e in graph.edges for n in (e.src, e.dst))
    missing = sorted(n for n in needed if n not in graph.coords)
    if missing:
        raise CLIError(f"nodes lack coordinates: {', '.join(missing)}")
    features = []
    for index, entry in enumerate(paths):
        nodes = entry.get("nodes", [])
        counts = [fmt_decimal(parse_exact(v)) for v in entry.get("count_vector", [])]
        breakdown = {str(cat + 1): counts[cat] for cat in range(len(counts))}
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [
                        [graph.coords[n][1], graph.coords[n][0]] for n in nodes
                    ],
                },
                "properties": {
                    "path_index": index,
                    "count_vector": counts,
                    "category_breakdown": breakdown,
                },
            }
        )
    if ns.include_edges:
        for index, edge in enumerate(graph.edges):
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [
                            [graph.coords[edge.src][1], graph.coords[edge.src][0]],
                            [graph.coords[edge.dst][1], graph.coords[edge.dst][0]],
                        ],
                    },
                    "properties": {
                        "edge_index": index,
                        "category": edge.category,
                        "length": fmt_decimal(edge.length),
                    },
                }
            )
    collection = {"type": "FeatureCollection", "features": features}
    text = json.dumps(collection, indent=2, sort_keys=True) + "\n"
    if ns.out == "-":
        sys.stdout.write(text)
    else:
        try:
            FilePath(ns.out).write_text(text)
        except OSError as exc:
            raise CLIError(f"cannot write output file: {exc}") from exc
        print(f"wrote {len(features)} features to {ns.out}")
    return 0


def parse_exact(text: str) -> Fraction:
    """Parse an exact value as emitted by this tool: decimal or num/den."""
    text = str(text).strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return parse_decimal(text)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"not an exact value: {text!r}") from None


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ordcone",
        description="Weighted ordinal dominance cones and category-aware routing.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument(
        "--cap", type=count_arg, default=100_000, help="path-count cap for all-paths work"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="reject degenerate weights instead of merging them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cone", help="classify weights and print the cone's descriptions")
    add_weight_options(p)
    p.set_defaults(handler=cmd_cone)

    p = sub.add_parser("dominates", help="test dominance between two outcome vectors")
    add_weight_options(p)
    p.add_argument("--y1", required=True, help="comma-separated decimals")
    p.add_argument("--y2", required=True, help="comma-separated decimals")
    p.set_defaults(handler=cmd_dominates)

    p = sub.add_parser("filter", help="keep the nondominated subset of a point list")
    add_weight_options(p)
    p.add_argument("--points", help='inline points: "1,1;0,2;2,0"')
    p.add_argument("--points-file", help="JSON list of vectors (decimal strings)")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("route", help="enumerate efficient source-target paths")
    add_weight_options(p, with_k=False)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=MODES, default="one_per_vector")
    p.set_defaults(handler=cmd_route)

    p = sub.add_parser("sweep", help="run a weight grid and emit CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--omega-grid", required=True, help='";"-separated scalars or vectors')
    p.add_argument("--gamma-grid", required=True, help='";"-separated scalars or vectors')
    p.add_argument("--mode", choices=MODES, default="one_per_vector")
    p.add_argument(
        "--no-timings",
        action="store_true",
        help="omit runtime values for byte-reproducible output",
    )
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="cross-check primary results against the oracles")
    add_weight_options(p)
    p.add_argument("--graph", help="optional graph JSON file (enables the solver check)")
    p.add_argument("--source", help="required with --graph")
    p.add_argument("--target", help="required with --graph")
    p.add_argument("--samples", type=count_arg, default=50, help="sampled dominance pairs")
    p.add_argument(
        "--debug-corrupt-facet",
        type=int,
        metavar="ROW",
        help="deliberately corrupt one facet row to demonstrate failure reporting",
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("export-geojson", help="render a route result as GeoJSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--result", required=True, help="route command output (JSON file)")
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    p.add_argument(
        "--include-edges",
        action="store_true",
        help="also emit every graph edge as a feature",
    )
    p.set_defaults(handler=cmd_export_geojson)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    config = RunConfig(json_out=ns.json, seed=ns.seed, cap=ns.cap, strict=ns.strict)
    try:
        if ns.command == "verify" and ns.graph and not (ns.source and ns.target):
            raise CLIError("verify with --graph needs --source and --target")
        return ns.handler(config, ns)
    except (NegativeWeight, ProductExceedsOne, NotPointed) as exc:
        print(f"weights error: {exc}", file=sys.stderr)
        return 2
    except PathCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (
        CLIError,
        ConeError,
        GraphError,
        OracleError,
        DominanceError,
        ExactnumError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
