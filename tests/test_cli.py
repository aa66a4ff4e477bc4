"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from instancegen import DATA_DIR
from ordcone.cli import fmt_decimal, fmt_exact, main, parse_exact
from ordcone.cone import classify_weights, merge_degenerate
from ordcone.exactnum import mat_vec
from fractions import Fraction

F = Fraction

LOOP = str(DATA_DIR / "loop_detour.json")
TWIN = str(DATA_DIR / "twin_corridor.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_exact_and_parse_exact():
    assert fmt_exact(F(1, 4)) == "0.25"
    assert fmt_exact(F(-5, 2)) == "-2.5"
    assert fmt_exact(F(1, 3)) == "1/3"
    assert fmt_exact(F(7)) == "7"
    assert parse_exact("0.25") == F(1, 4)
    assert parse_exact("1/3") == F(1, 3)
    assert fmt_decimal(F(1, 8)) == "0.125"
    from ordcone.cli import CLIError

    with pytest.raises(CLIError):
        fmt_decimal(F(1, 3))


def test_cone_text_output(capsys):
    code, out, err = run(
        capsys, "cone", "--k", "3", "--omega-vec", "1.5,1.5", "--gamma-vec", "0.2,0"
    )
    assert code == 0
    assert err == ""
    assert "classification: pointed" in out
    assert "facets: 3" in out
    assert "closed-form facet count: 3" in out
    assert "[redundant]" in out
    assert "special cases: none" in out


def test_cone_json_output(capsys):
    code, out, err = run(capsys, "--json", "cone", "--k", "2", "--omega", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "pointed"
    assert doc["special_cases"] == ["standard_ordinal", "gamma_zero", "k2"]
    assert doc["facets"] == [
        {"normal": ["1", "1"], "selection": "u"},
        {"normal": ["0", "1"], "selection": "g"},
    ]
    assert doc["facet_count_closed_form"] == 2
    assert doc["merged"] is None
    assert [r["extreme"] for r in doc["spanning_rays"]] == [True, True]


def test_cone_merges_degenerate_weights(capsys):
    code, out, err = run(capsys, "cone", "--k", "2", "--omega", "2", "--gamma", "0.5")
    assert code == 0
    assert "merged" in err
    assert "classification: degenerate" in out
    assert "merged to K=1" in out


def test_cone_strict_rejects_degenerate(capsys):
    code, out, err = run(
        capsys, "--strict", "cone", "--k", "2", "--omega", "2", "--gamma", "0.5"
    )
    assert code == 2
    assert "strict" in err


def test_weight_error_exit_codes(capsys):
    code, _, err = run(capsys, "cone", "--k", "2", "--omega", "-1")
    assert code == 2
    assert "negative" in err
    code, _, err = run(capsys, "cone", "--k", "2", "--omega", "2", "--gamma", "0.6")
    assert code == 2
    assert "exceeds one" in err


def test_usage_and_input_errors_exit_one(capsys):
    assert run(capsys, "cone")[0] == 1  # missing --k
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "cone", "--k", "2", "--omega", "1", "--omega-vec", "1")[0] == 1
    assert run(capsys, "cone", "--k", "2", "--omega", "abc")[0] == 1
    assert run(capsys, "cone", "--k", "3", "--omega-vec", "1")[0] == 1
    assert (
        run(capsys, "route", "--graph", LOOP, "--source", "s", "--target", "t",
            "--mode", "fastest")[0]
        == 1
    )
    negative_counts = (
        ("--cap", "-1", "route", "--graph", LOOP, "--source", "s", "--target", "t",
         "--omega", "1", "--mode", "all_paths"),
        ("verify", "--k", "2", "--omega", "1", "--samples", "-5"),
    )
    for args in negative_counts:
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and err.count("\n") == 1


def test_dominates_json(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "dominates",
        "--k",
        "2",
        "--omega",
        "1",
        "--y1",
        "1,1",
        "--y2",
        "0,2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "y1": ["1", "1"],
        "y2": ["0", "2"],
        "weakly_dominates": True,
        "dominates": True,
        "reverse_weakly_dominates": False,
        "merged": False,
    }


def test_dominates_merged_space(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "dominates",
        "--k",
        "2",
        "--omega",
        "2",
        "--gamma",
        "0.5",
        "--y1",
        "0,1",
        "--y2",
        "2,0",
    )
    assert code == 0
    assert "merged" in err
    doc = json.loads(out)
    # both collapse to the merged value 2, so they tie
    assert doc["weakly_dominates"] is True
    assert doc["reverse_weakly_dominates"] is True
    assert doc["dominates"] is False
    assert doc["merged"] is True


def test_filter_inline_points(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "filter",
        "--k",
        "2",
        "--omega",
        "1",
        "--points",
        "1,1;0,2;2,0;0,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kept"] == [
        {"id": "2", "vector": ["2", "0"]},
        {"id": "3", "vector": ["0", "1"]},
    ]
    assert doc["kept_count"] == 2
    assert doc["input_count"] == 4


def test_filter_points_file(capsys, tmp_path):
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps([{"id": "x", "vector": ["1", "1"]}, ["0", "2"]])
    )
    code, out, _ = run(
        capsys, "--json", "filter", "--k", "2", "--omega", "1",
        "--points-file", str(points),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kept"] == [{"id": "x", "vector": ["1", "1"]}]

    # an explicit id equal to another entry's position must not keep the
    # dominated point (2, 2)
    points.write_text(json.dumps([{"id": "1", "vector": ["2", "2"]}, ["1", "1"]]))
    code, out, _ = run(capsys, "--json", "filter", "--k", "2", "--points-file", str(points))
    assert code == 0
    doc = json.loads(out)
    assert doc["kept"] == [{"id": "1", "vector": ["1", "1"]}]
    assert doc["kept_count"] == 1

    assert run(capsys, "filter", "--k", "2", "--omega", "1")[0] == 1
    assert (
        run(capsys, "filter", "--k", "2", "--points", "1,1",
            "--points-file", str(points))[0]
        == 1
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "filter", "--k", "2", "--points-file", str(bad))[0] == 1


def test_route_json_document(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "route",
        "--graph",
        LOOP,
        "--source",
        "s",
        "--target",
        "t",
        "--omega",
        "1",
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["k"] == 2
    assert doc["path_count"] == 2
    assert doc["vector_count"] == 2
    assert doc["merged"] is None
    first, second = doc["paths"]
    assert first["nodes"] == ["s", "t"]
    assert first["edge_indices"] == [9]
    assert first["count_vector"] == ["0", "1"]
    assert first["transformed_cost"] == ["1", "1"]
    assert second["count_vector"] == ["9", "0"]
    assert second["transformed_cost"] == ["9", "0"]
    assert second["nodes"][0] == "s" and second["nodes"][-1] == "t"


def test_route_is_byte_deterministic(capsys):
    args = (
        "--json", "route", "--graph", TWIN, "--source", "s", "--target", "t",
        "--omega", "1", "--mode", "all_paths",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_route_merged_degenerate_weights(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "--json",
        "route",
        "--graph",
        LOOP,
        "--source",
        "s",
        "--target",
        "t",
        "--omega",
        "2",
        "--gamma",
        "0.5",
    )
    assert code == 0
    assert "merged" in err
    doc = json.loads(out)
    assert doc["merged"] == {"k": 1, "omega": [], "gamma": []}
    assert doc["path_count"] == 1
    path = doc["paths"][0]
    assert path["count_vector"] == ["0", "1"]
    assert path["merged_count_vector"] == ["2"]
    assert path["transformed_cost"] == ["2"]

    # K=3 with both pairs degenerate: two merge steps fold all three
    # categories into one, and every path's vector goes through the lift
    three = tmp_path / "three.json"
    three.write_text(json.dumps({
        "K": 3,
        "nodes": [{"id": n} for n in ("s", "a", "b", "t")],
        "edges": [
            {"from": "s", "to": "a", "category": 1, "length": "2"},
            {"from": "a", "to": "t", "category": 3, "length": "1"},
            {"from": "s", "to": "b", "category": 2, "length": "1"},
            {"from": "b", "to": "t", "category": 3, "length": "1"},
            {"from": "s", "to": "t", "category": 2, "length": "2"},
            {"from": "s", "to": "t", "category": 1, "length": "7"},
        ],
    }))
    _, lift = merge_degenerate(classify_weights(3, [2, 1], ["0.5", 1]))
    assert lift == ((F(1), F(2), F(2)),)
    code, out, err = run(
        capsys, "--json", "route", "--graph", str(three), "--source", "s",
        "--target", "t", "--omega-vec", "2,1", "--gamma-vec", "0.5,1",
        "--mode", "all_paths",
    )
    assert code == 0
    assert "merged" in err
    doc = json.loads(out)
    assert doc["merged"]["k"] == 1
    assert doc["path_count"] == 3
    for path in doc["paths"]:
        counts = tuple(parse_exact(v) for v in path["count_vector"])
        assert [parse_exact(v) for v in path["merged_count_vector"]] == list(
            mat_vec(lift, counts)
        )
        assert path["merged_count_vector"] == ["4"]


def test_route_error_paths(capsys, tmp_path):
    assert (
        run(capsys, "route", "--graph", LOOP, "--source", "zz", "--target", "t")[0]
        == 1
    )
    assert (
        run(capsys, "route", "--graph", str(tmp_path / "missing.json"),
            "--source", "s", "--target", "t")[0]
        == 1
    )
    mangled = tmp_path / "mangled.json"
    mangled.write_text("[1, 2")
    assert (
        run(capsys, "route", "--graph", str(mangled), "--source", "s",
            "--target", "t")[0]
        == 1
    )
    # sweep checks both endpoints once: one error line, no CSV
    assert run(
        capsys, "sweep", "--graph", LOOP, "--source", "s", "--target", "nope",
        "--omega-grid", "1;2", "--gamma-grid", "0",
    ) == (1, "", "error: unknown node id: 'nope'\n")


def test_route_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "--cap",
        "1",
        "route",
        "--graph",
        LOOP,
        "--source",
        "s",
        "--target",
        "t",
        "--omega",
        "1",
        "--mode",
        "all_paths",
    )
    assert code == 3
    assert "cap" in err


def test_sweep_csv_output(capsys):
    args = (
        "sweep", "--graph", LOOP, "--source", "s", "--target", "t",
        "--omega-grid", "2", "--gamma-grid", "0;0.5;0.6", "--no-timings",
    )
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        "omega,gamma,vector_count,path_count,runtime_ms",
        "2,0,2,2,",
        "2,0.5,1,1,",
        "2,0.6,,,",
    ]
    assert "exceeds one" in err
    # byte-for-byte reproducible with --no-timings
    _, out2, _ = run(capsys, *args)
    assert out == out2


def test_sweep_strict_skips_degenerate_cells(capsys):
    code, out, err = run(
        capsys,
        "--strict",
        "sweep",
        "--graph",
        LOOP,
        "--source",
        "s",
        "--target",
        "t",
        "--omega-grid",
        "2",
        "--gamma-grid",
        "0.5",
        "--no-timings",
    )
    assert code == 0
    assert out.splitlines()[1] == "2,0.5,,,"
    assert "strict" in err


def test_sweep_with_timings_fills_runtime(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--graph", LOOP, "--source", "s", "--target", "t",
        "--omega-grid", "1", "--gamma-grid", "0",
    )
    assert code == 0
    line = out.splitlines()[1]
    assert line.startswith("1,0,2,2,")
    assert line.split(",")[-1] != ""


def test_verify_clean_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "3", "--omega", "1.5", "--gamma", "0.2",
        "--samples", "8",
    )
    assert code == 0
    assert "check facets-vs-double-description: ok" in out
    assert "check extreme-rays-vs-membership: ok" in out
    assert "check dominance-vs-ray-membership: ok" in out
    # K = 1, and weights that merge to K = 1, verify the single ray e1
    for args in (
        ("--k", "2", "--omega", "2", "--gamma", "0.5"),
        ("--k", "1"),
        ("--k", "3", "--omega", "2", "--gamma", "0.5"),
        ("--graph", LOOP, "--source", "s", "--target", "t", "--omega", "2", "--gamma", "0.5"),
    ):
        code, out, _ = run(capsys, "verify", "--samples", "8", *args)
        assert code == 0, args
        checks = [line for line in out.splitlines() if line.startswith("check ")]
        assert len(checks) == (4 if "--graph" in args else 3)
        assert all(": ok (" in line for line in checks), out


def test_verify_with_graph_and_seed(capsys):
    code, out, _ = run(
        capsys,
        "--seed", "7",
        "verify", "--graph", LOOP, "--source", "s", "--target", "t",
        "--omega", "1", "--samples", "6",
    )
    assert code == 0
    assert "check solver-vs-enumeration: ok" in out


def test_verify_detects_corruption(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "verify", "--k", "3", "--omega", "1.5", "--gamma", "0.2",
        "--samples", "4", "--debug-corrupt-facet", "1",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["ok"] is False
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["facets-vs-double-description"] == "mismatch"
    detail = next(
        c["detail"] for c in doc["checks"]
        if c["name"] == "facets-vs-double-description"
    )
    assert "offending row 1" in detail
    assert "missing" in detail


def test_verify_argument_errors(capsys):
    assert run(capsys, "verify", "--omega", "1")[0] == 1  # neither --k nor --graph
    assert (
        run(capsys, "verify", "--graph", LOOP, "--omega", "1")[0] == 1
    )  # --graph without endpoints
    assert (
        run(capsys, "verify", "--k", "2", "--omega", "1",
            "--debug-corrupt-facet", "9")[0]
        == 1
    )


def test_export_geojson(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "--json", "route", "--graph", LOOP, "--source", "s", "--target", "t",
        "--omega", "1",
    )
    assert code == 0
    result = tmp_path / "route.json"
    result.write_text(out)

    dest = tmp_path / "routes.geojson"
    code, out, _ = run(
        capsys,
        "export-geojson", "--graph", LOOP, "--result", str(result),
        "--out", str(dest),
    )
    assert code == 0
    assert "wrote 2 features" in out
    collection = json.loads(dest.read_text())
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == 2
    red = collection["features"][0]
    assert red["geometry"]["type"] == "LineString"
    assert red["geometry"]["coordinates"] == [[7.138, 51.262], [7.148, 51.262]]
    assert red["properties"]["count_vector"] == ["0", "1"]
    assert red["properties"]["category_breakdown"] == {"1": "0", "2": "1"}

    code, out, _ = run(
        capsys,
        "export-geojson", "--graph", LOOP, "--result", str(result),
        "--include-edges",
    )
    assert code == 0
    collection = json.loads(out)
    assert len(collection["features"]) == 12
    edge_props = collection["features"][-1]["properties"]
    assert edge_props["category"] == 2
    assert edge_props["length"] == "1"


def test_export_geojson_requires_coordinates(capsys, tmp_path):
    bare_graph = {
        "K": 2,
        "nodes": [{"id": "s", "lat": 1.0, "lon": 1.0}, {"id": "t"}],
        "edges": [{"from": "s", "to": "t", "category": 1, "length": "1"}],
    }
    graph_file = tmp_path / "bare.json"
    graph_file.write_text(json.dumps(bare_graph))
    code, out, _ = run(
        capsys,
        "--json", "route", "--graph", str(graph_file), "--source", "s",
        "--target", "t", "--omega", "1",
    )
    assert code == 0
    result = tmp_path / "route.json"
    result.write_text(out)
    code, _, err = run(
        capsys,
        "export-geojson", "--graph", str(graph_file), "--result", str(result),
    )
    assert code == 1
    assert "t" in err and "coordinates" in err

    not_route = tmp_path / "notroute.json"
    not_route.write_text(json.dumps({"foo": 1}))
    assert (
        run(capsys, "export-geojson", "--graph", LOOP, "--result", str(not_route))[0]
        == 1
    )

    # malformed route documents end with one stderr line, not a traceback
    for paths in (
        [{"nodes": ["s", "t"], "count_vector": ["1/0", "1"]}],
        [{"nodes": ["s", "t"], "count_vector": ["abc/3", "1"]}],
        ["s"],
    ):
        not_route.write_text(json.dumps({"paths": paths}))
        code, out, err = run(
            capsys, "export-geojson", "--graph", LOOP, "--result", str(not_route)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
