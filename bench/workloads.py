"""The three benchmark workloads.

Each workload generates its inputs (``generate``), builds a pool of named
operations from them in ``setup``, and offers ``run`` (the timed call into
ordcone) and ``check`` (the output check, run outside the timed span; it
returns an error message or None).  ``check`` ends by comparing
``output_digest`` with the digest recorded in ``references.json``.  One
caller drives every workload in a closed loop: an operation starts only
after the previous one has finished.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import inputs
from tracer import Tracer


def digest(data: object) -> str:
    return hashlib.sha256(inputs.canonical_bytes(data)).hexdigest()


def fresh_import(*names: str) -> list:
    """Import ordcone modules anew, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "ordcone" or n.startswith("ordcone.")]:
        del sys.modules[name]
    return [importlib.import_module(name) for name in names]


def exact(texts: list[str]) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in texts)


class Workload:
    name = ""
    tail_percentile = 75

    def __init__(self, root: Path, references: dict) -> None:
        self.root = root
        self.references = references
        self.pool: list[dict] = []
        self.inputs_digest = ""

    def setup(self) -> None:
        """Generate the inputs, build the pool and run one warm-up operation."""
        # Free the previous set-up's pool and modules first, so that peak
        # memory does not depend on when the collector happens to run.
        self.pool = []
        gc.collect()
        docs = self.generate()
        self.inputs_digest = digest(docs)
        self.pool = self.build(docs)
        self.run(self.pool[0])

    def matches_reference(self, entry: dict, output) -> bool:
        return self.output_digest(output) == self.references["outputs"][self.name][entry["name"]]

    def install(self, tracer: Tracer) -> None:
        tracer.install()

    def collect(self, tracer: Tracer, op_span: int, entry: dict, output, wall_s: float) -> None:
        """Spans and counters of in-process workloads are recorded already."""

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RouteGrid(Workload):
    """One efficient_paths(..., mode="one_per_vector") call per operation."""

    name = "route-grid"
    tail_percentile = 90

    generate = staticmethod(inputs.route_pool)

    def build(self, docs: list[dict]) -> list[dict]:
        self.pathsolve, cone = fresh_import("ordcone.pathsolve", "ordcone.cone")
        return [
            {
                "name": doc["name"],
                "doc": doc,
                "graph": self.pathsolve.CategoryGraph.from_dict(doc["graph"]),
                "weights": cone.classify_weights(
                    inputs.ROUTE_K, exact(doc["omega"]), exact(doc["gamma"])
                ),
            }
            for doc in docs
        ]

    def run(self, entry: dict):
        doc = entry["doc"]
        return self.pathsolve.efficient_paths(
            entry["graph"], doc["source"], doc["target"], entry["weights"],
            mode="one_per_vector",
        )

    def output_digest(self, results) -> str:
        return digest([[list(path), [str(v) for v in vector]] for path, vector in results])

    def check(self, entry: dict, results) -> str | None:
        doc = entry["doc"]
        edges = doc["graph"]["edges"]
        for path, vector in results:
            node = doc["source"]
            seen = {node}
            totals = [Fraction(0)] * inputs.ROUTE_K
            for index in path:
                edge = edges[index]
                if edge["from"] != node or edge["to"] in seen:
                    return f"{doc['name']}: path {path} is not a simple walk"
                node = edge["to"]
                seen.add(node)
                totals[edge["category"] - 1] += Fraction(edge["length"])
            if node != doc["target"]:
                return f"{doc['name']}: path {path} does not end at the target"
            if tuple(totals) != tuple(vector):
                return f"{doc['name']}: counting vector of {path} is wrong"
        if not self.matches_reference(entry, results):
            return f"{doc['name']}: routes differ from the recorded reference"
        return None


class FilterFront(Workload):
    """One facet_matrix call plus one filter_nondominated call per operation."""

    name = "filter-front"
    tail_percentile = 85

    generate = staticmethod(inputs.filter_pool)

    def build(self, docs: list[dict]) -> list[dict]:
        self.cone, self.dominance = fresh_import("ordcone.cone", "ordcone.dominance")
        return [
            {
                "name": doc["name"],
                "weights": self.cone.classify_weights(
                    doc["k"], exact(doc["omega"]), exact(doc["gamma"])
                ),
                "points": self.dominance.PointSet(
                    points=tuple(exact(p["vector"]) for p in doc["points"]),
                    ids=tuple(p["id"] for p in doc["points"]),
                ),
            }
            for doc in docs
        ]

    def run(self, entry: dict):
        hrep = self.cone.facet_matrix(entry["weights"])
        return self.dominance.filter_nondominated(hrep, entry["points"])

    def output_digest(self, kept) -> str:
        return digest(list(kept.ids))

    def check(self, entry: dict, kept) -> str | None:
        level = {pid for pid in entry["points"].ids if pid.startswith("L")}
        if not level <= set(kept.ids):
            return f"{entry['name']}: a point on the level set was filtered out"
        if not self.matches_reference(entry, kept):
            return f"{entry['name']}: kept points differ from the recorded reference"
        return None


class CliMix(Workload):
    """One ``python -m ordcone.cli`` process per operation, from a fixed rotation.

    Traced runs start the same argv through ``cli_child.py``, which installs
    the tracer in the child and writes its counters and spans to a file.
    """

    name = "cli-mix"

    generate = staticmethod(inputs.cli_pool)

    def __init__(self, root: Path, references: dict) -> None:
        super().__init__(root, references)
        # Relative to the root, which is every child's working directory.
        self.work = Path(".bench_work", "cli")
        self.child_trace = root / self.work / "child-trace.json"
        self.env = dict(os.environ)
        extra = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + extra if extra else "")
        self.launcher = ["-m", "ordcone.cli"]

    def build(self, docs: dict) -> list[dict]:
        (self.root / self.work).mkdir(parents=True, exist_ok=True)
        for file_name, text in docs["files"].items():
            (self.root / self.work / file_name).write_text(text)
        return [
            {**command, "argv": [str(self.work / a[1:]) if a.startswith("@") else a
                                 for a in command["argv"]]}
            for command in docs["commands"]
        ]

    def run(self, entry: dict):
        return subprocess.run(
            [sys.executable, *self.launcher, *entry["argv"]],
            env=self.env,
            cwd=self.root,
            capture_output=True,
            timeout=120,
        )

    def output_digest(self, done) -> str:
        return hashlib.sha256(done.stdout).hexdigest()

    def check(self, entry: dict, done) -> str | None:
        name = entry["name"]
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{name}: exit code {done.returncode} ({' '.join(tail)})"
        if entry["command"] == "verify" and json.loads(done.stdout).get("ok") is not True:
            return f"{name}: verify did not report ok"
        if not self.matches_reference(entry, done):
            return f"{name}: stdout differs from the recorded reference"
        return None

    def install(self, tracer: Tracer) -> None:
        self.launcher = [str(Path(__file__).with_name("cli_child.py")), str(self.child_trace)]

    def collect(self, tracer: Tracer, op_span: int, entry: dict, done, wall_s: float) -> None:
        """Merge the child's counters and spans into the parent's tracer."""
        child = json.loads(self.child_trace.read_text())
        self.child_trace.unlink()
        counts = tracer.counts
        counts.update(child["counts"])
        counts["cli.import_s"] += child["import_s"]
        counts[f"cli.main.{entry['command']}.busy_s"] += child["main_s"]
        counts["cli.overhead_s"] += wall_s - child["main_s"]
        counts["cli.stdout_bytes"] += len(done.stdout)
        offset = len(tracer.spans)
        for span_id, name, start, end, parent, _ in child["spans"]:
            tracer.spans.append(
                (span_id + offset, name, start, end,
                 op_span if parent is None else parent + offset, tracer.op_id)
            )

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (RouteGrid, FilterFront, CliMix)}
