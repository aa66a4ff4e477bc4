"""Record the reference digests that the benchmark checks outputs against.

Usage, from the repository root:

    python3 bench/references.py

Writes ``bench/references.json``: a digest of each workload's generated
inputs and, per pool entry, a digest of its output (routes in order, kept
point ids in order, CLI stdout bytes).  Every output must also pass the
workload's other checks, or nothing is written.  The file in the
repository was recorded at the commit that introduced the benchmark;
re-record only when the workloads themselves change, never to make a
changed program pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    references: dict = {"inputs": {}, "outputs": {}}
    for name, cls in WORKLOADS.items():
        workload = cls(ROOT, references)
        workload.setup()
        references["inputs"][name] = workload.inputs_digest
        recorded = references["outputs"][name] = {}
        for entry in workload.pool:
            output = workload.run(entry)
            recorded[entry["name"]] = workload.output_digest(output)
            error = workload.check(entry, output)
            if error is not None:
                print(f"error: {error}", file=sys.stderr)
                return 1
        print(f"{name}: {len(recorded)} references")
    (BENCH_DIR / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
