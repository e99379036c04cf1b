"""Print the reference outputs that run.py checks every call against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

For each workload it runs the CLI command once, hashes the files it wrote,
and keeps its exact stdout; a traced recomposition supplies the tree-node
count and must reproduce the CLI's outputs.  reference.json was made by
this script before any optimisation; regenerating it would hide a changed
output, so only do so when the workloads themselves change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import recompose

    reference = {}
    for w in WORKLOADS.values():
        workdir = run.OUT / f"record-{w.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        _setup, report = run.spawn(["0", "--", *w.argv], workdir)
        shutil.rmtree(workdir)
        call = report["calls"][0]
        if call["rc"] != 0:
            raise SystemExit(f"{w.name}: exit code {call['rc']} {call['error']}")
        ref = {"stdout": call["stdout"], "sha256": call["sha256"]}
        tracer = recompose.Tracer()
        stdout, rebuilt = recompose.recompose(tracer, w)
        if stdout != call["stdout"] or run.digests(rebuilt) != call["sha256"]:
            raise SystemExit(f"{w.name}: recomposed outputs differ from the CLI's")
        ref["tree_nodes"] = run.tree_nodes(w, tracer.counts)
        reference[w.name] = ref
    print(json.dumps(reference, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
