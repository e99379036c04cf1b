"""sscpolar benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's CLI command through `sscpolar.cli.main`,
repeatedly in one fresh child interpreter, so that the run takes about S
seconds (at least one call), and reports the end-to-end metrics of
BENCHMARK.json as medians over the calls.  wall_ref and cpu_ref are a
call's wall and CPU seconds divided by the seconds of a fixed reference
loop timed beside it (child.ref_loop_s), which cancels most of a shared
host's swings in speed; tree_nodes_per_ref is tree nodes per such unit.  Set-up time (interpreter start
to `sscpolar.cli` imported and its parser built) is sampled SETUP_SAMPLES
times per run, in fresh interpreters, and its median reported.

--trace 1 rebuilds the workload from sscpolar's public functions in this
process (see recompose.py), once with spans and once without, and reports
the per-layer metrics; trace.overhead_s is the difference of the two walls
(traced minus untraced), so machine noise can make it negative.
Spans go to .perfbench_out/trace-<workload>-seed<seed>.json.

Every output of every call is compared with reference.json; a call that
exits nonzero or differs by one byte counts as failed.  The workloads have
fixed inputs, so --seed is recorded but selects nothing.

The last line of stdout is the result object; the line before it is the
environment (python, numpy, scipy, nproc, CPU model, sweep --threads, and
with --trace 0 the number of timed calls and their median wall seconds and
reference-loop seconds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5       # set-up times per run; the median is reported
CHILD_TIMEOUT_S = 150   # one child: --seconds of calls plus one call of about 3 s
MAX_DEATHS = 3          # dead children replaced before the run gives up

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot measure at all (as opposed to a failed call)."""


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def check_outputs(w: Workload, ref: dict, stdout: str, sha256: dict[str, str]) -> list[str]:
    """Differences between one call's outputs and the reference; empty if equal.

    `sha256` maps each file the call wrote to the hex digest of its bytes."""
    problems = []
    if stdout != ref["stdout"]:
        problems.append(f"stdout {stdout!r} != reference {ref['stdout']!r}")
    for name in w.files:
        digest = sha256.get(name)
        if digest is None:
            problems.append(f"{name} not written")
        elif digest != ref["sha256"][name]:
            problems.append(f"{name} sha256 differs from reference")
    return problems


def tree_nodes(w: Workload, counts: dict) -> int:
    """Decoding-tree nodes one call walks: every node of every scanned pruned
    tree for a sweep; the SC tree (2N-1 nodes) plus the pruned SSC tree per
    frame for a simulation."""
    if w.kind == "sweep":
        return counts["latency.scan_nodes"]
    return counts["codec.frames"] * (2 ** (w.n + 1) - 1 + counts["latency.tree_nodes"])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str, scipy_version: str, threads: int | None) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "scipy": scipy_version, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "sweep_threads": threads}


# ---------------------------------------------------------------------------
# untraced: the CLI in a child process
# ---------------------------------------------------------------------------

def spawn(args: list[str], cwd: Path) -> tuple[float, dict]:
    """Run child.py with `args`; return (set-up seconds, the child's report).

    Raises BenchError if the child dies or times out without a report.
    """
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(SRC), *args],
                              cwd=cwd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child killed after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    return report["ready"] - t0, report


def call_problems(w: Workload, ref: dict, call: dict) -> list[str]:
    problems = check_outputs(w, ref, call["stdout"], call["sha256"])
    if call["rc"] != 0:
        problems.insert(0, f"exit code {call['rc']} {call['error']}")
    return problems


def sweep_threads(w: Workload) -> int | None:
    return int(w.argv[w.argv.index("--threads") + 1]) if "--threads" in w.argv else None


def run_untraced(w: Workload, ref: dict, seconds: float, workdir: Path) -> dict:
    """Set-up probes and one child that calls the CLI repeatedly, in about `seconds`.

    Half the set-up probes run before the child and the rest after it, so
    that the samples span the run; the child's own start is one more sample.
    The child's first call warms up and is checked but not timed, unless it
    is the only call.  Call times are reported in units of the reference
    loop timed beside each call (see child.py); the median seconds of the
    calls and of the loop go to the environment line.  A child that dies is
    one failed call and is replaced, up to MAX_DEATHS times.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    setups = [spawn(["--setup-only"], workdir)[0] for _ in range(SETUP_SAMPLES // 2)]
    probe_s = (time.monotonic() - start) / len(setups) if setups else 1.0
    attempted = failed = 0
    report = None
    while report is None:
        # leave time for the child's own start and for the probes after it
        budget = seconds - (time.monotonic() - start) - probe_s * (SETUP_SAMPLES - len(setups))
        try:
            setup, report = spawn([str(max(budget, 0.0)), "--", *w.argv], workdir)
        except BenchError as exc:
            attempted += 1
            failed += 1
            print(f"{w.name}: child {attempted} died: {exc}", file=sys.stderr)
            if failed >= MAX_DEATHS:
                raise BenchError("no child produced a report") from None
    setups.append(setup)
    for i, call in enumerate(report["calls"]):
        problems = call_problems(w, ref, call)
        attempted += 1
        if problems:
            failed += 1
            print(f"{w.name}: call {i + 1} failed: {'; '.join(problems)}", file=sys.stderr)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(["--setup-only"], workdir)[0])
    timed = report["calls"][1:] or report["calls"]
    nodes = ref["tree_nodes"]
    metrics = {
        "wall_ref": statistics.median(c["wall_s"] / c["ref_s"] for c in timed),
        "setup_s": statistics.median(setups),
        "cpu_ref": statistics.median(c["cpu_s"] / c["ref_s"] for c in timed),
        "peak_rss_mb": report["peak_rss_mb"],
        "tree_nodes_per_ref": statistics.median(nodes * c["ref_s"] / c["wall_s"] for c in timed),
    }
    env = environment(report["numpy"], report["scipy"], sweep_threads(w))
    env.update(timed_calls=len(timed),
               wall_s=statistics.median(c["wall_s"] for c in timed),
               ref_loop_s=statistics.median(c["ref_s"] for c in timed))
    return {"env": env, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced: public calls from this process
# ---------------------------------------------------------------------------

def run_traced(w: Workload, ref: dict, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import recompose

    failed = 0
    walls = []
    tracer = recompose.Tracer()
    # Traced first: it then runs in a fresh process like the CLI does, and the
    # untraced rerun's warm allocator errs towards overstating the overhead.
    for tr in (tracer, recompose.NullTracer()):
        t0 = time.perf_counter()
        stdout, files = recompose.recompose(tr, w)
        walls.append(time.perf_counter() - t0)
        problems = check_outputs(w, ref, stdout, digests(files))
        if problems:
            failed += 1
            print(f"{w.name}: recomposed run failed: {'; '.join(problems)}", file=sys.stderr)
    if tree_nodes(w, tracer.counts) != ref["tree_nodes"]:
        failed += 1
        print(f"{w.name}: tree node count {tree_nodes(w, tracer.counts)} != reference "
              f"{ref['tree_nodes']}", file=sys.stderr)
    metrics = recompose.layer_metrics(tracer)
    metrics["trace.overhead_s"] = walls[0] - walls[1]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{w.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, "run": f"{w.name}-{seed}",
                   "traced_wall_s": walls[0], "untraced_wall_s": walls[1],
                   "counts": dict(tracer.counts), "spans": recompose.spans_json(tracer)}, fh)
    env = environment(numpy.__version__, scipy.__version__, sweep_threads(w))
    return {"env": env, "attempted": 2, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------

def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """Attach BENCHMARK.json's units; the names must match the declaration exactly."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(values)} != declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "sscpolar" / "cli.py").is_file():
            raise BenchError(f"no sscpolar sources under {SRC}")
        w = WORKLOADS[args.workload]
        ref = load_json(HERE / "reference.json")[w.name]
        declared = load_json(ROOT / "BENCHMARK.json")
        if args.trace:
            result = run_traced(w, ref, args.seed)
            metrics = with_units(result["metrics"], declared["per_layer"])
        else:
            workdir = OUT / f"{w.name}-{os.getpid()}"
            try:
                result = run_untraced(w, ref, args.seconds, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            metrics = with_units(result["metrics"], declared["end_to_end"])
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps({**result["env"], "workload": w.name, "seed": args.seed,
                               "trace": args.trace}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
