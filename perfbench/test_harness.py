"""Tests of the benchmark harness itself (not of sscpolar).

Run: python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# preset 7 cut to n <= 5: the real CLI path in well under a second
TINY = Workload("tiny", "sweep", ("sweep", "--figure", "7", "--nmax", "5", "--out", "out.csv"),
                ("out.csv",), figure=7)


@pytest.fixture(scope="module")
def declared() -> dict:
    return run.load_json(run.ROOT / "BENCHMARK.json")


@pytest.fixture(scope="module")
def tiny_reference() -> dict:
    sys.path.insert(0, str(run.SRC))
    from sscpolar.experiments import records_to_csv, run_policy_sweep

    csv = records_to_csv(run_policy_sweep(n_max=5)).encode("ascii")
    return {"stdout": "rows=10\nout=out.csv\n", "tree_nodes": 1,
            "sha256": {"out.csv": hashlib.sha256(csv).hexdigest()}}


def test_metric_names_and_units(declared):
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def test_layer_metrics_match_declaration(declared):
    sys.path.insert(0, str(run.SRC))
    import recompose

    tr = recompose.Tracer()
    with tr.span("cli"):
        with tr.span("latency.scan", n=4):
            pass
    values = recompose.layer_metrics(tr)
    values["trace.overhead_s"] = 0.0
    assert run.with_units(values, declared["per_layer"]).keys() == values.keys()
    assert values["latency.scan_calls"] == 1


def test_every_reference_is_complete():
    reference = run.load_json(run.HERE / "reference.json")
    assert set(reference) == set(WORKLOADS)
    for w in WORKLOADS.values():
        assert set(reference[w.name]["sha256"]) == set(w.files)
        assert reference[w.name]["tree_nodes"] > 0


@pytest.mark.parametrize("seconds", [0.0, 3.0])
def test_matching_outputs_pass(tiny_reference, seconds, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.run_untraced(TINY, tiny_reference, seconds, tmp_path / "work")
    assert result["failed"] == 0
    if seconds:  # every repeated call in the one child is checked; the first is not timed
        assert result["env"]["timed_calls"] == result["attempted"] - 1 > 1
    else:
        assert result["attempted"] == 1
    assert result["metrics"]["wall_ref"] > 0


@pytest.mark.parametrize("corrupt", ["stdout", "sha256"])
def test_corrupted_reference_is_a_failed_run(tiny_reference, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    bad = json.loads(json.dumps(tiny_reference))
    if corrupt == "stdout":
        bad["stdout"] = bad["stdout"].replace("rows=10", "rows=11")
    else:
        bad["sha256"]["out.csv"] = "0" * 64
    result = run.run_untraced(TINY, bad, 0.0, tmp_path / "work")
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert set(result["metrics"]) >= {"wall_ref", "setup_s"}


def test_nonzero_exit_is_a_failed_run(tiny_reference, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    failing = replace(TINY, argv=TINY.argv + ("--factor", "0.5", "--figure", "8"))
    result = run.run_untraced(failing, tiny_reference, 0.0, tmp_path / "work")
    assert result["failed"] == 1


def test_dead_child_is_a_failed_run(tiny_reference, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    real_spawn, deaths = run.spawn, []

    def spawn_dying_once(args, cwd):
        if not deaths:
            deaths.append(args)
            raise run.BenchError("child killed")
        return real_spawn(args, cwd)

    monkeypatch.setattr(run, "spawn", spawn_dying_once)
    result = run.run_untraced(TINY, tiny_reference, 0.5, tmp_path / "work")
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-policies",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
