"""The benchmark's four workloads: fixed CLI invocations of `sscpolar`.

Each workload is one `sscpolar` command line.  Its inputs are fixed so that
every output can be checked byte for byte against `reference.json`, which
was recorded from the same command lines before any optimisation landed.
Each call takes about one to three seconds on a 2-vCPU Xeon, so that one
run times several calls and reports their median: the full-size presets
(up to 30 s a call) gave one sample a run, too few on a shared host.

Why these four:

* sweep-policies - preset 7 to n=23 on the capacity-1/2 BEC.  Almost all of
  its time is the pruned-tree scan and it does no codec work, so a faster
  scan shows here first.  Preset 8 repeats the same scans and adds a min-P
  search that costs well under 1 %, so it is left out.
* sweep-serial - preset 6 to n=18 with SVG output.  Many shallower trees
  over all three channel families with the upper-bound minus rule, plus
  BAWGNC capacity inversion and SVG rendering.  A scan change that only
  helps deep BEC trees, or that breaks non-BEC bit-identity, shows here.
* simulate-bec-n10 - 2048 SC/SSC frames at n=10.  Bound by per-node
  Python overhead over small frames; every frame has erasures, so the
  Rate-1 tie fallback runs.
* simulate-awgn-n14 - 256 frames at n=14 on the BAWGNC.  Long frames and no
  ties; frame generation is mostly `polar_transform`.

The sweeps pass `--threads 1`: the scans hold the GIL, so the CLI's default
thread pool (one thread per CPU) only adds contention; on a 2-vCPU Xeon
preset 7 to n=23 took 2.67 s with two threads and 1.67 s with one.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM_BATCH = 1024  # frames per batch, as in codec.sc_ssc_agreement


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" or "simulate"
    argv: tuple[str, ...]     # arguments to sscpolar.cli.main
    files: tuple[str, ...]    # output files the command writes, relative to its cwd
    figure: int = 0           # sweeps
    n_max: int = 0
    channel: str = ""         # simulate
    capacity: float = 0.0
    pe: float = 0.0
    n: int = 0
    trials: int = 0
    seed: int = 0             # the CLI's --seed, not the benchmark's


def _simulate(name: str, channel: str, n: int, trials: int) -> Workload:
    argv = ("simulate", "--channel", channel, "--capacity", "0.5", "--pe", "1e-3",
            "--n", str(n), "--trials", str(trials), "--seed", "7")
    return Workload(name, "simulate", argv, (), channel=channel, capacity=0.5,
                    pe=1e-3, n=n, trials=trials, seed=7)


def _sweep(name: str, figure: int, n_max: int, svg: bool) -> Workload:
    argv = ("sweep", "--figure", str(figure), "--nmax", str(n_max), "--threads", "1",
            "--out", "out.csv") + (("--svg", "out.svg") if svg else ())
    files = ("out.csv", "out.svg") if svg else ("out.csv",)
    return Workload(name, "sweep", argv, files, figure=figure, n_max=n_max)


WORKLOADS = {w.name: w for w in (
    _sweep("sweep-policies", 7, 23, svg=False),
    _sweep("sweep-serial", 6, 18, svg=True),
    _simulate("simulate-bec-n10", "bec", 10, 2048),
    _simulate("simulate-awgn-n14", "bawgnc", 14, 256),
)}
