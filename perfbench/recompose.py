"""Each workload rebuilt from sscpolar's public calls, with optional spans.

The traced run does not instrument the library.  It calls the same public
functions the CLI reaches, in the same order and with the same arguments,
and records a span around each call from here.  Its outputs must equal the
CLI's byte for byte, which `run.py` checks against `reference.json`.

Spans live in memory as tuples and are written once, after the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from sscpolar.channel import SCALING_EXPONENT, ChannelKind, channel_from_capacity, sample_llrs
from sscpolar.codec import polar_transform, sc_decode_batch, ssc_decode_batch
from sscpolar.construct import build_code
from sscpolar.experiments import (
    DEFAULT_CAPACITIES,
    DEFAULT_ERROR_TARGETS,
    POLICIES,
    SC_REFERENCE,
    SweepRecord,
    realize_policy,
    records_to_csv,
)
from sscpolar.latency import build_ssc_tree, scan_edge_profile, ssc_latency
from sscpolar.svgplot import Series, render_line_plot

from workloads import SIM_BATCH, Workload

SWEEP_N_MIN = 4       # first n of every sweep preset


class Tracer:
    """Spans `(name, parent index, start, end, attrs)` and exact counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block; yields `attrs`, which the caller may extend."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children can name their parent
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, parent, start, end, attrs)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k


class NullTracer(Tracer):
    """Same call structure as Tracer, records nothing: the untraced baseline."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext(attrs)

    def count(self, name: str, k: int = 1) -> None:
        pass


# ---------------------------------------------------------------------------
# sweeps (experiments.run_serial_sweep / run_policy_sweep, --threads 1)
# ---------------------------------------------------------------------------

def _scan(tr: Tracer, channel, n: int, pe: float) -> list[int]:
    with tr.span("latency.scan", channel=channel.kind.value, n=n, pe=pe) as attrs:
        profile = scan_edge_profile(channel, n, pe)
    edges = attrs["edges"] = sum(profile)
    tr.count("latency.scan_edges", edges)
    tr.count("latency.scan_nodes", edges + 1)  # a tree with E edges has E+1 nodes
    return profile


def _sort_records(records: list[SweepRecord]) -> list[SweepRecord]:
    order = {name: i for i, name in enumerate(POLICIES + (SC_REFERENCE,))}
    return sorted(records, key=lambda r: (r.channel, r.capacity, r.pe, r.n,
                                          order.get(r.p_policy, 99), r.p_policy))


def _serial_records(tr: Tracer, n_max: int) -> list[SweepRecord]:
    ns = range(SWEEP_N_MIN, n_max + 1)
    records = []
    for kind in ChannelKind:
        for cap in DEFAULT_CAPACITIES:
            for pe in DEFAULT_ERROR_TARGETS:
                with tr.span("channel.invert"):
                    channel = channel_from_capacity(kind, cap)
                for n in ns:
                    profile = _scan(tr, channel, n, pe)
                    with tr.span("latency.eval"):
                        latency = ssc_latency(profile, 1)
                    records.append(SweepRecord(kind.value, cap, pe, n, "one", 1, latency))
    for kind in ChannelKind:
        for n in ns:
            records.append(SweepRecord(kind.value, 0.0, 0.0, n, SC_REFERENCE, 1, n * 2 ** n))
    return _sort_records(records)


def _policy_records(tr: Tracer, n_max: int) -> list[SweepRecord]:
    capacity, pe = 0.5, 1e-3
    with tr.span("channel.invert"):
        channel = channel_from_capacity(ChannelKind.BEC, capacity)
    mu = SCALING_EXPONENT[ChannelKind.BEC]
    records = []
    for n in range(SWEEP_N_MIN, n_max + 1):
        profile = _scan(tr, channel, n, pe)
        for policy in POLICIES:
            with tr.span("latency.eval"):
                P = realize_policy(policy, n, mu)
            with tr.span("latency.eval"):
                latency = ssc_latency(profile, P)
            records.append(SweepRecord(ChannelKind.BEC.value, capacity, pe, n,
                                       policy, P, latency))
    return _sort_records(records)


def _serial_series(records: list[SweepRecord]) -> list[Series]:
    curves: dict[tuple, list[SweepRecord]] = {}
    for r in records:
        curves.setdefault((r.channel, r.capacity, r.pe, r.p_policy), []).append(r)
    series = []
    for (kind, cap, pe, policy), recs in sorted(curves.items()):
        recs = sorted(recs, key=lambda r: r.n)
        label = (f"{kind} SC reference" if policy == SC_REFERENCE
                 else f"{kind} I={cap:g} pe={pe:g}")
        series.append(Series(label, [r.log2log2N for r in recs],
                             [r.latency_norm for r in recs]))
    return series


def _sweep(tr: Tracer, w: Workload) -> tuple[str, dict[str, bytes]]:
    with tr.span("experiments.sweep"):
        records = (_serial_records(tr, w.n_max) if w.figure == 6
                   else _policy_records(tr, w.n_max))
    with tr.span("experiments.csv"):
        files = {"out.csv": records_to_csv(records).encode("ascii")}
    lines = [f"rows={len(records)}", "out=out.csv"]
    if "out.svg" in w.files:
        with tr.span("svgplot.render"):
            svg = render_line_plot(_serial_series(records), "log2 log2 N", "latency / N",
                                   title=f"sweep preset {w.figure}")
        files["out.svg"] = svg.encode("utf-8")
        lines.append("svg=out.svg")
    return "\n".join(lines) + "\n", files


# ---------------------------------------------------------------------------
# simulate (cli.cmd_simulate -> codec.sc_ssc_agreement)
# ---------------------------------------------------------------------------

def _simulate(tr: Tracer, w: Workload) -> tuple[str, dict[str, bytes]]:
    with tr.span("channel.invert"):
        channel = channel_from_capacity(ChannelKind(w.channel), w.capacity)
    with tr.span("construct.build_code"):
        code = build_code(channel, w.n, w.pe)
    with tr.span("latency.tree_build"):
        tree = build_ssc_tree(code)
    tr.count("latency.tree_nodes", sum(tree.edge_profile()) + 1)
    with tr.span("codec.streams"):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(w.seed).spawn(w.trials)]
    info = ~code.frozen
    agree = errors = 0
    for start in range(0, w.trials, SIM_BATCH):
        chunk = rngs[start:start + SIM_BATCH]
        with tr.span("codec.frame_gen"):
            u = np.zeros((len(chunk), code.N), dtype=np.uint8)
            for t, rng in enumerate(chunk):
                if code.k:
                    u[t, info] = rng.integers(0, 2, code.k, dtype=np.uint8)
            with tr.span("codec.transform"):
                x = polar_transform(u)
            llr = np.empty((len(chunk), code.N), dtype=np.float64)
            for t, rng in enumerate(chunk):
                with tr.span("channel.sample"):
                    llr[t] = sample_llrs(channel, x[t], rng)
        with tr.span("codec.sc"):
            u_sc = sc_decode_batch(code, llr)
        with tr.span("codec.ssc"):
            u_ssc = ssc_decode_batch(code, llr, tree)
        agree += int((u_sc == u_ssc).all(axis=1).sum())
        errors += int((u_ssc[:, info] != u[:, info]).any(axis=1).sum())
        tr.count("codec.frames", len(chunk))
        tr.count("codec.transform_bits", u.size)
        tr.count("codec.erased_frames", int((llr == 0.0).any(axis=1).sum()))
    stdout = (f"trials={w.trials}\nagree={agree}/{w.trials}\n"
              f"fer={errors / w.trials:.6g}\nseed={w.seed}\n")
    return stdout, {}


def recompose(tr: Tracer, w: Workload) -> tuple[str, dict[str, bytes]]:
    """Run workload `w` from public calls; return (stdout text, {file name: bytes})."""
    with tr.span("cli"):
        return _sweep(tr, w) if w.kind == "sweep" else _simulate(tr, w)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics under the names in BENCHMARK.json.

    `<layer>_s` is the inclusive time of the spans of that name, so
    codec.frame_gen_s contains codec.transform_s and channel.sample_s.  The
    residuals experiments.sweep_self_s and cli.self_s are self times.
    latency.scan_max_n_s sums the scans at the largest n of the run (one for
    preset 7, eighteen for preset 6).  Layers a workload
    does not reach read 0.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    scan_by_n: Counter = Counter()
    for name, parent, start, end, attrs in tr.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
        if name == "latency.scan":
            scan_by_n[attrs["n"]] += end - start
    self_time: Counter = Counter()
    for i, (name, _parent, start, end, _attrs) in enumerate(tr.spans):
        self_time[name] += end - start - child_time[i]
    c = tr.counts
    frames = c["codec.frames"]
    return {
        "latency.scan_s": total["latency.scan"],
        "latency.scan_calls": calls["latency.scan"],
        "latency.scan_nodes": c["latency.scan_nodes"],
        "latency.scan_edges": c["latency.scan_edges"],
        "latency.scan_ns_per_node": 1e9 * _ratio(total["latency.scan"], c["latency.scan_nodes"]),
        "latency.scan_max_n_s": scan_by_n[max(scan_by_n)] if scan_by_n else 0.0,
        "latency.eval_s": total["latency.eval"],
        "latency.eval_calls": calls["latency.eval"],
        "latency.tree_build_s": total["latency.tree_build"],
        "latency.tree_nodes": c["latency.tree_nodes"],
        "channel.invert_s": total["channel.invert"],
        "channel.invert_calls": calls["channel.invert"],
        "channel.sample_s": total["channel.sample"],
        "channel.sample_calls": calls["channel.sample"],
        "construct.build_code_s": total["construct.build_code"],
        "codec.streams_s": total["codec.streams"],
        "codec.transform_s": total["codec.transform"],
        "codec.transform_bits": c["codec.transform_bits"],
        "codec.frame_gen_s": total["codec.frame_gen"],
        "codec.sc_s": total["codec.sc"],
        "codec.ssc_s": total["codec.ssc"],
        "codec.frames": frames,
        "codec.sc_frames_per_s": _ratio(frames, total["codec.sc"]),
        "codec.ssc_frames_per_s": _ratio(frames, total["codec.ssc"]),
        "codec.erased_frame_share": _ratio(c["codec.erased_frames"], frames),
        "experiments.sweep_self_s": self_time["experiments.sweep"],
        "experiments.csv_s": total["experiments.csv"],
        "svgplot.render_s": total["svgplot.render"],
        "cli.self_s": self_time["cli"],
    }


def spans_json(tr: Tracer) -> list[dict]:
    """Spans as JSON objects, times in seconds from the first span's start."""
    origin = tr.spans[0][2] if tr.spans else 0.0
    return [{"id": i, "name": name, "parent": parent, "start": start - origin,
             "end": end - origin, **attrs}
            for i, (name, parent, start, end, attrs) in enumerate(tr.spans)]
