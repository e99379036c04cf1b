"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Three slope-window checks (5a, 5c, 10) measure well-defined quantities whose
windows encode asymptotic claims; at the grid sizes fixed here the exactly
reproduced curves sit outside those windows, so the corresponding tests fail
by design rather than being loosened.  The assertion messages carry the
measured values.
"""

import math
import time

import numpy as np
import pytest

from sscpolar import (
    BmsChannel,
    ChannelKind,
    build_code,
    channel_from_capacity,
    cube_interval,
    latency_upper_bound,
    min_p_within_factor,
    realize_policy,
    scan_edge_profile,
    scan_ssc_tree,
    sc_latency_closed_form,
    sc_latency_tree,
    sc_ssc_agreement,
    ssc_latency,
)
from sscpolar.channel import SCALING_EXPONENT
from sscpolar.experiments import POLICIES
from sscpolar.latency import NodeKind

MU_BEC = SCALING_EXPONENT[ChannelKind.BEC]


def report(name: str, ok: bool, detail: str) -> str:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def bec_half_channel():
    return channel_from_capacity(ChannelKind.BEC, 0.5)


@pytest.fixture(scope="module")
def bec_half_profiles(bec_half_channel):
    """Edge profiles of the capacity-1/2 BEC construction, pe=1e-3, n=4..27."""
    return {n: scan_edge_profile(bec_half_channel, n, 1e-3) for n in range(4, 28)}


def test_criterion_1_schedule_step_counts():
    t0 = time.perf_counter()
    got = {P: sc_latency_tree(3, P) for P in (4, 2, 1)}
    elapsed = time.perf_counter() - t0
    ok = got == {4: 14, 2: 16, 1: 24}
    line = report("1", ok, f"n=3 latencies {got}, {elapsed * 1e3:.3f} ms")
    assert ok, line
    assert elapsed < 1e-3, line


def test_criterion_2_closed_form_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 21):
        N = 2 ** n
        P = 1
        while P <= N // 2:
            assert sc_latency_closed_form(N, P) == sc_latency_tree(n, P), (n, P)
            checked += 1
            P *= 2
    elapsed = time.perf_counter() - t0
    line = report("2", True, f"{checked} (N,P) pairs equal, {elapsed:.2f} s")
    assert elapsed < 1.0, line


def test_criterion_3_serial_latency_values(bec_half_profiles):
    t0 = time.perf_counter()
    reference = {4: 1.875, 10: 6.084, 20: 10.364}
    got = {n: ssc_latency(bec_half_profiles[n], 1) / 2 ** n for n in reference}
    ok = all(abs(got[n] - ref) <= 0.02 * ref for n, ref in reference.items())
    elapsed = time.perf_counter() - t0
    line = report("3", ok, f"normalized latency {got}, {elapsed:.2f} s")
    assert ok, line
    assert elapsed < 10.0, line


def test_criterion_4_policy_latency_values(bec_half_profiles):
    t0 = time.perf_counter()
    half = {n: math.log2(ssc_latency(bec_half_profiles[n], 2 ** n // 2))
            for n in (4, 10, 20)}
    serial4 = math.log2(ssc_latency(bec_half_profiles[4], 1))
    reference = {4: 3.000, 10: 8.672, 20: 16.761}
    ok = all(abs(half[n] - ref) <= 0.05 for n, ref in reference.items())
    ok = ok and abs(serial4 - 4.907) <= 0.05
    elapsed = time.perf_counter() - t0
    line = report("4", ok,
                  f"log2 latency at P=N/2 {half}, P=1 n=4 {serial4:.3f}, {elapsed:.2f} s")
    assert ok, line
    assert elapsed < 30.0, line


def _ols(xs, ys):
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    xm, ym = xs.mean(), ys.mean()
    return float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())


def test_criterion_5a_serial_slope_window():
    # all six (capacity, pe) curves of the serial sweep, last 5 points at the
    # standard n_max=22, slope of latency/N against log2 log2 N
    slopes = {}
    for cap in (0.1, 0.5, 0.9):
        channel = channel_from_capacity(ChannelKind.BEC, cap)
        for pe in (1e-3, 1e-10):
            ys = [ssc_latency(scan_edge_profile(channel, n, pe), 1) / 2 ** n
                  for n in range(18, 23)]
            slopes[(cap, pe)] = _ols([math.log2(n) for n in range(18, 23)], ys)
    ok = all(1.7 <= s <= 2.3 for s in slopes.values())
    detail = {k: round(v, 3) for k, v in slopes.items()}
    line = report("5a", ok, f"last-5 slopes at n_max=22: {detail}, window [1.7, 2.3]")
    assert ok, line


def test_criterion_5b_matched_policy_slope(bec_half_profiles):
    ns = list(range(20, 28))  # last 8 points of the n=4..27 policy sweep
    ys = [math.log2(ssc_latency(bec_half_profiles[n], realize_policy("invmu", n, MU_BEC)))
          for n in ns]
    slope = _ols(ns, ys)
    ok = 0.67 <= slope <= 0.77
    line = report("5b", ok, f"matched-parallelism slope {slope:.4f}, window [0.67, 0.77]")
    assert ok, line


def test_criterion_5c_required_parallelism_slope(bec_half_profiles):
    ns = list(range(20, 28))  # last 8 points of the n=4..27 sweep
    ys = [math.log2(min_p_within_factor(bec_half_profiles[n], 1.01)) for n in ns]
    slope = _ols(ns, ys)
    ok = 0.23 <= slope <= 0.33
    line = report("5c", ok, f"min-P slope {slope:.4f}, window [0.23, 0.33]")
    assert ok, line


def test_criterion_6_decoder_equivalence():
    t0 = time.perf_counter()
    total = agreed = 0
    per_combo = 1200
    combos = [(kind, n) for kind in (ChannelKind.BEC, ChannelKind.BSC,
                                     ChannelKind.BAWGNC) for n in (4, 8, 10)]
    for seed, (kind, n) in enumerate(combos, start=1000):
        channel = channel_from_capacity(kind, 0.5)
        code = build_code(channel, n, 1e-3)
        a, t, _ = sc_ssc_agreement(code, channel, per_combo, seed=seed)
        agreed += a
        total += t
    elapsed = time.perf_counter() - t0
    ok = agreed == total and total >= 10000
    line = report("6", ok, f"agreement {agreed}/{total}, {elapsed:.1f} s")
    assert ok, line
    assert elapsed < 60.0, line


def test_criterion_7_error_target(bec_half_channel):
    t0 = time.perf_counter()
    trials = 10000
    code = build_code(bec_half_channel, 8, 0.1)
    fer = sc_ssc_agreement(code, bec_half_channel, trials, seed=20240811)[2]
    sigma = math.sqrt(0.1 * 0.9 / trials)
    limit = 0.1 + 3 * sigma
    elapsed = time.perf_counter() - t0
    ok = fer <= limit
    line = report("7", ok, f"fer {fer:.4f} <= {limit:.4f}, {elapsed:.1f} s")
    assert ok, line
    assert elapsed < 30.0, line


def test_criterion_8_forced_node_kinds():
    # Every pruned-tree node of constructed BEC codes whose reliability is
    # beyond the 1/N^3 thresholds must be pure.  The sufficient condition is
    # only claimed for pe >= 1/N^2, so the grid filters on that.
    t0 = time.perf_counter()
    scanned = 0
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        channel = BmsChannel(ChannelKind.BEC, eps)
        for n in range(4, 15):
            N = 2 ** n
            lo, hi = cube_interval(N)
            for pe in (0.1, 1e-2, 1e-3):
                if pe < 1.0 / N ** 2:
                    continue
                tree = scan_ssc_tree(channel, n, pe)
                for zs, kinds in zip(tree.reliabilities(channel.z0), tree.kinds):
                    for z, kind in zip(zs.tolist(), kinds.tolist()):
                        scanned += 1
                        if z <= lo:
                            assert kind == NodeKind.RATE1, (eps, n, pe, z)
                        elif z >= hi:
                            assert kind == NodeKind.RATE0, (eps, n, pe, z)
    elapsed = time.perf_counter() - t0
    line = report("8", True, f"{scanned} nodes scanned, no violations, {elapsed:.1f} s")
    assert elapsed < 10.0, line


def test_criterion_9_bound_consistency(bec_half_profiles):
    # one fitted constant per channel, eps=0.5, over the grids of criteria 3-5
    def fit_and_check(points, mu):
        c_fit = 1e-9
        for N, P, lat in points:
            second = latency_upper_bound(N, P, mu, 0.0, 0.5)
            c_fit = max(c_fit, (lat - second) / N ** (1.0 - 1.0 / mu))
        for N, P, lat in points:
            assert lat <= latency_upper_bound(N, P, mu, c_fit, 0.5) + 1e-6, (N, P)
        return c_fit

    bec_points = []
    for n in range(4, 23):
        prof = bec_half_profiles[n]
        N = 2 ** n
        for policy in POLICIES:
            P = realize_policy(policy, n, MU_BEC)
            bec_points.append((N, P, ssc_latency(prof, P)))
        P = min_p_within_factor(prof, 1.01)
        bec_points.append((N, P, ssc_latency(prof, P)))
    c_bec = fit_and_check(bec_points, MU_BEC)

    fitted = {"bec": c_bec}
    for kind in (ChannelKind.BSC, ChannelKind.BAWGNC):
        channel = channel_from_capacity(kind, 0.5)
        points = []
        for n in range(4, 19):
            prof = scan_edge_profile(channel, n, 1e-3)
            points.append((2 ** n, 1, ssc_latency(prof, 1)))
        fitted[kind.value] = fit_and_check(points, SCALING_EXPONENT[kind])

    detail = {k: round(v, 3) for k, v in fitted.items()}
    line = report("9", True, f"fitted constants {detail}, all points below bound")
    assert all(0 < c < 1e3 for c in fitted.values()), line


def test_criterion_10_other_channels_slope_window():
    # surrogate constructions for the non-BEC families: same slope-window
    # check as criterion 5a
    slopes = {}
    for kind in (ChannelKind.BSC, ChannelKind.BAWGNC):
        channel = channel_from_capacity(kind, 0.5)
        ys = [ssc_latency(scan_edge_profile(channel, n, 1e-3), 1) / 2 ** n
              for n in range(18, 23)]
        slopes[kind.value] = _ols([math.log2(n) for n in range(18, 23)], ys)
    ok = all(1.7 <= s <= 2.3 for s in slopes.values())
    detail = {k: round(v, 3) for k, v in slopes.items()}
    line = report("10", ok, f"last-5 slopes at n_max=22: {detail}, window [1.7, 2.3]")
    assert ok, line
