"""Shared fixtures and independent reference implementations.

The reference decoder here deliberately re-implements successive
cancellation straight off the factor-graph recurrences (scalar math,
per-bit recomputation, no memoization) so the package decoders are
checked against something that shares none of their code.  Its recursive
twin, reference_sc_frames, computes the same LLRs on whole columns of
frames, fast enough for the block lengths the tool runs.  The reference
pruned-tree scan likewise classifies one node at a time, depth first,
where the package classifies whole tree levels at once.
"""

import math

import numpy as np
import pytest

from sscpolar import BmsChannel, ChannelKind, channel_from_capacity, code_from_frozen
from sscpolar import channel as channel_module
from sscpolar.channel import LLR_CAP
from sscpolar.latency import NodeKind

# The worked N=8, rate-1/2 example used across the latency tests:
# frozen {0, 1, 2, 4}, information {3, 5, 6, 7}.
EXAMPLE8_FROZEN = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=bool)


@pytest.fixture(scope="session")
def bec_half():
    return channel_from_capacity(ChannelKind.BEC, 0.5)


@pytest.fixture(scope="session")
def example8_code(bec_half):
    return code_from_frozen(bec_half, EXAMPLE8_FROZEN, pe=1e-3)


def _f_ref(a, b):
    # numpy's float64 tanh and arctanh, the elementary functions the package
    # is built on: they differ from math.tanh and math.atanh in the last bit
    # on many inputs, which moves the exact 0 of a G cancellation, so a
    # bit-exact comparison needs the same ones.
    t = np.tanh(a / 2.0) * np.tanh(b / 2.0)
    if abs(t) >= 1.0:
        return math.copysign(LLR_CAP, t)
    return max(-LLR_CAP, min(LLR_CAP, 2.0 * np.arctanh(t)))


def _g_ref(a, b, c):
    return max(-LLR_CAP, min(LLR_CAP, a + (1.0 - 2.0 * c) * b))


def reference_sc(llr, frozen):
    """Straight-line SC over the factor graph, one frame.

    LLRs are recomputed from scratch for every bit; partial sums are
    re-derived level by level whenever a block completes.  Ties (LLR
    exactly zero) decode to bit 0.
    """
    llr = np.asarray(llr, dtype=float)
    N = llr.size
    n = N.bit_length() - 1
    assert 2 ** n == N
    beta = np.zeros((n + 1, N), dtype=np.uint8)

    def alpha(s, i):
        if s == n:
            return llr[i]
        if (i >> s) % 2 == 0:
            return _f_ref(alpha(s + 1, i), alpha(s + 1, i + (1 << s)))
        return _g_ref(alpha(s + 1, i), alpha(s + 1, i - (1 << s)),
                      float(beta[s, i - (1 << s)]))

    u = np.zeros(N, dtype=np.uint8)
    for i in range(N):
        a = alpha(0, i)
        u[i] = 0 if (frozen[i] or a >= 0.0) else 1
        beta[0, i] = u[i]
        for s in range(1, n + 1):
            blk = 1 << s
            if (i + 1) % blk:
                break
            base = i + 1 - blk
            half = blk // 2
            for j in range(base, base + half):
                beta[s, j] = beta[s - 1, j] ^ beta[s - 1, j + half]
            for j in range(base + half, base + blk):
                beta[s, j] = beta[s - 1, j]
    return u


def reference_sc_frames(llrs, frozen):
    """Recursive SC over a (frames, N) LLR matrix, one frame a row, at any N.

    Each node takes F of its LLR halves into its left child and G into its
    right one, with _f_ref's and _g_ref's numpy tanh, arctanh and clamp on
    whole columns, and returns its leaves' bits and its partial sums.  No
    subtree is pruned: frozen leaves are decided as 0.  Returns (frames, N)
    uint8 input-bit estimates.
    """
    def decide(a, frozen):
        if a.shape[1] == 1:
            u = (a < 0.0) & ~frozen
            return u, u
        h = a.shape[1] // 2
        a0, a1 = a[:, :h], a[:, h:]
        t = np.tanh(a0 / 2.0) * np.tanh(a1 / 2.0)
        with np.errstate(divide="ignore"):  # arctanh(+-1) = +-inf, clamped
            left = np.clip(2.0 * np.arctanh(t), -LLR_CAP, LLR_CAP)
        u0, x0 = decide(left, frozen[:h])
        u1, x1 = decide(np.clip(a1 + (1.0 - 2.0 * x0) * a0, -LLR_CAP, LLR_CAP), frozen[h:])
        return np.hstack([u0, u1]), np.hstack([x0 ^ x1, x1])

    u, _ = decide(np.asarray(llrs, dtype=np.float64), np.asarray(frozen, dtype=bool))
    return u.astype(np.uint8)


def reference_planes(llr):
    """BEC LLRs (rows, frames) as erasure/sign planes (2, rows, ceil(frames/8)) uint8.

    Plane 0 marks the erased LLRs (+-0) and plane 1 the negative ones, each
    packed along frames by np.packbits, so padding bits are 0.
    """
    p = np.empty((2, llr.shape[0], -(-llr.shape[1] // 8)), np.uint8)
    p[0] = np.packbits(llr == 0.0, axis=-1)
    p[1] = np.packbits(llr < 0.0, axis=-1)
    return p


def batch_llrs(llr, frames):
    """A Monte Carlo batch's float64 LLRs (N, frames).

    BEC planes are rebuilt: +0.0 where erased, -LLR_CAP where the sign bit
    is set and +LLR_CAP elsewhere, as sample_llrs gives them.  Float64 LLRs
    of the other channels are returned as they are.
    """
    if llr.dtype != np.uint8:
        return llr
    erased, negative = np.unpackbits(llr, axis=-1, count=frames).view(bool)
    return np.where(erased, 0.0, np.where(negative, -LLR_CAP, LLR_CAP))


def _reference_kind(z, s, threshold):
    # Rate-1 iff the worst leaf below, reached by the all-minus path, stays
    # under the freezing threshold; Rate-0 iff the best leaf, reached by the
    # all-plus path, is still frozen.  Both loops stop at the first step that
    # leaves the range.
    y = z
    ok = True
    for _ in range(s):
        if y >= threshold:
            ok = False
            break
        y = 2.0 * y - y * y
    if ok and y < threshold:
        return NodeKind.RATE1
    y = z
    ok = True
    for _ in range(s):
        if y < threshold:
            ok = False
            break
        y = y * y
    if ok and y >= threshold:
        return NodeKind.RATE0
    return NodeKind.MIXED


def reference_pruned_levels(channel, n, pe):
    """Per level s = 0..n, the (z, kind) of every pruned-tree node in leaf order.

    A depth-first scan with an explicit stack, one node at a time; the left
    child pops first, so each level is visited left to right.
    """
    threshold = pe / 2 ** n
    levels = [[] for _ in range(n + 1)]
    stack = [(channel.z0, n)]
    while stack:
        z, s = stack.pop()
        kind = _reference_kind(z, s, threshold)
        levels[s].append((z, kind))
        if kind is NodeKind.MIXED:
            stack.append((z * z, s - 1))
            stack.append((2.0 * z - z * z, s - 1))
    return levels


def tree_levels(tree, z0):
    """An SscTree's levels, z from z0 at the root, as the lists reference_pruned_levels returns."""
    return [list(zip(z.tolist(), map(NodeKind, kinds.tolist())))
            for z, kinds in zip(tree.reliabilities(z0), tree.kinds)]


def random_bsc():
    return BmsChannel(ChannelKind.BSC, 0.11)


def reference_inversion(kind, target):
    """channel_from_capacity as a plain bisection that runs the exact capacity at every step.

    The loop with no estimate, step for step: channel_from_capacity must
    return the same channel, bit for bit.  The capacities are looked up on
    the channel module at each call, so a test's spy on them sees every step.
    """
    kind = ChannelKind(kind)
    if kind is ChannelKind.BEC:
        return BmsChannel(kind, 1.0 - target)
    if kind is ChannelKind.BSC:
        lo, hi = 0.0, 0.5
    else:
        lo, hi = 1e-6, 2.0
        while channel_module._bawgnc_capacity(hi) > target:
            hi *= 2.0
            if hi > 1e6:
                raise ArithmeticError("BAWGNC capacity bisection failed to bracket target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = channel_module.capacity(kind, mid)
        if abs(c - target) <= 1e-9:
            return BmsChannel(kind, mid)
        if c > target:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"capacity bisection did not converge for {kind.value} target {target}")
