"""Pruned decoding trees and exact decoder latency under P processing elements.

Latency is modeled as in semi-parallel decoder schedules: the edge entering
a tree node at level s costs ceil(2^s / P) time steps, and a decoder's
latency is the sum of edge costs over its (possibly pruned) decoding tree.
Everything in this module is exact integer arithmetic; no floating point
touches the latency path.

An SscTree holds node kinds alone, and works out each node's z on request.
A frozen mask's tree is read off the mask bottom-up (_mask_tree): a node is
Rate-0 or Rate-1 exactly when its leaves are all frozen or all information
(Alamdar-Yazdi and Kschischang's rule).  The channel scan and the edge
profiles walk the tree top-down a level at a time with one walker (_walk),
and classify a node by its all-plus and all-minus reliability paths instead.
In IEEE doubles both polarization maps are non-decreasing, so whether a path
of s steps ends on one side of the threshold is a threshold on its start.
The walker decides every node against the two tables of these per-level
thresholds (_thresholds) with one comparison for each kind; it has no
classifier parameter.  scan_ssc_tree keeps every level whole.  At one
(n, pe) the scan depends on a channel only through its z0, so
scan_edge_profiles walks the roots of several channels together, one
segment of each level a root; preset 6's sweep scans its channels this way.
A profile counts each level and drops it, and classifies levels only while
the next would hold at most _FRONTIER_BOUND nodes.  The levels below are
counted, not built: a node is MIXED at level t exactly when its z lies in
[minus[t], plus[t]), and then so are its ancestors, so a level's count is
the number of paths from the last classified level that land in that
window.  Each path's preimage of the window is an interval of doubles,
found by exact searches (_preimages), so a root's count is a difference of
searchsorted positions in its sorted z (_tail_counts).
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .channel import BmsChannel, polarize, z_minus, z_plus
from .construct import PolarCode, _as_int, _check_n, _check_pe


class NodeKind(IntEnum):
    RATE0 = 0   # every leaf below is frozen
    RATE1 = 1   # every leaf below is information
    MIXED = 2


@dataclass(frozen=True, eq=False)
class SscTree:
    """The pruned decoding tree, stored level by level.

    kinds[s] is an int8 array of one NodeKind per node of the pruned tree at
    level s (leaves are level 0, the root is level n), in leaf order.
    Rate-0 and Rate-1 nodes are pruned, so the nodes at level s-1 are
    exactly the children of the MIXED nodes at level s, left child first.
    """

    kinds: tuple[np.ndarray, ...]

    def __post_init__(self):
        """Reject levels that are not a pruned tree: every consumer trusts them."""
        kinds = self.kinds
        n = _check_n(len(kinds) - 1)
        if not all(isinstance(k, np.ndarray) and k.dtype == np.int8 for k in kinds):
            raise ValueError("every level's node kinds must be an int8 array")
        if np.shape(kinds[n]) != (1,):
            raise ValueError(f"the root level must hold one node, got shape {np.shape(kinds[n])}")
        # as uint8 a negative kind counts past index 2, as a kind above 2 does
        counts = [np.bincount(k.view(np.uint8).ravel(), minlength=3) for k in kinds]
        if any(len(c) > 3 for c in counts):
            raise ValueError("node kinds must be 0 (Rate-0), 1 (Rate-1) or 2 (MIXED)")
        mixed = [int(c[NodeKind.MIXED]) for c in counts]
        if mixed[0]:
            raise ValueError("level 0 holds leaves, and a leaf cannot be MIXED")
        for s in range(n, 0, -1):
            if np.shape(kinds[s - 1]) != (2 * mixed[s],):
                raise ValueError(f"level {s - 1} must hold the {2 * mixed[s]} children of "
                                 f"level {s}'s MIXED nodes, got shape {np.shape(kinds[s - 1])}")

    @property
    def n(self) -> int:
        return len(self.kinds) - 1

    def node_count(self) -> int:
        return sum(k.size for k in self.kinds)

    def edge_profile(self) -> list[int]:
        """Count of tree edges entering each level s = 0 .. n-1."""
        return [2 * int(np.count_nonzero(self.kinds[s + 1] == NodeKind.MIXED))
                for s in range(self.n)]

    def reliabilities(self, z0: float) -> tuple[np.ndarray, ...]:
        """Each node's reliability by level: [z0] at the root, then polarize of each MIXED z."""
        zs = [np.array([z0], dtype=np.float64)]
        for kinds in self.kinds[:0:-1]:
            zs.append(polarize(zs[-1][kinds == NodeKind.MIXED]))
        return tuple(zs[::-1])


ProfileLike = Union[Sequence[int], SscTree, PolarCode]


def _check_p(P: int) -> int:
    """P as a Python int; rejects a P that is not a positive integer (numpy's pass)."""
    P = _as_int(P, "P")
    if P < 1:
        raise ValueError(f"P must be a positive integer, got {P}")
    return P


def _weight(s: int, P: int) -> int:
    return (2 ** s + P - 1) // P


def decoding_weight(s: int, P: int) -> int:
    """Time steps charged to an edge entering a node at level s: ceil(2^s / P)."""
    return _weight(_as_int(s, "level", 0), _check_p(P))


# One step of a walk: (s, (z, rate0, rate1), mixed), see _walk.
Step = tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Largest level a profile walk classifies.  The levels below the last one it
# classifies, s, are counted from that level (_tail_counts), with a table of
# up to 2^s intervals.  On a 2-vCPU Xeon, 2^14 was the fastest of 2^13 to
# 2^16 for preset 7 to n_max = 23 and 27, preset 8 to 27 and preset 6 to 18,
# and within 3 % of 2^15 for preset 6 to its default n_max = 22.  Preset 6
# to n_max = 27, whose nine roots stop high, ran fastest at 2^16.  Preset 6
# at n = 27 alone, in a fresh process, took 0.10 s and peaked at 33 MB RSS,
# where classifying every level took 0.48 s and 65 MB.
_FRONTIER_BOUND = 1 << 14


def _segment_counts(mask: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Count of True in each of the consecutive segments of mask of the given sizes,
    each counted on its own slice.  One root skips the comprehension, which
    cost preset 7, whose walks are all single roots, 11 % more time."""
    if sizes.size == 1:
        return np.array([np.count_nonzero(mask)])
    ends = np.cumsum(sizes).tolist()
    return np.array([np.count_nonzero(mask[lo:hi]) for lo, hi in zip([0] + ends, ends)],
                    dtype=np.int64)


def _tables(n: int, pe: float) -> tuple[list[float], list[float]]:
    """_thresholds for the code of 2^n leaves at pe; rejects n < 1 and pe outside
    (0, 1), as build_code does."""
    n = _check_n(n)
    _check_pe(pe)
    return _thresholds(pe / 2 ** n, n)


def _walk(z0: Sequence[float], plus: list[float], minus: list[float],
          bottom: int) -> Iterator[Step]:
    """Walk the pruned trees of the roots z0 top-down, from level n to level bottom.

    plus and minus are the tables of _tables(n, pe), and each level is
    decided against them, one comparison a node for each kind.  Each step
    (s, (z, rate0, rate1), mixed) is level s of all the roots: z holds each
    root's nodes as one contiguous segment, in root order, and mixed[r]
    counts root r's MIXED nodes.  The segments stay contiguous because
    filtering by a mask and polarize keep order.  The next level is built
    only when the walk resumes, so a caller that stops never builds it.
    """
    z = np.asarray(z0, dtype=np.float64)
    sizes = np.ones(z.size, dtype=np.int64)
    s = len(plus) - 1
    while True:
        rate0, rate1 = z >= plus[s], z < minus[s]
        mixed = ~(rate0 | rate1)
        counts = _segment_counts(mixed, sizes)
        yield s, (z, rate0, rate1), counts
        if s == bottom:
            return
        z = polarize(z[mixed])
        sizes = 2 * counts
        s -= 1


def _tree(steps: Iterator[Step]) -> SscTree:
    """The SscTree of a one-root walk down to the leaves."""
    kinds = []
    for _s, (z, rate0, rate1), _mixed in steps:
        kind = np.full(z.size, NodeKind.MIXED, dtype=np.int8)
        kind[rate0] = NodeKind.RATE0
        kind[rate1] = NodeKind.RATE1
        kind.flags.writeable = False
        kinds.append(kind)
    return SscTree(tuple(kinds[::-1]))


# Bit patterns of the doubles in [0, 1] are ordered as their values.
_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# Steps of math.nextafter from a closed-form guess before bisecting instead.
_NUDGES = 4


def _least_reaching(step: Callable[[float], float], guess: Callable[[float], float],
                    target: float) -> float:
    """The least double z in [0, 1] with step(z) >= target, or inf if there is none.

    step must be non-decreasing on [0, 1].  guess(target) is a start a few
    ulps from the answer; when _NUDGES steps of nextafter do not settle it,
    a bisection over the bit patterns of [0, 1] does.
    """
    if not step(1.0) >= target:
        return math.inf
    z = guess(target)
    for _ in range(_NUDGES):
        if step(z) < target:
            z = math.nextafter(z, 1.0)
        elif z > 0.0 and step(below := math.nextafter(z, 0.0)) >= target:
            z = below
        else:
            return z
    lo, hi = -1, _ONE_BITS  # step fails at lo (or below 0.0) and holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if step(_double(mid)) >= target:
            hi = mid
        else:
            lo = mid
    return _double(hi)


def _least_reaching_all(step: Callable[[np.ndarray], np.ndarray],
                        guess: Callable[[np.ndarray], np.ndarray],
                        target: np.ndarray) -> np.ndarray:
    """_least_reaching(step, guess, t) for each t of the array target.

    guess takes arrays.  Each end is nudged from its guess as the scalar
    search nudges it, and an end still moving after _NUDGES rounds is taken
    from the scalar search, so every end is the double that search returns.
    """
    top = step(1.0)
    t = np.minimum(target, top)  # a target past step(1.0) is searched as step(1.0), then dropped
    found = guess(t)
    for _ in range(_NUDGES):
        short = step(found) < t
        below = np.nextafter(found, 0.0)
        over = ~short & (found > 0.0) & (step(below) >= t)
        moving = short | over
        if not moving.any():
            break
        found = np.where(short, np.nextafter(found, 1.0), np.where(over, below, found))
    else:
        for i in np.flatnonzero(moving):
            found[i] = _least_reaching(step, guess, float(t[i]))
    return np.where(top >= target, found, math.inf)


def _minus_guess(t: float, sqrt: Callable[[float], float] = math.sqrt) -> float:
    return t / (1.0 + sqrt(1.0 - t))  # 1 - sqrt(1 - t), without its cancellation


def _thresholds(threshold: float, n: int) -> tuple[list[float], list[float]]:
    # A leaf is frozen iff its z >= threshold.  On the doubles of [0, 1]
    # both maps are non-decreasing:
    # - z_plus(z) = fl(z*z), because z*z is and rounding is monotone;
    # - z_minus(z) = fl(2z - a), a = fl(z*z), with 2z exact.  For adjacent
    #   doubles z < z' = z + u <= 1 it suffices that a' - a <= 2u.  The
    #   squares differ by u(z + z') < 2u.  a <= z is a multiple of the
    #   spacing g <= u of doubles at a.  If a' is on the same grid (one
    #   binade, or both below 2^-1021), each is within g/2 of its square, so
    #   a' - a < 2u + g, a multiple of g: a' - a <= 2u.  Otherwise a' is
    #   past an edge B where the spacing doubles to 2g, so
    #   a' - a <= u(z + z') + g/2 + g = 2u + 3g/2 - m, m = u(2 - z - z');
    #   a multiple of g, it exceeds 2u only if m <= g/2 <= u/2.  B = 1
    #   needs z' = 1, where a' - a = 2u; B <= 1/2 needs z' < 0.71, so
    #   m > u/2.
    # test_channel.py checks both maps on every pair of adjacent doubles
    # in windows around these edges.
    # With z_plus(z) <= z <= z_minus(z), a node's best leaf is then the end
    # of its all-plus path and its worst the end of its all-minus path.  It
    # is Rate-0 iff z_plus^s(z) >= threshold, and Rate-1 iff
    # z_minus^s(z) < threshold.  The z whose s-step path reaches the
    # threshold are all the doubles from some least one on, plus[s] for
    # z_plus and minus[s] for z_minus (inf if none), and since
    # step^s(z) = step^(s-1)(step(z)), plus[s] is the least z with
    # z_plus(z) >= plus[s - 1], and likewise for minus.  So the node is
    # Rate-0 iff z >= plus[s] and Rate-1 iff z < minus[s], exactly.  A NaN
    # z is neither.
    plus, minus = [threshold], [threshold]
    for _ in range(n):
        plus.append(_least_reaching(z_plus, math.sqrt, plus[-1]))
        minus.append(_least_reaching(z_minus, _minus_guess, minus[-1]))
    return plus, minus


# The two maps, each with a guess that takes arrays, in polarize's order.
_ARRAY_STEPS = ((z_minus, lambda t: _minus_guess(t, np.sqrt)), (z_plus, np.sqrt))


def _preimages(plus: list[float], minus: list[float],
               s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table (lo, hi, level) of the levels below s, for the tables of _tables.

    For each level t in 1 .. s-1 and each path of s - t steps, [lo, hi) is
    the interval of the z at level s that the path maps into the window
    [minus[t], plus[t]), and level = t - 1; empty intervals are left out,
    so there are at most 2^s - 2.  Both maps are non-decreasing, so each
    end is a chain of least-reaching searches, one a level from t up.
    """
    lo = hi = np.empty(0)
    level = np.empty(0, dtype=np.int64)
    for t in range(1, s):
        k = lo.size + 1
        ends = np.concatenate((lo, (minus[t],), hi, (plus[t],)))
        worse, better = (_least_reaching_all(step, guess, ends) for step, guess in _ARRAY_STEPS)
        lo = np.concatenate((worse[:k], better[:k]))
        hi = np.concatenate((worse[k:], better[k:]))
        level = np.concatenate((level, (t - 1,), level, (t - 1,)))
        keep = lo < hi
        lo, hi, level = lo[keep], hi[keep], level[keep]
    return lo, hi, level


def _tail_counts(z: np.ndarray, sizes: np.ndarray, plus: list[float], minus: list[float],
                 s: int) -> np.ndarray:
    """counts[r, t - 1]: root r's MIXED nodes at each level t below s, where
    z holds each root's MIXED nodes at level s as a segment of the given size."""
    lo, hi, level = _preimages(plus, minus, s)
    counts = np.empty((sizes.size, s - 1), dtype=np.int64)
    ends = np.cumsum(sizes)
    for r, (first, last) in enumerate(zip(ends - sizes, ends)):
        zr = np.sort(z[first:last])
        inside = np.searchsorted(zr, hi) - np.searchsorted(zr, lo)
        counts[r] = np.bincount(level, weights=inside, minlength=s - 1)
    return counts


def _mask_tree(frozen: np.ndarray) -> SscTree:
    """The pruned tree of a power-of-two frozen mask.

    A node is Rate-0 or Rate-1 iff its leaves are all frozen or all
    information, so the full tree's kinds are read bottom-up in one O(N)
    pass: a parent takes its children's kind when they agree and is MIXED
    otherwise.  Going down from the root, the pruned tree keeps the children
    of its MIXED nodes.
    """
    full = [(~frozen).view(np.int8)]  # a leaf is Rate-0 (0) if frozen, else Rate-1 (1)
    while full[-1].size > 1:
        left, right = full[-1][0::2], full[-1][1::2]
        full.append(np.where(left == right, left, np.int8(NodeKind.MIXED)))
    kinds, keep = [], np.ones(1, dtype=bool)
    while full:
        level = full.pop()
        kind = level[keep]
        kind.flags.writeable = False
        kinds.append(kind)
        if full:
            keep = np.repeat(keep & (level == NodeKind.MIXED), 2)
    return SscTree(tuple(kinds[::-1]))


def build_ssc_tree(code: PolarCode) -> SscTree:
    """Classify the code's decoding tree from its frozen mask and prune pure subtrees."""
    return _mask_tree(code.frozen)


def scan_ssc_tree(channel: BmsChannel, n: int, pe: float) -> SscTree:
    """The pruned tree of the code for (channel, 2^n, pe), built from the channel alone.

    Equal, kind for kind, to build_ssc_tree(build_code(channel, n, pe)) but
    never materializes the 2^n leaves, so it reaches n = 27.  It holds every
    level whole: memory and time are O(pruned nodes), one comparison a node
    against a table of per-level thresholds built in O(n).
    Rejects n < 1 and pe outside (0, 1), as build_code does.
    """
    return _tree(_walk([channel.z0], *_tables(n, pe), 0))


def scan_edge_profiles(channels: Sequence[BmsChannel], n: int, pe: float) -> list[list[int]]:
    """[scan_edge_profile(ch, n, pe) for ch in channels], in one walk.

    At a fixed (n, pe) the scan depends on a channel only through its z0,
    so the roots of all the channels are classified together, a level at a
    time, while the next level would hold at most _FRONTIER_BOUND nodes.
    Each root's levels below the last one classified are counted from that
    level's z (_tail_counts) and never built.
    """
    plus, minus = _tables(n, pe)
    profiles = [[0] * n for _ in channels]
    for s, (z, rate0, rate1), mixed in _walk([ch.z0 for ch in channels], plus, minus, 1):
        counts = mixed.tolist()
        for profile, m in zip(profiles, counts):
            profile[s - 1] = 2 * m
        if s > 1 and 2 * sum(counts) > _FRONTIER_BOUND:
            tail = _tail_counts(z[~(rate0 | rate1)], mixed, plus, minus, s)
            for profile, below in zip(profiles, tail.tolist()):
                profile[:s - 1] = [2 * m for m in below]
            break
    return profiles


def scan_edge_profile(channel: BmsChannel, n: int, pe: float) -> list[int]:
    """Edge profile of the pruned tree for (channel, 2^n, pe), scanned from the channel.

    Equal to scan_ssc_tree(...).edge_profile().  Levels are classified top
    down, counted and dropped while the next would hold at most
    _FRONTIER_BOUND nodes, and the levels below the last one classified, s,
    are counted from a table of at most 2^s intervals.  So memory is
    O(_FRONTIER_BOUND + 2^s) and time O(n _FRONTIER_BOUND + 2^s) up to a log
    factor, not O(2^n) nor O(pruned nodes).
    """
    return scan_edge_profiles([channel], n, pe)[0]


def _coerce_profile(obj: ProfileLike) -> list[int]:
    if isinstance(obj, PolarCode):
        return build_ssc_tree(obj).edge_profile()
    prof = obj.edge_profile() if isinstance(obj, SscTree) else list(obj)
    if not prof:  # a tree has n >= 1 levels of edges
        raise ValueError("edge profile must have at least one level, got []")
    try:  # numpy's integers pass, as Python ints; booleans, as in _as_int, do not
        if bool in map(type, prof):  # operator.index rejects only numpy's
            raise TypeError
        prof = [operator.index(count) for count in prof]
    except TypeError:
        raise ValueError(f"edge counts must be integers, got {prof}") from None
    if any(count < 0 for count in prof):
        raise ValueError(f"edge counts must be >= 0, got {prof}")
    return prof


# ---------------------------------------------------------------------------
# latencies
# ---------------------------------------------------------------------------

def ssc_latency(tree: ProfileLike, P: int) -> int:
    """Latency of the pruned decoder: sum of decoding weights over its edges.

    A root that is itself Rate-0 or Rate-1 has no edges and costs 0.
    """
    prof = _coerce_profile(tree)
    P = _check_p(P)
    return sum(count * _weight(s, P) for s, count in enumerate(prof))


def sc_latency_tree(n: int, P: int) -> int:
    """Latency of the unpruned decoder: ssc_latency over the full tree's edges."""
    n = _check_n(n)
    return ssc_latency([2 ** (n - s) for s in range(n)], P)


def sc_latency_closed_form(N: int, P: int) -> int:
    """Closed form 2N + (N/P) log2(N/(4P)) for power-of-two N and P <= N/2."""
    N, P = _as_int(N, "N"), _check_p(P)
    if N < 2 or N & (N - 1):
        raise ValueError(f"N must be a power of two >= 2, got {N}")
    if P & (P - 1):
        raise ValueError(f"P must be a power of two >= 1, got {P}")
    if P > N // 2:
        raise ValueError(f"P must be <= N/2, got P={P}, N={N}")
    n = N.bit_length() - 1
    p = P.bit_length() - 1
    return 2 * N + (N // P) * (n - 2 - p)


def check_mu(mu: float) -> None:
    """Reject a scaling exponent that is not positive and finite."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")


def latency_upper_bound(N: int, P: int, mu: float, c: float, eps: float) -> float:
    """Evaluate c*N^(1-1/mu) + (2+eps)*(N/P)*log2 log2 (N/P).

    The double logarithm requires N/P > 1; at N/P = 2 the second term is
    exactly zero, which covers the fully-parallel operating point.  Rejects
    non-finite c and eps and a mu that is not positive and finite.
    """
    N, P = _as_int(N, "N", 2), _check_p(P)
    check_mu(mu)
    if not (math.isfinite(c) and math.isfinite(eps)):
        raise ValueError(f"c and eps must be finite, got c={c}, eps={eps}")
    ratio = N / P
    inner = math.log2(ratio)
    if inner <= 0.0:
        raise ValueError(f"log2(log2(N/P)) undefined for N/P = {ratio}")
    second = 0.0 if inner == 1.0 else (2.0 + eps) * ratio * math.log2(inner)
    return c * N ** (1.0 - 1.0 / mu) + second


def check_factor(factor: float) -> None:
    """Reject a latency factor that is not finite and >= 1."""
    if not 1.0 <= factor < math.inf:
        raise ValueError(f"factor must be finite and >= 1, got {factor}")


def min_p_within_factor(tree: ProfileLike, factor: float) -> int:
    """Smallest integer P whose latency is within `factor` of fully parallel.

    Binary search over P in [1, N/2], valid because the latency is monotone
    non-increasing in P.  The fully-parallel reference is P = N/2.
    """
    check_factor(factor)
    prof = _coerce_profile(tree)
    n = len(prof)
    half = max(1, 2 ** n // 2)
    target = factor * ssc_latency(prof, half)
    lo, hi = 1, half
    while lo < hi:
        mid = (lo + hi) // 2
        if ssc_latency(prof, mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class LatencyReport:
    """Exact time-step latencies of one code at one PE budget."""

    n: int
    N: int
    P: int
    sc_tree: int
    sc_closed: Optional[int]
    ssc: int
    normalized: float


def latency_report(code: ProfileLike, P: int) -> LatencyReport:
    """The standard latency numbers of a code or edge profile; n is the profile's length."""
    P = _check_p(P)
    prof = _coerce_profile(code)
    n = len(prof)
    N = 2 ** n
    closed = None
    if P & (P - 1) == 0 and 1 <= P <= N // 2:
        closed = sc_latency_closed_form(N, P)
    ssc = ssc_latency(prof, P)
    return LatencyReport(n, N, P, sc_latency_tree(n, P), closed, ssc, ssc / N)
