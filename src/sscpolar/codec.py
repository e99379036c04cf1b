"""Non-systematic polar encoder and bit-exact SC / simplified-SC decoders.

Decoders work on log-likelihood ratios with positive values favoring bit 0.
The simplified decoder prunes all-frozen subtrees to zero vectors and
all-information subtrees to one-shot hard decisions, and is bit-identical
to plain successive cancellation on every input.

Both decoders are one schedule compiler and one executor.  A level-wise
tree compiles into a stream of ops, one for each tree edge or pair of
edges, so they count the per-level edges the latency model charges
(schedule_profile).  SSC is the schedule of the pruned SscTree.  SC decides
each information bit on its own, so inside a Rate-1 node it runs _inside,
the schedule of the complete tree whose leaves are all information, and
SC's schedule is SSC's with each Rate-1 node replaced by _inside, shifted
to its leaves.  A Rate-1 node above level 1 hard-decides, unless a frame
holds a tie there: SSC then takes SC's bits on the tie frames, from
_inside run on those frames' inputs.  sc_ssc_agreement decodes both in one
pass over SSC's schedule that computes each shared LLR once; each Rate-1
node above level 1 saves copies of its input and its bits, and after the
pass _inside decodes each level's saved inputs, joined, at once, and a
frame diverges where SC's bits differ from the saved ones.  The executor
runs a schedule over frame-interleaved buffers: the channel LLRs, one
(2^s, frames) LLR array a level s >= 1, so a node's halves are contiguous
row blocks, a 2-row block at level 0, and one (N, frames) array of partial
sums, in place; on the BEC's bit-planes (below) each LLR buffer is two
planes of those rows and the partial sums are packed, 8 frames a byte.  Its
kernels' scratch is a level buffer no later op reads.

Ops skip the LLRs that the node kinds show no decision reads.  A MIXED
node above level 1 runs F, G and COMBINE, except that the F or G into a
Rate-0 child becomes a no-op RATE0: a Rate-0 node's partial sums are 0
whatever its LLRs, so neither decoder runs F, G or COMBINE inside an
all-frozen subtree.  A node at level 1 with an information leaf is one
op, coded by its two leaves' kinds, that decides them from signs alone; a
Rate-1 node at level 1 is the op with two information leaves.  A leaf's
bit is 1 when its LLR is below 0; F's arctanh is odd, strictly increasing
and 0 only at 0, and the x2 and the clamp to +-LLR_CAP keep the sign too,
so the left bit is tanh(a0/2)*tanh(a1/2) < 0, and the right bit is
a1 + (1-2c)*a0 < 0 without G's clamp.  A frozen left leaf has c = 0, so G
is a1 + a0, and a frozen right leaf needs no G.

On the BEC every LLR is -LLR_CAP, +-0 or +LLR_CAP, and that set is closed
under both ops: the channel gives only these values; F's tanh(+-LLR_CAP/2)
rounds to +-1.0, so F's product is +-1 or +-0, and arctanh(+-1) = +-inf
clamps to +-LLR_CAP; G's sum lies in {0, +-LLR_CAP, +-2*LLR_CAP}, which its
clamp maps back into the set.  So an LLR there is two bits, whether it is 0
(erased) and whether it is negative, and SC is erasure propagation: F is
erased where either input is, with the XOR of their signs; G is erased
where both inputs are, and where both are known and a1's sign differs from
a0's flipped by c, and otherwise takes a1's sign, or a0's flipped one where
a1 is erased.  A leaf's bit is 1 where its LLR is known and negative, and a
frame ties in a Rate-1 node exactly where one of the node's inputs is
erased, which is where _tie_frames' log is -inf.  Monte Carlo BEC frames
are made as an erasure plane and a sign plane, 8 frames a byte, and the
executor decodes uint8 planes with bitwise kernels: the pass, the SC runs
on tie frames and the check, bit for bit as the float64 kernels decide,
and with no tanh, arctanh or log, so with no dependence on numpy's SIMD
dispatch.  The executor reads its kernel set off its input's dtype: the
planes' on uint8 planes, and the float64 kernels on the LLRs of the other
channels and the public decoders.

Monte Carlo frames come from one seeded stream per trial, message bits
first, then noise.  On the BAWGNC and BSC sample_llrs's own draws-to-LLR
map, channel._llrs, makes their LLRs, so every frame equals the per-frame
path bit for bit; on the BEC the planes are what that map's LLRs give,
erased where they are +0.0 and negative where they are -LLR_CAP.  Each
block of 16 streams' noise is drawn frame-major and written transposed
into the decoder's (N, frames) orientation: on the BAWGNC the draws go
straight into the batch's LLR buffer, and on the BEC and BSC the bit each
uniform draw decides whatever the codeword, kept or flipped, goes into one
byte array.  The map then writes the batch's LLRs into its buffer in
place, a tile of rows at a time; on the BEC the kept bits and the
codeword are packed into the planes instead.  Trial i's stream is
PCG64 seeded by SeedSequence(seed).spawn(trials)[i], each batch's streams
built for it with the seed words of all its children computed at once
(_spawn_words), and its message bits are read off its raw words, as
integers(0, 2, k, np.uint8) draws them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .channel import LLR_CAP, BmsChannel, ChannelKind, _check_bits, _decide, _draw, _llrs
from .construct import PolarCode, _as_int, _check_mask, _check_n
from .latency import NodeKind, SscTree, _mask_tree, build_ssc_tree


def _butterflies(x: np.ndarray, m: int, unit: int) -> np.ndarray:
    """The polar transform, in place, of a C-contiguous array; returns x.

    x is read as runs of m symbols of `unit` consecutive elements each, and
    each run is transformed: unit = 1 is the last axis of a (..., m) array,
    unit = frames is axis 0 of an (m, frames) one.  The stage at `step`
    XORs the second half of every 2*step-element block into its first half.
    """
    step = unit
    while step < m * unit:
        v = x.reshape(-1, 2, step)
        v[:, 0] ^= v[:, 1]
        step *= 2
    return x


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Multiply by the polarization kernel's n-fold Kronecker power over GF(2).

    Operates along the last axis; the transform is an involution, so it is
    both the encoder map and the map from node bit estimates back to leaves.
    Rejects any entry that is not 0 or 1.
    """
    x = np.array(_check_bits(u), dtype=np.uint8, order="C")  # a copy that reshapes into views
    m = x.shape[-1]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length must be a power of two, got {m}")
    return _butterflies(x, m, 1)


def encode(code: PolarCode, u: np.ndarray) -> np.ndarray:
    """Encode a full input vector (frozen positions must already be zero)."""
    u = _check_bits(u)
    if u.shape[-1] != code.N:
        raise ValueError(f"input length {u.shape[-1]} != N={code.N}")
    if np.any(u[..., code.frozen] != 0):
        raise ValueError("frozen positions must be zero")
    return polar_transform(u)


def encode_message(code: PolarCode, message: np.ndarray) -> np.ndarray:
    """Place k message bits into the information positions and encode."""
    message = _check_bits(message)
    if message.shape[-1] != code.k:
        raise ValueError(f"message length {message.shape[-1]} != k={code.k}")
    u = np.zeros(message.shape[:-1] + (code.N,), dtype=np.uint8)
    u[..., ~code.frozen] = message
    return polar_transform(u)


# ---------------------------------------------------------------------------
# decoding schedules
# ---------------------------------------------------------------------------

# Op codes.  An op is (code, s, lo) for the tree node at level s whose leaves
# are lo .. lo + 2^s - 1.  F and G compute the LLRs entering its left and
# right child, RATE1 hard-decides the node at once and COMBINE merges its
# children's partial sums.  RATE0 marks the edge into a Rate-0 node above the
# leaves and does nothing: no op reads that node's LLRs, so no F or G feeds
# it, and its partial sums stay 0, so no COMBINE is needed with it on the right.
# A MIXED node at level 1 is one op that decides both leaves and combines
# them, coded by its (left, right) leaf kinds: FROZEN_INFO, INFO_FROZEN and
# INFO_INFO, that is RATE0 + 2*left + right.  Two frozen leaves make a Rate-0
# node, so no MIXED node has them.
F, G, RATE1, COMBINE, RATE0, FROZEN_INFO, INFO_FROZEN, INFO_INFO = range(8)

Op = tuple[int, int, int]


def _compile(levels: Sequence[Iterable[int]]) -> Iterator[Op]:
    """Yield a level-wise tree's ops depth first; levels[s] gives level s's kinds."""
    # A depth-first walk meets the nodes of each level left to right, which is
    # the order of levels[s], so one iterator per level yields the next node,
    # and a node's children are the next two kinds of the level below it.
    kinds = [iter(level) for level in levels]
    rate0, rate1, mixed = int(NodeKind.RATE0), int(NodeKind.RATE1), int(NodeKind.MIXED)
    top = len(kinds) - 1
    todo = [(None, top, 0, next(kinds[top]))]  # ops to emit, or (None, s, lo, kind): visit
    while todo:
        item = todo.pop()
        if item[0] is not None:
            yield item
            continue
        _, s, lo, kind = item
        if kind == rate1:
            yield (RATE1, s, lo)
        elif kind == mixed:
            below = kinds[s - 1]
            left, right = next(below), next(below)
            if s == 1:  # leaves are Rate-0 (0) or Rate-1 (1)
                yield (RATE0 + 2 * left + right, 1, lo)
                continue
            h = 1 << (s - 1)
            if right == rate0:
                todo.append((RATE0, s - 1, lo + h))
            else:
                todo += [(COMBINE, s, lo), (None, s - 1, lo + h, right), (G, s, lo)]
            if left == rate0:
                yield (RATE0, s - 1, lo)
            else:
                todo.append((None, s - 1, lo, left))
                yield (F, s, lo)


def _inside(s: int) -> Iterator[Op]:
    """SC's ops inside a Rate-1 node at level s: the complete tree, every leaf information."""
    return _compile([bytes([NodeKind.MIXED if t else NodeKind.RATE1]) * (1 << (s - t))
                     for t in range(s + 1)])


def sc_schedule(frozen: np.ndarray) -> Iterator[Op]:
    """SC's ops: SSC's schedule of the mask's pruned tree, each Rate-1 node expanded.

    SC decides every information bit at its own leaf, so inside a Rate-1
    node it runs _inside, shifted to the node's leaves; at level 1 that is
    the one INFO_INFO op.
    """
    def expand(ops: Iterable[Op]) -> Iterator[Op]:
        for op, s, lo in ops:
            if op == RATE1:
                yield from ((o, t, lo + x) for o, t, x in _inside(s))
            else:
                yield op, s, lo

    return expand(ssc_schedule(_mask_tree(_check_mask(frozen))))


def ssc_schedule(tree: SscTree) -> Iterator[Op]:
    """The pruned decoder's ops, read off the level-wise tree."""
    return _compile([level.tobytes() for level in tree.kinds])  # bytes yield plain ints


def schedule_profile(ops: Iterable[Op], n: int) -> list[int]:
    """Tree edges entering each level s = 0 .. n-1 that a schedule decodes.

    An F, G or RATE0 op is one edge and a level-1 op is the two edges into
    its leaves, so this equals the edge profile the latency model charges:
    tree.edge_profile() for ssc_schedule(tree).  Raises ValueError for an n
    that is not an integer >= 1 and for an op whose edge enters a level
    outside 0 .. n-1, as the ops of a taller tree do.
    """
    n = _check_n(n)
    counts = [0] * n
    for op, s, lo in ops:
        if op == F or op == G:
            level, edges = s - 1, 1
        elif op == RATE0:
            level, edges = s, 1
        elif op > RATE0:
            level, edges = 0, 2
        else:
            continue
        if not 0 <= level < n:
            raise ValueError(f"op {(op, s, lo)} has an edge into level {level}, "
                             f"outside levels 0..{n - 1} of a tree with n={n}")
        counts[level] += edges
    return counts


def _clamp(o: np.ndarray) -> None:
    # the ndarray method: np.clip's wrapper costs more than the pass on small blocks
    o.clip(-LLR_CAP, LLR_CAP, out=o)


def _f(a: np.ndarray, o: np.ndarray, t: np.ndarray) -> None:
    """F into o: 2*arctanh(tanh(a0/2)*tanh(a1/2)), clamped, for a's halves a0, a1.

    t is scratch with o's columns and at most o's rows; tanh(a0/2) goes
    through it one tile of t's rows at a time, and F is elementwise, so every
    tiling gives the same bits.  arctanh(+-1) is +-inf, which the clamp
    saturates; callers silence numpy's divide warning for it.
    """
    h, m = o.shape[0], t.shape[0]
    # step by step, and x*0.5 == x/2.0
    for r in range(0, h, m):
        e = min(r + m, h)
        o_r, t_r = o[r:e], t[:e - r]
        np.multiply(a[r:e], 0.5, out=t_r)
        np.tanh(t_r, out=t_r)
        np.multiply(a[h + r:h + e], 0.5, out=o_r)
        np.tanh(o_r, out=o_r)
        o_r *= t_r
    np.arctanh(o, out=o)
    o *= 2.0
    _clamp(o)


def _g(a: np.ndarray, c: np.ndarray, o: np.ndarray) -> None:
    """G into o, unclamped: a1 + (1-2c)*a0 for a's halves a0, a1 and the left child's bits c.

    a and o are float64.  Multiplying by -1.0 flips exactly the sign bit, so
    o, viewed as uint64, is scratch for (1-2c)*a0.
    """
    h = o.shape[0]
    u = o.view(np.uint64)
    np.left_shift(c, 63, out=u, dtype=np.uint64)
    np.bitwise_xor(a[:h].view(np.uint64), u, out=u)
    np.add(a[h:], o, out=o)


def _g_clamped(a: np.ndarray, c: np.ndarray, o: np.ndarray, t: np.ndarray) -> None:
    """The executor's G on LLRs: _g, then the clamp; t is unused."""
    _g(a, c, o)
    _clamp(o)


def _level1(op: int, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """A level-1 op on LLRs: a holds the node's 2 input rows, b its 2 partial
    sums, and t is scratch shaped like a.

    A leaf's bit is the sign of its LLR, which F keeps without its arctanh,
    x2 and clamp and G without its clamp; a frozen left leaf's bit is 0.
    This is SC's own computation, so a Rate-1 node here needs no tie check.
    """
    if op == FROZEN_INFO:
        np.add(a[1], a[0], out=t[0])
        np.less(t[0], 0.0, out=b)  # u1, and u0 ^ u1 = u1
    else:
        np.multiply(a, 0.5, out=t)
        np.tanh(t, out=t)
        np.multiply(t[0], t[1], out=t[0])
        np.less(t[0], 0.0, out=b[0])
        if op != INFO_FROZEN:  # INFO_INFO or RATE1: two information leaves
            _g(a, b[:1], t[1:])
            np.less(t[1], 0.0, out=b[1])
            b[0] ^= b[1]


def _rate1(s: int, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """A Rate-1 node above level 1 on LLRs: the hard decision, or SC's bits on tie frames."""
    np.less(a, 0.0, out=b)
    ties = _tie_frames(a, t)
    if ties.size:
        b[:, ties] = _execute(_inside(s), a[:, ties])


# ---------------------------------------------------------------------------
# erasure/sign bit-planes: the BEC's LLRs, 8 frames a byte
#
# Planes (2, rows, W) uint8, W = ceil(frames/8), hold LLRs (rows, frames):
# plane 0 marks the erased ones (+-0) and plane 1 the negative ones, each
# packed along frames, frame j in bit 7 - j % 8 of byte j // 8.  Padding bits
# are 0, a known positive LLR, and no frame reads another's bits.  Each plane
# is one contiguous block: on the halves of a node, bitwise ufuncs ran 3-6
# times faster than on planes interleaved row by row.
# ---------------------------------------------------------------------------

def _f_planes(a: np.ndarray, o: np.ndarray, t: np.ndarray) -> None:
    """F into o on planes: erased where a0 or a1 is, with the XOR of their signs; t is unused."""
    h = o.shape[1]
    np.bitwise_or(a[0, :h], a[0, h:], out=o[0])
    np.bitwise_xor(a[1, :h], a[1, h:], out=o[1])


def _g_planes(a: np.ndarray, c: np.ndarray, o: np.ndarray, t: np.ndarray) -> None:
    """G into o on planes, for a's halves a0, a1 and the left child's packed bits c.

    a1 + (1-2c)*a0, clamped, is erased where both are, and where both are
    known and a1's sign differs from a0's flipped one (their sum is 0); it
    takes a1's sign, or a0's flipped one where a1 is erased.  Where both are
    erased the sign plane holds any bit.  t is scratch with at least o's
    rows of one plane.
    """
    h = o.shape[1]
    e0, s0, e1, s1 = a[0, :h], a[1, :h], a[0, h:], a[1, h:]
    e, s = o
    d = t.reshape(-1, t.shape[-1])[:h]
    np.bitwise_xor(s0, s1, out=d)
    d ^= c  # where a1's sign differs from a0's flipped one
    np.bitwise_and(e1, d, out=s)
    s ^= s1
    d |= e0
    np.bitwise_xor(e0, e1, out=e)
    e &= d
    e ^= d  # (e0 | d) & ~(e0 ^ e1)


def _decided(p: np.ndarray, b: np.ndarray) -> None:
    """b = the bits of the planes p: 1 where an LLR is known and negative."""
    np.bitwise_or(p[1], p[0], out=b)
    b ^= p[0]


def _level1_planes(op: int, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """A level-1 op on planes, deciding as _level1 does; t is scratch shaped like a.

    Of the inputs a0 and a1, let E0, E1 be their erasure planes and N0, N1
    their bits (_decided).  u0, F's bit, is 1 where both are known with
    different signs.  G's bit u1 is N1 | E1 & N0 after u0, and after a
    frozen left leaf (c = 0), where two known inputs of different signs sum
    to 0, N1 & (N0 | E0) | E1 & N0.
    """
    (e0, e1), (s0, s1), n = a[0], a[1], t[0]
    if op == FROZEN_INFO:
        _decided(a, n)
        np.bitwise_or(n[0], e0, out=b[0])
        b[0] &= n[1]
        np.bitwise_and(e1, n[0], out=b[1])
        b[0] |= b[1]
        b[1] = b[0]  # u1, and u0 ^ u1 = u1
        return
    np.bitwise_xor(s0, s1, out=b[0])
    np.bitwise_or(e0, e1, out=t[1, 0])
    b[0] |= t[1, 0]
    b[0] ^= t[1, 0]
    if op != INFO_FROZEN:  # INFO_INFO or RATE1: two information leaves
        _decided(a, n)
        np.bitwise_and(e1, n[0], out=b[1])
        b[1] |= n[1]
        b[0] ^= b[1]


def _rate1_planes(s: int, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """A Rate-1 node above level 1 on planes: the decided inputs, or, on tie
    frames, the bits of _inside run on the node's planes."""
    _decided(a, b)
    ties = _tie_frames(a, t)
    if ties.size:
        sc = _execute(_inside(s), a)
        sc ^= b
        sc &= ties
        b ^= sc


# log of 1e-250: far above the subnormal range, so rounding cannot reach 0
_LOG_TIE_FREE = math.log(1e-250)


def _tie_frames(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The frames (columns of a Rate-1 node's input a) that plain SC may decide otherwise.

    SC inside a Rate-1 node equals the one-shot hard decision unless one of
    its F outputs is exactly 0: a tie, decided as bit 0 at a lower level.
    Every LLR SC computes there has tanh(|llr|/2) >= the product of
    tanh(|a|/2) over the node's inputs, and the leftmost leaf attains it, so
    a frame is tie-free when the log of that product stays above
    _LOG_TIE_FREE; it is -inf exactly where an input is 0.  On LLRs this
    returns the tie frames' indices.  t is scratch shaped like one half of
    a, untiled: numpy sums a column row by row over 2+ frames but pairwise
    over 1, so tiles could move a tie.  On planes a frame ties where an
    input is erased, and this returns the packed mask of those frames, or
    an empty array if there is none.
    """
    if a.dtype == np.uint8:
        ties = np.bitwise_or.reduce(a[0], axis=0)
        return ties if ties.any() else ties[:0]
    h = a.shape[0] // 2
    total = np.zeros(a.shape[1])
    for half in (a[:h], a[h:]):
        np.abs(half, out=t)
        t *= 0.5
        np.tanh(t, out=t)
        np.log(t, out=t)
        total += t.sum(axis=0)
    return np.flatnonzero(total <= _LOG_TIE_FREE)


def _execute(ops: Iterable[Op], llr: np.ndarray,
             saved: Optional[dict[int, list]] = None) -> np.ndarray:
    """Run a schedule over frame-interleaved LLRs, llr[:, j] being frame j.

    The input's dtype picks the kernels.  float64 LLRs run the float
    kernels, and the result is the root's partial sums, the (N, frames) bool
    codeword estimate.  uint8 input is planes, (2, N, W), as _frame_batches
    makes BEC frames: the bitwise kernels run, and the partial sums are
    packed along frames, (N, W) uint8.  Level s keeps one LLR buffer A[s] of
    2^s rows, (2^s, frames) or planes (2, 2^s, W), so both halves of every
    node are contiguous blocks of rows, and node (s, lo) owns rows lo .. lo +
    2^s - 1 of the partial sums; no op writes leaf LLRs, so A[0] is 2 rows.
    Each kernel's scratch is a buffer below its node that no later op reads:
    F, and G on planes, at level s borrow A[s-2], a Rate-1 node at level s > 1
    (no children) lends A[s-1] to _tie_frames, and the level-1 ops borrow A[0].
    With `saved`, every Rate-1 node above level 1 appends copies of its
    input and bits, (a, b), to saved[s].
    """
    if llr.dtype == np.uint8:
        f, g, level1, rate1 = _f_planes, _g_planes, _level1_planes, _rate1_planes
    else:
        f, g, level1, rate1 = _f, _g_clamped, _level1, _rate1
    *planes, N, W = llr.shape
    n = N.bit_length() - 1
    A = [np.empty((*planes, max(1 << s, 2), W), llr.dtype) for s in range(n)] + [llr]
    B = np.zeros((N, W), dtype=np.uint8 if planes else bool)
    # arctanh(+-1) is +-inf, which the clamp saturates; log(0) is -inf
    with np.errstate(divide="ignore"):
        for op, s, lo in ops:
            if op == F:
                f(A[s], A[s - 1], A[s - 2])
            elif op == G:
                g(A[s], B[lo:lo + (1 << (s - 1))], A[s - 1], A[s - 2])
            elif op == COMBINE:
                h = 1 << (s - 1)
                B[lo:lo + h] ^= B[lo + h:lo + 2 * h]
            elif op > RATE0 or op == RATE1 and s == 1:  # a level-1 node with an information leaf
                level1(op, A[1], B[lo:lo + 2], A[0])
            elif op == RATE1:
                a, b = A[s], B[lo:lo + (1 << s)]
                rate1(s, a, b, A[s - 1])
                if saved is not None:
                    saved.setdefault(s, []).append((a.copy(), b.copy()))
            # RATE0: a frozen node's partial sums stay 0
    return B


def _rate1_divergence(s: int, x: np.ndarray, bits: np.ndarray, frames: int) -> np.ndarray:
    """(nodes, frames) bool: where SC's bits differ from `bits`.

    x and bits hold the inputs and SSC's bits of Rate-1 nodes at level s
    side by side, as _joined lays them: `frames` columns a node, or on
    planes ceil(frames/8) bytes, whose padding bits are dropped.
    """
    d = _execute(_inside(s), x)
    d ^= bits
    planes = d.dtype == np.uint8
    width = -(-frames // 8) if planes else frames
    d = np.bitwise_or.reduce(d.reshape(d.shape[0], -1, width))
    return np.unpackbits(d, axis=-1, count=frames).view(bool) if planes else d


def _decode(ops: Iterable[Op], llr: np.ndarray,
            saved: Optional[dict[int, list]] = None) -> np.ndarray:
    """Input-bit estimates, (N, frames) uint8, for frame-interleaved LLRs;
    packed along frames, (N, W), for planes."""
    x = _execute(ops, llr, saved).view(np.uint8)
    return _butterflies(x, x.shape[0], x.shape[1])  # the transform is an involution


def _check_llrs(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    """A (batch, N) LLR matrix, validated, as the frame-interleaved (N, batch) copy."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.ndim > 2:
        raise ValueError(f"LLRs must be one frame or a (batch, N) matrix, got {llrs.shape}")
    if llrs.shape[1] != code.N:
        raise ValueError(f"LLR frame length {llrs.shape[1]} != N={code.N}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return np.ascontiguousarray(llrs.T)


def sc_decode_batch(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    """SC-decode a (batch, N) LLR matrix; returns (batch, N) input-bit estimates."""
    llrs = _check_llrs(code, llrs)
    u = _decode(sc_schedule(code.frozen), llrs)
    return np.ascontiguousarray(u.T)


def sc_decode(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    """SC-decode one LLR frame into the N estimated input bits."""
    return sc_decode_batch(code, llrs)[0]


def _ssc_tree(code: PolarCode, tree: Optional[SscTree]) -> SscTree:
    """The code's pruned tree; a given tree must have its node kinds, level by level."""
    built = build_ssc_tree(code)
    if tree is not None:
        if tree.n != code.n:
            raise ValueError(f"tree has n={tree.n}, code has n={code.n}")
        if not all(map(np.array_equal, tree.kinds, built.kinds)):
            raise ValueError("tree's node kinds differ from the code's frozen mask")
    return built


def ssc_decode_batch(code: PolarCode, llrs: np.ndarray,
                     tree: Optional[SscTree] = None) -> np.ndarray:
    """Simplified-SC decode of a (batch, N) LLR matrix.

    Runs the pruned tree's schedule: all-frozen nodes emit zero vectors,
    all-info nodes hard-decide at their own level.  Output is bit-identical
    to sc_decode_batch on every frame.  A given `tree` must have the node
    kinds of build_ssc_tree(code); another tree raises ValueError.
    """
    llrs = _check_llrs(code, llrs)
    u = _decode(ssc_schedule(_ssc_tree(code, tree)), llrs)
    return np.ascontiguousarray(u.T)


def ssc_decode(code: PolarCode, llrs: np.ndarray,
               tree: Optional[SscTree] = None) -> np.ndarray:
    """Simplified-SC decode of one LLR frame; bit-identical to sc_decode."""
    return ssc_decode_batch(code, llrs, tree)[0]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its hash's
# initial value and multiplier while mixing entropy (A) and while generating
# state (B), and the multipliers of its mix of two words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _spawn_words(seed: int, trials: int, first: int = 0) -> np.ndarray:
    """(trials, 4) uint64, row i SeedSequence(seed).spawn(first + trials)[first + i]'s
    generate_state(4, np.uint64).

    Child i's entropy is the seed's 32-bit words, least significant first and
    padded with zeros to the pool's 4, then i.  SeedSequence hashes the first
    4 words into the pool, mixes the pool, then mixes each later word into
    every pool word.  The hash's constant advances once a call whatever it
    hashes, so every child takes the same constants and differs only in its
    last word, i: the steps before it run once on Python ints, and the same
    code runs i's step and generate_state on uint32 arrays over the children.
    """
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        v = v * hash_const & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return r ^ r >> 16

    entropy = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 128), 32)]
    # the spawn key: one word while i < 2^32, far more streams than memory holds
    entropy.append(np.arange(first, first + trials, dtype=np.uint32))
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state, c = [], _INIT_B
    for j in range(8):  # generate_state: 8 uint32 words, cycling through the pool
        v = pool[j % 4] ^ c
        c = c * _MULT_B & _M32
        v = v * c & _M32
        state.append(v ^ v >> 16)
    # each pair of words is one uint64, the first word its low half
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _trial_streams(seed: int, trials: int, first: int = 0) -> list[np.random.Generator]:
    """Streams of trials first .. first + trials - 1, trial i's PCG64 seeded by
    SeedSequence(seed).spawn(m)[i] for any m > i.

    One independent stream per trial, so results do not depend on batching;
    _spawn_words gives all the children's seed words at once.
    """
    # imported here: numpy.random would add 15-19 ms to the CLI's start
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence that hands PCG64 one child's precomputed words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for these 4 uint64 words, and only once

    return [Generator(PCG64(Words(w))) for w in _spawn_words(seed, trials, first)]


# Frames a block.  Each block's noise is drawn into one (16, N) float64
# buffer, frame-major, and written transposed into the batch's (N, frames)
# target, 16 frames (two 64-byte cache lines of a float64 row) at a time.
_FRAME_BLOCK = 16


def _codewords(code: PolarCode, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The message bits (k, trials) read off the raw words (trials, words), and
    their codewords (N, trials) in uint8."""
    msg = (raw.view(np.uint8)[:, :code.k] >> 7).T
    x = np.zeros((code.N, msg.shape[1]), dtype=np.uint8)
    x[~code.frozen] = msg
    _butterflies(x, code.N, msg.shape[1])  # in place
    return msg, x


def _random_frames(code: PolarCode, channel: BmsChannel, rngs: list[np.random.Generator],
                   out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Message bits (k, trials) and the frames, written into out, frame-interleaved:
    the LLRs (N, trials), or on the BEC planes (2, N, ceil(trials/8)).  Each
    stream draws its message bits, then its noise, as for sample_llrs.

    The message bits are rng.integers(0, 2, k, dtype=np.uint8), read off the
    stream's next ceil(k/8) raw words: that call draws each bit as a byte b
    of a buffered next_uint32, low byte first, and returns (2*b) >> 8 = b >> 7,
    Lemire's method for range 2 rejecting nothing; PCG64's next_uint32 gives
    each raw word's low half, then its high half.  So bit j is the top bit of
    byte j of the raw words in little-endian order.  An odd count of halves
    leaves one buffered, which only next_uint32 reads, and the noise draws
    read whole raw words.

    Each stream of a block draws its message words and its noise row, and
    the block is written transposed into one (N, trials) target: on the
    BAWGNC the draws themselves, into out; on the BEC and BSC the bits
    _decide reads off them, into a bool array.  After the last block
    _codewords encodes the messages.  On the BEC, whose LLR is kept*(1-2x) *
    LLR_CAP, plane 0 packs ~kept and plane 1 the codeword bits x & kept; on
    the others _llrs maps the target into out a tile of rows at a time.
    """
    trials, N = len(rngs), code.N
    raw = np.empty((trials, -(-code.k // 8)), dtype="<u8")
    d = np.empty((min(trials, _FRAME_BLOCK), N))
    awgn = channel.kind is ChannelKind.BAWGNC
    noise = out if awgn else np.empty((N, trials), dtype=bool)
    bits = d if awgn else np.empty(d.shape, dtype=bool)
    for start in range(0, trials, _FRAME_BLOCK):
        block = rngs[start:start + _FRAME_BLOCK]
        for words, row, rng in zip(raw[start:], d, block):
            words[:] = rng.bit_generator.random_raw(words.size)
            _draw(channel, rng, row)
        if not awgn:
            _decide(channel, d[:len(block)], bits[:len(block)])
        noise[:, start:start + len(block)] = bits[:len(block)].T
    msg, x = _codewords(code, raw)
    if channel.kind is ChannelKind.BEC:
        x &= noise
        out[1] = np.packbits(x, axis=-1)
        out[0] = np.packbits(np.logical_not(noise, out=noise), axis=-1)
        return msg, out
    rows = max(1, (1 << 19) // (trials * out.itemsize))  # 512 KiB tiles stay in cache
    for lo in range(0, N, rows):
        tile = slice(lo, lo + rows)
        _llrs(channel, x[tile], noise[tile], out[tile])
    return msg, out


# Frame-bits (frames x N) in one Monte Carlo batch.  sc_ssc_agreement peaks at
# 19-27 bytes a frame-bit (tracemalloc, BAWGNC n = 12..16: 19-20 at I = 0.5,
# 24.7 and 26.5 at I = 0.9 and 0.99; the LLRs, one LLR buffer per level,
# partial sums, input bits, and the saved inputs and bits of Rate-1 nodes,
# which grow with the share of leaves under Rate-1 nodes), so a batch stays
# near 80-115 MB: 1024 frames up to n = 12, 256 at n = 14, 64 at n = 16 and
# 4 at n = 20.  At n = 16, 256 trials took 10 % longer in 64-frame batches
# than in 128-frame ones, at half the peak.  BEC batches are made and decoded
# as bit-planes, and peak at 3.8, 3.4 and 3.8 bytes a frame-bit at n = 10, 12
# and 14 (I = 0.5, pe = 1e-3), in making the frames.
_BATCH_FRAME_BITS = 1 << 22


def _frame_batches(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                   batch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield interleaved (message bits, frames) for the seeded trials, `batch` at a time.

    Batches hold at most _BATCH_FRAME_BITS // N frames.  Every batch's
    streams are built for it, and its frames are written into one buffer,
    so both hold only until the next batch is generated.  The buffer holds
    uint8 planes (2, N, ceil(frames/8)) on the BEC and float64 LLRs
    (N, frames) on the others.
    """
    N = code.N
    batch = min(batch, max(1, _BATCH_FRAME_BITS // N), trials)
    bec = channel.kind is ChannelKind.BEC
    flat = np.empty(2 * N * -(-batch // 8), np.uint8) if bec else np.empty(N * batch)
    for start in range(0, trials, batch):
        frames = min(batch, trials - start)
        shape = (2, N, -(-frames // 8)) if bec else (N, frames)
        block = _trial_streams(seed, frames, start)
        yield _random_frames(code, channel, block, flat[:math.prod(shape)].reshape(shape))


def _joined(pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """One level's saved Rate-1 inputs and bits, (a, b) a node, side by side
    along their last axis: (2^s, nodes * frames) LLRs and bool bits, or
    planes (2, 2^s, nodes * W) and packed bits (2^s, nodes * W)."""
    a, b = pairs[0]
    w = b.shape[-1]
    x = np.empty(a.shape[:-1] + (len(pairs) * w,), a.dtype)
    bits = np.empty(b.shape[:-1] + (len(pairs) * w,), b.dtype)
    for j in range(len(pairs)):  # each copy goes once it is joined
        x[..., j * w:(j + 1) * w], bits[..., j * w:(j + 1) * w] = pairs[j]
        pairs[j] = None
    return x, bits


def sc_ssc_agreement(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                     batch: int = 1024) -> tuple[int, int, float]:
    """Run both decoders on the same frames.

    Returns (frames on which the decoders agreed bitwise, trials, frame
    error rate of the simplified decoder).  Each batch is one shared pass
    over SSC's schedule (see _execute), and a frame agrees exactly when it
    did not diverge there.  Outside its Rate-1 nodes SC's schedule is
    SSC's, so up to the first Rate-1 node X where a frame's SC bits differ
    from SSC's, both decoders see the same LLRs and decide the same bits.
    X's leaf estimates are its partial sums through the local polar
    transform, an involution, so the two outputs differ on X's leaves; with
    no such X they are equal.  The check can wait until the pass ends: it
    compares SC's bits, from the node's saved input, with SSC's saved bits,
    and no LLR of the pass depends on when it runs.  On a tie frame SSC's
    bits are SC's own, so the frame cannot diverge there.  By _tie_frames'
    bound, SC's bits equal the hard decision on every other frame, so the
    check finds a divergence only if that conservative bound is wrong:
    what it verifies is the bound.

    seed is an integer >= 0, and trial i's frame comes from stream i of
    _trial_streams(seed, trials).

    _frame_batches makes BEC frames as erasure/sign planes, 8 frames a
    byte, and _execute decodes them as planes: the shared pass, the SC runs
    on tie frames and the check, which joins each level's saved planes as
    planes.  The decisions, which stay packed through the pass and the polar
    transform, are unpacked only to count frame errors and divergences,
    `frames` bits a row, so padding bits never count.
    """
    trials, batch = _as_int(trials, "trials", 1), _as_int(batch, "batch", 1)
    seed = _as_int(seed, "seed", 0)
    ops = list(ssc_schedule(build_ssc_tree(code)))
    agree = errors = 0
    for msg, llr in _frame_batches(code, channel, trials, seed, batch):
        frames = msg.shape[1]
        saved = {}
        u_ssc = _decode(ops, llr, saved)[~code.frozen]
        if llr.dtype == np.uint8:  # decided on planes
            u_ssc = np.unpackbits(u_ssc, axis=1, count=frames)
        diverged = np.zeros(frames, dtype=bool)
        for s, pairs in saved.items():  # after the pass's buffers are freed
            diverged |= _rate1_divergence(s, *_joined(pairs), frames).any(axis=0)
        agree += frames - int(np.count_nonzero(diverged))
        errors += int((u_ssc != msg).any(axis=0).sum())
        del u_ssc  # before the next batch's pass
    return agree, trials, errors / trials
