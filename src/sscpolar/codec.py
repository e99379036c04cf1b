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
sums, in place.  Its kernels' scratch is a level buffer no later op reads.

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
clamp maps back into the set.  On the set F equals a0*a1/LLR_CAP bit for
bit, the sign of zero included, since LLR_CAP^2 and LLR_CAP^2/LLR_CAP are
exact: that kernel is _f_erasure.  All of this holds in float32 as well,
so Monte Carlo BEC frames are made and decoded in float32, bit for bit: the
set is exact there, LLR_CAP^2 = 90000 fits in float32's 24-bit
significand, so _f_erasure's product and quotient and G's sums stay exact,
and tanh(+-LLR_CAP/2) is +-1.0 in both widths, so the level-1 ops' signs
and _tie_frames' logs (0 or -inf) are the same.  The executor reads the
choice off the dtype, as G reads its sign bit's width: it runs _f_erasure
on float32 LLRs, which only those frames are, and _f on the float64 ones
of the other channels and of the public decoders.

Monte Carlo frames come from one seeded stream per trial, message bits
first, then noise, and sample_llrs's own draws-to-LLR map, channel._llrs,
makes their LLRs, so every frame, read as float64, equals the per-frame
path bit for bit.  Each block of 16 streams' noise is drawn frame-major and
written transposed into the decoder's (N, frames) orientation: on the
BAWGNC the draws go straight into the batch's LLR buffer, and on the BEC
and BSC the bit each uniform draw decides whatever the codeword, kept or
flipped, goes into one byte array.  The map then writes the batch's LLRs
into its buffer in place, a tile of rows at a time.  Trial i's stream is
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


def _f_erasure(a: np.ndarray, o: np.ndarray, t: np.ndarray) -> None:
    """F into o for a's halves a0, a1 whose entries are all -LLR_CAP, +-0 or +LLR_CAP.

    There _f's result is a0*a1/LLR_CAP bit for bit (see the module docstring),
    which costs two ufunc passes and no scratch: t is unused.
    """
    h = o.shape[0]
    np.multiply(a[:h], a[h:], out=o)
    o /= LLR_CAP


# The unsigned integer of each float width and the shift to its sign bit
_SIGN_BIT = {4: (np.dtype(np.uint32), 31), 8: (np.dtype(np.uint64), 63)}


def _g(a: np.ndarray, c: np.ndarray, o: np.ndarray) -> None:
    """G into o, unclamped: a1 + (1-2c)*a0 for a's halves a0, a1 and the left child's bits c.

    a and o are float64, or float32 on the BEC.  Multiplying by -1.0 flips
    exactly the sign bit, so o, viewed as the unsigned integers of its width,
    is scratch for (1-2c)*a0.
    """
    h = o.shape[0]
    uint, shift = _SIGN_BIT[o.itemsize]
    u = o.view(uint)
    np.left_shift(c, shift, out=u, dtype=uint)
    np.bitwise_xor(a[:h].view(uint), u, out=u)
    np.add(a[h:], o, out=o)


# log of 1e-250: far above the subnormal range, so rounding cannot reach 0
_LOG_TIE_FREE = math.log(1e-250)


def _tie_frames(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The frames (columns of a Rate-1 node's input a) that plain SC may decide otherwise.

    SC inside a Rate-1 node equals the one-shot hard decision unless one of
    its F outputs is exactly 0: a tie, decided as bit 0 at a lower level.
    Every LLR SC computes there has tanh(|llr|/2) >= the product of
    tanh(|a|/2) over the node's inputs, and the leftmost leaf attains it, so
    a frame is tie-free when the log of that product stays above
    _LOG_TIE_FREE.  An exact 0 in the input (a BEC erasure) gives -inf.
    t is scratch shaped like one half of a, untiled: numpy sums a column row
    by row over 2+ frames but pairwise over 1, so tiles could move a tie.
    """
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

    Returns the root's partial sums, the (N, frames) bool codeword estimate.
    Level s keeps one (2^s, frames) LLR buffer A[s], so both halves of every
    node are contiguous blocks, and node (s, lo) owns rows lo .. lo + 2^s - 1
    of the partial sums; no op writes leaf LLRs, so A[0] is 2 rows.  Each
    kernel's scratch is a buffer below its node that no later op reads: F at
    level s borrows A[s-2], a Rate-1 node at level s > 1 (no children) lends
    A[s-1] to _tie_frames, and the level-1 ops borrow A[0].  All take llr's
    dtype, float64 or, for BEC frames, float32, as do the inputs of the
    inline SC run on a Rate-1 node's tie frames.  F is _f_erasure on float32
    LLRs, which only _frame_batches' BEC frames are, and _f on float64 ones.
    With `saved`, every Rate-1 node above level 1 appends copies of its input
    and bits, (a, b), to saved[s].
    """
    f = _f_erasure if llr.dtype == np.float32 else _f
    N, frames = llr.shape
    n = N.bit_length() - 1
    A = [np.empty((max(1 << s, 2), frames), llr.dtype) for s in range(n)] + [llr]
    B = np.zeros((N, frames), dtype=bool)
    # arctanh(+-1) is +-inf, which the clamp saturates; log(0) is -inf
    with np.errstate(divide="ignore"):
        for op, s, lo in ops:
            if op == F:
                f(A[s], A[s - 1], A[s - 2])
            elif op == G:
                h = 1 << (s - 1)
                o = A[s - 1]
                _g(A[s], B[lo:lo + h], o)
                _clamp(o)
            elif op == COMBINE:
                h = 1 << (s - 1)
                B[lo:lo + h] ^= B[lo + h:lo + 2 * h]
            elif op > RATE0 or op == RATE1 and s == 1:
                # A level-1 node with an information leaf.  A leaf's bit is
                # the sign of its LLR, which F keeps without its arctanh, x2
                # and clamp and G without its clamp; a frozen left leaf's bit
                # is 0.  This is SC's own computation, so a Rate-1 node here
                # needs no tie check.
                a, b, t = A[1], B[lo:lo + 2], A[0]
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
            elif op == RATE1:  # above level 1: the hard decision, or SC's bits on tie frames
                a, b = A[s], B[lo:lo + (1 << s)]
                np.less(a, 0.0, out=b)
                ties = _tie_frames(a, A[s - 1])
                if ties.size:
                    b[:, ties] = _execute(_inside(s), a[:, ties])
                if saved is not None:
                    saved.setdefault(s, []).append((a.copy(), b.copy()))
            # RATE0: a frozen node's partial sums stay 0
    return B


def _rate1_divergence(s: int, x: np.ndarray, bits: np.ndarray, frames: int) -> np.ndarray:
    """(nodes, frames) bool: where SC's bits differ from `bits`.

    x and bits hold the inputs and SSC's bits of Rate-1 nodes at level s
    side by side, `frames` columns each.
    """
    d = _execute(_inside(s), x)
    d ^= bits
    return d.any(axis=0).reshape(-1, frames)


def _decode(ops: Iterable[Op], llr: np.ndarray,
            saved: Optional[dict[int, list]] = None) -> np.ndarray:
    """Input-bit estimates, (N, frames) uint8, for frame-interleaved LLRs."""
    x = _execute(ops, llr, saved).view(np.uint8)
    return _butterflies(x, llr.shape[0], llr.shape[1])  # the transform is an involution


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
                   llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Message bits (k, trials) and the LLRs, written into llr (N, trials),
    frame-interleaved and in llr's dtype; each stream draws its message
    bits, then its noise, as for sample_llrs, and the LLRs are _llrs's.

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
    BAWGNC the draws themselves, into llr, which must then be float64; on
    the BEC and BSC the bits _decide reads off them, into a bool array.
    After the last block _codewords encodes the messages, and _llrs maps
    the target into llr a tile of rows at a time.
    """
    trials, N = len(rngs), code.N
    raw = np.empty((trials, -(-code.k // 8)), dtype="<u8")
    d = np.empty((min(trials, _FRAME_BLOCK), N))
    awgn = channel.kind is ChannelKind.BAWGNC
    noise = llr if awgn else np.empty((N, trials), dtype=bool)
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
    rows = max(1, (1 << 19) // (trials * llr.itemsize))  # 512 KiB tiles stay in cache
    for lo in range(0, N, rows):
        tile = slice(lo, lo + rows)
        _llrs(channel, x[tile], noise[tile], llr[tile])
    return msg, llr


# Frame-bits (frames x N) in one Monte Carlo batch.  sc_ssc_agreement peaks at
# 19-27 bytes a frame-bit (tracemalloc, BAWGNC n = 12..16: 19-20 at I = 0.5,
# 24.7 and 26.5 at I = 0.9 and 0.99; the LLRs, one LLR buffer per level,
# partial sums, input bits, and the saved inputs and bits of Rate-1 nodes,
# which grow with the share of leaves under Rate-1 nodes), so a batch stays
# near 80-115 MB: 1024 frames up to n = 12, 256 at n = 14, 64 at n = 16 and
# 4 at n = 20.  At n = 16, 256 trials took 10 % longer in 64-frame batches
# than in 128-frame ones, at half the peak.  BEC batches are made and decoded
# in float32 and peak near half that: 10.9, 10.7 and 11.0 bytes a frame-bit
# at n = 10, 12 and 14 (I = 0.5, pe = 1e-3).
_BATCH_FRAME_BITS = 1 << 22


def _frame_batches(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                   batch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield interleaved (message bits, LLRs) for the seeded trials, `batch` frames at a time.

    Batches hold at most _BATCH_FRAME_BITS // N frames.  Every batch's
    streams are built for it, and its LLRs are written into one buffer, so
    both hold only until the next batch is generated.  The buffer is float32
    on the BEC, which holds its LLRs exactly, and float64 on the others.
    """
    N = code.N
    batch = min(batch, max(1, _BATCH_FRAME_BITS // N), trials)
    flat = np.empty(N * batch, np.float32 if channel.kind is ChannelKind.BEC else np.float64)
    for start in range(0, trials, batch):
        block = _trial_streams(seed, min(batch, trials - start), start)
        yield _random_frames(code, channel, block, flat[:N * len(block)].reshape(N, len(block)))


def _frame_errors(code: PolarCode, msg: np.ndarray, u_hat: np.ndarray) -> int:
    return int((u_hat[~code.frozen] != msg).any(axis=0).sum())


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

    _frame_batches makes BEC frames in float32, on which every F runs as
    _f_erasure, equal to _f on their LLRs, so the shared pass, the SC runs on
    tie frames, the saved Rate-1 inputs and the check all run in float32, bit
    for bit as in float64 (see the module docstring).
    """
    trials, batch = _as_int(trials, "trials", 1), _as_int(batch, "batch", 1)
    seed = _as_int(seed, "seed", 0)
    ops = list(ssc_schedule(build_ssc_tree(code)))
    agree = errors = 0
    for msg, llr in _frame_batches(code, channel, trials, seed, batch):
        frames = llr.shape[1]
        saved = {}
        u_ssc = _decode(ops, llr, saved)
        diverged = np.zeros(frames, dtype=bool)
        for s, pairs in saved.items():  # after the pass's buffers are freed
            x = np.empty((1 << s, len(pairs) * frames), llr.dtype)
            bits = np.empty(x.shape, dtype=bool)
            for j in range(len(pairs)):  # each copy goes once it is joined
                x[:, j * frames:(j + 1) * frames], bits[:, j * frames:(j + 1) * frames] = pairs[j]
                pairs[j] = None
            diverged |= _rate1_divergence(s, x, bits, frames).any(axis=0)
            del x, bits
        agree += frames - int(np.count_nonzero(diverged))
        errors += _frame_errors(code, msg, u_ssc)
        del u_ssc  # before the next batch's pass
    return agree, trials, errors / trials
