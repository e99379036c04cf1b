"""Non-systematic polar encoder and bit-exact SC / simplified-SC decoders.

Decoders work on log-likelihood ratios with positive values favoring bit 0.
The simplified decoder prunes all-frozen subtrees to zero vectors and
all-information subtrees to one-shot hard decisions, and is bit-identical
to plain successive cancellation on every input.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from .channel import LLR_CAP, BmsChannel, sample_llrs
from .construct import PolarCode
from .latency import NodeKind, SscTree, build_ssc_tree


def f_kernel(a: float, b: float) -> float:
    """Check-node update 2*arctanh(tanh(a/2)*tanh(b/2)), saturated to +/-LLR_CAP."""
    t = math.tanh(a / 2.0) * math.tanh(b / 2.0)
    if t >= 1.0:
        return LLR_CAP
    if t <= -1.0:
        return -LLR_CAP
    out = 2.0 * math.atanh(t)
    return max(-LLR_CAP, min(LLR_CAP, out))


def g_kernel(a: float, b: float, c_bit: int) -> float:
    """Variable-node update a + (1-2c)*b for a known partial-sum bit c."""
    if c_bit not in (0, 1):
        raise ValueError(f"c_bit must be 0 or 1, got {c_bit}")
    out = a + (1.0 - 2.0 * c_bit) * b
    return max(-LLR_CAP, min(LLR_CAP, out))


def _f_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        out = 2.0 * np.arctanh(np.tanh(a / 2.0) * np.tanh(b / 2.0))
    return np.clip(out, -LLR_CAP, LLR_CAP)


def _g_vec(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.clip(a + (1.0 - 2.0 * c) * b, -LLR_CAP, LLR_CAP)


def _hard(llr: np.ndarray) -> np.ndarray:
    # ties (llr exactly 0) decode to bit 0
    return (llr < 0).astype(np.uint8)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Multiply by the polarization kernel's n-fold Kronecker power over GF(2).

    Operates along the last axis; the transform is an involution, so it is
    both the encoder map and the map from node bit estimates back to leaves.
    """
    x = np.array(u, dtype=np.uint8, copy=True)
    m = x.shape[-1]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length must be a power of two, got {m}")
    step = 1
    while step < m:
        for off in range(0, m, 2 * step):
            x[..., off:off + step] ^= x[..., off + step:off + 2 * step]
        step *= 2
    return x


def encode(code: PolarCode, u: np.ndarray) -> np.ndarray:
    """Encode a full input vector (frozen positions must already be zero)."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1] != code.N:
        raise ValueError(f"input length {u.shape[-1]} != N={code.N}")
    if np.any(u[..., code.frozen] != 0):
        raise ValueError("frozen positions must be zero")
    return polar_transform(u)


def encode_message(code: PolarCode, message: np.ndarray) -> np.ndarray:
    """Place k message bits into the information positions and encode."""
    message = np.asarray(message, dtype=np.uint8)
    if message.shape[-1] != code.k:
        raise ValueError(f"message length {message.shape[-1]} != k={code.k}")
    u = np.zeros(message.shape[:-1] + (code.N,), dtype=np.uint8)
    u[..., ~code.frozen] = message
    return polar_transform(u)


# ---------------------------------------------------------------------------
# successive cancellation
# ---------------------------------------------------------------------------

def _sc_rec(alpha: np.ndarray, frozen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched SC on one subtree: returns (leaf bits, node-level partial sums)."""
    m = alpha.shape[1]
    if m == 1:
        if frozen[0]:
            u = np.zeros((alpha.shape[0], 1), dtype=np.uint8)
        else:
            u = _hard(alpha)
        return u, u.copy()
    h = m // 2
    a, b = alpha[:, :h], alpha[:, h:]
    u_left, beta_left = _sc_rec(_f_vec(a, b), frozen[:h])
    u_right, beta_right = _sc_rec(_g_vec(b, a, beta_left), frozen[h:])
    u = np.concatenate([u_left, u_right], axis=1)
    beta = np.concatenate([beta_left ^ beta_right, beta_right], axis=1)
    return u, beta


def _check_llrs(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[1] != code.N:
        raise ValueError(f"LLR frame length {llrs.shape[1]} != N={code.N}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return llrs


def sc_decode_batch(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    """SC-decode a (batch, N) LLR matrix; returns (batch, N) input-bit estimates."""
    llrs = _check_llrs(code, llrs)
    u, _ = _sc_rec(llrs, code.frozen)
    return u


def sc_decode(code: PolarCode, llrs: np.ndarray) -> np.ndarray:
    """SC-decode one LLR frame into the N estimated input bits."""
    return sc_decode_batch(code, llrs)[0]


# ---------------------------------------------------------------------------
# simplified successive cancellation
# ---------------------------------------------------------------------------

def _ssc_rec(alpha: np.ndarray, kinds: list[list[int]], cursor: list[int], frozen: np.ndarray,
             lo: int) -> tuple[np.ndarray, np.ndarray]:
    # A depth-first walk meets the nodes of each level left to right, which is
    # the order of kinds[s], so one cursor per level locates the current node.
    rows, m = alpha.shape
    s = m.bit_length() - 1
    kind = kinds[s][cursor[s]]
    cursor[s] += 1
    if kind == NodeKind.RATE0:
        zeros = np.zeros((rows, m), dtype=np.uint8)
        return zeros, zeros.copy()
    if kind == NodeKind.RATE1:
        beta = _hard(alpha)
        u = polar_transform(beta)
        # A frame whose node input contains an exact 0 (a BEC erasure that
        # survived to this node) is re-decoded sequentially: the one-shot
        # decision and plain SC resolve the tie at different tree levels and
        # would otherwise disagree on those frames.
        ties = (alpha == 0.0).any(axis=1)
        if ties.any():
            u_t, beta_t = _sc_rec(alpha[ties], frozen[lo:lo + m])
            u[ties] = u_t
            beta[ties] = beta_t
        return u, beta
    h = m // 2
    a, b = alpha[:, :h], alpha[:, h:]
    u_left, beta_left = _ssc_rec(_f_vec(a, b), kinds, cursor, frozen, lo)
    u_right, beta_right = _ssc_rec(_g_vec(b, a, beta_left), kinds, cursor, frozen, lo + h)
    u = np.concatenate([u_left, u_right], axis=1)
    beta = np.concatenate([beta_left ^ beta_right, beta_right], axis=1)
    return u, beta


def ssc_decode_batch(code: PolarCode, llrs: np.ndarray,
                     tree: Optional[SscTree] = None) -> np.ndarray:
    """Simplified-SC decode of a (batch, N) LLR matrix.

    Traverses the pruned tree: all-frozen nodes emit zero vectors, all-info
    nodes hard-decide at their own level and map the decisions back to the
    leaves through the (involutive) transform.  Output is bit-identical to
    sc_decode_batch on every frame.
    """
    llrs = _check_llrs(code, llrs)
    if tree is None:
        tree = build_ssc_tree(code)
    elif tree.n != code.n:
        raise ValueError(f"tree has n={tree.n}, code has n={code.n}")
    kinds = [level.tolist() for level in tree.kinds]  # plain ints compare fastest
    u, _ = _ssc_rec(llrs, kinds, [0] * (code.n + 1), code.frozen, 0)
    return u


def ssc_decode(code: PolarCode, llrs: np.ndarray,
               tree: Optional[SscTree] = None) -> np.ndarray:
    """Simplified-SC decode of one LLR frame; bit-identical to sc_decode."""
    return ssc_decode_batch(code, llrs, tree)[0]


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------

def _trial_streams(seed: int, trials: int) -> list[np.random.Generator]:
    # one independent child stream per trial so results do not depend on batching
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


def _random_frames(code: PolarCode, channel: BmsChannel,
                   rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    trials = len(rngs)
    u = np.zeros((trials, code.N), dtype=np.uint8)
    k = code.k
    for t, rng in enumerate(rngs):
        if k:
            u[t, ~code.frozen] = rng.integers(0, 2, k, dtype=np.uint8)
    x = polar_transform(u)
    llr = np.empty((trials, code.N), dtype=np.float64)
    for t, rng in enumerate(rngs):
        llr[t] = sample_llrs(channel, x[t], rng)
    return u, llr


def _frame_batches(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                   batch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (input bits, LLRs) for the seeded trials, `batch` frames at a time."""
    rngs = _trial_streams(seed, trials)
    for start in range(0, trials, batch):
        yield _random_frames(code, channel, rngs[start:start + batch])


def _frame_errors(code: PolarCode, u: np.ndarray, u_hat: np.ndarray) -> int:
    info = ~code.frozen
    return int((u_hat[:, info] != u[:, info]).any(axis=1).sum())


def monte_carlo_fer(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                    batch: int = 1024) -> float:
    """Frame error rate of the simplified decoder over seeded random trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tree = build_ssc_tree(code)
    errors = 0
    for u, llr in _frame_batches(code, channel, trials, seed, batch):
        errors += _frame_errors(code, u, ssc_decode_batch(code, llr, tree))
    return errors / trials


def sc_ssc_agreement(code: PolarCode, channel: BmsChannel, trials: int, seed: int,
                     batch: int = 1024) -> tuple[int, int, float]:
    """Run both decoders on the same frames.

    Returns (frames on which the decoders agreed bitwise, trials, frame
    error rate of the simplified decoder).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tree = build_ssc_tree(code)
    agree = errors = 0
    for u, llr in _frame_batches(code, channel, trials, seed, batch):
        u_sc = sc_decode_batch(code, llr)
        u_ssc = ssc_decode_batch(code, llr, tree)
        agree += int((u_sc == u_ssc).all(axis=1).sum())
        errors += _frame_errors(code, u, u_ssc)
    return agree, trials, errors / trials
