"""Binary memoryless symmetric channel models.

Covers the three channel families used throughout the package (BEC, BSC,
binary-input AWGN), their Bhattacharyya parameters and capacities, the
reliability transforms of channel polarization (one step, and one whole
level), and seeded LLR sampling for Monte Carlo decoding runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# LLR magnitudes are clamped here so that arithmetic stays total:
# tanh(LLR_CAP / 2) rounds to 1.0 in float64 without producing NaN downstream.
# The same rounding makes F on the BEC's LLRs, +-LLR_CAP and +-0 only,
# exactly a0*a1/LLR_CAP, the kernel codec._f_erasure computes.
LLR_CAP = 300.0

_BISECTION_ITERS = 200
_CAPACITY_TOL = 1e-9


class ChannelKind(str, Enum):
    BEC = "bec"
    BSC = "bsc"
    BAWGNC = "bawgnc"


# Scaling exponents of the three families: the rate gap to capacity of the
# construction closes like N^(-1/mu).  BSC's value is a conjecture.
SCALING_EXPONENT = {
    ChannelKind.BEC: 3.63,
    ChannelKind.BSC: 4.2,
    ChannelKind.BAWGNC: 4.0,
}


@dataclass(frozen=True)
class BmsChannel:
    """A BMS channel instance with its derived reliability figures.

    param is the erasure probability for the BEC, the crossover
    probability for the BSC, and the noise standard deviation (at unit
    signal energy) for the BAWGNC.  capacity and z0 are stored redundantly
    so downstream code never re-derives them.
    """

    kind: ChannelKind
    param: float
    capacity: float
    z0: float

    def __post_init__(self):
        _check_param(self.kind, self.param)

    @property
    def mu(self) -> float:
        return SCALING_EXPONENT[self.kind]


def _check_param(kind: ChannelKind, param: float) -> None:
    if not math.isfinite(param):
        raise ValueError(f"channel parameter must be finite, got {param}")
    if kind is ChannelKind.BEC and not 0.0 <= param <= 1.0:
        raise ValueError(f"BEC erasure probability must be in [0, 1], got {param}")
    if kind is ChannelKind.BSC and not 0.0 <= param <= 0.5:
        raise ValueError(f"BSC crossover probability must be in [0, 1/2], got {param}")
    if kind is ChannelKind.BAWGNC and not param > 0.0:
        raise ValueError(f"BAWGNC noise std must be positive, got {param}")


def bhattacharyya(kind: ChannelKind, param: float) -> float:
    """Bhattacharyya parameter Z = sum_y sqrt(W(y|0) W(y|1)) of the channel."""
    _check_param(kind, param)
    if kind is ChannelKind.BEC:
        return param
    if kind is ChannelKind.BSC:
        return 2.0 * math.sqrt(param * (1.0 - param))
    return math.exp(-1.0 / (2.0 * param * param))


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# Noise level from which _bawgnc_capacity uses its low-SNR series.  The
# series' relative error is about x^2/3 (x = 1/sigma^2), 1.3e-11 here, while
# quad's grows past 5e-11 here and near sigma = 1e5 it returns a loss of 0.
_LOW_SNR_SIGMA = 400.0


def _loss_integrand(s2: float):
    """y -> pdf(y) * log2(1 + exp(-2y/s2)), the integrand of the BAWGNC's capacity loss.

    pdf is the N(1, s2) density.  The softplus log(1 + e^v) is computed
    inline, bit for bit as np.logaddexp(0.0, v) computes it, and the
    constants are computed once, by the same operations as in the integrand.
    """
    two_s2 = 2.0 * s2
    norm = math.sqrt(2.0 * math.pi * s2)
    log2 = math.log(2.0)
    exp, log1p = math.exp, math.log1p

    def integrand(y: float) -> float:
        pdf = exp(-((y - 1.0) ** 2) / two_s2) / norm
        v = -2.0 * y / s2
        if v > 0.0:
            softplus = v + log1p(exp(-v))
        elif v < 0.0:
            softplus = log1p(exp(v))
        else:
            softplus = log2
        return pdf * softplus / log2

    return integrand


def _bawgnc_capacity(sigma: float) -> float:
    # C = 1 - E_{y ~ N(1, sigma^2)} log2(1 + exp(-2y/sigma^2)), unit signal energy.
    s2 = sigma * sigma
    if sigma >= _LOW_SNR_SIGMA:
        x = 1.0 / s2  # 0 once s2 overflows
        return (x / 2.0 - x * x / 4.0) / math.log(2.0)

    from scipy.integrate import quad  # only this quadrature needs scipy, which is slow to import

    loss, _ = quad(_loss_integrand(s2), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return min(1.0, max(0.0, 1.0 - loss))


def capacity(kind: ChannelKind, param: float) -> float:
    """Symmetric capacity I(W) in bits per channel use."""
    _check_param(kind, param)
    if kind is ChannelKind.BEC:
        return 1.0 - param
    if kind is ChannelKind.BSC:
        return 1.0 - h2(param)
    return _bawgnc_capacity(param)


def make_channel(kind: ChannelKind, param: float) -> BmsChannel:
    return BmsChannel(kind, param, capacity(kind, param), bhattacharyya(kind, param))


def channel_from_capacity(kind: ChannelKind, target_capacity: float) -> BmsChannel:
    """Find the channel of the given kind whose capacity matches the target.

    Bisection on the parameter; capacity is strictly monotone (decreasing)
    in the parameter for all three families.

    Raises
    ------
    ValueError
        If the target capacity is not strictly inside (0, 1).
    ArithmeticError
        If bisection has not converged to 1e-9 after 200 iterations.
    """
    if not 0.0 < target_capacity < 1.0:
        raise ValueError(f"target capacity must be in (0, 1), got {target_capacity}")

    if kind is ChannelKind.BEC:
        return make_channel(kind, 1.0 - target_capacity)

    if kind is ChannelKind.BSC:
        lo, hi = 0.0, 0.5
    else:
        lo, hi = 1e-6, 2.0
        while _bawgnc_capacity(hi) > target_capacity:
            hi *= 2.0
            if hi > 1e6:
                raise ArithmeticError("BAWGNC capacity bisection failed to bracket target")

    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        c = capacity(kind, mid)
        if abs(c - target_capacity) <= _CAPACITY_TOL:
            return BmsChannel(kind, mid, c, bhattacharyya(kind, mid))
        if c > target_capacity:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(
        f"capacity bisection did not converge for {kind.value} target {target_capacity}"
    )


def z_minus(z: float) -> float:
    """Reliability of the worse synthetic channel: 2z - z^2.

    Exact on the BEC; a valid upper bound otherwise, which keeps the
    construction's error guarantee conservative.
    """
    return 2.0 * z - z * z


def z_plus(z: float) -> float:
    """Reliability of the better synthetic channel: z^2 (exact for all BMS)."""
    return z * z


def polarize(z: np.ndarray) -> np.ndarray:
    """One polarization level: the two children of every z, worse child first.

    Returns [z_minus(z[0]), z_plus(z[0]), z_minus(z[1]), ...], so a level in
    leaf order gives the next level in leaf order.  Each value is the same
    IEEE result as z_minus or z_plus; z*z is computed once for both.
    """
    out = np.empty(2 * len(z), dtype=np.float64)
    worse, better = out[0::2], out[1::2]
    np.multiply(z, z, out=better)
    np.multiply(z, 2.0, out=worse)
    worse -= better
    return out


def bsc_llr_magnitude(p: float) -> float:
    if p <= 0.0:
        return LLR_CAP
    return min(LLR_CAP, math.log((1.0 - p) / p))


def _check_bits(u) -> np.ndarray:
    """u as an array of at least one axis, after checking that every entry is 0 or 1."""
    u = np.asarray(u)
    if u.ndim == 0:
        raise ValueError("bit vectors must have at least one axis, got a 0-d array")
    if u.dtype != bool and not ((u == 0) | (u == 1)).all():
        raise ValueError("bit vectors must hold only 0 and 1")
    return u


def _draw(channel: BmsChannel, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """The channel's noise into the contiguous out: standard normal on the BAWGNC, else uniform."""
    return (rng.standard_normal if channel.kind is ChannelKind.BAWGNC else rng.random)(out=out)


def _llrs(channel: BmsChannel, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The LLRs of uint8 codeword bits x from the noise d that _draw gave them, for
    any two arrays of one shape, exactly by sample_llrs's formulas; overwrites d."""
    if channel.kind is ChannelKind.BAWGNC:
        sigma = channel.param
        llr = np.multiply(x, 2.0)
        np.subtract(1.0, llr, out=llr)  # the transmitted symbol, exactly +-1
        llr += np.multiply(d, sigma, out=d)
        llr *= 2.0
        llr /= sigma * sigma
        return np.clip(llr, -LLR_CAP, LLR_CAP, out=llr)
    hit = np.less(d, channel.param).view(np.uint8)  # erased on the BEC, flipped on the BSC
    if channel.kind is ChannelKind.BEC:
        return np.take(np.array([LLR_CAP, -LLR_CAP, 0.0, 0.0]), x + 2 * hit)  # +0.0 if erased
    mag = bsc_llr_magnitude(channel.param)
    return np.take(np.array([mag, -mag]), x ^ hit)


def sample_llrs(channel: BmsChannel, codeword: np.ndarray, seed) -> np.ndarray:
    """Transmit a codeword and return the channel-output LLR vector.

    Deterministic for a fixed seed.  BEC outputs are +/-LLR_CAP with 0 on
    erasure; BSC outputs are +/-log((1-p)/p); BAWGNC outputs are 2y/sigma^2
    for y = (1 - 2x) + noise.  Positive LLR favors bit 0.  Rejects non-bits.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    x = np.asarray(_check_bits(codeword), dtype=np.uint8)
    if x.ndim != 1:
        raise ValueError("codeword must be a 1-D bit vector")
    d = _draw(channel, rng, np.empty(x.shape))
    return _llrs(channel, x, d)
