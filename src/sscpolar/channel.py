"""Binary memoryless symmetric channel models.

Covers the three channel families used throughout the package (BEC, BSC,
binary-input AWGN), their Bhattacharyya parameters and capacities, the
reliability transforms of channel polarization (one step, and one whole
level), and seeded LLR sampling for Monte Carlo decoding runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# LLR magnitudes are clamped here so that arithmetic stays total:
# tanh(LLR_CAP / 2) rounds to 1.0 in float64 without producing NaN downstream.
# The same rounding keeps F on the BEC's LLRs, +-LLR_CAP and +-0 only, in
# that set, so codec decodes BEC frames as erasure and sign bits.
LLR_CAP = 300.0

_BISECTION_ITERS = 200
_CAPACITY_TOL = 1e-9


class ChannelKind(str, Enum):
    """A channel family.  The public functions and BmsChannel also take a
    member's value ("bec") and coerce it; any other name is a ValueError."""

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
    signal energy) for the BAWGNC.  capacity and z0 are derived on first
    read and kept, so a channel is its (kind, param), equality included.
    """

    kind: ChannelKind
    param: float

    def __post_init__(self):
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        _check_param(self.kind, self.param)

    @cached_property
    def capacity(self) -> float:
        return capacity(self.kind, self.param)

    @cached_property
    def z0(self) -> float:
        return bhattacharyya(self.kind, self.param)


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
    kind = ChannelKind(kind)
    _check_param(kind, param)
    if kind is ChannelKind.BEC:
        return param
    if kind is ChannelKind.BSC:
        return 2.0 * math.sqrt(param * (1.0 - param))
    two_s2 = 2.0 * param * param
    return math.exp(-1.0 / two_s2) if two_s2 > 0.0 else 0.0  # 0.0 once sigma^2 underflows


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# Noise levels outside which _bawgnc_capacity needs no quadrature.  Up to
# _HIGH_SNR_SIGMA the loss is below 1e-56 (2.8e-57 there), so 1 - loss
# rounds to 1.0, as it does up to sigma ~ 0.09; far below, near
# sigma = 1e-154, sigma^2 is subnormal and the quadrature breaks down.  From
# _LOW_SNR_SIGMA on, the low-SNR series' relative error is about x^2/3
# (x = 1/sigma^2), 1.3e-11 there, while the quadrature's grows past 5e-11
# and near sigma = 1e5 it returns a loss of 0.
_HIGH_SNR_SIGMA = 2.0 ** -4
_LOW_SNR_SIGMA = 400.0


def _loss_integrand(s2: float):
    """y -> pdf(y) * log2(1 + exp(-2y/s2)), the integrand of the BAWGNC's capacity loss.

    pdf is the N(1, s2) density.  The softplus log(1 + e^v) is computed
    inline, bit for bit as np.logaddexp(0.0, v) computes it, and the
    constants are computed once, by the same operations as in the integrand.
    _loss_pairs evaluates the same integrand bit for bit.
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


def _loss_pairs(xs, s2: float) -> list[float]:
    """[(f(t) + f(-t)) / x / x for x in xs], t = (1 - x) / x, f = _loss_integrand(s2).

    QUADPACK's integrand after its map of (-inf, inf) onto (0, 1], bit for
    bit, for 0 < x <= 1.  Then t >= 0 and v = -2t/s2 <= 0, so f(t) and
    f(-t) share log1p(exp(v)): their softplus terms are it and -v + it, and
    log1p(exp(-0.0)) is log(2).  Each quotient divides the same reals as the
    integrand's, so it rounds the same: -(a) / b is a / -b, -2t / s2 is
    t / (-s2/2), and (-t - 1.0) is -(t + 1.0).  Where (t - 1)^2 / 2s2 > 746
    both pdfs underflow to 0.0, and so does the pair.
    """
    neg_two_s2 = -2.0 * s2
    neg_half_s2 = -0.5 * s2
    norm = math.sqrt(2.0 * math.pi * s2)
    log2 = math.log(2.0)
    exp, log1p = math.exp, math.log1p
    out = []
    append = out.append
    for x in xs:
        t = (1.0 - x) / x
        q = (t - 1.0) ** 2 / neg_two_s2
        if q < -746.0:
            append(0.0)
            continue
        v = t / neg_half_s2
        tail = log1p(exp(v))
        append((exp(q) / norm * tail / log2
                + exp((t + 1.0) ** 2 / neg_two_s2) / norm * (tail - v) / log2) / x / x)
    return out


# QUADPACK's 15-point Kronrod rule on [-1, 1]: nodes +-_X1 .. +-_X7 and 0,
# weights _K1 .. _K8; its 7-point Gauss rule on +-_X2, +-_X4, +-_X6 and 0,
# weights _G2, _G4, _G6, _G8.  To 33 digits, as QUADPACK and GSL's qk15.c
# give them: rounded to 16 digits, 8 of them are other doubles.
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245)
_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_G2, _G4, _G6, _G8 = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_QUAD_TOL = 1e-12  # both epsabs and epsrel
_QUAD_LIMIT = 200  # subintervals


def _qk15i(a: float, b: float, s2: float) -> tuple[float, float, float]:
    """QUADPACK's dqk15i on [a, b] of _loss_pairs: (result, abserr, resasc).

    The sums run in the Fortran order, unrolled.  The integrand is >= 0, so
    dqk15i's resabs equals result, and the Fortran's adds of 0 * f for the
    nodes the Gauss rule skips change no bit.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    h1, h2, h3, h4, h5, h6, h7 = (hlgth * _X1, hlgth * _X2, hlgth * _X3, hlgth * _X4,
                                  hlgth * _X5, hlgth * _X6, hlgth * _X7)
    fc, l1, l2, l3, l4, l5, l6, l7, r1, r2, r3, r4, r5, r6, r7 = _loss_pairs(
        (centr, centr - h1, centr - h2, centr - h3, centr - h4, centr - h5, centr - h6,
         centr - h7, centr + h1, centr + h2, centr + h3, centr + h4, centr + h5, centr + h6,
         centr + h7), s2)
    p1, p2, p3, p4, p5, p6, p7 = l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5, l6 + r6, l7 + r7
    resg = _G8 * fc + _G2 * p2 + _G4 * p4 + _G6 * p6
    resk = _K8 * fc + _K1 * p1 + _K2 * p2 + _K3 * p3 + _K4 * p4 + _K5 * p5 + _K6 * p6 + _K7 * p7
    m = resk * 0.5
    resasc = (_K8 * abs(fc - m) + _K1 * (abs(l1 - m) + abs(r1 - m))
              + _K2 * (abs(l2 - m) + abs(r2 - m)) + _K3 * (abs(l3 - m) + abs(r3 - m))
              + _K4 * (abs(l4 - m) + abs(r4 - m)) + _K5 * (abs(l5 - m) + abs(r5 - m))
              + _K6 * (abs(l6 - m) + abs(r6 - m)) + _K7 * (abs(l7 - m) + abs(r7 - m))) * hlgth
    result = resk * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if result > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * result, abserr)
    return result, abserr, resasc


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """QUADPACK's dqpsrt, 0-based: keeps iord[:jupbn] in descending error.

    Returns the next (maxerr, nrmax).
    """
    if last <= 2:
        iord[0], iord[1] = 0, 1
        return iord[nrmax], nrmax
    errmax = elist[maxerr]
    while nrmax > 0 and errmax > elist[iord[nrmax - 1]]:
        iord[nrmax] = iord[nrmax - 1]
        nrmax -= 1
    jupbn = _QUAD_LIMIT + 3 - last if last > _QUAD_LIMIT // 2 + 2 else last
    errmin = elist[last - 1]
    for i in range(nrmax + 1, jupbn - 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            for k in range(jupbn - 2, i - 1, -1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last - 1
                    break
                iord[k + 1] = isucc
            else:
                iord[i] = last - 1
            return iord[nrmax], nrmax
        iord[i - 1] = isucc
    iord[jupbn - 2] = maxerr
    iord[jupbn - 1] = last - 1
    return iord[nrmax], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK's dqelg, 0-based: Wynn's epsilon algorithm on epstab[:n].

    Returns (n, result, abserr, nres); epstab and res3la change in place.
    """
    nres += 1
    result, abserr = epstab[n - 1], _OFLOW
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 1] = epstab[n - 1]
    newelm = (n - 1) // 2
    epstab[n - 1] = _OFLOW
    num = n
    k1 = n - 1
    for i in range(1, newelm + 1):
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2]
        e1abs = abs(e1)
        delta2, delta3 = e2 - e1, e1 - e0
        err2, err3 = abs(delta2), abs(delta3)
        tol2, tol3 = max(abs(e2), e1abs) * _EPMACH, max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:  # converged: e0, e1, e2 equal to machine accuracy
            return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:  # two elements very close
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:  # irregular behaviour
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    if n == 50:  # limexp
        n = 49
    first = 1 - num % 2  # shift the table
    for ib in range(first, first + 2 * newelm + 1, 2):
        epstab[ib] = epstab[ib + 2]
    if num != n:
        epstab[:n] = epstab[num - n:num]
    if nres < 4:
        res3la[nres - 1] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[:] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagi_loss(s2: float):
    """QUADPACK's dqagie over (-inf, inf) of _loss_integrand(s2), step for step.

    A port of the one case that _bawgnc_capacity uses: both limits
    infinite, epsabs = epsrel = 1e-12 and limit = 200 (Piessens, de
    Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983; Wynn,
    MTAC 1956).  Every step rounds as the Fortran's does, so every number is
    the same double.  Returns (result, abserr, last, alist, blist, rlist,
    elist, iord), the lists 0-based, with last subintervals in use.
    """
    limit = _QUAD_LIMIT
    alist, blist, rlist, elist = ([0.0] * limit for _ in range(4))
    iord = [0] * limit
    result, abserr, resasc = _qk15i(0.0, 1.0, s2)
    blist[0], rlist[0], elist[0], last = 1.0, result, abserr, 1
    errbnd = max(_QUAD_TOL, _QUAD_TOL * abs(result))
    if (abserr <= 100.0 * _EPMACH * result and abserr > errbnd) \
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr, last, alist, blist, rlist, elist, iord

    rlist2, res3la = [0.0] * 52, [0.0] * 3
    rlist2[0] = area = result
    errmax = errsum = abserr
    abserr = _OFLOW
    maxerr = nrmax = nres = ktmin = ier = ierro = iroff1 = iroff2 = iroff3 = 0
    numrl2 = 2
    extrap = noext = False
    small = erlarg = ertest = correc = 0.0
    summed = True  # whether the result is the sum over the subintervals
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, defab1 = _qk15i(a1, b1, s2)
        area2, error2, defab2 = _qk15i(a2, b2, s2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(_QUAD_TOL, _QUAD_TOL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff error
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour
        new = last - 1
        if error2 > error1:
            alist[maxerr], alist[new], blist[new] = a2, a1, b1
            rlist[maxerr], rlist[new], elist[maxerr], elist[new] = area2, area1, error2, error1
        else:
            alist[new], blist[maxerr], blist[new] = a2, b1, b2
            rlist[maxerr], rlist[new], elist[maxerr], elist[new] = area1, area2, error1, error2
        maxerr, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        errmax = elist[maxerr]
        if errsum <= errbnd:
            break
        if ier != 0:
            summed = False
            break
        if last == 2:
            small, erlarg, ertest, rlist2[1] = 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue  # the next interval to bisect is not the smallest
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before extrapolating,
            # bisect the larger intervals with large errors, if any
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            while nrmax < jupbnd:
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    break
                nrmax += 1
            if nrmax < jupbnd:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5  # extrapolation does not improve
        if abseps < abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(_QUAD_TOL, _QUAD_TOL * abs(reseps))
            if abserr <= ertest:
                summed = False
                break
        # go on by bisecting the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            summed = False
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small *= 0.5
        erlarg = errsum

    if not summed:  # keep the extrapolated result unless the sum is the better one
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if summed:
        result = 0.0
        for k in range(last):  # in order: sum() may round differently
            result += rlist[k]
        abserr = errsum
    return result, abserr, last, alist, blist, rlist, elist, iord


def _bawgnc_capacity(sigma: float) -> float:
    # C = 1 - E_{y ~ N(1, sigma^2)} log2(1 + exp(-2y/sigma^2)), unit signal energy.
    if sigma <= _HIGH_SNR_SIGMA:
        return 1.0
    s2 = sigma * sigma
    if sigma >= _LOW_SNR_SIGMA:
        x = 1.0 / s2  # 0 once s2 overflows
        return (x / 2.0 - x * x / 4.0) / math.log(2.0)
    loss = _qagi_loss(s2)[0]
    return min(1.0, max(0.0, 1.0 - loss))


# _bawgnc_capacity_estimate's trapezoid rule: nodes z = k*h for |k| <= 90,
# h = 0.1, each weighted h * phi(z), phi the standard normal density.
_ESTIMATE_NODES = np.arange(-90, 91) * 0.1
_ESTIMATE_WEIGHTS = 0.1 * np.exp(-0.5 * _ESTIMATE_NODES ** 2) / math.sqrt(2.0 * math.pi)
# The bound on |_bawgnc_capacity_estimate - _bawgnc_capacity| that
# _screened_capacity trusts: 100 times the 1e-12 the tests hold the estimate
# to, about 7e4 times the 1.5e-15 measured
_ESTIMATE_ERROR = 1e-10


def _bawgnc_capacity_estimate(sigma: float) -> float:
    """_bawgnc_capacity(sigma) to within about 1e-15, by a fixed trapezoid rule.

    For _HIGH_SNR_SIGMA < sigma < _LOW_SNR_SIGMA, where _bawgnc_capacity
    runs its quadrature.  With y = 1 + sigma*z, the loss is
    E log2(1 + exp(-2/sigma^2 - 2z/sigma)) over the standard normal z,
    summed at the nodes _ESTIMATE_NODES with the weights
    _ESTIMATE_WEIGHTS.  The softplus log(1 + e^w) is analytic but at
    w = i*pi*(2m + 1), so the integrand is analytic in the strip
    |Im z| < pi*sigma/2, and its Gaussian weight makes it decay on both
    sides.  The trapezoid rule's error then falls like exp(-2*pi*d/h) for a
    strip of half-width d, here exp(-pi^2*sigma/h), and the Gaussian is
    about exp(-1/(2 sigma^2)) small where the singularities sit (Re z =
    -1/sigma).  Their product peaks near sigma = 0.22 at about e^-32, and
    the cut at |z| = 9 drops a weight of phi(9) ~ 1e-18.  numpy's exp and
    logaddexp round per SIMD kernel, which moves the estimate by about
    1e-16 and nothing that reads it.
    """
    softplus = np.logaddexp(0.0, _ESTIMATE_NODES * (-2.0 / sigma) - 2.0 / (sigma * sigma))
    return 1.0 - float((_ESTIMATE_WEIGHTS * softplus).sum()) / math.log(2.0)


def capacity(kind: ChannelKind, param: float) -> float:
    """Symmetric capacity I(W) in bits per channel use."""
    kind = ChannelKind(kind)
    _check_param(kind, param)
    if kind is ChannelKind.BEC:
        return 1.0 - param
    if kind is ChannelKind.BSC:
        return 1.0 - h2(param)
    return _bawgnc_capacity(param)


def _screened_capacity(kind: ChannelKind, param: float, edges: tuple[float, ...]) -> float:
    """The capacity a step of channel_from_capacity compares with edges.

    Where the BAWGNC's capacity takes a quadrature,
    _bawgnc_capacity_estimate(param) when it is more than _ESTIMATE_ERROR
    from every edge, and capacity(kind, param) otherwise.  The estimate is
    within _ESTIMATE_ERROR of the exact capacity, so where it is returned
    the exact capacity lies on its side of every edge: each comparison
    with an edge, the one that ends the bisection included, comes out as
    the exact value's would.
    """
    if kind is ChannelKind.BAWGNC and _HIGH_SNR_SIGMA < param < _LOW_SNR_SIGMA:
        estimate = _bawgnc_capacity_estimate(param)
        if all(abs(estimate - edge) > _ESTIMATE_ERROR for edge in edges):
            return estimate
    return capacity(kind, param)


def channel_from_capacity(kind: ChannelKind, target_capacity: float) -> BmsChannel:
    """Find the channel of the given kind whose capacity matches the target.

    Bisection on the parameter; capacity is strictly monotone (decreasing)
    in the parameter for all three families.  On the BAWGNC a step runs
    the quadrature only when the cheap estimate cannot decide it
    (_screened_capacity): a bracket step compares the capacity with the
    target, and a bisection step with the stopping edges target +- 1e-9.
    The bisection so visits the same midpoints and returns the same sigma
    as one that runs the quadrature at every step.

    Raises
    ------
    ValueError
        If kind names no ChannelKind, or the target capacity is not
        strictly inside (0, 1).
    ArithmeticError
        If bisection has not converged to 1e-9 after 200 iterations.
    """
    kind = ChannelKind(kind)
    if not 0.0 < target_capacity < 1.0:
        raise ValueError(f"target capacity must be in (0, 1), got {target_capacity}")

    if kind is ChannelKind.BEC:
        return BmsChannel(kind, 1.0 - target_capacity)

    if kind is ChannelKind.BSC:
        lo, hi = 0.0, 0.5
    else:
        lo, hi = 1e-6, 2.0
        while _screened_capacity(kind, hi, (target_capacity,)) > target_capacity:
            hi *= 2.0
            if hi > 1e6:
                raise ArithmeticError("BAWGNC capacity bisection failed to bracket target")

    edges = (target_capacity - _CAPACITY_TOL, target_capacity + _CAPACITY_TOL)
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        c = _screened_capacity(kind, mid, edges)
        if abs(c - target_capacity) <= _CAPACITY_TOL:
            return BmsChannel(kind, mid)
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


def _decide(channel: BmsChannel, d: np.ndarray, out=None) -> np.ndarray:
    """The bit that each uniform draw of _draw decides on the BEC or BSC, whatever
    the codeword: kept (d >= p, not erased) on the BEC, flipped (d < p) on the BSC."""
    return (np.greater_equal if channel.kind is ChannelKind.BEC else np.less)(
        d, channel.param, out=out)


def _llrs(channel: BmsChannel, x: np.ndarray, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sample_llrs's draws-to-LLR map: the LLRs of uint8 codeword bits x into out.

    noise is what _draw gave on the BAWGNC, and the bits _decide read off it
    on the BEC and BSC; x, noise and out have one shape, and on the BAWGNC
    out may be noise.  Overwrites x with the int8 sign 1 - 2x.  On the
    BAWGNC y = noise*sigma + sign, which is the symbol plus the scaled noise
    bit for bit, as the sign is exactly +-1 and IEEE addition commutes.  On
    the BEC and BSC the LLR is an int8 sign times the magnitude:
    kept*(1-2x) * LLR_CAP, where int8 0 gives +0.0 if erased, and
    (1-2*(x^flipped)) * mag, where -1 * 0.0 is -0.0 at p = 1/2, as the
    BSC's LLRs are +-0.0 there.
    """
    sign = x.view(np.int8)
    if channel.kind is ChannelKind.BSC:
        sign ^= noise
    sign *= -2
    sign += 1
    if channel.kind is ChannelKind.BAWGNC:
        sigma = channel.param
        # below sigma ~ 1.05e-154 the quotient overflows to +-inf, and below
        # ~ 1.5e-162 sigma^2 is 0 and every y is exactly +-1, so it divides
        # by 0: either way the clip maps +-inf to +-LLR_CAP.  Above sigma
        # ~ 1.34e154 sigma^2 is inf, and noise*sigma or 2y may overflow to
        # +-inf, which the division would make NaN: every LLR is then the
        # signed zero that finite / inf gives.
        with np.errstate(divide="ignore", over="ignore"):
            llr = np.multiply(noise, sigma, out=out)
            llr += sign
            llr *= 2.0
            if math.isinf(sigma * sigma):
                return np.copysign(0.0, llr, out=llr)
            llr /= sigma * sigma
        return np.clip(llr, -LLR_CAP, LLR_CAP, out=llr)
    if channel.kind is ChannelKind.BEC:
        sign *= noise
        mag = LLR_CAP
    else:
        mag = bsc_llr_magnitude(channel.param)
    return np.multiply(sign, mag, out=out)


def sample_llrs(channel: BmsChannel, codeword: np.ndarray, seed) -> np.ndarray:
    """Transmit a codeword and return the channel-output LLR vector.

    Deterministic for a fixed seed.  BEC outputs are +/-LLR_CAP with 0 on
    erasure; BSC outputs are +/-log((1-p)/p); BAWGNC outputs are 2y/sigma^2
    for y = (1 - 2x) + noise.  Positive LLR favors bit 0.  Rejects non-bits.
    The map from draws to LLRs is _llrs, which Monte Carlo batches share.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    x = np.array(_check_bits(codeword), dtype=np.uint8)  # a copy: _llrs overwrites it
    if x.ndim != 1:
        raise ValueError("codeword must be a 1-D bit vector")
    noise = _draw(channel, rng, np.empty(x.shape))
    if channel.kind is not ChannelKind.BAWGNC:
        noise = _decide(channel, noise)
    return _llrs(channel, x, noise, np.empty(x.shape))
