import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sscpolar import (
    SCALING_EXPONENT,
    BmsChannel,
    ChannelKind,
    bhattacharyya,
    build_code,
    capacity,
    channel_from_capacity,
    code_from_text,
    code_to_text,
    polarize,
    sample_llrs,
    z_minus,
    z_plus,
)
from sscpolar import channel as channel_module
from sscpolar.channel import (
    _CAPACITY_TOL,
    _ESTIMATE_ERROR,
    _HIGH_SNR_SIGMA,
    _LOW_SNR_SIGMA,
    LLR_CAP,
    _bawgnc_capacity,
    _bawgnc_capacity_estimate,
    _decide,
    _draw,
    _llrs,
    _loss_integrand,
    _loss_pairs,
    _qagi_loss,
    bsc_llr_magnitude,
)
from sscpolar.experiments import DEFAULT_CAPACITIES

from conftest import reference_inversion

# float.hex of (sigma, _bawgnc_capacity(sigma)) on np.geomspace(1e-3, 400, 20,
# endpoint=False), recorded with np.logaddexp(0.0, v) as the integrand's
# softplus; _loss_integrand's inline softplus must reproduce every bit.
PINNED_BAWGNC_CAPACITIES = [
    ("0x1.0624dd2f1a9fcp-10", "0x1.0000000000000p+0"),
    ("0x1.f39fa2879efa8p-10", "0x1.0000000000000p+0"),
    ("0x1.dc1e946e88b24p-9", "0x1.0000000000000p+0"),
    ("0x1.c5b896cad1ba2p-8", "0x1.0000000000000p+0"),
    ("0x1.b060589e2fa24p-7", "0x1.0000000000000p+0"),
    ("0x1.9c0929497405dp-6", "0x1.0000000000000p+0"),
    ("0x1.88a6f1012a9a7p-5", "0x1.0000000000000p+0"),
    ("0x1.762e299d13398p-4", "0x1.0000000000000p+0"),
    ("0x1.6493d7be31a7fp-3", "0x1.ffffff515b4c5p-1"),
    ("0x1.53cd8447605ccp-2", "0x1.fd4750acaaa9ep-1"),
    ("0x1.43d1362484910p-1", "0x1.95f87d6ba9f00p-1"),
    ("0x1.34956c5cb0a28p+0", "0x1.7d989dedaf5bap-2"),
    ("0x1.2611186bae671p+1", "0x1.0025efaaad3dcp-3"),
    ("0x1.183b98df9574dp+2", "0x1.2c712211ca3f0p-5"),
    ("0x1.0b0cb43739e33p+3", "0x1.50fc35d4717c0p-7"),
    ("0x1.fcf927fccd2a2p+3", "0x1.74ffb73767200p-9"),
    ("0x1.e5078049f59f2p+4", "0x1.9b52840f19400p-11"),
    ("0x1.ce36351c4be59p+5", "0x1.c51d2b3c54000p-13"),
    ("0x1.b877b5aa3af06p+6", "0x1.f3025adfb0000p-15"),
    ("0x1.a3bf148992618p+7", "0x1.12c1446b50000p-16"),
]

# target capacity -> float.hex of the BAWGNC channel_from_capacity returns: (param, capacity)
PINNED_BAWGNC_INVERSIONS = {
    0.1: ("0x1.4bdfdf338054fp+1", "0x1.999999ae4b930p-4"),
    0.5: ("0x1.f51765727a3f6p-1", "0x1.0000000109866p-1"),
    0.9: ("0x1.08162ec69e4e5p-1", "0x1.ccccccd0e4a3fp-1"),
}


class TestBhattacharyya:
    def test_bec_equals_erasure_prob(self):
        assert bhattacharyya(ChannelKind.BEC, 0.5) == 0.5

    def test_noiseless_bsc(self):
        assert bhattacharyya(ChannelKind.BSC, 0.0) == 0.0

    def test_bsc_formula(self):
        # 2*sqrt(p(1-p)) at p=0.11, evaluated directly
        assert bhattacharyya(ChannelKind.BSC, 0.11) == pytest.approx(
            0.6257795138864807, abs=1e-15)

    def test_bawgnc_formula(self):
        sigma = 0.7
        assert bhattacharyya(ChannelKind.BAWGNC, sigma) == pytest.approx(
            math.exp(-1 / (2 * sigma ** 2)), abs=1e-15)

    @pytest.mark.parametrize("kind,param", [
        (ChannelKind.BEC, -0.1), (ChannelKind.BEC, 1.1),
        (ChannelKind.BSC, 0.6), (ChannelKind.BSC, -0.01),
        (ChannelKind.BAWGNC, 0.0), (ChannelKind.BAWGNC, -1.0),
        # a kind given by its value is checked as that member; other names are rejected
        ("bec", 1.5), ("bsc", 0.75), ("bawgnc", -2.0), ("foo", 0.3),
    ])
    def test_out_of_range_param(self, kind, param):
        for call in (bhattacharyya, capacity, BmsChannel):
            with pytest.raises(ValueError):
                call(kind, param)
        if kind == "foo":
            with pytest.raises(ValueError, match="not a valid ChannelKind"):
                channel_from_capacity(kind, 0.5)


class TestCapacity:
    def test_bec(self):
        assert capacity(ChannelKind.BEC, 0.5) == 0.5

    def test_useless_bsc(self):
        assert capacity(ChannelKind.BSC, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_entropy_value(self):
        # 1 - h2(0.11), direct evaluation
        assert capacity(ChannelKind.BSC, 0.11) == pytest.approx(
            0.500084041835472, abs=1e-12)

    def test_bawgnc_extremes(self):
        assert capacity(ChannelKind.BAWGNC, 0.05) > 0.999
        assert capacity(ChannelKind.BAWGNC, 50.0) < 0.001

    def test_bawgnc_against_hermite_quadrature(self):
        # independent evaluation of 1 - E log2(1 + exp(-2y/s^2)) over N(1, s^2)
        nodes, weights = np.polynomial.hermite.hermgauss(120)
        for sigma in (0.5, 0.9787, 2.0):
            y = 1.0 + math.sqrt(2.0) * sigma * nodes
            loss = (weights * np.logaddexp(0.0, -2.0 * y / sigma ** 2)).sum()
            expected = 1.0 - loss / (math.log(2.0) * math.sqrt(math.pi))
            assert capacity(ChannelKind.BAWGNC, sigma) == pytest.approx(expected, abs=1e-8)

    def test_bawgnc_low_snr_series_joins_quadrature(self):
        # quad below _LOW_SNR_SIGMA, the series from it on: strictly
        # decreasing through the switch, with no jump there
        switch = _LOW_SNR_SIGMA
        sigmas = switch * (1.0 + np.linspace(-1e-3, 1e-3, 41))
        caps = [capacity(ChannelKind.BAWGNC, s) for s in sigmas]
        assert all(a > b for a, b in zip(caps, caps[1:]))
        below = capacity(ChannelKind.BAWGNC, math.nextafter(switch, 0.0))
        assert capacity(ChannelKind.BAWGNC, switch) == pytest.approx(below, rel=1e-10)

    def test_bawgnc_very_noisy_channels_are_useless(self):
        # quad returned 1.0 from sigma = 1e5 on, where z0 rounds to 1
        sigmas = [10.0 ** e for e in range(3, 301)]
        caps = [capacity(ChannelKind.BAWGNC, s) for s in sigmas]
        assert all(a > b or a == b == 0.0 for a, b in zip(caps, caps[1:]))
        assert capacity(ChannelKind.BAWGNC, 1e5) == pytest.approx(1e-10 / (2 * math.log(2)))
        assert caps[-1] == 0.0
        assert BmsChannel(ChannelKind.BAWGNC, 1e300).capacity == 0.0

    def test_bawgnc_noiseless_channels_are_perfect(self):
        # the quadrature lost the loss from sigma ~ 1e-154 down and returned
        # 0.0; at 1e-300, 2 sigma^2 underflows to 0
        for e in range(2, 301):
            ch = BmsChannel(ChannelKind.BAWGNC, 10.0 ** -e)
            assert (ch.capacity, ch.z0) == (1.0, 0.0), e

    def test_bawgnc_capacity_is_pinned(self):
        got = [(s, _bawgnc_capacity(float.fromhex(s)).hex()) for s, _ in PINNED_BAWGNC_CAPACITIES]
        assert got == PINNED_BAWGNC_CAPACITIES

    def test_bawgnc_capacity_dense_digest(self):
        # sha256 of _bawgnc_capacity(sigma).hex() over a dense grid, recorded
        # with the softplus as a function of its own and the integrand's
        # constants computed at every call
        digest = hashlib.sha256()
        for sigma in np.geomspace(1e-3, 399, 2000):
            digest.update(_bawgnc_capacity(float(sigma)).hex().encode())
        assert digest.hexdigest() == \
            "71352634a1aaa07277308976f57a1c2574f087c0b0a1e34cecfb53505520f553"

    def test_softplus_is_logaddexp_bitwise(self):
        # the integrand equals, bit for bit, the one that takes its softplus
        # from np.logaddexp(0.0, v); y = -v*s2/2 gives back v = -2y/s2, and
        # s2 = 2^-10 keeps pdf > 0 out to |v| ~ 2400
        tiny = 5e-324
        edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 710.0, -710.0, 1e308, -1e308]
        rng = np.random.default_rng(12)
        values = edges + (rng.standard_normal(2000) * 40.0).tolist()
        for s2 in (2.0 ** -10, 1.0, 2.0 ** 10):
            integrand = _loss_integrand(s2)
            for v in values:
                y = -v * s2 / 2.0
                if abs(y) > 1e150:  # (y - 1.0) ** 2 overflows, here as in the integrand
                    continue
                pdf = math.exp(-((y - 1.0) ** 2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
                softplus = float(np.logaddexp(0.0, -2.0 * y / s2))
                assert integrand(y).hex() == (pdf * softplus / math.log(2.0)).hex(), (s2, v)

    @pytest.mark.parametrize("kind,grid", [
        (ChannelKind.BEC, np.linspace(0.01, 0.99, 25)),
        (ChannelKind.BSC, np.linspace(0.005, 0.495, 25)),
        (ChannelKind.BAWGNC, np.linspace(0.2, 5.0, 15)),
    ])
    def test_strictly_monotone_in_param(self, kind, grid):
        caps = [capacity(kind, p) for p in grid]
        assert all(a > b for a, b in zip(caps, caps[1:]))


class TestChannelFromCapacity:
    def test_bec_trivial(self):
        assert channel_from_capacity(ChannelKind.BEC, 0.5).param == 0.5
        assert channel_from_capacity(ChannelKind.BEC, 0.9).param == pytest.approx(0.1)

    def test_bsc_half_capacity(self):
        ch = channel_from_capacity(ChannelKind.BSC, 0.5)
        assert ch.param == pytest.approx(0.1100278644, abs=1e-6)
        assert channel_from_capacity("bsc", 0.5) == ch

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("target", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_round_trip(self, kind, target):
        ch = channel_from_capacity(kind, target)
        assert abs(capacity(kind, ch.param) - target) <= 1e-9
        assert abs(ch.capacity - target) <= 1e-9

    @pytest.mark.parametrize("target", sorted(PINNED_BAWGNC_INVERSIONS))
    def test_bawgnc_inversion_is_pinned(self, target):
        ch = channel_from_capacity(ChannelKind.BAWGNC, target)
        assert (ch.param.hex(), ch.capacity.hex()) == PINNED_BAWGNC_INVERSIONS[target]
        assert ch == BmsChannel(ChannelKind.BAWGNC, ch.param)

    @pytest.mark.parametrize("target", [0.02, 0.5, 0.9])
    def test_bawgnc_inversion_evaluates_each_capacity_once(self, monkeypatch, target):
        # an estimate on a stopping edge, the one on the exact capacity's
        # side, decides no bisection step: the quadrature runs once at each
        # midpoint the plain bisection visits, in its order, and the answer
        # is the plain bisection's.  The estimate still decides the bracket
        # steps (sigma 2, 4, ...), which compare with the target alone.  The
        # returned channel computes its own capacity when it is read
        def on_edge(sigma):
            return target + math.copysign(_CAPACITY_TOL, _bawgnc_capacity(sigma) - target)

        monkeypatch.setattr(channel_module, "_bawgnc_capacity_estimate", on_edge)
        (ch,), calls = _quadratures(monkeypatch, channel_from_capacity, [target])
        (plain,), visited = _quadratures(monkeypatch, reference_inversion, [target])
        bracket = len(visited) - len(calls)
        assert visited[:bracket] == [2.0 * 2.0 ** k for k in range(bracket)]
        assert calls == visited[bracket:]
        assert len(set(calls)) == len(calls)
        assert ch.param == plain.param == calls[-1]
        assert ch.capacity == _bawgnc_capacity(ch.param)

    def test_fig6_inversions_run_few_quadratures(self, monkeypatch):
        # none of the plain bisection's 90: a fall back to a quadrature near
        # the target, or at every step, fails here
        _, calls = _quadratures(monkeypatch, channel_from_capacity, DEFAULT_CAPACITIES)
        assert len(calls) == 0

    @pytest.mark.parametrize("kind, target, evaluations", [
        (ChannelKind.BSC, 0.1, 28), (ChannelKind.BSC, 0.5, 25), (ChannelKind.BSC, 0.9, 29),
        (ChannelKind.BAWGNC, 0.1, 0), (ChannelKind.BAWGNC, 0.5, 0),
        (ChannelKind.BAWGNC, 0.9, 0),
    ])
    def test_inversion_evaluates_each_step_once(self, monkeypatch, kind, target, evaluations):
        # one capacity a BSC bisection step, and one a BAWGNC step that the
        # estimate cannot decide (here none), as many as when the channel
        # stored the capacity of the step that converged; building it reads
        # none
        calls = []
        monkeypatch.setattr(channel_module, "capacity",
                            lambda kind, param: calls.append(param) or capacity(kind, param))
        ch = channel_from_capacity(kind, target)
        assert len(calls) == evaluations
        assert calls[-1:] == ([ch.param] if evaluations else [])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_target_out_of_range(self, bad):
        with pytest.raises(ValueError):
            channel_from_capacity(ChannelKind.BEC, bad)

    def test_bawgnc_inversion_equals_the_plain_bisection(self):
        # the estimate only skips quadratures: every sigma is the same double
        targets = np.linspace(0.001, 0.999, 200).tolist() + [1e-4, 0.02, 0.9999]
        assert _inversion_mismatches(targets) == []

    @pytest.mark.parametrize("shift", [1e-7, -1e-7])
    def test_equality_gate_sees_a_wrong_estimate(self, monkeypatch, shift):
        # an estimate 1e-7 off turns steps near the target the wrong way
        monkeypatch.setattr(channel_module, "_bawgnc_capacity_estimate",
                            lambda sigma: _bawgnc_capacity_estimate(sigma) + shift)
        assert _inversion_mismatches(DEFAULT_CAPACITIES) != []

    def test_bracket_decides_as_the_exact_value_would(self):
        # a target equal to the capacity at a bracket point sigma = 2^k: the
        # estimate there is up to 2.2e-16 off, on either side, and the
        # bracket's question is whether the capacity exceeds the target
        targets = [_bawgnc_capacity(2.0 ** k) for k in range(1, 9)]
        assert _inversion_mismatches(targets) == []

    def test_estimate_is_far_inside_the_margin(self, monkeypatch):
        # a step decides by the estimate as the quadrature would while the
        # estimate is within _ESTIMATE_ERROR of it; measured, it is within
        # 1.5e-15.  The grid, and every sigma fig 6's plain bisections visit
        _, visited = _quadratures(monkeypatch, reference_inversion, DEFAULT_CAPACITIES)
        sigmas = np.geomspace(_HIGH_SNR_SIGMA, _LOW_SNR_SIGMA, 4002)[1:-1].tolist() + visited
        worst = max(abs(_bawgnc_capacity_estimate(s) - _bawgnc_capacity(s)) for s in sigmas)
        assert worst <= 1e-12 <= _ESTIMATE_ERROR / 100


def _quadratures(monkeypatch, invert, targets):
    """invert(BAWGNC, t) for each target, and the sigmas of the _bawgnc_capacity calls they ran."""
    seen = []

    def spy(sigma):
        seen.append(sigma)
        return _bawgnc_capacity(sigma)

    with monkeypatch.context() as m:
        m.setattr(channel_module, "_bawgnc_capacity", spy)
        channels = [invert(ChannelKind.BAWGNC, target) for target in targets]
    return channels, seen


def _inversion_mismatches(targets):
    """The targets whose BAWGNC sigma differs from reference_inversion's, or whose inversion fails."""
    bad = []
    for target in targets:
        try:
            got = channel_from_capacity(ChannelKind.BAWGNC, target).param.hex()
        except ArithmeticError:
            got = None
        if got != reference_inversion(ChannelKind.BAWGNC, target).param.hex():
            bad.append(target)
    return bad


def _quad_steps(f):
    """scipy's quad of f over (-inf, inf) as _bawgnc_capacity called it, with its subintervals."""
    integrate = pytest.importorskip("scipy.integrate")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        result, abserr, info = integrate.quad(f, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12,
                                              limit=200, full_output=1)[:3]
    return _steps(result, abserr, info["last"], info["alist"], info["blist"], info["rlist"],
                  info["elist"], info["iord"])


def _steps(result, abserr, last, alist, blist, rlist, elist, iord):
    # QUADPACK keeps iord ordered in its first jupbn entries only, and scipy
    # leaves the rest unset
    jupbn = 203 - last if last > 102 else last
    floats = [result, abserr, *alist[:last], *blist[:last], *rlist[:last], *elist[:last]]
    return last, [float(x).hex() for x in floats], [int(i) for i in iord[:jupbn]]


def _generic_pairs(f):
    """_loss_pairs for the integrand f, as QUADPACK's dqk15i evaluates it."""
    def pairs(xs, _s2):
        return [(f((1.0 - x) / x) + f(-((1.0 - x) / x))) / x / x for x in xs]
    return pairs


class TestQuadraturePort:
    """_qagi_loss against scipy's QUADPACK, step for step and bit for bit."""

    def fig6_sigmas(self, monkeypatch):
        # every step of fig 6's inversions, as the plain bisection runs them
        _, seen = _quadratures(monkeypatch, reference_inversion, DEFAULT_CAPACITIES)
        assert len(seen) == 90
        return seen

    def test_steps_equal_scipy_quad(self, monkeypatch):
        # the sigmas fig 6's inversions evaluate, and a grid over the range
        # that needs the quadrature
        sigmas = self.fig6_sigmas(monkeypatch) + np.geomspace(
            2.0 ** -4, _LOW_SNR_SIGMA, 200, endpoint=False).tolist()
        for sigma in sigmas:
            s2 = sigma * sigma
            assert _steps(*_qagi_loss(s2)) == _quad_steps(_loss_integrand(s2)), sigma

    @pytest.mark.parametrize("f", [
        lambda y: math.exp(-y * y),  # the sum over the subintervals converges
        lambda y: 0.0,  # the first rule is exact
        lambda y: 1.0 / (1.0 + abs(y)) ** 2.5,  # the epsilon table converges
        lambda y: 1e-8 / (1e-16 + (y - 0.1) ** 2),  # extrapolation stalls
        lambda y: (1.0 + 1e-7 * math.sin(1e8 * y + 0.1)) / (1.0 + y * y),  # roundoff
        lambda y: abs(math.sin(y)) / (1.0 + abs(y)),  # divergent: all 200 subintervals
        # found by a random search over such families: the epsilon table
        # drops close and irregular elements; an interval too small to
        # bisect, with the roundoff correction; extrapolation given up
        lambda y: math.exp(-0.7360605046824417 * abs(y)) if y < -1.797555267202964 else 0.0,
        lambda y: (abs(y - 0.24847483676097948) ** -0.9481337238740719
                   * math.exp(-0.08054177351128285 * abs(y)) if y != 0.24847483676097948 else 0.0),
        lambda y: ((1.0 + 1.4908515332008882e-12 * math.sin(439.02545981761835 * y + 0.3))
                   * math.exp(-0.37361046695712163 * y * y)),
    ], ids=["gauss", "zero", "decay", "spike", "roundoff", "divergent", "jump", "singular",
            "flat"])
    def test_every_exit_equals_scipy_quad(self, monkeypatch, f):
        # the loss integrand never leaves by most of QUADPACK's exits: these
        # integrands take all but three rare ones through the same port
        monkeypatch.setattr(channel_module, "_loss_pairs", _generic_pairs(f))
        assert _steps(*_qagi_loss(1.0)) == _quad_steps(f)

    def test_pairs_are_the_integrand_bitwise(self):
        rng = np.random.default_rng(21)
        for sigma in (2.0 ** -4, 0.5, 0.9787, 2.0, 50.0, _LOW_SNR_SIGMA):
            s2 = sigma * sigma
            f = _loss_integrand(s2)
            # nodes on both sides of the cut at (t - 1)^2 / 2s2 = 746, where
            # the pairs' last nonzero values are
            t = 1.0 + np.sqrt(2.0 * s2 * np.linspace(700.0, 760.0, 301))
            xs = ([1.0, math.nextafter(1.0, 0.0), 0.5, 2.0 ** -208]
                  + (1.0 / (1.0 + t)).tolist()
                  + rng.uniform(0.0, 1.0, 500).tolist()
                  + np.geomspace(1e-60, 1.0, 500).tolist())
            want = [(f((1.0 - x) / x) + f(-((1.0 - x) / x))) / x / x for x in xs]
            assert [v.hex() for v in _loss_pairs(xs, s2)] == [v.hex() for v in want], sigma


class TestZTransforms:
    def test_examples(self):
        assert z_minus(0.5) == 0.75
        assert z_minus(0.0) == 0.0
        assert z_minus(1.0) == 1.0
        assert z_plus(0.5) == 0.25
        assert z_plus(1.0) == 1.0
        assert z_plus(0.1) == pytest.approx(0.01, abs=1e-17)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @example(0.0)
    @example(1.0)
    @example(math.nextafter(1.0, 0.0))
    @example(5e-324)
    @example(2.2250738585072014e-308)
    def test_polarization_ordering(self, z):
        # with both maps non-decreasing (test_maps_are_monotone_on_windows),
        # this puts a node's best leaf at the end of its all-plus path and
        # its worst at the end of its all-minus path, so the pruned-tree scan
        # decides each node by comparing its z with per-level thresholds
        assert 0.0 <= z_plus(z) <= z <= z_minus(z) <= 1.0

    # Where the rounding of z*z and 2z - z*z changes: just below 1, at
    # sqrt(1/2) and the powers of two where the squares cross a binade,
    # where z*z leaves the normal range (2^-511) and the spacing below it
    # stops halving (sqrt(2^-1021)), where z*z rounds to 0 (2^-537.5), and
    # the subnormals themselves.
    EDGES = [1.0, math.sqrt(0.5), 0.5, 0.25, 2.0 ** -26, 2.0 ** -52, 2.0 ** -511,
             math.sqrt(2.0 ** -1021), 2.0 ** -537.5, 0.0]

    @pytest.mark.parametrize("edge", EDGES)
    def test_maps_are_monotone_on_windows(self, edge):
        # every pair of adjacent doubles in a window of 2^20 + 1 around the edge
        one = int(np.float64(1.0).view(np.int64))
        lo = min(max(int(np.float64(edge).view(np.int64)) - 2 ** 19, 0), one - 2 ** 20)
        z = np.arange(lo, lo + 2 ** 20 + 1, dtype=np.int64).view(np.float64)
        assert z[0] <= edge <= z[-1] <= 1.0
        assert (np.diff(z_plus(z)) >= 0.0).all()
        assert (np.diff(z_minus(z)) >= 0.0).all()

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(0.0)
    @example(math.nextafter(1.0, 0.0))
    @example(math.nextafter(math.sqrt(0.5), 0.0))
    def test_maps_are_monotone(self, z):
        up = math.nextafter(z, 2.0)
        assert z_plus(up) >= z_plus(z)
        assert z_minus(up) >= z_minus(z)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_stays_in_unit_interval(self, z):
        assert 0.0 <= z_plus(z) <= 1.0
        assert 0.0 <= z_minus(z) <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
    def test_polarize_is_both_transforms_interleaved(self, zs):
        # bit-exact against the scalar transforms, worse child first
        got = polarize(np.array(zs, dtype=float))
        assert got.tolist() == [y for z in zs for y in (z_minus(z), z_plus(z))]


class TestChannelInvariants:
    @pytest.mark.parametrize("kind,param", [
        (ChannelKind.BEC, 0.37), (ChannelKind.BSC, 0.11), (ChannelKind.BAWGNC, 0.9787),
        ("bec", 0.3), ("bsc", 0.2), ("bawgnc", 0.3),
    ])
    def test_stored_fields_consistent(self, kind, param):
        ch = BmsChannel(kind, param)
        assert abs(ch.capacity - capacity(kind, param)) <= 1e-9
        assert abs(ch.z0 - bhattacharyya(kind, param)) <= 1e-12
        assert ch.kind is ChannelKind(kind)
        assert ch == BmsChannel(ChannelKind(kind), param)

    @pytest.mark.parametrize("kind, param", [
        (ChannelKind.BEC, 0.3), (ChannelKind.BSC, 0.11), (ChannelKind.BAWGNC, 0.9787),
    ])
    def test_figures_are_the_channels_own(self, kind, param):
        # BmsChannel(BEC, 0.3, 0.5, 0.5) was accepted: its code had k=6 at n=6
        # where the channel's has 16, and load_code rejected its code file
        ch = BmsChannel(kind, param)
        assert ch.capacity == capacity(kind, param)
        assert ch.z0 == bhattacharyya(kind, param)
        with pytest.raises(TypeError):
            BmsChannel(kind, param, 0.5, 0.5)
        code = build_code(ch, 6, 1e-3)
        text = code_to_text(code)
        back = code_from_text(text)
        assert back.channel == ch and back.n == 6 and back.pe == 1e-3
        assert np.array_equal(back.frozen, code.frozen)
        assert code_to_text(back) == text

    def test_mu_lookup(self):
        assert SCALING_EXPONENT[ChannelKind.BEC] == 3.63
        assert SCALING_EXPONENT[ChannelKind.BSC] == 4.2
        assert SCALING_EXPONENT[ChannelKind.BAWGNC] == 4.0


class TestSampleLlrs:
    def test_deterministic_per_seed(self):
        ch = BmsChannel(ChannelKind.BAWGNC, 1.1)
        x = np.zeros(64, dtype=np.uint8)
        a = sample_llrs(ch, x, 42)
        b = sample_llrs(ch, x, 42)
        c = sample_llrs(ch, x, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bec_all_erased(self):
        ch = BmsChannel(ChannelKind.BEC, 1.0)
        llr = sample_llrs(ch, np.ones(32, dtype=np.uint8), 0)
        assert np.all(llr == 0.0)

    def test_bec_noiseless(self):
        ch = BmsChannel(ChannelKind.BEC, 0.0)
        llr = sample_llrs(ch, np.ones(16, dtype=np.uint8), 0)
        assert np.all(llr == -LLR_CAP)
        llr = sample_llrs(ch, np.zeros(16, dtype=np.uint8), 0)
        assert np.all(llr == LLR_CAP)

    def test_bsc_noiseless_saturates(self):
        ch = BmsChannel(ChannelKind.BSC, 0.0)
        llr = sample_llrs(ch, np.zeros(8, dtype=np.uint8), 0)
        assert np.all(llr == LLR_CAP)

    def test_bsc_magnitude(self):
        p = 0.2
        ch = BmsChannel(ChannelKind.BSC, p)
        llr = sample_llrs(ch, np.zeros(256, dtype=np.uint8), 5)
        assert set(np.round(np.abs(llr), 12)) == {round(math.log(0.8 / 0.2), 12)}
        assert bsc_llr_magnitude(0.0) == LLR_CAP

    def test_bawgnc_llr_scale(self):
        sigma = 0.8
        ch = BmsChannel(ChannelKind.BAWGNC, sigma)
        rng = np.random.default_rng(9)
        llr = sample_llrs(ch, np.zeros(20000, dtype=np.uint8), rng)
        # llr = 2y/sigma^2 with y ~ N(1, sigma^2): mean 2/sigma^2, sd 2/sigma
        assert llr.mean() == pytest.approx(2 / sigma ** 2, rel=0.05)
        assert llr.std() == pytest.approx(2 / sigma, rel=0.05)

    @pytest.mark.parametrize("sigma", [1e-170, 1e-160, 1e-155])
    def test_bawgnc_tiny_sigma_saturates_silently(self, sigma):
        # every y is exactly +-1 here; below sigma ~ 1.05e-154 each quotient
        # overflows to +-inf (sigma^2 is subnormal), and below ~ 1.5e-162
        # sigma^2 is 0 and it divides by 0: the clip gives +-LLR_CAP, with no
        # warning
        ch = BmsChannel(ChannelKind.BAWGNC, sigma)
        x = np.array([0, 1] * 32, dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            llr = sample_llrs(ch, x, 3)
        assert np.array_equal(llr, np.where(x == 0, LLR_CAP, -LLR_CAP))

    @pytest.mark.parametrize("sigma", [1e300, 1e307, 1e308])
    def test_bawgnc_huge_sigma_saturates_silently(self, sigma):
        # sigma^2 is inf, so every LLR is 2y / inf, the zero with y's sign; at
        # 1e308 noise*sigma or 2y overflow to +-inf, which divided gave NaN
        ch = BmsChannel(ChannelKind.BAWGNC, sigma)
        x = np.array([0, 1] * 512, dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            llr = sample_llrs(ch, x, 3)
        with np.errstate(over="ignore"):
            y = (1.0 - 2.0 * x) + sigma * np.random.default_rng(3).standard_normal(x.size)
        assert np.array_equal(llr.view(np.uint64), np.copysign(0.0, y).view(np.uint64))

    @pytest.mark.parametrize("kind, param", [
        (ChannelKind.BEC, 0.0), (ChannelKind.BEC, 0.3), (ChannelKind.BEC, 1.0),
        (ChannelKind.BSC, 0.0), (ChannelKind.BSC, 0.2), (ChannelKind.BSC, 0.5),
        (ChannelKind.BAWGNC, 0.8),
    ])
    def test_llrs_follow_the_draws(self, kind, param):
        # Each LLR by the documented formulas from the stream's own draws, bit
        # for bit, signed zeros included; the caller's codeword is not changed.
        ch = BmsChannel(kind, param)
        x = np.random.default_rng(1).integers(0, 2, 512, dtype=np.uint8)
        given = x.copy()
        llr = sample_llrs(ch, x, 4)
        rng = np.random.default_rng(4)
        if kind is ChannelKind.BAWGNC:
            y = (1.0 - 2.0 * x) + param * rng.standard_normal(x.size)
            expected = np.clip(2.0 * y / (param * param), -LLR_CAP, LLR_CAP)
        elif kind is ChannelKind.BEC:
            expected = np.where(rng.random(x.size) < param, 0.0,
                                np.where(x == 0, LLR_CAP, -LLR_CAP))
        else:
            mag = bsc_llr_magnitude(param)
            expected = np.where((rng.random(x.size) < param) ^ (x == 1), -mag, mag)
        assert np.array_equal(llr.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(x, given)

    @pytest.mark.parametrize("kind, param, dtype", [
        (ChannelKind.BEC, 0.0, np.float64), (ChannelKind.BEC, 0.3, np.float64),
        (ChannelKind.BEC, 1.0, np.float64),
        (ChannelKind.BSC, 0.0, np.float64), (ChannelKind.BSC, 0.2, np.float64),
        (ChannelKind.BSC, 0.5, np.float64),
        (ChannelKind.BAWGNC, 1e-170, np.float64), (ChannelKind.BAWGNC, 1e-155, np.float64),
        (ChannelKind.BAWGNC, 0.8, np.float64), (ChannelKind.BAWGNC, 1e308, np.float64),
    ])
    def test_llrs_in_place_equal_out_of_place(self, kind, param, dtype):
        # Monte Carlo batches map a frame-interleaved buffer a tile of rows at a
        # time, on the BAWGNC with out the noise itself: the same bits, signed
        # zeros included, as one call into a separate buffer
        ch = BmsChannel(kind, param)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, (96, 24), dtype=np.uint8)
        noise = _draw(ch, rng, np.empty(x.shape))
        if kind is not ChannelKind.BAWGNC:
            noise = _decide(ch, noise)
        expected = _llrs(ch, x.copy(), noise.copy(), np.empty(x.shape, dtype))
        got = noise if kind is ChannelKind.BAWGNC else np.empty(x.shape, dtype)
        for lo in range(0, x.shape[0], 40):
            tile = slice(lo, lo + 40)
            _llrs(ch, x[tile], noise[tile], got[tile])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_rejects_matrix_input(self):
        ch = BmsChannel(ChannelKind.BEC, 0.5)
        with pytest.raises(ValueError):
            sample_llrs(ch, np.zeros((2, 8), dtype=np.uint8), 0)

    @pytest.mark.parametrize("kind, param", [(ChannelKind.BEC, 0.5), (ChannelKind.BSC, 0.1),
                                             (ChannelKind.BAWGNC, 1.0)])
    @pytest.mark.parametrize("bad", [[0, 2, 1, 1], [0.5, 1, 0, 1], [-1, 0, 1, 0],
                                     [np.nan, 0, 0, 0]])
    def test_rejects_non_bits(self, kind, param, bad):
        with pytest.raises(ValueError, match="only 0 and 1"):
            sample_llrs(BmsChannel(kind, param), bad, 0)

    def test_bool_and_float_bits_accepted(self):
        ch = BmsChannel(ChannelKind.BEC, 0.0)
        for x in (np.array([False, True]), [0.0, 1.0]):
            assert list(sample_llrs(ch, x, 0)) == [LLR_CAP, -LLR_CAP]
