import hashlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sscpolar import (
    BmsChannel,
    ChannelKind,
    build_code,
    build_ssc_tree,
    channel_from_capacity,
    code_from_frozen,
    decoding_weight,
    encode,
    encode_message,
    polar_transform,
    sample_llrs,
    sc_decode,
    sc_decode_batch,
    sc_latency_tree,
    sc_schedule,
    sc_ssc_agreement,
    scan_ssc_tree,
    schedule_profile,
    ssc_decode,
    ssc_decode_batch,
    ssc_schedule,
)
from sscpolar.channel import LLR_CAP
from sscpolar.codec import (
    F,
    FROZEN_INFO,
    G,
    INFO_FROZEN,
    INFO_INFO,
    RATE0,
    RATE1,
    _BATCH_FRAME_BITS,
    _clamp,
    _decode,
    _execute,
    _f,
    _f_planes,
    _frame_batches,
    _g,
    _g_planes,
    _joined,
    _level1,
    _level1_planes,
    _rate1_divergence,
    _tie_frames,
    _trial_streams,
)

from conftest import (
    EXAMPLE8_FROZEN,
    batch_llrs,
    reference_planes,
    reference_sc,
    reference_sc_frames,
)

finite_llr = st.floats(min_value=-LLR_CAP, max_value=LLR_CAP,
                       allow_nan=False, allow_infinity=False)

# finite normal LLRs plus the values that make ties, signed zeros and
# subnormal products inside the kernels
edge_llr = st.one_of(
    st.floats(min_value=-LLR_CAP, max_value=LLR_CAP, allow_nan=False,
              allow_infinity=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, LLR_CAP, -LLR_CAP, 5e-324, -5e-324]),
)


def f_arm(a, b):
    """The executor's F on one frame whose node LLRs are [a, b]."""
    o, t = np.empty((1, 1)), np.empty((1, 1))
    with np.errstate(divide="ignore"):
        _f(np.array([[a], [b]]), o, t)
    return o[0, 0]


def g_arm(a, b, c_bit):
    """The executor's G, clamped: a + (1-2c)*b for right input a, left input b, left bit c."""
    o = np.empty((1, 1))
    _g(np.array([[b], [a]]), np.array([[c_bit]], dtype=bool), o)
    _clamp(o)
    return o[0, 0]


class TestFKernel:
    """The executor's F arm, one element at a time."""

    def test_zero_annihilates(self):
        assert f_arm(0.0, 5.0) == 0.0

    def test_saturated_input_passes_through(self):
        for x in (-7.0, -1.5, 0.25, 3.0):
            assert f_arm(LLR_CAP, x) == pytest.approx(x, abs=1e-6)

    def test_direct_evaluation(self):
        # 2*atanh(tanh(1)^2)
        assert f_arm(2.0, 2.0) == pytest.approx(1.3250027473578643, abs=1e-12)

    def test_saturates_instead_of_overflowing(self):
        assert f_arm(LLR_CAP, LLR_CAP) == LLR_CAP
        assert f_arm(-LLR_CAP, LLR_CAP) == -LLR_CAP
        # the clamp alone: signed zeros, the smallest subnormal and NaN pass
        # through, and infinities and magnitudes past the cap saturate
        tiny = 5e-324
        o = np.array([0.0, -0.0, tiny, -tiny, 301.0, -301.0, np.inf, -np.inf, np.nan])
        _clamp(o)
        expected = np.array([0.0, -0.0, tiny, -tiny, LLR_CAP, -LLR_CAP, LLR_CAP, -LLR_CAP, np.nan])
        assert o.tobytes() == expected.tobytes()

    @given(finite_llr, finite_llr)
    def test_symmetry(self, a, b):
        assert f_arm(a, b) == f_arm(b, a)

    @given(finite_llr, finite_llr)
    def test_sign_rule(self, a, b):
        out = f_arm(a, b)
        if a != 0 and b != 0:
            # sign(f) = sign(a) * sign(b) unless the product underflows to 0
            assert (out > 0) == ((a > 0) == (b > 0)) or out == 0
        else:
            assert out == 0

    # atanh(tanh(x)) loses the magnitude contraction once tanh rounds to 1,
    # so the |f| <= min property is asserted below saturation only
    moderate_llr = st.floats(min_value=-18.0, max_value=18.0,
                             allow_nan=False, allow_infinity=False)

    @given(moderate_llr, moderate_llr)
    def test_magnitude_contraction(self, a, b):
        assert abs(f_arm(a, b)) <= min(abs(a), abs(b)) + 1e-6

    # saturation, signed zeros, the smallest subnormal, and LLRs near where
    # tanh(x/2) rounds to +-1, about 38
    tile_llr = st.one_of(
        finite_llr,
        st.sampled_from([0.0, -0.0, LLR_CAP, -LLR_CAP, 5e-324, -5e-324]),
        st.floats(min_value=37.5, max_value=38.7), st.floats(min_value=-38.7, max_value=-37.5),
    )

    @settings(max_examples=80, deadline=None)
    @given(h=st.integers(1, 12), frames=st.integers(1, 5), data=st.data())
    def test_short_scratch_gives_the_same_bits(self, h, frames, data):
        # the executor lends F a level buffer of half its output's rows, so
        # F runs one tile of the scratch's height at a time
        values = data.draw(st.lists(self.tile_llr, min_size=2 * h * frames,
                                    max_size=2 * h * frames))
        a = np.array(values).reshape(2 * h, frames)
        expected = np.empty((h, frames))
        with np.errstate(divide="ignore"):
            _f(a, expected, np.empty((h, frames)))
            for rows in {1, 3, h // 2, h} & set(range(1, h + 1)):
                o = np.full((h, frames), np.nan)
                _f(a, o, np.empty((rows, frames)))
                assert o.tobytes() == expected.tobytes(), rows


# the BEC's LLRs: every value that F and G give from the channel's
ERASURE_LLRS = np.array([-LLR_CAP, -0.0, 0.0, LLR_CAP])


def f_block(a):
    """The executor's F on LLRs of the (2h, frames) block a, as an (h, frames) array."""
    o, t = np.empty((a.shape[0] // 2, a.shape[1])), np.empty((a.shape[0] // 2, a.shape[1]))
    with np.errstate(divide="ignore"):
        _f(a, o, t)
    return o


def plane_bits(p, frames):
    """(erased, negative): planes (2, rows, W) unpacked to two (rows, frames) bool arrays."""
    u = np.unpackbits(p, axis=-1, count=frames).view(bool)
    return u[0], u[1] & ~u[0]


def assert_planes_hold(p, llr):
    """The planes p are the LLRs llr: erased where llr is +-0, negative where llr < 0."""
    erased, negative = plane_bits(p, llr.shape[1])
    assert np.array_equal(erased, llr == 0) and np.array_equal(negative, llr < 0)


def as_planes(a, erased_signs=0):
    """The planes of the LLR block a, with the sign bits of its erased LLRs,
    which no kernel reads, set where the packed erased_signs has ones."""
    p = reference_planes(a)
    p[1] |= p[0] & erased_signs
    return p


def plane_f_g(p, c):
    """The planes' F and G of the planes p of 2h rows, c the (h, frames) left bits."""
    f = np.empty((2, p.shape[1] // 2, p.shape[2]), np.uint8)
    g = np.empty_like(f)
    _f_planes(p, f, None)
    _g_planes(p, np.packbits(c, axis=-1), g, np.empty_like(f[0]))
    return f, g


def g_block(a, c):
    """The executor's G on LLRs, clamped, of the block a and the left bits c."""
    o = np.empty(c.shape)
    _g(a, c, o)
    _clamp(o)
    return o


class TestPlaneKernels:
    """On the BEC's LLRs the planes' kernels are _f's and _g's, clamped, and
    the level-1 ops decide as on LLRs, whatever an erased LLR's sign bit."""

    @pytest.mark.parametrize("erased_signs", [0, 255])
    def test_every_case(self, erased_signs):
        # {+-LLR_CAP, +-0}^2 x {c = 0, 1}: _f and _g stay in the set, both
        # signs of zero come out, and the planes hold each result
        a = np.tile(np.array(list(itertools.product(ERASURE_LLRS, repeat=2))).T, 2)  # (2, 32)
        c = np.repeat([False, True], 16)[None]
        f, g = f_block(a), g_block(a, c)
        for out in (f, g):
            assert {str(x) for x in out[0]} == {"-300.0", "-0.0", "0.0", "300.0"}
        f_planes, g_planes = plane_f_g(as_planes(a, erased_signs), c)
        assert_planes_hold(f_planes, f)
        assert_planes_hold(g_planes, g)

    @settings(max_examples=50, deadline=None)
    @given(log_h=st.integers(min_value=0, max_value=7),
           frames=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_blocks(self, log_h, frames, seed):
        # frames that are not a multiple of 8 leave padding bits in each row
        rng = np.random.default_rng(seed)
        a = ERASURE_LLRS[rng.integers(0, 4, (2 << log_h, frames))]
        c = rng.random((1 << log_h, frames)) < 0.5
        p = as_planes(a, rng.integers(0, 256, (2 << log_h, -(-frames // 8)), dtype=np.uint8))
        f_planes, g_planes = plane_f_g(p, c)
        assert_planes_hold(f_planes, f_block(a))
        assert_planes_hold(g_planes, g_block(a, c))

    @pytest.mark.parametrize("erased_signs", [0, 255])
    @pytest.mark.parametrize("op", [FROZEN_INFO, INFO_FROZEN, INFO_INFO])
    def test_level1_ops_on_every_case(self, op, erased_signs):
        a = np.array(list(itertools.product(ERASURE_LLRS, repeat=2))).T  # (2, 16)
        b, t = np.zeros((2, 16), bool), np.empty((2, 16))
        _level1(op, a, b, t)
        p = as_planes(a, erased_signs)
        bits = np.zeros((2, 2), np.uint8)
        _level1_planes(op, p, bits, np.empty_like(p))
        assert np.array_equal(np.unpackbits(bits, axis=-1).view(bool), b)


class TestGKernel:
    """The executor's G arm, one element at a time."""

    def test_known_bit_zero_adds(self):
        assert g_arm(1.0, 2.0, 0) == 3.0

    def test_known_bit_one_subtracts(self):
        assert g_arm(1.0, 2.0, 1) == -1.0

    def test_zeros(self):
        assert g_arm(0.0, 0.0, 1) == 0.0

    small_llr = st.floats(min_value=-90.0, max_value=90.0,
                          allow_nan=False, allow_infinity=False)

    @given(small_llr, small_llr, small_llr, st.integers(0, 1))
    def test_linear_in_first_argument(self, a1, a2, b, c):
        # away from saturation g is affine in its first argument
        lhs = g_arm(a1 + a2, b, c)
        rhs = g_arm(a1, b, c) + g_arm(a2, b, c) - g_arm(0.0, b, c)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestTransformAndEncode:
    def test_two_bit_example(self):
        assert list(polar_transform(np.array([0, 1], dtype=np.uint8))) == [1, 1]

    def test_all_zero(self):
        assert not polar_transform(np.zeros(8, dtype=np.uint8)).any()

    def test_four_bit_example(self):
        got = polar_transform(np.array([0, 0, 0, 1], dtype=np.uint8))
        assert list(got) == [1, 1, 1, 1]

    def test_involution(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, 64, dtype=np.uint8)
        assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_rejects_non_power_of_two(self, example8_code):
        with pytest.raises(ValueError):
            polar_transform(np.zeros(6, dtype=np.uint8))
        # a 0-d array has no length at all
        for call in (polar_transform, lambda u: encode(example8_code, u),
                     lambda u: encode_message(example8_code, u)):
            with pytest.raises(ValueError, match="axis"):
                call(np.uint8(0))

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_matches_matrix_product(self, n):
        # rows of a stacked, non-contiguous input against u @ F^(kron n) mod 2
        kernel = np.array([[1, 0], [1, 1]], dtype=np.int64)
        gen = np.ones((1, 1), dtype=np.int64)
        for _ in range(n):
            gen = np.kron(gen, kernel)
        u = np.random.default_rng(n).integers(0, 2, (2, 3, 2 ** n), dtype=np.uint8)
        u = u.transpose(1, 0, 2)
        assert np.array_equal(polar_transform(u), (u.astype(np.int64) @ gen) % 2)

    def test_encode_checks_frozen_zeros(self, example8_code):
        u = np.ones(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            encode(example8_code, u)
        with pytest.raises(ValueError, match=r"^input length 4 != N=8$"):
            encode(example8_code, np.zeros(4, dtype=np.uint8))

    def test_encode_message_places_info_bits(self, example8_code):
        x = encode_message(example8_code, np.array([1, 0, 1, 1], dtype=np.uint8))
        u = polar_transform(x)  # invert
        assert list(u[~example8_code.frozen]) == [1, 0, 1, 1]
        assert not u[example8_code.frozen].any()
        assert np.array_equal(encode(example8_code, u), x)
        with pytest.raises(ValueError, match=r"^message length 3 != k=4$"):
            encode_message(example8_code, np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [[1.7, -3, 2, 0], [0, 1, 2, 0], [0, 0.5, 1, 1],
                                     [np.nan, 0, 0, 0], [-1, 0, 0, 0]])
    def test_transform_rejects_non_bits(self, bad):
        with pytest.raises(ValueError):
            polar_transform(bad)

    def test_bool_and_integer_bits_accepted(self):
        assert list(polar_transform(np.array([False, True]))) == [1, 1]
        assert list(polar_transform([0.0, 1.0])) == [1, 1]

    @pytest.mark.parametrize("bad", [2, 255, 0.5, -1])
    def test_encoders_reject_non_bits(self, example8_code, bad):
        message = [1, bad, 0, 1]
        with pytest.raises(ValueError):
            encode_message(example8_code, message)
        u = np.zeros(8)
        u[~example8_code.frozen] = message
        with pytest.raises(ValueError):
            encode(example8_code, u)


class TestScDecode:
    def test_noiseless_identity_exhaustive(self):
        # every message of every small low-rate code decodes exactly
        for eps, n, pe in [(0.5, 3, 0.5), (0.5, 4, 1e-2), (0.5, 6, 1e-3), (0.3, 5, 1e-2)]:
            code = build_code(BmsChannel(ChannelKind.BEC, eps), n, pe)
            if code.k > 10:
                continue
            for bits in itertools.product((0, 1), repeat=code.k):
                msg = np.array(bits, dtype=np.uint8)
                x = encode_message(code, msg)
                llr = np.where(x == 0, LLR_CAP, -LLR_CAP).astype(float)
                u_hat = sc_decode(code, llr)
                assert list(u_hat[~code.frozen]) == list(msg)
                assert not u_hat[code.frozen].any()

    def test_all_frozen_code_decodes_zero(self):
        code = build_code(BmsChannel(ChannelKind.BEC, 1.0), 4, 0.5)
        rng = np.random.default_rng(3)
        llr = rng.normal(size=16)
        assert not sc_decode(code, llr).any()

    def test_against_reference_example8(self, bec_half, example8_code):
        llr = sample_llrs(bec_half, np.zeros(8, dtype=np.uint8), 7)
        assert np.array_equal(sc_decode(example8_code, llr),
                              reference_sc(llr, EXAMPLE8_FROZEN))

    @pytest.mark.parametrize("seed", range(8))
    def test_against_reference_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        mask = rng.random(2 ** n) < rng.random()
        code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
        llr = rng.normal(scale=3.0, size=2 ** n)
        llr[rng.random(2 ** n) < 0.2] = 0.0  # erased positions
        assert np.array_equal(sc_decode(code, llr), reference_sc(llr, mask))

    def test_batch_matches_single(self, bec_half):
        code = build_code(bec_half, 6, 1e-2)
        rng = np.random.default_rng(5)
        llrs = rng.normal(size=(32, 64))
        batch = sc_decode_batch(code, llrs)
        for i in range(32):
            assert np.array_equal(batch[i], sc_decode(code, llrs[i]))

    def test_frame_length_checked(self, example8_code):
        with pytest.raises(ValueError):
            sc_decode(example8_code, np.zeros(4))

    @pytest.mark.parametrize("decode", [sc_decode_batch, ssc_decode_batch])
    def test_three_dimensional_llrs_rejected(self, example8_code, decode):
        with pytest.raises(ValueError, match="matrix"):
            decode(example8_code, np.ones((2, 8, 8)))

    @pytest.mark.parametrize("decode", [sc_decode_batch, ssc_decode_batch])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llrs_rejected(self, example8_code, decode, bad):
        llrs = np.ones((2, 8))
        llrs[1, 5] = bad
        with pytest.raises(ValueError):
            decode(example8_code, llrs)


class TestSscEquivalence:
    def test_all_frozen_is_single_pruned_node(self):
        code = build_code(BmsChannel(ChannelKind.BEC, 1.0), 4, 0.5)
        tree = build_ssc_tree(code)
        assert tree.node_count() == 1
        llr = np.random.default_rng(0).normal(size=16)
        assert not ssc_decode(code, llr, tree).any()

    def test_tree_of_other_length_rejected(self, example8_code):
        # a single Rate-1 root would hard-decide every bit, frozen ones too
        tree = build_ssc_tree(build_code(BmsChannel(ChannelKind.BSC, 0.0), 4, 0.5))
        with pytest.raises(ValueError):
            ssc_decode_batch(example8_code, np.ones((1, 8)), tree)

    def test_tree_of_other_code_rejected(self):
        # a scanned tree of the same length but another code would set some
        # of this code's frozen bits: 1 of these 50 frames then differs from SC
        channel = BmsChannel(ChannelKind.BAWGNC, 0.8)
        code = build_code(channel, 6, 1e-2)
        llrs = np.random.default_rng(0).normal(1.0, 1.0, size=(50, 64))
        with pytest.raises(ValueError, match="tree"):
            ssc_decode_batch(code, llrs, scan_ssc_tree(channel, 6, 0.4))
        same = scan_ssc_tree(channel, 6, 1e-2)
        assert np.array_equal(ssc_decode_batch(code, llrs, same), sc_decode_batch(code, llrs))

    @pytest.mark.parametrize("kind,param", [
        (ChannelKind.BEC, 0.5),
        (ChannelKind.BSC, 0.11),
        (ChannelKind.BAWGNC, 0.9787),
    ])
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_matches_sc_on_random_trials(self, kind, param, n):
        channel = BmsChannel(kind, param)
        code = build_code(channel, n, 1e-3)
        agree, trials, _ = sc_ssc_agreement(code, channel, 300, seed=17)
        assert agree == trials

    def test_matches_sc_on_erasure_heavy_frames(self, bec_half):
        # exact zeros force the one-shot nodes through the sequential path
        code = build_code(bec_half, 10, 1e-3)
        rng = np.random.default_rng(23)
        llrs = rng.choice([-LLR_CAP, -1.0, 0.0, 0.0, 1.0, LLR_CAP], size=(400, 1024))
        assert np.array_equal(sc_decode_batch(code, llrs), ssc_decode_batch(code, llrs))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-LLR_CAP, -2.0, -1.0, 0.0, 1.0, 2.0, LLR_CAP]),
                    min_size=16, max_size=16))
    def test_matches_sc_and_reference_on_adversarial_llrs(self, values):
        code = build_code(BmsChannel(ChannelKind.BEC, 0.5), 4, 1e-2)
        llr = np.array(values, dtype=float)
        u_sc = sc_decode(code, llr)
        assert np.array_equal(u_sc, ssc_decode(code, llr))
        assert np.array_equal(u_sc, reference_sc(llr, code.frozen))

    def test_tie_from_underflow_inside_pure_information_node(self):
        # no input is 0, but an F output on the leftmost path underflows to 0,
        # so SC meets a tie that the one-shot decision never sees
        bsc = BmsChannel(ChannelKind.BSC, 0.11)
        llr = np.array([1.0, -5e-324])
        assert list(reference_sc(llr, [False, False])) == [0, 0]
        assert list(ssc_decode(code_from_frozen(bsc, np.zeros(2, bool), 1e-2), llr)) == [0, 0]
        code = code_from_frozen(bsc, np.zeros(1024, bool), 1e-2)
        llrs = np.random.default_rng(0).normal(1.0, 1.0, size=(8, 1024))
        assert np.array_equal(ssc_decode_batch(code, llrs), sc_decode_batch(code, llrs))

    def test_agreement_through_underflow_ties(self):
        # most of these frames underflow to a tie inside the Rate-1 root, so
        # the shared pass must give SSC SC's bits there, as SSC alone does
        noisy = channel_from_capacity(ChannelKind.BAWGNC, 0.2)
        code = code_from_frozen(noisy, np.zeros(1024, bool), 1e-2)
        errors = 0
        for msg, llr in _frame_batches(code, noisy, 8, 5, 1024):
            u_ssc = ssc_decode_batch(code, llr.T)  # SSC alone
            errors += int((u_ssc[:, ~code.frozen] != msg.T).any(axis=1).sum())
        assert sc_ssc_agreement(code, noisy, 8, 5) == (8, 8, errors / 8)

    @pytest.mark.parametrize("kind, n, trials, worse, digest", [
        (ChannelKind.BEC, 10, 32, 0.27,
         "1adff36c9336e0e7fe10e649c631eeac80b1d83dd7c5c5d588afd53a64860bb4"),
        (ChannelKind.BSC, 10, 32, 0.2,
         "1851373a82619e3e464fe7dd4e844bf398e47be86f071e18233270da7d89bc02"),
        (ChannelKind.BAWGNC, 10, 32, 0.28,
         "24358cfcdf5c3f9c835fd3df0ab3cccaff72132dab8f0673b60854d2bb80ed48"),
        (ChannelKind.BEC, 12, 32, 0.27,
         "5dd1c4fd60c581351577c7aac58ac4ab1c0fa0a6493491707bfb80f72a8e32b6"),
        (ChannelKind.BSC, 12, 32, 0.2,
         "5e301b7858bcdf8aeeb2c92106a7b9245f267aff1ca389bf7378e7d0d2a31eec"),
        (ChannelKind.BAWGNC, 12, 32, 0.28,
         "1c38bf9e39e17c478cf36ca4c18b31e89871cc7f074124081579e9eb32e9ee6f"),
        (ChannelKind.BAWGNC, 14, 16, 0.28,
         "3eb00e0bd464eae6f2ff5eb5c0e6c14dc2dbe1e950994ffdc494589cddf8ed14"),
    ], ids=["bec-n10", "bsc-n10", "bawgnc-n10", "bec-n12", "bsc-n12", "bawgnc-n12",
            "bawgnc-n14"])
    def test_decoders_equal_the_reference_at_tool_sizes(self, kind, n, trials, worse, digest):
        # The code is built at I = 0.5, pe = 1e-3 and its frames come from a
        # worse channel, so 4 to 32 frames a case are decoded wrong, and
        # Rate-1 nodes meet ties: 1 210 node-frames at BEC n=12, 6 at BSC
        # n=12.  sc_ssc_agreement decodes BEC frames on bit-planes; its error
        # rate must be the reference's on the frames' float64 LLRs.
        code = build_code(channel_from_capacity(kind, 0.5), n, 1e-3)
        channel = channel_from_capacity(kind, worse)
        h, errors = hashlib.sha256(), 0
        for msg, llr in _frame_batches(code, channel, trials, 7, 1024):
            frames = batch_llrs(llr, msg.shape[1]).T
            u = reference_sc_frames(frames, code.frozen)
            assert np.array_equal(sc_decode_batch(code, frames), u)
            assert np.array_equal(ssc_decode_batch(code, frames), u)
            errors += int((u[:, ~code.frozen] != msg.T).any(axis=1).sum())
            h.update(u.tobytes())
        assert h.hexdigest() == digest
        assert errors > 0
        assert sc_ssc_agreement(code, channel, trials, 7) == (trials, trials, errors / trials)

    def test_tie_in_pure_information_node(self):
        # size-2 all-information code with an erased first input: the one-shot
        # hard decision alone would disagree with sequential decoding here
        code = code_from_frozen(BmsChannel(ChannelKind.BEC, 0.5),
                                np.array([False, False]), 1e-2)
        llr = np.array([0.0, -3.0])
        u_sc = sc_decode(code, llr)
        assert np.array_equal(u_sc, ssc_decode(code, llr))
        assert list(u_sc) == [0, 1]


class TestSchedule:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=2 ** n, max_size=2 ** n),
        st.lists(st.lists(edge_llr, min_size=2 ** n, max_size=2 ** n),
                 min_size=1, max_size=3))))
    def test_both_decoders_equal_reference(self, case):
        mask, frames = np.array(case[0]), np.array(case[1], dtype=float)
        code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
        expected = np.array([reference_sc(llr, mask) for llr in frames])
        assert np.array_equal(reference_sc_frames(frames, mask), expected)
        assert np.array_equal(sc_decode_batch(code, frames), expected)
        assert np.array_equal(ssc_decode_batch(code, frames), expected)

    def test_tie_from_cancellation_in_g(self):
        # leaf 3's G adds two F outputs of nearly equal magnitude and opposite
        # sign: rounded as math.tanh and math.atanh round they cancel to an
        # exact 0, which decides bit 0, and as numpy's round they leave a
        # negative LLR, so bit 3 depends on the elementary functions' last bit
        mask = np.zeros(16, dtype=bool)
        mask[2] = True
        llr = np.array([0.0, -36, -36, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 37, -36, 0])
        code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
        expected = reference_sc(llr, mask)
        assert np.array_equal(sc_decode(code, llr), expected)
        assert np.array_equal(ssc_decode(code, llr), expected)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(ChannelKind)),
           cap=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
           log_pe=st.floats(min_value=-12.0, max_value=-0.5),
           n=st.integers(min_value=1, max_value=12))
    def test_ssc_op_count_is_edge_profile(self, kind, cap, log_pe, n):
        # the latency model charges exactly the F and G ops the decoder runs
        code = build_code(channel_from_capacity(kind, cap), n, 10.0 ** log_pe)
        tree = build_ssc_tree(code)
        assert schedule_profile(ssc_schedule(tree), n) == tree.edge_profile()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(ChannelKind)),
           cap=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
           log_pe=st.floats(min_value=-12.0, max_value=-0.5),
           n=st.integers(min_value=1, max_value=12))
    def test_sc_schedule_is_ssc_with_rate1_nodes_expanded(self, kind, cap, log_pe, n):
        # sc_ssc_agreement's shared pass rests on this: outside its Rate-1
        # nodes SSC runs SC's ops, so both compute the same LLRs there.  At
        # s = 1 the expansion is the one INFO_INFO op.
        code = build_code(channel_from_capacity(kind, cap), n, 10.0 ** log_pe)
        expanded = []
        for op, s, lo in ssc_schedule(build_ssc_tree(code)):
            if op == RATE1:
                expanded += [(o, t, lo + x) for o, t, x in sc_schedule(np.zeros(2 ** s, bool))]
            else:
                expanded.append((op, s, lo))
        assert list(sc_schedule(code.frozen)) == expanded

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sc_op_count_is_full_tree(self, n):
        # SC's ops plus the inner edges of each all-frozen subtree a RATE0 op
        # skips are the full tree; its ops alone are the Rate-0-pruned tree
        mask = np.random.default_rng(n).random(2 ** n) < 0.5
        ops = list(sc_schedule(mask))
        executed = schedule_profile(ops, n)
        # level s holds both children of each level-(s+1) node with an information leaf
        assert executed == [2 * int((~mask).reshape(-1, 2 ** (s + 1)).any(axis=1).sum())
                            for s in range(n)]
        profile = list(executed)
        for op, s, _lo in ops:
            if op == RATE0:
                for j in range(s):
                    profile[j] += 2 ** (s - j)
        assert profile == [2 ** (n - s) for s in range(n)]
        for P in (1, 3, 2 ** (n - 1)):
            assert (sum(c * decoding_weight(s, P) for s, c in enumerate(profile))
                    == sc_latency_tree(n, P))

    def test_profile_rejects_a_schedule_taller_than_n(self):
        # every node of this height-6 schedule is MIXED: its first op is F into level 5
        ops = list(sc_schedule(np.arange(64) % 2 == 0))
        assert schedule_profile(ops, 6) == [2 ** (6 - s) for s in range(6)]
        with pytest.raises(ValueError, match=r"^op \(0, 6, 0\) has an edge into level 5, "
                                             r"outside levels 0\.\.2 of a tree with n=3$"):
            schedule_profile(ops, 3)
        # a RATE0 op at level n would be an edge into the root
        with pytest.raises(ValueError, match=r"edge into level 3, outside levels 0\.\.2"):
            schedule_profile([(RATE0, 3, 0)], 3)
        for n, message in ((-1, "n must be >= 1, got -1"), (0, "n must be >= 1, got 0"),
                           (6.0, "n must be an integer")):
            with pytest.raises(ValueError, match=message):
                schedule_profile(ops, n)

    @pytest.mark.parametrize("shape", [(0,), (6,), (2, 4), (1,)])
    def test_sc_schedule_rejects_bad_masks(self, shape):
        with pytest.raises(ValueError):
            sc_schedule(np.zeros(shape, dtype=bool))

    def test_pure_roots(self):
        # a Rate-0 root compiles to nothing, a Rate-1 root to one decision
        assert list(sc_schedule(np.ones(8, bool))) == []
        bec = BmsChannel(ChannelKind.BEC, 0.5)
        assert list(ssc_schedule(build_ssc_tree(code_from_frozen(bec, np.ones(8, bool), 1e-2)))) \
            == []
        assert list(ssc_schedule(build_ssc_tree(code_from_frozen(bec, np.zeros(8, bool), 1e-2)))) \
            == [(RATE1, 3, 0)]

    # signed zeros, the smallest subnormal (halving it gives 0), values whose
    # tanh product underflows, and saturation
    GRID_LLRS = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1.0, -1.0, LLR_CAP, -LLR_CAP]

    @pytest.mark.parametrize("mask", [pytest.param(mask, id="frozen=" + "".join(map(str, mask)))
                                      for N in (2, 4)
                                      for mask in itertools.product((0, 1), repeat=N)])
    def test_small_codes_equal_reference_on_edge_llr_grid(self, mask):
        # every ordered pair (p, q): as the whole frame at N = 2, and at N = 4
        # in four placements, the last passing (p, q) through F to level 1
        pairs = list(itertools.product(self.GRID_LLRS, repeat=2))
        if len(mask) == 2:
            frames = np.array(pairs)
        else:
            frames = np.array([frame for p, q in pairs for frame in (
                [p, q, p, q], [p, q, q, p], [p, p, q, q], [p, q, LLR_CAP, LLR_CAP])])
        mask = np.array(mask, dtype=bool)
        code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
        expected = np.array([reference_sc(llr, mask) for llr in frames])
        assert np.array_equal(sc_decode_batch(code, frames), expected)
        assert np.array_equal(ssc_decode_batch(code, frames), expected)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(ChannelKind)),
           cap=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
           log_pe=st.floats(min_value=-12.0, max_value=-0.5),
           n=st.integers(min_value=1, max_value=10))
    def test_no_llrs_for_frozen_nodes(self, kind, cap, log_pe, n):
        code = build_code(channel_from_capacity(kind, cap), n, 10.0 ** log_pe)
        info = ~code.frozen
        ops = list(sc_schedule(code.frozen))
        for schedule in (ssc_schedule(build_ssc_tree(code)), ops):
            for op, s, lo in schedule:
                assert s >= 1
                h = 1 << (s - 1)
                if op == F:
                    assert info[lo:lo + h].any()
                elif op == G:
                    assert info[lo + h:lo + 2 * h].any()
        # one op per level-1 node with an information leaf, coded by its
        # (left, right) leaf kinds
        assert [(op, lo) for op, s, lo in ops if s == 1 and op != RATE0] \
            == [(RATE0 + 2 * info[lo] + info[lo + 1], lo) for lo in range(0, code.N, 2)
                if info[lo] or info[lo + 1]]

    def test_level1_codes_on_all_four_leaf_pairs(self):
        frozen = np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=bool)
        assert [(op, lo) for op, s, lo in sc_schedule(frozen) if s == 1] \
            == [(RATE0, 0), (FROZEN_INFO, 2), (INFO_FROZEN, 4), (INFO_INFO, 6)]


class TestMonteCarlo:
    def test_deterministic_per_seed(self, bec_half):
        code = build_code(bec_half, 6, 1e-2)
        a = sc_ssc_agreement(code, bec_half, 500, seed=91)[2]
        b = sc_ssc_agreement(code, bec_half, 500, seed=91)[2]
        assert a == b

    def test_noiseless_channel_never_errs(self, bec_half):
        code = build_code(bec_half, 6, 1e-2)
        clean = BmsChannel(ChannelKind.BEC, 0.0)
        assert sc_ssc_agreement(code, clean, 300, seed=1)[2] == 0.0

    def test_all_frozen_never_errs(self):
        channel = BmsChannel(ChannelKind.BEC, 1.0)
        code = build_code(channel, 5, 0.5)
        assert sc_ssc_agreement(code, channel, 300, seed=2)[2] == 0.0

    def test_trials_validated(self, bec_half):
        code = build_code(bec_half, 4, 1e-2)
        # a boolean is not an integer, whether Python's (True == 1) or numpy's
        for trials in (0, 2.5, True, np.True_):
            with pytest.raises(ValueError, match="trials"):
                sc_ssc_agreement(code, bec_half, trials, seed=0)
        for batch in (0, -3, 2.5, True, np.True_):
            with pytest.raises(ValueError, match="batch"):
                sc_ssc_agreement(code, bec_half, 10, seed=0, batch=batch)
        for seed in (-1, 7.0, None, False, np.False_):
            with pytest.raises(ValueError, match="seed"):
                sc_ssc_agreement(code, bec_half, 10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 128 - 1, 2 ** 128,
                                      2 ** 200 + 17])
    @pytest.mark.parametrize("trials", [1, 5, 300])
    def test_streams_are_the_spawned_streams(self, seed, trials):
        # seeds of 1, 2, 4, 5 and 7 words: above 4, SeedSequence mixes the
        # seed's later words into its pool before the child's index
        streams = _trial_streams(seed, trials)
        assert len(streams) == trials
        for rng, child in zip(streams, np.random.SeedSequence(seed).spawn(trials)):
            expected = np.random.default_rng(child).bit_generator.random_raw(3)
            assert np.array_equal(rng.bit_generator.random_raw(3), expected)

    @pytest.mark.parametrize("k", [0, 1, 4, 7, 9, 12, 31, 33])
    def test_message_bits_are_integers_draws(self, k):
        # k = 0 draws no raw word; an odd count of 32-bit halves leaves one
        # buffered in the per-frame path, which its noise draws never read
        channel = BmsChannel(ChannelKind.BSC, 0.2)
        code = code_from_frozen(channel, np.arange(64) < 64 - k, 1e-2)
        assert code.k == k
        seed, trials = 2 ** 130 + 5, 9
        frames = [(msg[:, j].copy(), llr[:, j].copy())
                  for msg, llr in _frame_batches(code, channel, trials, seed, 4)
                  for j in range(llr.shape[1])]
        for (msg, llr), child in zip(frames, np.random.SeedSequence(seed).spawn(trials)):
            rng = np.random.default_rng(child)
            bits = rng.integers(0, 2, k, dtype=np.uint8)
            expected = sample_llrs(channel, encode_message(code, bits), rng)
            assert msg.dtype == np.uint8 and np.array_equal(msg, bits)
            assert np.array_equal(llr, expected)

    def test_batch_boundary_does_not_change_result(self, bec_half):
        code = build_code(bec_half, 5, 1e-2)
        a = sc_ssc_agreement(code, bec_half, 333, seed=7, batch=10)[2]
        b = sc_ssc_agreement(code, bec_half, 333, seed=7, batch=1024)[2]
        assert a == b

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from([ChannelKind.BEC, ChannelKind.BAWGNC]),
           cap=st.sampled_from((0.3, 0.5, 0.7)),
           n=st.integers(min_value=1, max_value=8),
           trials=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_results_do_not_depend_on_batch_size(self, kind, cap, n, trials, seed):
        channel = channel_from_capacity(kind, cap)
        code = build_code(channel, n, 1e-3)
        results = [sc_ssc_agreement(code, channel, trials, seed, batch=b) for b in (1, 7, 1024)]
        assert results[0] == results[1] == results[2]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(list(ChannelKind)),
           cap=st.floats(min_value=0.01, max_value=0.99),
           n=st.integers(min_value=1, max_value=10),
           batch=st.sampled_from((1, 7, 1024)),
           trials=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(kind=ChannelKind.BAWGNC, cap=0.5, n=6, batch=1024, trials=1, seed=3)
    @example(kind=ChannelKind.BSC, cap=0.5, n=5, batch=7, trials=33, seed=4)
    def test_frames_equal_the_per_frame_path(self, kind, cap, n, batch, trials, seed):
        # Frame j is what trial j's stream gives through the public calls:
        # its message bits, then sample_llrs of their codeword.
        channel = channel_from_capacity(kind, cap)
        code = build_code(channel, n, 1e-3)
        streams = iter(np.random.SeedSequence(seed).spawn(trials))
        count = 0
        for msg, llr in _frame_batches(code, channel, trials, seed, batch):
            expected = []
            for j in range(msg.shape[1]):
                rng = np.random.default_rng(next(streams))
                bits = rng.integers(0, 2, code.k, dtype=np.uint8)
                u = np.zeros(code.N, dtype=np.uint8)
                u[~code.frozen] = bits
                expected.append(sample_llrs(channel, polar_transform(u), rng))
                assert np.array_equal(msg[:, j], bits)
            assert_batch_holds(llr, np.array(expected).T)
            count += msg.shape[1]
        assert count == trials

    @pytest.mark.parametrize("kind, param", [
        (ChannelKind.BEC, 0.0), (ChannelKind.BEC, 1.0),
        (ChannelKind.BSC, 0.0), (ChannelKind.BSC, 0.5),
    ])
    @pytest.mark.parametrize("n, batch, trials", [(1, 1024, 1), (5, 7, 40), (8, 1024, 37)])
    def test_edge_channel_frames_equal_the_per_frame_path(self, kind, param, n, batch, trials):
        # Channels that capacities in (0, 1) never reach: no erasure or every
        # one, LLR_CAP as the BSC's magnitude, and all LLRs +-0.0 at p = 1/2.
        # Half the leaves carry information, so codewords hold ones.
        channel = BmsChannel(kind, param)
        code = code_from_frozen(channel, np.arange(2 ** n) % 2 == 0, 1e-3)
        seed = 2 ** 33 + n
        streams = iter(np.random.SeedSequence(seed).spawn(trials))
        count = 0
        for msg, llr in _frame_batches(code, channel, trials, seed, batch):
            expected = []
            for j in range(msg.shape[1]):
                rng = np.random.default_rng(next(streams))
                bits = rng.integers(0, 2, code.k, dtype=np.uint8)
                expected.append(sample_llrs(channel, encode_message(code, bits), rng))
                assert np.array_equal(msg[:, j], bits)
            assert_batch_holds(llr, np.array(expected).T)
            count += msg.shape[1]
        assert count == trials

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("trials, batch", [(1, 1024), (37, 1024), (70, 1024), (70, 29)])
    def test_frames_do_not_depend_on_the_block_size(self, monkeypatch, kind, trials, batch):
        # Blocks of 1, 3, 16 and 64 frames, with partial last blocks
        channel = channel_from_capacity(kind, 0.5)
        code = build_code(channel, 6, 1e-3)
        digests = set()
        for block in (1, 3, 16, 64):
            monkeypatch.setattr("sscpolar.codec._FRAME_BLOCK", block)
            h = hashlib.sha256()
            for msg, llr in _frame_batches(code, channel, trials, 11, batch):
                h.update(msg.tobytes())
                h.update(llr.tobytes())
            digests.add(h.hexdigest())
        assert len(digests) == 1

    @settings(max_examples=40, deadline=None)
    @given(cap=st.floats(min_value=0.0, max_value=1.0),
           n=st.integers(min_value=1, max_value=10),
           batch=st.sampled_from((1, 7, 1024)),
           trials=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_bec_frames_hold_only_erasure_llrs(self, cap, n, batch, trials, seed):
        # BEC batches are planes whose padding bits are 0, which the bitwise
        # kernels read as a known positive LLR, and whose erased frames have
        # no sign bit set, so the LLRs they stand for are -LLR_CAP, +0.0 and
        # +LLR_CAP only, as sample_llrs's
        channel = BmsChannel(ChannelKind.BEC, 1.0 - cap)
        code = build_code(channel, n, 1e-3)
        allowed = np.array([-LLR_CAP, 0.0, LLR_CAP]).view(np.uint64)
        for msg, p in _frame_batches(code, channel, trials, seed, batch):
            frames = msg.shape[1]
            assert p.dtype == np.uint8 and p.shape == (2, code.N, -(-frames // 8))
            assert not np.unpackbits(p, axis=-1)[..., frames:].any()
            assert not (p[0] & p[1]).any()
            assert np.isin(batch_llrs(p, frames).view(np.uint64), allowed).all()

    def test_channel_picks_the_f_kernel(self, monkeypatch):
        # BAWGNC batches run _f, in the shared pass and in the check, and
        # never the planes' F
        calls = Counter()
        for name, kernel in (("_f", _f), ("_f_planes", _f_planes)):
            def spy(a, o, t, name=name, kernel=kernel):
                calls[name] += 1
                kernel(a, o, t)
            monkeypatch.setattr(f"sscpolar.codec.{name}", spy)
        channel = channel_from_capacity(ChannelKind.BAWGNC, 0.5)
        code = code_from_frozen(channel, np.arange(256) // 4 % 2 == 0, 1e-2)
        sc_ssc_agreement(code, channel, 24, 5, 7)
        assert calls["_f"] > 0 and calls["_f_planes"] == 0

    @pytest.mark.parametrize("kind, dtype", [
        (ChannelKind.BEC, np.uint8),
        (ChannelKind.BSC, np.float64),
        (ChannelKind.BAWGNC, np.float64),
    ])
    def test_channel_picks_the_llr_dtype(self, monkeypatch, kind, dtype):
        # Only BEC batches are made as uint8 planes, and only they decode on
        # planes: the shared pass, which reads each batch's buffer itself,
        # the check over each level's joined Rate-1 block, and the inline SC
        # runs on tie frames, which take a node's planes.  The code's frozen
        # and information blocks of 4 make Rate-1 nodes with and without tie
        # frames on the BEC.
        batches, passes, checks, uncast = [], [], [], []

        def batches_spy(*args):
            for msg, llr in _frame_batches(*args):
                batches.append(llr)
                yield msg, llr

        def execute_spy(ops, llr, saved=None):
            passes.append((llr.dtype, llr.shape[-2]))
            if saved is not None:  # the shared pass
                uncast.append(llr is batches[-1])
            return _execute(ops, llr, saved)

        def divergence_spy(s, x, bits, frames):
            checks.append(x.dtype)
            return _rate1_divergence(s, x, bits, frames)

        monkeypatch.setattr("sscpolar.codec._frame_batches", batches_spy)
        monkeypatch.setattr("sscpolar.codec._execute", execute_spy)
        monkeypatch.setattr("sscpolar.codec._rate1_divergence", divergence_spy)
        channel = channel_from_capacity(kind, 0.5)
        code = code_from_frozen(channel, np.arange(256) // 4 % 2 == 0, 1e-2)
        sc_ssc_agreement(code, channel, 24, 5, 7)
        assert {llr.dtype for llr in batches} == {np.dtype(dtype)}
        assert uncast == [True] * 4
        assert set(checks) == {np.dtype(dtype)}
        # passes over whole frames, and SC inside Rate-1 nodes of 4 leaves
        assert {rows for _d, rows in passes} >= {256, 4}
        assert {d for d, _rows in passes} == {np.dtype(dtype)}
        if kind is ChannelKind.BEC:
            # beyond the 4 batches' passes and one SC run a check, SC ran
            # inline on tie frames' planes
            assert len(passes) > 4 + len(checks)

    def test_bec_agreement_calls_no_transcendental_function(self, monkeypatch):
        # BEC batches decode with bitwise ops only, so their bits cannot
        # depend on which SIMD kernels numpy dispatches to; the code of
        # test_channel_picks_the_llr_dtype runs SC inline on tie frames, and
        # the same spies see the BAWGNC's kernels call all three
        calls = Counter()
        for name in ("tanh", "arctanh", "log"):
            def spy(*args, name=name, ufunc=getattr(np, name), **kwargs):
                calls[name] += 1
                return ufunc(*args, **kwargs)
            monkeypatch.setattr(np, name, spy)
        for kind in (ChannelKind.BEC, ChannelKind.BAWGNC):
            channel = channel_from_capacity(kind, 0.5)
            code = code_from_frozen(channel, np.arange(256) // 4 % 2 == 0, 1e-2)
            sc_ssc_agreement(code, channel, 24, 5, 7)
            if kind is ChannelKind.BEC:
                assert calls == Counter()
        assert set(calls) == {"tanh", "arctanh", "log"}

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10),
           log_block=st.integers(min_value=0, max_value=10),
           pattern=st.integers(min_value=0, max_value=2 ** 1024 - 1),
           erasure=st.floats(min_value=0.0, max_value=1.0),
           trials=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(n=10, log_block=2, pattern=3893328472462677366, erasure=0.5, trials=24,
             seed=3855495969)
    def test_planes_pass_is_exact_on_the_bec(self, n, log_block, pattern, erasure, trials,
                                             seed):
        # sc_ssc_agreement's BEC batches: the pass on the planes decides,
        # finds tie frames, saves and checks what the float64 pass with _f
        # does on their LLRs; ties occur at any erasure probability
        channel = BmsChannel(ChannelKind.BEC, erasure)
        code = code_from_frozen(channel, block_mask(n, log_block, pattern), 1e-2)
        ops = list(ssc_schedule(build_ssc_tree(code)))
        ties = {np.uint8: [], np.float64: []}

        def tie_spy(a, t):  # each Rate-1 node's tie frames, as a bool mask
            found = _tie_frames(a, t)
            mask = np.zeros(frames, bool)
            if a.dtype != np.uint8:
                mask[found] = True
            elif found.size:  # a packed mask on planes, empty if no frame ties
                mask = np.unpackbits(found, count=frames).view(bool)
            ties[a.dtype.type].append(mask)
            return found

        with pytest.MonkeyPatch.context() as m:
            m.setattr("sscpolar.codec._tie_frames", tie_spy)
            for msg, llr in _frame_batches(code, channel, trials, seed, 1024):
                frames = msg.shape[1]
                saved_planes, saved64 = {}, {}
                u = _decode(ops, llr, saved_planes)
                assert np.array_equal(np.unpackbits(u, axis=1, count=frames),
                                      _decode(ops, batch_llrs(llr, frames), saved64))
                assert len(ties[np.uint8]) == len(ties[np.float64])
                assert all(map(np.array_equal, ties[np.uint8], ties[np.float64]))
                ties = {np.uint8: [], np.float64: []}
                assert saved_planes.keys() == saved64.keys()
                for s, pairs in saved64.items():
                    assert len(saved_planes[s]) == len(pairs)
                    assert all(a.dtype == np.uint8 for a, _b in saved_planes[s])
                    x, bits = _joined(saved_planes[s])
                    x64, bits64 = _joined(pairs)
                    # the joined planes, a node's ceil(frames/8) bytes at a time
                    rows, width = bits.shape[0], -(-frames // 8)
                    llrs = batch_llrs(x.reshape(2, rows, -1, width), frames).reshape(rows, -1)
                    assert np.array_equal(llrs == 0, x64 == 0)
                    assert np.array_equal(llrs < 0, x64 < 0)
                    assert np.array_equal(np.unpackbits(bits.reshape(rows, -1, width), axis=-1,
                                                        count=frames).reshape(rows, -1), bits64)
                    assert np.array_equal(_rate1_divergence(s, x, bits, frames),
                                          _rate1_divergence(s, x64, bits64, frames))

    @pytest.mark.parametrize("kind, n, trials, digest", [
        (ChannelKind.BEC, 10, 2048,
         "a9cbdd4bd93b09fce224c97e496fd9d048ab83730c02800101b4a075274eed32"),
        (ChannelKind.BAWGNC, 14, 256,
         "0bef39688481f5176b421c7e43d09592ed99da99d080bc251759741c5a9f85a3"),
        (ChannelKind.BSC, 10, 2048,
         "ad9409ea576865b1d1fcbaa791c884f427d5bcf930c98a5f89fcc8d0d34cfbc8"),
    ], ids=["bec-n10", "bawgnc-n14", "bsc-n10"])
    def test_generated_frames_are_pinned(self, kind, n, trials, digest):
        # The frames of the benchmark's simulate runs (I = 0.5, pe = 1e-3,
        # seed 7), which decode with fer=0 and full agreement, so their
        # output cannot show a change in the frames, and the BSC's frames at
        # the same settings, which no benchmark run makes.  Hashed per batch: the
        # (k, trials) uint8 message bits, then the (N, trials) float64 LLRs,
        # on the BEC rebuilt from the planes.
        channel = channel_from_capacity(kind, 0.5)
        code = build_code(channel, n, 1e-3)
        h = hashlib.sha256()
        for msg, llr in _frame_batches(code, channel, trials, 7, 1024):
            h.update(msg.tobytes())
            h.update(batch_llrs(llr, msg.shape[1]).tobytes())
        assert h.hexdigest() == digest

    def test_agreement_sees_disagreement(self, monkeypatch):
        # With no tie frames SSC hard-decides its ties, so it can disagree with
        # SC.  The shared pass must count agreement as SC and SSC decoded
        # alone do, in one whole-frame executor pass a batch, then one SC run
        # a level over the saved inputs of that level's Rate-1 nodes.  On the
        # all-information code an F output underflows to 0 inside the Rate-1
        # root, which SC decides as bit 0.  Frames of the frozen / information
        # / frozen / information code diverge at both of its Rate-1 nodes and
        # must count once.
        monkeypatch.setattr("sscpolar.codec._tie_frames", lambda a, t: np.empty(0, np.intp))
        noisy = channel_from_capacity(ChannelKind.BAWGNC, 0.2)
        bec = BmsChannel(ChannelKind.BEC, 0.5)
        info = code_from_frozen(noisy, np.zeros(1024, bool), 1e-2)
        blocks = code_from_frozen(noisy, np.arange(2 ** 14) // 2 ** 12 % 2 == 0, 1e-2)
        cases = [(info, noisy, 8, 1024), (info, noisy, 10, 3),
                 (code_from_frozen(noisy, np.arange(1024) < 512, 1e-2), noisy, 6, 4),
                 (build_code(bec, 8, 1e-1), bec, 40, 16), (blocks, noisy, 8, 3)]
        agrees = []
        for code, channel, trials, batch in cases:
            tree = build_ssc_tree(code)
            rate1 = Counter(s for op, s, _lo in ssc_schedule(tree) if op == RATE1 and s > 1)
            expected, batches, levels = 0, [], []
            for msg, llr in _frame_batches(code, channel, trials, 5, batch):
                # a batch is `width` columns of LLRs, or of packed bytes on planes
                width = llr.shape[-1]
                batches.append(width)
                levels += [(2 ** s, m * width) for s, m in rate1.items()]
                llr = batch_llrs(llr, msg.shape[1])
                u_sc = _decode(sc_schedule(code.frozen), llr)
                u_ssc = _decode(ssc_schedule(tree), llr)
                expected += int((u_sc == u_ssc).all(axis=0).sum())
            passes, checks, nodes = [], [], []

            def count_passes(ops, llr, check=None):
                if llr.shape[-2] == code.N and check is not None:
                    passes.append(llr.shape[-1])
                else:  # SC inside one level's Rate-1 nodes, after a pass
                    checks.append(llr.shape[-2:])
                return _execute(ops, llr, check)

            def node_divergence(s, x, bits, frames):
                d = _rate1_divergence(s, x, bits, frames)
                nodes.append(d)
                return d

            with monkeypatch.context() as m:
                m.setattr("sscpolar.codec._execute", count_passes)
                m.setattr("sscpolar.codec._rate1_divergence", node_divergence)
                agree, _, _ = sc_ssc_agreement(code, channel, trials, 5, batch)
            assert agree == expected
            assert passes == batches
            assert sorted(checks) == sorted(levels)
            agrees.append(agree)
        assert agrees[0] < 8
        # nodes holds the last code's two Rate-1 nodes a batch, in order
        first = np.concatenate([d[0] for d in nodes])
        second = np.concatenate([d[1] for d in nodes])
        assert (first & second).any()
        assert agrees[-1] == 8 - np.count_nonzero(first | second)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10),
           log_block=st.integers(min_value=0, max_value=10),
           pattern=st.integers(min_value=0, max_value=2 ** 1024 - 1),
           batch=st.sampled_from((1, 7, 1024)),
           trials=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(n=10, log_block=2, pattern=3893328472462677366, batch=7, trials=24,
             seed=3855495969)
    @example(n=10, log_block=8, pattern=85395593829887826, batch=1, trials=24,
             seed=3746051010)
    @example(n=10, log_block=9, pattern=1498533450780142916, batch=1024, trials=24,
             seed=872964283)
    def test_agreement_equals_decoding_alone(self, n, log_block, pattern, batch, trials, seed):
        # With no tie frames SSC hard-decides its ties, so on a noisy channel
        # it disagrees with SC on some frames: the examples have 8 to 13 such
        # frames each.
        agreement_equals_decoding_alone(channel_from_capacity(ChannelKind.BAWGNC, 0.2),
                                        lambda a, t: np.empty(0, np.intp),
                                        n, log_block, pattern, batch, trials, seed)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10),
           log_block=st.integers(min_value=0, max_value=10),
           pattern=st.integers(min_value=0, max_value=2 ** 1024 - 1),
           batch=st.sampled_from((1, 7, 1024)),
           trials=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(n=10, log_block=2, pattern=3893328472462677366, batch=7, trials=24,
             seed=3855495969)
    def test_bec_agreement_equals_decoding_alone(self, n, log_block, pattern, batch,
                                                 trials, seed):
        # _tie_frames is live: a Rate-1 node with an erased input runs SC inline
        agreement_equals_decoding_alone(BmsChannel(ChannelKind.BEC, 0.5), _tie_frames,
                                        n, log_block, pattern, batch, trials, seed)

    def test_bec_agreement_runs_sc_in_tie_nodes(self):
        # No frame of a code that build_code makes at BEC I = 0.5 holds a tie
        # in a Rate-1 node, so the property's block-structured example pins
        # the inline path.
        assert agreement_equals_decoding_alone(BmsChannel(ChannelKind.BEC, 0.5), _tie_frames,
                                               10, 2, 3893328472462677366, 7, 24,
                                               3855495969) > 0

    def test_batches_fit_the_frame_bit_budget(self, bec_half, monkeypatch):
        # the benchmark's simulate runs keep their batches: 1024 frames at
        # n = 10 and 256 at n = 14
        assert _BATCH_FRAME_BITS // 2 ** 10 >= 1024 and _BATCH_FRAME_BITS // 2 ** 14 >= 256
        code = build_code(bec_half, 5, 1e-2)
        result = sc_ssc_agreement(code, bec_half, 50, 3)
        monkeypatch.setattr("sscpolar.codec._BATCH_FRAME_BITS", 7 * 32)
        assert [msg.shape[1] for msg, _llr in _frame_batches(code, bec_half, 50, 3, 1024)] \
            == [7] * 7 + [1]
        assert sc_ssc_agreement(code, bec_half, 50, 3) == result


    def test_bec_agreement_peaks_under_5_bytes_a_frame_bit(self, bec_half):
        # one batch of 1024 frames at n = 10: about 3.8 bytes a frame-bit, in
        # making the frames (the kept bits, the codeword and the message
        # bits); float32 LLRs packed into planes for the pass peaked at 7.5
        code = build_code(bec_half, 10, 1e-3)
        result, peak = agreement_peak(code, bec_half, 1024, 7)
        assert result[:2] == (1024, 1024)
        assert peak < 5

    def test_agreement_peaks_under_21_bytes_a_frame_bit(self):
        # one batch of 1024 frames at n = 12 in float64: about 19 bytes a
        # frame-bit; an N/2-row scratch beside the level buffers would add 4
        channel = channel_from_capacity(ChannelKind.BAWGNC, 0.5)
        code = build_code(channel, 12, 1e-3)
        result, peak = agreement_peak(code, channel, 1024, 7)
        assert result[1] == 1024
        assert peak < 21

    def test_frame_batches_peak_under_19_bytes_a_frame_bit(self):
        # at n = 18 a batch is 16 frames, one block: the draws and the batch's
        # float64 LLRs, which the draws are written into, are 16 bytes a
        # frame-bit; a fresh array for the block's LLRs would add 8
        channel = channel_from_capacity(ChannelKind.BAWGNC, 0.5)
        code = build_code(channel, 18, 1e-3)
        next(_frame_batches(code, channel, 1, 7, 1))  # imports outside the peak
        tracemalloc.start()
        try:
            for _batch in _frame_batches(code, channel, 32, 7, 1024):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * code.N) < 19

    def test_stream_memory_does_not_grow_with_trials(self, bec_half):
        # each batch builds its own streams, about 800 bytes apiece: all 50 000
        # built up front peaked at 38 MiB, where one batch's LLRs are 128 KiB
        code = build_code(bec_half, 4, 1e-3)
        tracemalloc.start()
        try:
            for _batch in _frame_batches(code, bec_half, 50_000, 7, 1024):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def assert_batch_holds(llr, expected):
    """A batch of _frame_batches holds the float64 LLRs `expected` (N, frames):
    bit for bit, signed zeros too, or on the BEC as planes, byte for byte
    reference_planes(expected)."""
    if llr.dtype == np.uint8:
        p = reference_planes(expected)
        assert llr.shape == p.shape and llr.tobytes() == p.tobytes()
    else:
        assert np.array_equal(llr.view(np.uint64), expected.view(np.uint64))


def agreement_peak(code, channel, trials, seed):
    """sc_ssc_agreement's result and its tracemalloc peak in bytes a frame-bit."""
    sc_ssc_agreement(code, channel, 8, seed)  # imports and caches outside the peak
    tracemalloc.start()
    try:
        result = sc_ssc_agreement(code, channel, trials, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (trials * code.N)


def block_mask(n, log_block, pattern):
    """A frozen mask of 2^n leaves whose bit i of `pattern` freezes block i of
    2^log_block leaves, so its codes have Rate-1 nodes of many sizes."""
    size = 2 ** min(log_block, n)
    return np.repeat([pattern >> i & 1 == 1 for i in range(2 ** n // size)], size)


def agreement_equals_decoding_alone(channel, tie_frames, n, log_block, pattern, batch, trials,
                                    seed):
    """Check that sc_ssc_agreement equals SC and SSC decoded alone with _f, with
    codec._tie_frames replaced by tie_frames; return how many Rate-1 nodes of
    sc_ssc_agreement's passes ran SC inline for a tie frame.

    The code's mask is block_mask(n, log_block, pattern).
    """
    code = code_from_frozen(channel, block_mask(n, log_block, pattern), 1e-2)
    tree = build_ssc_tree(code)
    inline = []

    def tie_spy(a, t):
        frames = tie_frames(a, t)
        inline.append(frames.size > 0)
        return frames

    with pytest.MonkeyPatch.context() as m:
        m.setattr("sscpolar.codec._tie_frames", tie_frames)
        expected = errors = 0
        for msg, llr in _frame_batches(code, channel, trials, seed, batch):
            llr = batch_llrs(llr, msg.shape[1])
            u_sc = _decode(sc_schedule(code.frozen), llr)
            u_ssc = _decode(ssc_schedule(tree), llr)
            expected += int((u_sc == u_ssc).all(axis=0).sum())
            errors += int((u_ssc[~code.frozen] != msg).any(axis=0).sum())
        m.setattr("sscpolar.codec._tie_frames", tie_spy)
        result = sc_ssc_agreement(code, channel, trials, seed, batch)
    assert result == (expected, trials, errors / trials)
    return sum(inline)
