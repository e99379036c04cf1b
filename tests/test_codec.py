import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sscpolar import (
    ChannelKind,
    build_code,
    build_ssc_tree,
    code_from_frozen,
    encode,
    encode_message,
    f_kernel,
    g_kernel,
    make_channel,
    monte_carlo_fer,
    polar_transform,
    sample_llrs,
    sc_decode,
    sc_decode_batch,
    sc_ssc_agreement,
    ssc_decode,
    ssc_decode_batch,
)
from sscpolar.channel import LLR_CAP

from conftest import EXAMPLE8_FROZEN, reference_sc

finite_llr = st.floats(min_value=-LLR_CAP, max_value=LLR_CAP,
                       allow_nan=False, allow_infinity=False)


class TestFKernel:
    def test_zero_annihilates(self):
        assert f_kernel(0.0, 5.0) == 0.0

    def test_saturated_input_passes_through(self):
        for x in (-7.0, -1.5, 0.25, 3.0):
            assert f_kernel(LLR_CAP, x) == pytest.approx(x, abs=1e-6)

    def test_direct_evaluation(self):
        # 2*atanh(tanh(1)^2)
        assert f_kernel(2.0, 2.0) == pytest.approx(1.3250027473578643, abs=1e-12)

    def test_saturates_instead_of_overflowing(self):
        assert f_kernel(LLR_CAP, LLR_CAP) == LLR_CAP
        assert f_kernel(-LLR_CAP, LLR_CAP) == -LLR_CAP

    @given(finite_llr, finite_llr)
    def test_symmetry(self, a, b):
        assert f_kernel(a, b) == f_kernel(b, a)

    @given(finite_llr, finite_llr)
    def test_sign_rule(self, a, b):
        out = f_kernel(a, b)
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
        assert abs(f_kernel(a, b)) <= min(abs(a), abs(b)) + 1e-6


class TestGKernel:
    def test_known_bit_zero_adds(self):
        assert g_kernel(1.0, 2.0, 0) == 3.0

    def test_known_bit_one_subtracts(self):
        assert g_kernel(1.0, 2.0, 1) == -1.0

    def test_zeros(self):
        assert g_kernel(0.0, 0.0, 1) == 0.0

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            g_kernel(1.0, 1.0, 2)

    small_llr = st.floats(min_value=-90.0, max_value=90.0,
                          allow_nan=False, allow_infinity=False)

    @given(small_llr, small_llr, small_llr, st.integers(0, 1))
    def test_linear_in_first_argument(self, a1, a2, b, c):
        # away from saturation g is affine in its first argument
        lhs = g_kernel(a1 + a2, b, c)
        rhs = g_kernel(a1, b, c) + g_kernel(a2, b, c) - g_kernel(0.0, b, c)
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

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            polar_transform(np.zeros(6, dtype=np.uint8))

    def test_encode_checks_frozen_zeros(self, example8_code):
        u = np.ones(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            encode(example8_code, u)

    def test_encode_message_places_info_bits(self, example8_code):
        x = encode_message(example8_code, np.array([1, 0, 1, 1], dtype=np.uint8))
        u = polar_transform(x)  # invert
        assert list(u[~example8_code.frozen]) == [1, 0, 1, 1]
        assert not u[example8_code.frozen].any()


class TestScDecode:
    def test_noiseless_identity_exhaustive(self):
        # every message of every small low-rate code decodes exactly
        for eps, n, pe in [(0.5, 3, 0.5), (0.5, 4, 1e-2), (0.5, 6, 1e-3), (0.3, 5, 1e-2)]:
            code = build_code(make_channel(ChannelKind.BEC, eps), n, pe)
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
        code = build_code(make_channel(ChannelKind.BEC, 1.0), 4, 0.5)
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
        code = code_from_frozen(make_channel(ChannelKind.BSC, 0.11), mask, 1e-2)
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
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llrs_rejected(self, example8_code, decode, bad):
        llrs = np.ones((2, 8))
        llrs[1, 5] = bad
        with pytest.raises(ValueError):
            decode(example8_code, llrs)


class TestSscEquivalence:
    def test_all_frozen_is_single_pruned_node(self):
        code = build_code(make_channel(ChannelKind.BEC, 1.0), 4, 0.5)
        tree = build_ssc_tree(code)
        assert tree.node_count() == 1
        llr = np.random.default_rng(0).normal(size=16)
        assert not ssc_decode(code, llr, tree).any()

    def test_tree_of_other_length_rejected(self, example8_code):
        # a single Rate-1 root would hard-decide every bit, frozen ones too
        tree = build_ssc_tree(build_code(make_channel(ChannelKind.BSC, 0.0), 4, 0.5))
        with pytest.raises(ValueError):
            ssc_decode_batch(example8_code, np.ones((1, 8)), tree)

    @pytest.mark.parametrize("kind,param", [
        (ChannelKind.BEC, 0.5),
        (ChannelKind.BSC, 0.11),
        (ChannelKind.BAWGNC, 0.9787),
    ])
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_matches_sc_on_random_trials(self, kind, param, n):
        channel = make_channel(kind, param)
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
        code = build_code(make_channel(ChannelKind.BEC, 0.5), 4, 1e-2)
        llr = np.array(values, dtype=float)
        u_sc = sc_decode(code, llr)
        assert np.array_equal(u_sc, ssc_decode(code, llr))
        assert np.array_equal(u_sc, reference_sc(llr, code.frozen))

    def test_tie_in_pure_information_node(self):
        # size-2 all-information code with an erased first input: the one-shot
        # hard decision alone would disagree with sequential decoding here
        code = code_from_frozen(make_channel(ChannelKind.BEC, 0.5),
                                np.array([False, False]), 1e-2)
        llr = np.array([0.0, -3.0])
        u_sc = sc_decode(code, llr)
        assert np.array_equal(u_sc, ssc_decode(code, llr))
        assert list(u_sc) == [0, 1]


class TestMonteCarlo:
    def test_deterministic_per_seed(self, bec_half):
        code = build_code(bec_half, 6, 1e-2)
        a = monte_carlo_fer(code, bec_half, 500, seed=91)
        b = monte_carlo_fer(code, bec_half, 500, seed=91)
        assert a == b

    def test_noiseless_channel_never_errs(self, bec_half):
        code = build_code(bec_half, 6, 1e-2)
        clean = make_channel(ChannelKind.BEC, 0.0)
        assert monte_carlo_fer(code, clean, 300, seed=1) == 0.0

    def test_all_frozen_never_errs(self):
        channel = make_channel(ChannelKind.BEC, 1.0)
        code = build_code(channel, 5, 0.5)
        assert monte_carlo_fer(code, channel, 300, seed=2) == 0.0

    def test_trials_validated(self, bec_half):
        code = build_code(bec_half, 4, 1e-2)
        with pytest.raises(ValueError):
            monte_carlo_fer(code, bec_half, 0, seed=0)

    def test_batch_boundary_does_not_change_result(self, bec_half):
        code = build_code(bec_half, 5, 1e-2)
        a = monte_carlo_fer(code, bec_half, 333, seed=7, batch=10)
        b = monte_carlo_fer(code, bec_half, 333, seed=7, batch=1024)
        assert a == b
