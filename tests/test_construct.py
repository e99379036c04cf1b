import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sscpolar import (
    BmsChannel,
    ChannelKind,
    PolarCode,
    build_code,
    channel_from_capacity,
    code_from_frozen,
    code_from_text,
    code_to_text,
    cube_interval,
    h2_inv,
    leaf_reliabilities,
    midzone_interval,
)
from sscpolar.channel import h2, z_minus, z_plus
from sscpolar.construct import MAX_MATERIALIZED_N


def bec(eps):
    return BmsChannel(ChannelKind.BEC, eps)


class TestLeafEvolution:
    def test_single_level(self):
        assert leaf_reliabilities(bec(0.5), 1).tolist() == [0.75, 0.25]

    def test_two_levels_hand_recursion(self):
        got = leaf_reliabilities(bec(0.5), 2).tolist()
        assert got == [0.9375, 0.5625, 0.4375, 0.0625]

    def test_perfect_channel_stays_perfect(self):
        z = leaf_reliabilities(BmsChannel(ChannelKind.BSC, 0.0), 3)
        assert np.all(z == 0.0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_streamed_matches_materialized(self, n):
        # a depth-first walk of the scalar transforms meets the leaves in leaf order
        def leaves(z, depth):
            if depth == n:
                yield z
            else:
                yield from leaves(z_minus(z), depth + 1)
                yield from leaves(z_plus(z), depth + 1)

        ch = bec(0.37)
        streamed = np.fromiter(leaves(ch.z0, 0), dtype=float)
        assert np.array_equal(streamed, leaf_reliabilities(ch, n))

    @pytest.mark.parametrize("n", [4, 10, 16])
    def test_bec_erasure_conservation(self, n):
        # both transforms preserve average erasure probability exactly on the BEC
        for eps in (0.2, 0.5, 0.77):
            z = leaf_reliabilities(bec(eps), n)
            assert abs(z.mean() - eps) <= 1e-10

    def test_extreme_leaves_are_the_pure_paths(self):
        z = leaf_reliabilities(bec(0.4), 8)
        assert z.argmax() == 0          # all-minus path
        assert z.argmin() == z.size - 1  # all-plus path

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            leaf_reliabilities(bec(0.5), MAX_MATERIALIZED_N + 1)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            leaf_reliabilities(bec(0.5), 0)


class TestBuildCode:
    def test_half_capacity_small_code(self):
        code = build_code(bec(0.5), 2, 0.5)
        assert list(code.frozen) == [True, True, True, False]
        assert code.rate == 0.25
        assert code.k == 1

    def test_perfect_channel_full_rate(self):
        code = build_code(BmsChannel(ChannelKind.BSC, 0.0), 3, 1e-3)
        assert code.rate == 1.0

    def test_useless_channel_zero_rate(self):
        code = build_code(bec(1.0), 3, 0.5)
        assert code.rate == 0.0

    def test_rate_monotone_in_error_target(self):
        ch = bec(0.5)
        rates = [build_code(ch, 8, pe).rate for pe in (1e-10, 1e-6, 1e-3, 1e-1)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_threshold_tie_freezes(self):
        # position with Z exactly equal to pe/N must freeze
        ch = bec(0.5)
        z = leaf_reliabilities(ch, 3)
        pe = float(z[6]) * 8  # threshold pe/N hits leaf 6 exactly (z[6]=0.12109375)
        code = build_code(ch, 3, pe)
        assert code.frozen[6]

    def test_pe_validation(self):
        for pe in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                build_code(bec(0.5), 4, pe)

    def test_code_from_frozen_requires_power_of_two(self):
        with pytest.raises(ValueError):
            code_from_frozen(bec(0.5), np.zeros(6, dtype=bool), 0.5)
        with pytest.raises(ValueError, match=r"^frozen mask must have length 2\^3$"):
            PolarCode(bec(0.5), 3, 0.5, np.zeros(4, dtype=bool))

    def test_code_owns_a_read_only_mask(self):
        mask = np.zeros(8, dtype=bool)
        mask[:3] = True
        code = code_from_frozen(bec(0.5), mask, 0.5)
        mask[3] = True  # the caller's array, not the code's
        assert (code.k, code.rate, code.frozen.tolist()) == (5, 5 / 8, [True] * 3 + [False] * 5)
        with pytest.raises(ValueError):
            code.frozen[0] = False
        assert not build_code(bec(0.5), 4, 1e-3).frozen.flags.writeable


class TestEntropyInverse:
    def test_endpoints(self):
        assert h2_inv(0.0) == pytest.approx(0.0, abs=1e-11)
        assert h2_inv(1.0) == pytest.approx(0.5, abs=1e-11)

    def test_half(self):
        assert h2_inv(0.5) == pytest.approx(0.1100278644383, abs=1e-10)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_inverts_entropy(self, y):
        assert h2(h2_inv(y)) == pytest.approx(y, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            h2_inv(1.5)


class TestPolarizationDiagnostics:
    def test_midzone_fraction_decays(self):
        ch = bec(0.5)
        fr = {}
        for n in (10, 20):
            lo, hi = cube_interval(2 ** n)
            z = leaf_reliabilities(ch, n)
            fr[n] = np.count_nonzero((lo <= z) & (z <= hi)) / 2 ** n
        assert fr[20] < fr[10]

    def test_midzone_interval_shape(self):
        lo, hi = midzone_interval(10, 0.9, 3.63)
        assert 0.0 < lo < 0.5 < hi < 1.0
        assert hi == pytest.approx(1.0 - lo, abs=1e-15)

    def test_midzone_interval_domain(self):
        mu = 3.63
        with pytest.raises(ValueError):
            midzone_interval(10, 1.0 / (1.0 + mu), mu)
        with pytest.raises(ValueError):
            midzone_interval(10, 1.0, mu)

    def test_cube_interval_value(self):
        lo, hi = cube_interval(8)
        assert lo == pytest.approx(1 / 512)
        assert hi == pytest.approx(511 / 512)
        with pytest.raises(ValueError, match=r"^N must be >= 2, got 1$"):
            cube_interval(1)


class TestCodeFile:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_round_trip_built_codes(self, n):
        code = build_code(bec(0.5), n, 1e-3)
        back = code_from_text(code_to_text(code))
        assert np.array_equal(back.frozen, code.frozen)
        assert back.pe == code.pe
        assert back.n == code.n
        assert back.channel.kind == code.channel.kind
        assert back.channel.param == code.channel.param

    def test_round_trip_random_masks(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4, 6):
            mask = rng.random(2 ** n) < 0.5
            code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
            back = code_from_text(code_to_text(code))
            assert np.array_equal(back.frozen, mask)

    def test_n_must_be_an_integer(self):
        # an integral float n gave N == 4.0 and a header code_from_text
        # rejected; numpy's integers pass, stored as int
        mask = np.array([True, True, False, False])
        with pytest.raises(ValueError, match="n must be an integer"):
            PolarCode(bec(0.5), 2.0, 1e-3, mask)
        # a boolean is not an integer, though True == 1 would build an N=2 code
        for n in (True, np.True_):
            with pytest.raises(ValueError, match="n must be an integer"):
                build_code(bec(0.5), n, 1e-3)
        code = PolarCode(bec(0.5), np.int64(2), 1e-3, mask)
        assert type(code.n) is int
        assert code_from_text(code_to_text(code)).n == 2

    def test_code_files_are_pinned(self):
        # round trips only show the format agrees with itself; this pins the
        # bytes written for three channel families at n = 1 .. 14
        digest = hashlib.sha256()
        for kind in (ChannelKind.BEC, ChannelKind.BSC, ChannelKind.BAWGNC):
            ch = channel_from_capacity(kind, 0.5)
            for n in range(1, 15):
                digest.update(code_to_text(build_code(ch, n, 1e-3)).encode())
        assert digest.hexdigest() == (
            "f9c2f676047d5753ea3f2bea3bc4766be5ad64225ba5aa3b4402bb1ad18a7bf1")

    def test_header_layout(self):
        text = code_to_text(build_code(bec(0.5), 2, 0.5))
        lines = text.splitlines()
        assert lines[0] == "polarcode v1"
        assert lines[1].split()[0] == "bec"
        # frozen [1,1,1,0] -> nibble 0b1110 -> 'e'
        assert lines[2] == "e"

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("polarcode v1", "polarcode v9"),
        lambda t: "\n".join(t.splitlines()[:2]) + "\n",
        lambda t: t.replace("bec", "bad"),
        lambda t: t.rstrip()[:-1] + "\u0667",  # int(c, 16) alone reads an Arabic-Indic 7 as 7
        lambda t: t.replace(" 3\n", "\n"),  # a header of 4 fields
        lambda t: t.rstrip() + "0\n",  # a nibble more than N = 8 takes
    ])
    def test_rejects_malformed(self, mangle):
        text = code_to_text(build_code(bec(0.5), 3, 1e-2))
        with pytest.raises(ValueError):
            code_from_text(mangle(text))

    @pytest.mark.parametrize("nibble", ["1", "2", "b", "f"])
    def test_rejects_nonzero_padding(self, nibble):
        # N=2 uses the top two bits of its one nibble; the low two must be 0
        lines = code_to_text(build_code(bec(0.5), 1, 0.5)).splitlines()
        lines[2] = nibble
        with pytest.raises(ValueError):
            code_from_text("\n".join(lines))

    @pytest.mark.parametrize("hex_line, bad", [
        ("ab cd ef", "' '"),  # bytes.fromhex alone would read three bytes
        ("abcdef0\u0667", "'\u0667'"),  # int(c, 16) alone reads an Arabic-Indic 7 as 7
        ("a\tcd\u0667ef0", "'\\t\u0667'"),
    ])
    def test_non_hex_characters_are_named(self, hex_line, bad):
        # n = 5 takes eight nibbles, as many as each line has
        lines = code_to_text(build_code(bec(0.5), 5, 1e-2)).splitlines()
        lines[2] = hex_line
        message = f"frozen string has non-hex characters {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            code_from_text("\n".join(lines))

    def test_header_n_is_checked_first(self):
        lines = code_to_text(build_code(bec(0.5), 1, 0.5)).splitlines()
        fields = lines[1].split()
        fields[4] = "-1"
        lines[1] = " ".join(fields)
        with pytest.raises(ValueError, match="n must be >= 1, got -1"):
            code_from_text("\n".join(lines))

    def test_huge_header_n_is_rejected_before_its_power(self):
        # 2^100000000 leaves would need 2^99999998 nibbles; the length check
        # comes before 2 ** n, which took most of a second to build
        text = "polarcode v1\nbec 0.5 0.5 0.001 100000000\nff\n"
        with pytest.raises(ValueError, match=r"^frozen string has 2 nibbles, too few for n=100000000$"):
            code_from_text(text)

    def test_rejects_inconsistent_capacity(self):
        text = code_to_text(build_code(bec(0.5), 3, 1e-2))
        lines = text.splitlines()
        fields = lines[1].split()
        for stored in ("0.9", "nan"):
            fields[2] = stored
            lines[1] = " ".join(fields)
            with pytest.raises(ValueError):
                code_from_text("\n".join(lines))
