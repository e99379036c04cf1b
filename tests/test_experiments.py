import hashlib
import math

import pytest

from sscpolar import ChannelKind, channel, latency, realize_policy
from sscpolar.experiments import (
    CSV_HEADER,
    SC_REFERENCE,
    SweepRecord,
    records_to_csv,
    run_parallelism_sweep,
    run_policy_sweep,
    run_serial_sweep,
)


class TestRealizePolicy:
    def test_half_and_one(self):
        assert realize_policy("half", 6) == 32
        assert realize_policy("one", 6) == 1

    def test_truncation_points(self):
        # fractional targets truncate: sqrt(32)=5.66 -> 5, 32^(1/3.63)=2.60 -> 2,
        # 32^(1/8)=1.54 -> 1; these are the realizations that reproduce the
        # reference latency tables
        assert realize_policy("sqrt", 5) == 5
        assert realize_policy("invmu", 5) == 2
        assert realize_policy("eighth", 5) == 1

    def test_exact_powers(self):
        assert realize_policy("sqrt", 4) == 4
        assert realize_policy("invmu", 4) == 2
        assert realize_policy("eighth", 8) == 2

    def test_floor_of_one(self):
        assert realize_policy("eighth", 4) == 1

    def test_clamped_to_half(self):
        assert realize_policy("sqrt", 2) <= 2

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            realize_policy("third", 5)

    @pytest.mark.parametrize("policy", ["invmu", "half"])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_mu_rejected(self, policy, mu):
        with pytest.raises(ValueError):
            realize_policy(policy, 5, mu)


@pytest.mark.parametrize("factor", [math.nan, math.inf, 0.5])
def test_parallelism_sweep_rejects_bad_factor(factor):
    with pytest.raises(ValueError):
        run_parallelism_sweep(n_max=6, factor=factor)


@pytest.fixture(scope="module")
def serial_records():
    return run_serial_sweep(kinds=[ChannelKind.BEC], n_max=10)


@pytest.fixture(scope="module")
def policy_records():
    return run_policy_sweep(n_max=12)


class TestSerialSweep:
    @pytest.fixture
    def records(self, serial_records):
        return serial_records

    def test_sc_reference_norm_is_n(self, records):
        sc = [r for r in records if r.p_policy == SC_REFERENCE]
        assert len(sc) == 7
        for r in sc:
            assert r.latency_norm == r.n

    def test_ssc_rows_present(self, records):
        ssc = [r for r in records if r.p_policy == "one" and (r.capacity, r.pe) == (0.5, 1e-3)]
        assert [r.n for r in ssc] == list(range(4, 11))
        assert all(r.P == 1 for r in ssc)

    def test_deterministic_bytes(self, records):
        again = run_serial_sweep(kinds=[ChannelKind.BEC], n_max=10)
        assert records_to_csv(records) == records_to_csv(again)

    def test_n_range_validated(self):
        with pytest.raises(ValueError):
            run_serial_sweep(n_max=28)
        with pytest.raises(ValueError):
            run_serial_sweep(n_max=3)

    def test_csv_is_pinned(self):
        # sha256 of preset 6's CSV to n = 20, recorded when each channel was
        # scanned on its own
        csv = records_to_csv(run_serial_sweep(n_max=20))
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "a0ccc7fb31986d4dae609c57d6d33cdd128f5c2dbc76e8d1a523e0150f3c1dd6"

    def test_runs_no_quadrature(self, monkeypatch):
        # the estimate decides every step of the three BAWGNC inversions, and
        # nothing reads a channel's exact capacity: the pinned CSV comes out
        # with no call to the quadrature
        calls = []
        quadrature = channel._qagi_loss
        monkeypatch.setattr(channel, "_qagi_loss", lambda s2: calls.append(s2) or quadrature(s2))
        self.test_csv_is_pinned()
        assert calls == []

    def test_channels_scanned_together(self, monkeypatch):
        # preset 6 to n = 18 walks its nine channels together at each
        # (n, pe): one classified segment a level, while the next level would
        # hold at most _FRONTIER_BOUND nodes.  That is at most
        # sum(range(4, 19)) = 165 levels a pe, 330 in all, less the levels
        # below the last one classified, which the tail counts without
        # classifying: at 2^14, the walks at n = 16, 17 and 18 stop at
        # levels 2, 4 and 5 for pe = 1e-3 and 3, 4 and 5 for pe = 1e-10, so
        # 1 + 3 + 4 + 2 + 3 + 4 = 17 levels go to the tail and 313 are classified
        calls = []
        count = latency._segment_counts

        def spy(mask, sizes):
            calls.append(sizes.size)
            return count(mask, sizes)

        monkeypatch.setattr(latency, "_segment_counts", spy)
        run_serial_sweep(n_max=18)
        assert 310 <= len(calls) <= 320

    def test_norm_monotone_once_nonzero(self):
        # once the code has positive rate, normalized serial latency only grows
        records = run_serial_sweep(kinds=[ChannelKind.BEC], n_max=14)
        curves = {}
        for r in records:
            if r.p_policy == "one":
                curves.setdefault((r.capacity, r.pe), []).append(r)
        for recs in curves.values():
            norms = [r.latency_norm for r in sorted(recs, key=lambda r: r.n)]
            active = [v for v in norms if v > 0]
            assert all(a <= b for a, b in zip(active, active[1:]))


class TestPolicySweep:
    @pytest.fixture
    def records(self, policy_records):
        return policy_records

    def test_row_count(self, records):
        assert len(records) == 5 * 9

    def test_policy_order_never_hurts(self, records):
        # more parallelism never increases latency
        rank = {"half": 0, "sqrt": 1, "invmu": 2, "eighth": 3, "one": 4}
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, {})[r.p_policy] = r.latency
        for lats in by_n.values():
            ordered = [lats[p] for p in sorted(rank, key=rank.get)]
            assert all(a <= b for a, b in zip(ordered, ordered[1:]))

    def test_csv_is_pinned(self):
        # sha256 of preset 7's CSV to n = 27, recorded when its records were
        # sorted after the sweep
        csv = records_to_csv(run_policy_sweep(n_max=27))
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "c52df1953366f4e596f53aab60f52ff5a4164f5fe96f177b490bd24b0a7593cc"


class TestReferenceValues:
    """Frozen expected values for the BEC constructions.

    These pin the whole pipeline (construction, pruning, weights, policy
    realization) to known-good numbers.
    """

    SERIAL_NORM = {4: 1.875, 5: 1.875, 6: 2.750, 7: 4.000, 8: 4.359,
                   9: 5.219, 10: 6.084}

    # normalized fully-serial latency per (capacity, pe) curve, n = 4..22,
    # quoted to three decimals (hence the 6e-4 tolerance: some entries are
    # truncated rather than rounded)
    SERIAL_NORM_FULL = {
        (0.1, 1e-10): {4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0, 8: 0.0, 9: 1.996,
                       10: 2.107, 11: 2.525, 12: 3.125, 13: 4.235, 14: 4.419,
                       15: 4.639, 16: 4.962, 17: 5.236, 18: 5.704, 19: 5.946,
                       20: 6.345, 21: 6.981, 22: 7.119},
        (0.1, 1e-3): {4: 0.0, 5: 0.0, 6: 0.0, 7: 1.984, 8: 1.984, 9: 2.094,
                      10: 2.504, 11: 3.088, 12: 4.192, 13: 4.361, 14: 4.563,
                      15: 4.877, 16: 5.144, 17: 5.606, 18: 5.828, 19: 6.242,
                      20: 6.87, 21: 7.004, 22: 7.191},
        (0.5, 1e-10): {4: 0.0, 5: 0.0, 6: 1.969, 7: 2.375, 8: 4.016, 9: 4.527,
                       10: 5.24, 11: 6.461, 12: 6.994, 13: 7.613, 14: 8.162,
                       15: 8.629, 16: 9.154, 17: 9.793, 18: 10.154, 19: 10.478,
                       20: 10.838, 21: 11.06, 22: 11.333},
        (0.5, 1e-3): {4: 1.875, 5: 1.875, 6: 2.75, 7: 4.0, 8: 4.359, 9: 5.219,
                      10: 6.084, 11: 6.542, 12: 7.099, 13: 7.624, 14: 8.084,
                      15: 8.571, 16: 9.143, 17: 9.485, 18: 9.788, 19: 10.136,
                      20: 10.364, 21: 10.616, 22: 10.921},
        (0.9, 1e-10): {4: 1.875, 5: 3.5, 6: 3.812, 7: 5.062, 8: 5.82, 9: 6.758,
                       10: 7.303, 11: 7.97, 12: 8.677, 13: 9.039, 14: 9.377,
                       15: 9.746, 16: 9.977, 17: 10.22, 18: 10.425, 19: 10.612,
                       20: 10.793, 21: 10.98, 22: 11.14},
        (0.9, 1e-3): {4: 3.125, 5: 3.688, 6: 4.281, 7: 5.016, 8: 5.633,
                      9: 6.188, 10: 6.916, 11: 7.378, 12: 7.634, 13: 7.929,
                      14: 8.313, 15: 8.531, 16: 8.806, 17: 9.121, 18: 9.311,
                      19: 9.534, 20: 9.748, 21: 10.027, 22: 10.22},
    }
    POLICY_LOG2 = {
        4: {"half": 3.000, "sqrt": 3.322, "invmu": 4.000, "eighth": 4.907,
            "one": 4.907},
        8: {"half": 6.807, "sqrt": 7.170, "invmu": 8.295, "eighth": 9.160,
            "one": 10.124},
        10: {"half": 8.672, "sqrt": 8.977, "invmu": 10.326, "eighth": 11.628,
             "one": 12.605},
    }

    # log2 latency per policy on the capacity-1/2 BEC, pe=1e-3, n = 4..22
    POLICY_LOG2_FULL = {
        "half": [3.000, 3.000, 4.907, 6.000, 6.807, 7.755, 8.672, 9.555,
                 10.416, 11.242, 12.046, 12.851, 13.639, 14.430, 15.217,
                 15.992, 16.761, 17.528, 18.289],
        "sqrt": [3.322, 4.000, 5.248, 6.459, 7.170, 8.140, 8.977, 9.861,
                 10.653, 11.479, 12.236, 13.038, 13.796, 14.578, 15.337,
                 16.105, 16.854, 17.614, 18.361],
        "invmu": [4.000, 4.907, 6.209, 7.672, 8.295, 9.349, 10.326, 10.997,
                  11.987, 12.819, 13.632, 14.398, 15.230, 16.038, 16.819,
                  17.574, 18.346, 19.118, 19.876],
        "eighth": [4.907, 5.907, 7.459, 9.000, 9.160, 10.409, 11.628, 12.729,
                   13.844, 14.430, 15.500, 16.572, 17.228, 18.275, 19.316,
                   20.067, 21.091, 21.866, 22.900],
        "one": [4.907, 5.907, 7.459, 9.000, 10.124, 11.384, 12.605, 13.710,
                14.828, 15.931, 17.015, 18.099, 19.193, 20.246, 21.291,
                22.341, 23.374, 24.408, 25.449],
    }

    def test_serial_normalized_latency(self, serial_records):
        got = {r.n: r.latency_norm for r in serial_records
               if r.p_policy == "one" and (r.capacity, r.pe) == (0.5, 1e-3)}
        for n, expected in self.SERIAL_NORM.items():
            assert got[n] == pytest.approx(expected, abs=5e-4), n

    def test_serial_normalized_latency_full_grid(self):
        records = run_serial_sweep(kinds=[ChannelKind.BEC], n_max=22)
        got = {}
        for r in records:
            if r.p_policy == "one":
                got.setdefault((r.capacity, r.pe), {})[r.n] = r.latency_norm
        for curve, expected_points in self.SERIAL_NORM_FULL.items():
            for n, expected in expected_points.items():
                assert got[curve][n] == pytest.approx(expected, abs=6e-4), (curve, n)

    def test_policy_log2_latency(self, policy_records):
        got = {}
        for r in policy_records:
            got.setdefault(r.n, {})[r.p_policy] = r.log2_latency
        for n, row in self.POLICY_LOG2.items():
            for policy, expected in row.items():
                assert got[n][policy] == pytest.approx(expected, abs=5e-4), (n, policy)

    def test_policy_log2_latency_full_grid(self):
        records = run_policy_sweep(n_max=22)
        got = {}
        for r in records:
            got.setdefault(r.p_policy, {})[r.n] = r.log2_latency
        for policy, column in self.POLICY_LOG2_FULL.items():
            for n, expected in zip(range(4, 23), column):
                assert got[policy][n] == pytest.approx(expected, abs=6e-4), (policy, n)


class TestParallelismSweep:
    def test_shape_and_monotone_p(self):
        recs = run_parallelism_sweep(n_max=12)
        assert [r.n for r in recs] == list(range(4, 13))
        assert all(recs[i].P <= recs[i + 1].P for i in range(len(recs) - 1))

    def test_factor_validated(self):
        with pytest.raises(ValueError):
            run_parallelism_sweep(n_max=6, factor=0.5)

    def test_csv_is_pinned(self):
        # sha256 of preset 8's CSV to n = 27, recorded when its records were
        # sorted after the sweep
        csv = records_to_csv(run_parallelism_sweep(n_max=27))
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "532cee30a89ffdfce982516f39d008d61a20115faceab77502044e1b660f70b8"


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == ("channel,capacity,pe,n,log2N,p_policy,P,"
                              "latency,latency_norm,log2_latency")

    def test_line_layout(self):
        rec = SweepRecord("bec", 0.5, 1e-3, 4, "one", 1, 30)
        text = records_to_csv([rec])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "bec,0.5,0.001,4,4,one,1,30,1.875,4.90689"

    def test_six_significant_digits(self):
        rec = SweepRecord("bec", 0.123456789, 1e-10, 10, "one", 1, 6230)
        line = records_to_csv([rec]).splitlines()[1]
        assert ",0.123457," in line
        assert ",6.08398," in line

    def test_zero_latency_logs_minus_inf(self):
        rec = SweepRecord("bec", 0.1, 1e-3, 4, "one", 1, 0)
        line = records_to_csv([rec]).splitlines()[1]
        assert line.endswith(",0,0,-inf")

