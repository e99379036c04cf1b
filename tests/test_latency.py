import functools
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sscpolar import (
    BmsChannel,
    ChannelKind,
    NodeKind,
    build_code,
    build_ssc_tree,
    channel_from_capacity,
    code_from_frozen,
    cube_interval,
    decoding_weight,
    latency_report,
    latency_upper_bound,
    min_p_within_factor,
    scan_edge_profile,
    scan_edge_profiles,
    scan_ssc_tree,
    sc_latency_closed_form,
    sc_decode_batch,
    sc_latency_tree,
    sc_ssc_agreement,
    ssc_decode_batch,
    ssc_latency,
    ssc_schedule,
)
from sscpolar import latency
from sscpolar.channel import z_minus, z_plus
from sscpolar.experiments import realize_policy, run_policy_sweep

from conftest import reference_pruned_levels, tree_levels


def bec(eps):
    return BmsChannel(ChannelKind.BEC, eps)


class TestDecodingWeight:
    # weights on the N=8 schedule: top edges cost 4/2/1 at P=1/2/4
    @pytest.mark.parametrize("s,P,expected", [(2, 1, 4), (2, 2, 2), (0, 4, 1),
                                              (3, 3, 3), (5, 7, 5)])
    def test_values(self, s, P, expected):
        assert decoding_weight(s, P) == expected

    def test_matches_ceiling(self):
        for s in range(12):
            for P in range(1, 40):
                assert decoding_weight(s, P) == math.ceil(2 ** s / P)

    def test_validation(self):
        with pytest.raises(ValueError):
            decoding_weight(-1, 2)
        with pytest.raises(ValueError):
            decoding_weight(2, 0)

    def test_p_must_be_an_integer(self):
        # exact integer latencies: a fractional or float P is rejected, numpy ints pass
        for call in (lambda: ssc_latency([2, 2], 1.5), lambda: decoding_weight(3, 2.5),
                     lambda: latency_report([2, 2], 2.0), lambda: sc_latency_tree(3, 2.0),
                     lambda: ssc_latency([2, 2], "2"), lambda: ssc_latency([2, 2], True),
                     lambda: decoding_weight(3, np.True_),
                     lambda: latency_upper_bound(16, 1.5, 3.63, 1.0, 0.5),
                     lambda: latency_upper_bound(16, 0, 3.63, 1.0, 0.5)):
            with pytest.raises(ValueError, match="P must be"):
                call()
        assert ssc_latency([2, 2], np.int64(2)) == 4
        assert decoding_weight(3, np.int32(3)) == 3
        assert latency_report([2, 2], np.int64(2)).ssc == 4
        assert latency_upper_bound(16, np.int64(1), 3.63, 0.0, 0.0) == 64.0

    def test_ssc_latency_checks_p_once(self, monkeypatch):
        checks = []
        check = latency._check_p
        monkeypatch.setattr(latency, "_check_p", lambda P: checks.append(P) or check(P))
        assert ssc_latency([2 ** (20 - s) for s in range(20)], 4) == sc_latency_tree(20, 4)
        assert checks == [4, 4]  # one a latency: ssc_latency's, then sc_latency_tree's


# Each call gave a float or a bare TypeError on a float n, N or level; each
# value is the call with numpy's integer in its place.
@pytest.mark.parametrize("call,name,value", [
    (lambda i: decoding_weight(i(2.5), 1), "level", 4),
    (lambda i: realize_policy("sqrt", i(2.5)), "n", 2),
    (lambda i: sc_latency_tree(i(2.0), 1), "n", 8),
    (lambda i: sc_latency_closed_form(i(16.0), 1), "N", 64),
    (lambda i: len(run_policy_sweep(n_max=i(5.0))), "n_max", 10),
    (lambda i: latency_upper_bound(i(16.0), 1, 3.63, 0.0, 0.0), "N", 64.0),
    (lambda i: cube_interval(i(2.0))[0], "N", 0.125),
], ids=["decoding_weight", "realize_policy", "sc_latency_tree", "sc_latency_closed_form",
        "run_policy_sweep", "latency_upper_bound", "cube_interval"])
def test_integer_arguments_are_typed(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(lambda x: x)
    assert call(lambda x: np.int64(x)) == value


def _agreement(**arg):
    """sc_ssc_agreement of 4 trials on a small BEC code, with one argument replaced."""
    channel = bec(0.5)
    return sc_ssc_agreement(build_code(channel, 4, 1e-2), channel,
                            **{"trials": 4, "seed": 0, "batch": 1024, **arg})


# Each integer argument with a floor, through one public call that takes it
FLOOR_CALLS = {
    "n": lambda v: sc_latency_tree(v, 1),
    "trials": lambda v: _agreement(trials=v),
    "batch": lambda v: _agreement(batch=v),
    "seed": lambda v: _agreement(seed=v),
    "level": lambda v: decoding_weight(v, 1),
    "N-bound": lambda v: latency_upper_bound(v, 1, 3.63, 0.0, 0.0),
    "N-cube": cube_interval,
    "n_max": lambda v: run_policy_sweep(n_max=v),
}


FLOOR_RULES = [
    ("n", 0, "n must be >= 1, got 0"),
    ("n", 2.5, "n must be an integer, got 2.5"),
    ("n", True, "n must be an integer, got True"),
    ("n", np.int64(1), None),
    ("trials", 0, "trials must be >= 1, got 0"),
    ("trials", 4.0, "trials must be an integer, got 4.0"),
    ("trials", np.True_, f"trials must be an integer, got {np.True_!r}"),
    ("trials", np.int32(1), None),
    ("batch", -3, "batch must be >= 1, got -3"),
    ("batch", 2.5, "batch must be an integer, got 2.5"),
    ("batch", True, "batch must be an integer, got True"),
    ("batch", np.uint8(1), None),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", None, "seed must be an integer, got None"),
    ("seed", np.False_, f"seed must be an integer, got {np.False_!r}"),
    ("seed", np.int64(0), None),
    ("level", -1, "level must be >= 0, got -1"),
    ("level", 2.0, "level must be an integer, got 2.0"),
    ("level", True, "level must be an integer, got True"),
    ("level", np.int64(0), None),
    ("N-bound", 1, "N must be >= 2, got 1"),
    ("N-bound", 16.0, "N must be an integer, got 16.0"),
    ("N-bound", np.True_, f"N must be an integer, got {np.True_!r}"),
    ("N-bound", np.int64(2), None),
    ("N-cube", np.int64(-4), "N must be >= 2, got -4"),
    ("N-cube", "8", "N must be an integer, got '8'"),
    ("N-cube", True, "N must be an integer, got True"),
    ("N-cube", np.int16(2), None),
    ("n_max", 3, "n_max must be >= 4, got 3"),
    ("n_max", 28, "n_max must be <= 27, got 28"),
    ("n_max", 4.0, "n_max must be an integer, got 4.0"),
    ("n_max", True, "n_max must be an integer, got True"),
    ("n_max", np.int64(4), None),
]


@pytest.mark.parametrize("call, value, message", FLOOR_RULES,
                         ids=[f"{call}={value!r}" for call, value, _ in FLOOR_RULES])
def test_floor_rules_are_pinned(call, value, message):
    # every message exactly, and numpy's integers pass as the int they hold
    if message is None:
        assert FLOOR_CALLS[call](value) == FLOOR_CALLS[call](int(value))
    else:
        with pytest.raises(ValueError) as err:
            FLOOR_CALLS[call](value)
        assert str(err.value) == message


M, R0, R1 = NodeKind.MIXED, NodeKind.RATE0, NodeKind.RATE1


def kinds_by_level(tree):
    return [k.tolist() for k in tree.kinds]


# Levels, leaves first, that are no pruned tree, each made an array of the
# given dtype (int8 unless named), or left a list when the dtype is list
MALFORMED_TREES = [
    ([[R1, R1, R1], [M]], np.int8, r"level 0 must hold the 2 children of level 1's MIXED nodes, "
                                   r"got shape \(3,\)"),
    ([[R1], [M]], np.int8, r"level 0 must hold the 2 children"),
    ([[], [R1, R0, R1], [M, M], [M]], np.int8, r"level 1 must hold the 4 children"),
    ([[M, M], [M]], np.int8, r"level 0 holds leaves, and a leaf cannot be MIXED"),
    ([[R1, R0], [M, M]], np.int8, r"the root level must hold one node, got shape \(2,\)"),
    ([[R1]], np.int8, r"n must be >= 1, got 0"),
    ([[R1, R0], [3]], np.int8, r"node kinds must be 0 \(Rate-0\), 1 \(Rate-1\) or 2 \(MIXED\)"),
    ([[R1, -1], [M]], np.int8, r"node kinds must be"),
    ([[R0, R1], [M]], np.int64, r"every level's node kinds must be an int8 array"),
    ([[R0, R1], [M]], list, r"every level's node kinds must be an int8 array"),
]


class TestSscTree:
    @pytest.mark.parametrize("kinds, dtype, message", MALFORMED_TREES,
                             ids=[f"{[list(map(int, k)) for k in kinds]}"
                                  + ("" if dtype is np.int8 else f" {dtype.__name__}")
                                  for kinds, dtype, _ in MALFORMED_TREES])
    def test_malformed_levels_rejected(self, kinds, dtype, message):
        # each was taken as given: three leaves under one MIXED root cost 2 at
        # P=1, one child raised StopIteration from ssc_schedule, MIXED leaves
        # compiled to an op code that does not exist, and int64 kinds compiled
        # byte by byte, a Rate-0 op where int8 gives a FROZEN_INFO one
        levels = tuple(k if dtype is list else np.array(k, dtype=dtype) for k in kinds)
        for use in (lambda tree: ssc_latency(tree, 1), lambda tree: list(ssc_schedule(tree))):
            with pytest.raises(ValueError, match=f"^{message}"):
                use(latency.SscTree(levels))

    def test_arrays_are_read_only(self, example8_code):
        ch = channel_from_capacity(ChannelKind.BAWGNC, 0.5)
        for tree in (build_ssc_tree(example8_code), scan_ssc_tree(ch, 10, 1e-3)):
            for array in tree.kinds:
                with pytest.raises(ValueError):
                    array[:1] = 0

    def test_decode_path_computes_no_reliability(self, bec_half):
        # the decoders and the tree behind them read only node kinds
        code = build_code(bec_half, 10, 1e-3)
        llrs = np.random.default_rng(5).normal(2.0, 2.0, (8, code.N))
        with mock.patch.object(latency, "polarize", wraps=latency.polarize) as spy:
            build_ssc_tree(code)
            sc_decode_batch(code, llrs)
            ssc_decode_batch(code, llrs)
            sc_ssc_agreement(code, bec_half, 64, 1)
        assert spy.call_count == 0

    def test_example8_shape(self, example8_code):
        tree = build_ssc_tree(example8_code)
        assert tree.n == 3
        assert tree.node_count() == 11
        assert kinds_by_level(tree) == [[R0, R1, R0, R1], [R0, M, M, R1], [M, M], [M]]

    def test_example8_reliabilities(self, example8_code):
        # root z0 = 1/2, children 2z - z^2 and z^2, left first
        z = build_ssc_tree(example8_code).reliabilities(example8_code.channel.z0)
        assert z[3].tolist() == [0.5]
        assert z[2].tolist() == [0.75, 0.25]
        assert z[1].tolist() == [0.9375, 0.5625, 0.4375, 0.0625]

    def test_all_frozen_single_rate0_root(self):
        code = build_code(bec(1.0), 4, 0.5)
        tree = build_ssc_tree(code)
        assert tree.node_count() == 1
        assert kinds_by_level(tree) == [[], [], [], [], [R0]]

    def test_all_info_single_rate1_root(self):
        code = build_code(BmsChannel(ChannelKind.BSC, 0.0), 4, 0.5)
        tree = build_ssc_tree(code)
        assert tree.node_count() == 1
        assert kinds_by_level(tree) == [[], [], [], [], [R1]]

    def test_no_mixed_leaves(self):
        code = build_code(bec(0.5), 10, 1e-3)
        assert not (build_ssc_tree(code).kinds[0] == M).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_kinds_agree_with_leaf_scan(self, seed):
        # independent classifier: a node is pure iff its leaf range is pure.
        # Block-structured masks (bit i of a random pattern freezes block i
        # of 2^b leaves) are pruned at every height b.
        # So are masks that are all frozen, all information, alternating, or
        # frozen but for one leaf.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        masks = [rng.random(2 ** n) < rng.random()]
        n = 2 * seed + 2
        masks += [np.repeat(rng.random(2 ** (n - b)) < 0.5, 2 ** b) for b in range(n + 1)]
        leaves = np.arange(2 ** 12)
        masks += [leaves >= 0, leaves < 0, leaves % 2 == seed % 2,
                  leaves != rng.integers(leaves.size)]
        for mask in masks:
            n = mask.size.bit_length() - 1
            code = code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
            tree = build_ssc_tree(code)
            offsets = [0]
            for s in range(n, -1, -1):
                kinds = tree.kinds[s].tolist()
                assert len(kinds) == len(offsets)
                for lo, kind in zip(offsets, kinds):
                    seg = mask[lo:lo + 2 ** s]
                    assert kind == (R0 if seg.all() else R1 if not seg.any() else M)
                offsets = [lo + d for lo, kind in zip(offsets, kinds) if kind == M
                           for d in (0, 2 ** (s - 1))]
            assert offsets == []

    def test_mask_build_memory(self, bec_half):
        # The bottom-up build holds the full tree's kinds, two bytes a leaf,
        # and then the pruned tree: 4.2 MiB at n = 20.  Walking down with a
        # prefix sum over the mask took 16 bytes a leaf.
        code = build_code(bec_half, 20, 1e-3)
        tracemalloc.start()
        try:
            build_ssc_tree(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * code.N


FAMILY_CAPACITIES = [(kind, cap) for kind in ChannelKind for cap in (0.1, 0.5, 0.9)]


@functools.lru_cache(maxsize=None)
def cached_channel(kind, cap):
    return channel_from_capacity(kind, cap)


class TestStreamingScan:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [4, 8, 11, 14])
    def test_profile_matches_materialized_tree(self, eps, n):
        ch = bec(eps)
        pe = 1e-3
        code = build_code(ch, n, pe)
        assert scan_edge_profile(ch, n, pe) == build_ssc_tree(code).edge_profile()

    @pytest.mark.parametrize("pe", [1e-3, 1e-10])
    @pytest.mark.parametrize("kind,cap", FAMILY_CAPACITIES)
    def test_profile_matches_on_family_grid(self, kind, cap, pe):
        ch = cached_channel(kind, cap)
        for n in range(1, 17):
            code = build_code(ch, n, pe)
            assert scan_edge_profile(ch, n, pe) == build_ssc_tree(code).edge_profile(), n

    def test_profile_matches_at_larger_n(self, bec_half):
        for n in range(16, 23):
            code = build_code(bec_half, n, 1e-3)
            assert scan_edge_profile(bec_half, n, 1e-3) == build_ssc_tree(code).edge_profile()
        # past what build_code reaches quickly, against the stored scanned tree
        for n in range(23, 26):
            assert scan_edge_profile(bec_half, n, 1e-3) == \
                scan_ssc_tree(bec_half, n, 1e-3).edge_profile()

    def test_streamed_kinds_match_tree(self):
        # node for node, z and kind, against the one-node-at-a-time reference
        for kind in ChannelKind:
            channel = cached_channel(kind, 0.5)
            for n in (9, 14):
                scanned = tree_levels(scan_ssc_tree(channel, n, 1e-3), channel.z0)
                assert scanned == reference_pruned_levels(channel, n, 1e-3), (kind, n)
                built = build_ssc_tree(build_code(channel, n, 1e-3))
                assert tree_levels(built, channel.z0) == scanned

    def test_scan_is_pinned(self, bec_half):
        # sha256 of every scanned tree's kinds and z bytes on the family grid,
        # and of the larger profiles, recorded from the scan that tested every
        # step of every path
        trees = hashlib.sha256()
        for kind, cap in FAMILY_CAPACITIES:
            channel = cached_channel(kind, cap)
            for pe in (1e-3, 1e-10):
                for n in range(1, 21):
                    tree = scan_ssc_tree(channel, n, pe)
                    for kinds, z in zip(tree.kinds, tree.reliabilities(channel.z0)):
                        trees.update(kinds.tobytes())
                        trees.update(z.tobytes())
        profiles = hashlib.sha256(repr([scan_edge_profile(bec_half, n, 1e-3)
                                        for n in range(21, 28)]).encode())
        assert trees.hexdigest() == \
            "d4f0022f689bfb48cdf80cb43c28ea46015c82b2a1fd9495b4344534b4af350b"
        assert profiles.hexdigest() == \
            "2e315b2a03afd763fe264e1b9773e01a9394eb68305ee6a2de745fc9c335dd60"

    @pytest.mark.parametrize("n,pe", [(0, 1e-3), (-1, 1e-3), (4, 0.0), (4, 1.0),
                                      (4, 5.0), (4, -1e-3), (1.5, 1e-3)])
    def test_scan_rejects_what_build_code_rejects(self, bec_half, n, pe):
        with pytest.raises(ValueError):
            build_code(bec_half, n, pe)
        with pytest.raises(ValueError):
            scan_ssc_tree(bec_half, n, pe)
        with pytest.raises(ValueError):
            scan_edge_profile(bec_half, n, pe)
        with pytest.raises(ValueError):
            scan_edge_profiles([bec_half, bec_half], n, pe)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(ChannelKind)),
           cap=st.sampled_from((0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)),
           log_pe=st.floats(min_value=-12.0, max_value=-0.5),
           n=st.integers(min_value=1, max_value=14))
    def test_scan_equals_mask_build_and_reference(self, kind, cap, log_pe, n):
        channel = cached_channel(kind, cap)
        pe = 10.0 ** log_pe
        scanned = tree_levels(scan_ssc_tree(channel, n, pe), channel.z0)
        assert tree_levels(build_ssc_tree(build_code(channel, n, pe)), channel.z0) == scanned
        assert reference_pruned_levels(channel, n, pe) == scanned

    @settings(max_examples=60, deadline=None)
    @given(z0=st.floats(min_value=0.0, max_value=1.0),
           pe=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           n=st.integers(min_value=1, max_value=16))
    @example(z0=0.0, pe=0.5, n=16)
    @example(z0=1.0, pe=0.5, n=16)
    @example(z0=math.nextafter(1.0, 0.0), pe=1e-3, n=16)
    @example(z0=5e-324, pe=1e-3, n=16)
    @example(z0=2.2250738585072014e-308, pe=5e-324, n=3)
    @example(z0=0.5, pe=1e-3, n=16)
    @example(z0=0.5, pe=math.nextafter(1.0, 0.0), n=12)
    def test_scan_equals_reference_for_any_z0(self, z0, pe, n):
        # the scan tests both kinds at every node with one comparison each,
        # against per-level threshold tables; the reference tests both kinds
        # at every step of every path.  They agree because both maps are
        # non-decreasing (test_channel.py::TestZTransforms::test_maps_are_monotone).
        channel = bec(z0)
        tree = scan_ssc_tree(channel, n, pe)
        assert tree_levels(tree, channel.z0) == reference_pruned_levels(channel, n, pe)
        assert scan_edge_profile(channel, n, pe) == tree.edge_profile()


class TestMultiRootScan:
    EDGE_Z0 = (0.0, 1.0, 5e-324, 2.2250738585072014e-308, math.nextafter(1.0, 0.0), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(z0s=st.lists(st.one_of(st.sampled_from(EDGE_Z0),
                                  st.floats(min_value=0.0, max_value=1.0)), max_size=12),
           log_pe=st.floats(min_value=-15.0, max_value=-1e-3),
           n=st.integers(min_value=1, max_value=16),
           bound=st.sampled_from((1, 7, 64, latency._FRONTIER_BOUND)))
    @example(z0s=[0.5] * 12, log_pe=-3.0, n=16, bound=latency._FRONTIER_BOUND)
    @example(z0s=[0.0, 0.5, 1.0, 0.5, 5e-324, 0.5], log_pe=-3.0, n=12, bound=64)
    @example(z0s=[], log_pe=-3.0, n=5, bound=1)
    def test_equals_one_root_at_a_time(self, z0s, log_pe, n, bound):
        # the split bound only regroups the work: bound 1 splits several
        # roots at once, and roots with no nodes left are skipped after a split
        channels = [bec(z0) for z0 in z0s]
        pe = 10.0 ** log_pe
        expected = [scan_edge_profile(ch, n, pe) for ch in channels]
        with mock.patch.object(latency, "_FRONTIER_BOUND", bound):
            assert scan_edge_profiles(channels, n, pe) == expected

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.one_of(
               st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40),
               st.builds(lambda roots, seed: np.random.default_rng(seed).integers(0, 5, roots),
                         st.integers(min_value=1000, max_value=4000),
                         st.integers(min_value=0, max_value=2 ** 32 - 1))),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(sizes=[0, 4, 0, 0, 7, 0], seed=0)
    @example(sizes=[0], seed=0)
    @example(sizes=[5], seed=0)
    @example(sizes=[], seed=0)
    def test_segment_counts_equal_bincount(self, sizes, seed):
        # the owner-array count the walk once used, kept as the oracle; empty
        # segments come first, between and last
        sizes = np.asarray(sizes, dtype=np.int64)
        mask = np.random.default_rng(seed).random(int(sizes.sum())) < 0.5
        owner = np.repeat(np.arange(sizes.size), sizes)
        expected = np.bincount(owner[mask], minlength=sizes.size)
        counts = latency._segment_counts(mask, sizes)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)

    @settings(max_examples=80, deadline=None)
    @given(z0s=st.lists(st.one_of(st.sampled_from(EDGE_Z0),
                                  st.floats(min_value=0.0, max_value=1.0)), max_size=12),
           log2_pe=st.floats(min_value=-1074.0, max_value=-1e-3),
           n=st.integers(min_value=1, max_value=16),
           bound=st.sampled_from((1, 7, 64, latency._FRONTIER_BOUND)))
    @example(z0s=[0.5] * 12, log2_pe=-10.0, n=16, bound=latency._FRONTIER_BOUND)
    @example(z0s=[5e-324, 0.5, 1.0], log2_pe=-1074.0, n=16, bound=1)
    @example(z0s=[0.5, 0.0, math.nextafter(1.0, 0.0)], log2_pe=-1060.0, n=16, bound=7)
    @example(z0s=[0.25, 0.75], log2_pe=-1e-3, n=16, bound=64)
    def test_tail_equals_the_full_walk(self, z0s, log2_pe, n, bound):
        # log-uniform pe, down to thresholds pe / 2^n in the subnormal range
        # (and 0.0): the levels the tail counts equal those the full walk of
        # scan_ssc_tree classifies, root by root, whichever level it starts at
        channels = [bec(z0) for z0 in z0s]
        pe = 2.0 ** log2_pe
        expected = [scan_ssc_tree(ch, n, pe).edge_profile() for ch in channels]
        with mock.patch.object(latency, "_FRONTIER_BOUND", bound):
            assert scan_edge_profiles(channels, n, pe) == expected

    @pytest.mark.parametrize("pe", [1e-3, 1e-10])
    @pytest.mark.parametrize("kind,cap", FAMILY_CAPACITIES)
    def test_tail_equals_the_full_walk_at_larger_n(self, kind, cap, pe):
        channel = cached_channel(kind, cap)
        for n in (20, 24):
            assert scan_edge_profile(channel, n, pe) == \
                scan_ssc_tree(channel, n, pe).edge_profile(), n

    @pytest.mark.parametrize("n,pe,s", [(20, 1e-3, 7), (27, 1e-10, 9), (12, 1e-310, 6)])
    def test_tail_counts_at_the_table_ends(self, n, pe, s):
        # roots placed on every end of the table and one double below it,
        # where an end one ulp off would count a node more or less: their
        # counts below level s equal those of walking them down from level s
        plus, minus = latency._tables(n, pe)
        lo, hi, _level = latency._preimages(plus, minus, s)
        ends = np.concatenate((lo, hi))
        z = np.unique(np.concatenate((ends, np.nextafter(ends, 0.0))))
        z = z[z <= 1.0]
        assert z.size > 2
        tail = latency._tail_counts(z, np.ones(z.size, dtype=np.int64), plus, minus, s)
        walked = np.zeros_like(tail)
        for t, _level, mixed in latency._walk(z, plus[:s + 1], minus[:s + 1], 1):
            if t < s:
                walked[:, t - 1] = mixed
        assert np.array_equal(tail, walked)

    def test_no_level_classified_past_the_bound(self, monkeypatch):
        # preset 6's nine roots at n = 18, pe = 1e-10 and one BEC root at
        # n = 27 outgrow the bound above level 1: the walk classifies no level
        # of more than _FRONTIER_BOUND nodes, all roots together, and counts
        # the levels below it from the tail
        cases = [([cached_channel(kind, cap) for kind, cap in FAMILY_CAPACITIES], 18, 1e-10),
                 ([bec(0.5)], 27, 1e-3)]
        count = latency._segment_counts
        for channels, n, pe in cases:
            seen = []

            def spy(mask, sizes):
                seen.append((sizes.size, mask.size))
                return count(mask, sizes)

            monkeypatch.setattr(latency, "_segment_counts", spy)
            profiles = scan_edge_profiles(channels, n, pe)
            monkeypatch.undo()
            assert all(roots == len(channels) for roots, _size in seen)
            assert all(size <= latency._FRONTIER_BOUND for _roots, size in seen)
            assert 1 < len(seen) < n  # levels n .. n - len(seen) + 1 > 1 classified
            assert profiles == [scan_edge_profile(ch, n, pe) for ch in channels]
            assert profiles == [scan_ssc_tree(ch, n, pe).edge_profile() for ch in channels]


def bisect_least(step, target):
    """The least double z in [0, 1] with step(z) >= target, by plain bisection on bit patterns."""
    one = int(np.float64(1.0).view(np.int64))
    if not step(1.0) >= target:
        return math.inf
    lo, hi = -1, one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if step(float(np.int64(mid).view(np.float64))) >= target:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


STEPS = [(z_plus, math.sqrt), (z_minus, latency._minus_guess)]


class TestThresholdTables:
    @settings(max_examples=200, deadline=None)
    @given(log2_t=st.floats(min_value=-1074.0, max_value=0.0))
    @example(log2_t=-1074.0)
    @example(log2_t=-1022.0)
    @example(log2_t=0.0)
    def test_search_equals_bisection(self, log2_t):
        t = 2.0 ** log2_t  # log-uniform on [5e-324, 1]
        for step, guess in STEPS:
            assert latency._least_reaching(step, guess, t) == bisect_least(step, t)

    def test_zero_target(self):
        for step, guess in STEPS:
            assert latency._least_reaching(step, guess, 0.0) == bisect_least(step, 0.0) == 0.0

    @pytest.mark.parametrize("t", [math.nextafter(1.0, 2.0), 2.0, math.inf])
    def test_inf_where_no_double_reaches(self, t):
        for step, guess in STEPS:
            assert latency._least_reaching(step, guess, t) == math.inf

    @pytest.mark.parametrize("step,guess,t", [(z_plus, math.sqrt, 5e-324),
                                              (z_plus, math.sqrt, 1e-320),
                                              (z_minus, latency._minus_guess, 1.0)])
    def test_fallback(self, step, guess, t):
        # z*z rounds a wide range of z onto a subnormal t (and 2z - z*z onto
        # 1), so the guess is far off and the nudges give way to bisection
        calls = []

        def counted(z):
            calls.append(z)
            return step(z)

        z = latency._least_reaching(counted, guess, t)
        assert len(calls) > 1 + 2 * latency._NUDGES
        assert z == bisect_least(step, t)
        assert step(z) >= t > step(math.nextafter(z, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(log2_t=st.lists(st.floats(min_value=-1074.0, max_value=0.0), max_size=40))
    @example(log2_t=[-1074.0, -1022.0, 0.0])
    def test_array_search_equals_scalar(self, log2_t):
        # log-uniform targets in [5e-324, 1], 0.0, the targets of
        # test_fallback, and targets that no double reaches, in one array
        targets = np.array([2.0 ** x for x in log2_t]
                           + [0.0, 5e-324, 1e-320, 1.0, math.nextafter(1.0, 2.0), math.inf])
        for (step, guess), (array_step, array_guess) in zip(STEPS[::-1], latency._ARRAY_STEPS):
            assert array_step is step
            found = latency._least_reaching_all(step, array_guess, targets)
            assert found.dtype == np.float64 and found.shape == targets.shape
            assert found.tolist() == [latency._least_reaching(step, guess, t) for t in targets]
            assert found.tolist() == [bisect_least(step, t) for t in targets]

    def test_array_search_falls_back(self, monkeypatch):
        # the targets of test_fallback do not settle in _NUDGES rounds, so
        # they, and only they, go to the scalar search
        fallbacks = []
        scalar = latency._least_reaching

        def spy(step, guess, t):
            fallbacks.append((step, t))
            return scalar(step, guess, t)

        monkeypatch.setattr(latency, "_least_reaching", spy)
        targets = np.array([5e-324, 1e-320, 1.0, 1e-3, 0.5])
        for step, guess in latency._ARRAY_STEPS:
            latency._least_reaching_all(step, guess, targets)
        assert {(z_plus, 5e-324), (z_plus, 1e-320), (z_minus, 1.0)} <= set(fallbacks)
        assert {t for _step, t in fallbacks} <= {5e-324, 1e-320, 1.0}

    @settings(max_examples=100, deadline=None)
    @given(zs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
           log2_t=st.floats(min_value=-1074.0, max_value=0.0),
           n=st.integers(min_value=0, max_value=40))
    @example(zs=[0.0, 5e-324, 1.0, math.nextafter(1.0, 0.0), math.nan], log2_t=-1074.0, n=40)
    def test_tables_decide_as_path_ends(self, zs, log2_t, n):
        # one comparison a kind decides what the s-step orbit of each map does
        threshold = 2.0 ** log2_t
        plus, minus = latency._thresholds(threshold, n)
        z = np.array(zs)
        for s in range(n + 1):
            best, worst = z.copy(), z.copy()
            for _ in range(s):
                best, worst = z_plus(best), z_minus(worst)
            assert (z >= plus[s]).tolist() == (best >= threshold).tolist()
            assert (z < minus[s]).tolist() == (worst < threshold).tolist()

    def test_scan_runs_no_orbit(self, bec_half, monkeypatch):
        # the maps run only on the scalars of the table search, and the
        # walk polarizes each level once
        args, levels = [], []
        for name in ("z_plus", "z_minus"):
            step = getattr(latency, name)
            monkeypatch.setattr(latency, name, lambda z, step=step: args.append(type(z)) or step(z))
        polarize = latency.polarize
        monkeypatch.setattr(latency, "polarize",
                            lambda z: levels.append(z.size) or polarize(z))
        n = 14
        tree = scan_ssc_tree(bec_half, n, 1e-3)
        assert args and set(args) == {float}
        assert len(levels) == n
        assert levels == [int(np.count_nonzero(k == M)) for k in tree.kinds[:0:-1]]


class TestSscLatency:
    def test_example8_fully_parallel(self, example8_code):
        # ten edges, all weight one
        assert ssc_latency(build_ssc_tree(example8_code), 4) == 10

    def test_example8_fully_serial(self, example8_code):
        # 2 edges x 4 + 4 edges x 2 + 4 edges x 1
        assert ssc_latency(build_ssc_tree(example8_code), 1) == 20

    def test_rate0_root_costs_nothing(self):
        code = build_code(bec(1.0), 5, 0.5)
        for P in (1, 2, 7, 16):
            assert ssc_latency(code, P) == 0

    def test_accepts_profile_tree_or_code(self, example8_code):
        tree = build_ssc_tree(example8_code)
        assert ssc_latency(example8_code, 4) == 10
        assert ssc_latency(tree, 4) == 10
        assert ssc_latency(tree.edge_profile(), 4) == 10

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ssc_latency([-5, 3], 1)
        with pytest.raises(ValueError):
            min_p_within_factor([2, -2, 2], 1.01)
        # counts are integers, numpy's too: the latency is exact integer arithmetic
        for bad in ([1, 2.5], [1, 2.0], [np.float64(2)], [True, 2], [np.True_, 2]):
            with pytest.raises(ValueError, match="integers"):
                ssc_latency(bad, 1)
        assert ssc_latency([np.int64(1), np.int32(2)], 1) == 5

    @pytest.mark.parametrize("call", [lambda p: ssc_latency(p, 1),
                                      lambda p: min_p_within_factor(p, 1.01),
                                      lambda p: latency_report(p, 1)],
                             ids=["ssc_latency", "min_p_within_factor", "latency_report"])
    def test_empty_profile_rejected(self, call):
        # no tree has n = 0: ssc_latency gave 0 and min_p_within_factor 1, for
        # an empty list and for a hand-made tree of one leaf, which SscTree rejects
        with pytest.raises(ValueError, match=r"^edge profile must have at least one level"):
            call([])
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0"):
            call(latency.SscTree((np.array([R1], np.uint8),)))

    def test_monotone_in_p(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            mask = rng.random(2 ** n) < rng.random()
            profile = build_ssc_tree(
                code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
            ).edge_profile()
            lats = [ssc_latency(profile, P) for P in range(1, 2 ** n + 2)]
            assert all(a >= b for a, b in zip(lats, lats[1:]))

    @given(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=16),
           st.integers(1, 2 ** 16))
    def test_non_increasing_in_p_property(self, profile, P):
        assert ssc_latency(profile, P) >= ssc_latency(profile, P + 1)

    def test_unprunable_tree_equals_full_tree(self):
        # alternating frozen/info leaves admit no pruning at all
        for n in (2, 4, 6):
            mask = np.arange(2 ** n) % 2 == 0
            code = code_from_frozen(bec(0.5), mask, 1e-2)
            for P in (1, 2, 3, 2 ** (n - 1)):
                assert ssc_latency(code, P) == sc_latency_tree(n, P)

    def test_never_exceeds_unpruned(self, bec_half):
        for n in (4, 8, 12):
            code = build_code(bec_half, n, 1e-3)
            for P in (1, 3, 2 ** (n - 1)):
                assert ssc_latency(code, P) <= sc_latency_tree(n, P)


class TestScLatency:
    def test_schedule_step_counts(self):
        assert sc_latency_tree(3, 4) == 14
        assert sc_latency_tree(3, 2) == 16
        assert sc_latency_tree(3, 1) == 24

    def test_closed_form_values(self):
        assert sc_latency_closed_form(8, 2) == 16
        assert sc_latency_closed_form(8, 1) == 24
        assert sc_latency_closed_form(8, 4) == 14

    @pytest.mark.parametrize("n", range(2, 21))
    def test_closed_form_equals_tree_sum(self, n):
        N = 2 ** n
        P = 1
        while P <= N // 2:
            assert sc_latency_closed_form(N, P) == sc_latency_tree(n, P)
            P *= 2

    @pytest.mark.parametrize("n", range(1, 25))
    def test_extreme_parallelism_identities(self, n):
        N = 2 ** n
        assert sc_latency_tree(n, max(1, N // 2)) == 2 * N - 2
        assert sc_latency_tree(n, 1) == N * n

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            sc_latency_closed_form(12, 2)
        with pytest.raises(ValueError):
            sc_latency_closed_form(16, 3)
        with pytest.raises(ValueError):
            sc_latency_closed_form(16, 16)


class TestLatencyBound:
    def test_direct_evaluation_large(self):
        # second term vanishes at N/P = 2
        got = latency_upper_bound(2 ** 16, 2 ** 15, 3.63, 1.0, 0.0)
        assert got == pytest.approx(3087.6349999881813, rel=1e-12)

    def test_direct_evaluation_serial(self):
        # c=0 isolates the (2+eps)(N/P) log2 log2 (N/P) term: 2*16*2
        assert latency_upper_bound(16, 1, 3.63, 0.0, 0.0) == pytest.approx(64.0)

    def test_boundary_ratio_four_is_valid(self):
        got = latency_upper_bound(256, 64, 3.63, 1.0, 0.5)
        assert got == pytest.approx(256 ** (1 - 1 / 3.63) + 2.5 * 4.0, rel=1e-12)

    def test_undefined_ratio_rejected(self):
        with pytest.raises(ValueError):
            latency_upper_bound(16, 16, 3.63, 1.0, 0.5)
        with pytest.raises(ValueError):
            latency_upper_bound(16, 32, 3.63, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"^N must be >= 2, got 1$"):
            latency_upper_bound(1, 1, 3.63, 1.0, 0.5)

    def test_serial_estimate(self):
        # the fully-serial asymptote (2+eps) N log2 log2 N is the P=1, c=0 case
        assert latency_upper_bound(16, 1, 3.63, 0.0, 0.0) == 64.0

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 0.0, -3.63])
    def test_bad_mu_rejected(self, mu):
        with pytest.raises(ValueError):
            latency_upper_bound(2 ** 10, 1, mu, 1.0, 0.5)

    @pytest.mark.parametrize("c, eps", [(math.inf, 0.5), (math.nan, 0.5), (-math.inf, 0.5),
                                        (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_constants_rejected(self, c, eps):
        with pytest.raises(ValueError):
            latency_upper_bound(2 ** 10, 1, 3.63, c, eps)


class TestMinP:
    def test_example8(self, example8_code):
        # P=3 costs 12 > 10.1, P=4 costs 10
        assert min_p_within_factor(example8_code, 1.01) == 4

    def test_all_frozen(self):
        code = build_code(bec(1.0), 4, 0.5)
        assert min_p_within_factor(code, 1.01) == 1
        assert min_p_within_factor(code, 1000.0) == 1

    def test_factor_validation(self, example8_code):
        with pytest.raises(ValueError):
            min_p_within_factor(example8_code, 0.99)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, example8_code, factor):
        with pytest.raises(ValueError):
            min_p_within_factor(example8_code, factor)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        mask = rng.random(2 ** n) < rng.random()
        profile = build_ssc_tree(
            code_from_frozen(BmsChannel(ChannelKind.BSC, 0.11), mask, 1e-2)
        ).edge_profile()
        factor = float(rng.uniform(1.0, 1.5))
        target = factor * ssc_latency(profile, 2 ** n // 2)
        brute = next(P for P in range(1, 2 ** n // 2 + 1)
                     if ssc_latency(profile, P) <= target)
        assert min_p_within_factor(profile, factor) == brute


    @given(st.lists(st.integers(0, 2 ** 12), min_size=1, max_size=12),
           st.floats(min_value=1.0, max_value=4.0))
    def test_result_is_minimal_property(self, profile, factor):
        P = min_p_within_factor(profile, factor)
        target = factor * ssc_latency(profile, max(1, 2 ** len(profile) // 2))
        assert ssc_latency(profile, P) <= target
        assert P == 1 or ssc_latency(profile, P - 1) > target


class TestLatencyReport:
    def test_fields(self, example8_code):
        rep = latency_report(example8_code, 4)
        assert (rep.n, rep.N, rep.P) == (3, 8, 4)
        assert rep.sc_tree == 14
        assert rep.sc_closed == 14
        assert rep.ssc == 10
        assert rep.normalized == pytest.approx(10 / 8)
        profile = build_ssc_tree(example8_code).edge_profile()
        assert latency_report(profile, 4).ssc == 10

    def test_closed_form_absent_for_odd_p(self, example8_code):
        rep = latency_report(example8_code, 3)
        assert rep.sc_closed is None
        assert rep.ssc <= rep.sc_tree

    def test_invariants_across_p(self, bec_half):
        code = build_code(bec_half, 8, 1e-3)
        for P in (1, 2, 5, 64, 128):
            rep = latency_report(code, P)
            assert rep.ssc <= rep.sc_tree
        assert latency_report(code, 128).sc_tree == 2 * 256 - 2
        assert latency_report(code, 1).sc_tree == 256 * 8
