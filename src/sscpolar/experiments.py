"""Experiment sweeps over (channel, capacity, error target, n, PE policy).

Three presets mirror the package's standard latency-scaling plots:

* preset 6 - normalized fully-serial latency (L/N vs log2 log2 N) of the
  pruned decoder against the unpruned reference, per channel family;
* preset 7 - log2 latency vs log2 N for a ladder of PE-count policies on
  a capacity-1/2 BEC;
* preset 8 - smallest PE count whose latency stays within a factor of the
  fully-parallel implementation, same channel.

All sweeps are deterministic; rerunning a grid reproduces the CSV byte
for byte.  Preset 6 scans all its channels at each (n, pe) in one walk
(latency.scan_edge_profiles), since at a fixed (n, pe) the scans differ only
in each channel's z0.  Records are sorted before they are written, so the
CSV's row order does not depend on the order of the scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .channel import ChannelKind, SCALING_EXPONENT, channel_from_capacity
from .construct import _as_int, _check_n
from .latency import (
    check_factor,
    check_mu,
    min_p_within_factor,
    sc_latency_tree,
    scan_edge_profile,
    scan_edge_profiles,
    ssc_latency,
)

POLICIES = ("half", "sqrt", "invmu", "eighth", "one")

# p_policy value marking the unpruned-decoder reference rows in preset 6
SC_REFERENCE = "sc"

DEFAULT_CAPACITIES = (0.1, 0.5, 0.9)
DEFAULT_ERROR_TARGETS = (1e-3, 1e-10)
MAX_SWEEP_N = 27

_CSV_COLUMNS = ("channel", "capacity", "pe", "n", "log2N", "p_policy", "P", "latency",
                "latency_norm", "log2_latency")
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of an experiment sweep."""

    channel: str
    capacity: float
    pe: float
    n: int
    p_policy: str
    P: int
    latency: int

    @property
    def log2N(self) -> int:
        return self.n

    @property
    def latency_norm(self) -> float:
        return self.latency / 2 ** self.n

    @property
    def log2_latency(self) -> float:
        return math.log2(self.latency) if self.latency > 0 else float("-inf")

    @property
    def log2P(self) -> float:
        return math.log2(self.P)

    @property
    def log2log2N(self) -> float:
        return math.log2(self.n)


def realize_policy(policy: str, n: int, mu: float = SCALING_EXPONENT[ChannelKind.BEC]) -> int:
    """Map a PE policy to a concrete processing-element count at block size 2^n.

    Fractional targets are truncated toward zero (with a floor of 1 and a
    ceiling of N/2); truncation is what reproduces the reference latency
    tables point for point, where round-half-up does not.  n must be an
    integer >= 1 and mu positive and finite, whatever the policy.
    """
    check_mu(mu)
    N = 2 ** _check_n(n)
    if policy == "half":
        return max(1, N // 2)
    if policy == "one":
        return 1
    if policy == "sqrt":
        x = math.sqrt(N)
    elif policy == "invmu":
        x = N ** (1.0 / mu)
    elif policy == "eighth":
        x = N ** 0.125
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return max(1, min(int(x), N // 2))


def _check_n_range(n_min: int, n_max: int) -> range:
    n_min, n_max = _check_n(n_min), _as_int(n_max, "n_max")
    if not n_min <= n_max <= MAX_SWEEP_N:
        raise ValueError(f"need n_min <= n_max <= {MAX_SWEEP_N}, got [{n_min}, {n_max}]")
    return range(n_min, n_max + 1)


def _sort_records(records: list[SweepRecord]) -> list[SweepRecord]:
    order = {name: i for i, name in enumerate(POLICIES + (SC_REFERENCE,))}
    return sorted(records, key=lambda r: (r.channel, r.capacity, r.pe, r.n,
                                          order.get(r.p_policy, 99), r.p_policy))


def run_serial_sweep(kinds: Iterable[ChannelKind] = tuple(ChannelKind),
                     capacities: Iterable[float] = DEFAULT_CAPACITIES,
                     error_targets: Iterable[float] = DEFAULT_ERROR_TARGETS,
                     n_max: int = 22, n_min: int = 4) -> list[SweepRecord]:
    """Preset 6: fully-serial (P=1) pruned-decoder latency over the grid.

    Emits one record per (kind, capacity, pe, n) plus, per channel kind,
    an unpruned reference curve (p_policy='sc', capacity=pe=0) whose
    normalized latency is exactly n.
    """
    ns = _check_n_range(n_min, n_max)
    kinds, capacities, error_targets = tuple(kinds), tuple(capacities), tuple(error_targets)
    grid = [(kind, cap) for kind in kinds for cap in capacities]
    channels = [channel_from_capacity(kind, cap) for kind, cap in grid]
    records = []
    for pe in error_targets:
        for n in ns:
            profiles = scan_edge_profiles(channels, n, pe)
            for (kind, cap), profile in zip(grid, profiles):
                records.append(SweepRecord(kind.value, cap, pe, n, "one", 1,
                                           ssc_latency(profile, 1)))
    for kind in kinds:
        for n in ns:
            records.append(SweepRecord(kind.value, 0.0, 0.0, n, SC_REFERENCE, 1,
                                       sc_latency_tree(n, 1)))
    return _sort_records(records)


def run_policy_sweep(n_max: int = MAX_SWEEP_N, n_min: int = 4,
                     capacity: float = 0.5, pe: float = 1e-3,
                     policies: Sequence[str] = POLICIES) -> list[SweepRecord]:
    """Preset 7: latency ladder over PE policies, BEC at the given capacity."""
    ns = _check_n_range(n_min, n_max)
    channel = channel_from_capacity(ChannelKind.BEC, capacity)
    mu = SCALING_EXPONENT[ChannelKind.BEC]
    records = []
    for n in ns:
        profile = scan_edge_profile(channel, n, pe)
        for policy in policies:
            P = realize_policy(policy, n, mu)
            records.append(SweepRecord(ChannelKind.BEC.value, capacity, pe, n,
                                       policy, P, ssc_latency(profile, P)))
    return _sort_records(records)


def run_parallelism_sweep(n_max: int = MAX_SWEEP_N, n_min: int = 4, factor: float = 1.01,
                          capacity: float = 0.5, pe: float = 1e-3) -> list[SweepRecord]:
    """Preset 8: smallest P within `factor` of the fully-parallel latency."""
    check_factor(factor)
    ns = _check_n_range(n_min, n_max)
    channel = channel_from_capacity(ChannelKind.BEC, capacity)
    records = []
    for n in ns:
        profile = scan_edge_profile(channel, n, pe)
        P = min_p_within_factor(profile, factor)
        records.append(SweepRecord(ChannelKind.BEC.value, capacity, pe, n,
                                   "fixed", P, ssc_latency(profile, P)))
    return _sort_records(records)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_value(x) -> str:
    """The text of one value, in the CLI's output and in the CSV alike: a float to
    six significant digits, None as `na`, anything else by str."""
    if isinstance(x, float):
        return format(x, ".6g")
    return "na" if x is None else str(x)


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    row = attrgetter(*_CSV_COLUMNS)
    lines = [CSV_HEADER]
    lines.extend(",".join(map(format_value, row(r))) for r in records)
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(records_to_csv(records))
