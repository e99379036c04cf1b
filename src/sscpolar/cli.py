"""Command-line interface: construct, latency, simulate, sweep, bound.

Each command returns its records, ordered dicts of field to value, and
`main` prints them as `key=value` fields by experiments.format_value, the
sweep CSV's rule; a failing command prints none.  Exit codes: 0 on
success, 2 on usage or validation failure, 3 on I/O failure.  Every
subcommand is deterministic given its full flag set (including --seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Optional

from . import experiments
from .channel import (
    BmsChannel,
    ChannelKind,
    SCALING_EXPONENT,
    channel_from_capacity,
    make_channel,
)
from .codec import sc_ssc_agreement
from .construct import PolarCode, _check_n, build_code, load_code, save_code
from .experiments import MAX_SWEEP_N, SweepRecord, format_value, realize_policy
from .latency import latency_report, latency_upper_bound, scan_edge_profile
from .svgplot import Series, render_gnuplot, render_line_plot


class CliError(ValueError):
    """Validation failure that maps to exit code 2."""


def _required(value, flag: str):
    if value is None:
        raise CliError(f"{flag} is required")
    return value


def _channel_from_args(args) -> BmsChannel:
    kind = ChannelKind(_required(args.channel, "--channel"))
    if (args.capacity is None) == (getattr(args, "param", None) is None):
        raise CliError("exactly one of --capacity or --param is required")
    if args.capacity is not None:
        return channel_from_capacity(kind, args.capacity)
    return make_channel(kind, args.param)


def _code_from_args(args) -> Optional[PolarCode]:
    """The code file's code, or None without --code; no channel flag may come with it."""
    if args.code is None:
        return None
    given = [f"--{name}" for name in ("channel", "capacity", "param", "pe", "n")
             if getattr(args, name) is not None]
    if given:
        raise CliError(f"--code conflicts with {', '.join(given)}")
    return load_code(args.code)


def _cap_n(n: int, flag: str) -> int:
    """n, at most MAX_SWEEP_N: latency and bound go no deeper than the sweeps."""
    if n > MAX_SWEEP_N:
        raise CliError(f"{flag} must be <= {MAX_SWEEP_N}, got {n}")
    return n


def _build_from_args(args) -> PolarCode:
    channel = _channel_from_args(args)
    pe = _required(args.pe, "--pe")
    return build_code(channel, _required(args.n, "--n"), pe)


def cmd_construct(args) -> list[dict]:
    _required(args.out, "--out")
    code = _build_from_args(args)
    save_code(code, args.out)
    return [{"N": code.N, "k": code.k, "frozen": code.N - code.k, "rate": code.rate,
             "out": args.out}]


def _resolve_p(args, n: int, kind: ChannelKind) -> int:
    has_p = args.p is not None
    has_policy = args.policy is not None
    if has_p == has_policy:
        raise CliError("exactly one of --p or --policy is required")
    if has_p:
        return args.p
    mu = args.mu if args.mu is not None else SCALING_EXPONENT[kind]
    return realize_policy(args.policy, n, mu)


def cmd_latency(args) -> list[dict]:
    code = _code_from_args(args)
    if code is not None:
        profile = code  # latency helpers accept a PolarCode directly
        n, kind = code.n, code.channel.kind
    else:
        channel = _channel_from_args(args)
        pe = _required(args.pe, "--pe")
        n = _cap_n(_required(args.n, "--n"), "--n")
        kind = channel.kind
        profile = scan_edge_profile(channel, n, pe)
    P = _resolve_p(args, n, kind)
    return [asdict(latency_report(profile, P, n=n))]


def cmd_simulate(args) -> list[dict]:
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    code = _code_from_args(args) or _build_from_args(args)
    agree, trials, fer = sc_ssc_agreement(code, code.channel, args.trials, args.seed)
    return [{"trials": trials, "agree": f"{agree}/{trials}", "fer": fer, "seed": args.seed}]


def _sweep_series(fig: int, records: list[SweepRecord]) -> tuple[list[Series], str, str]:
    if fig == 6:
        series = []
        curves: dict[tuple, list[SweepRecord]] = {}
        for r in records:
            curves.setdefault((r.channel, r.capacity, r.pe, r.p_policy), []).append(r)
        for (kind, cap, pe, policy), recs in sorted(curves.items()):
            recs = sorted(recs, key=lambda r: r.n)
            label = (f"{kind} SC reference" if policy == experiments.SC_REFERENCE
                     else f"{kind} I={cap:g} pe={pe:g}")
            series.append(Series(label, [r.log2log2N for r in recs],
                                 [r.latency_norm for r in recs]))
        return series, "log2 log2 N", "latency / N"
    if fig == 7:
        series = []
        for policy in experiments.POLICIES:
            recs = sorted([r for r in records if r.p_policy == policy], key=lambda r: r.n)
            series.append(Series(f"P policy {policy}", [r.n for r in recs],
                                 [r.log2_latency for r in recs]))
        return series, "log2 N", "log2 latency"
    recs = sorted(records, key=lambda r: r.n)
    return ([Series("min P within factor", [r.n for r in recs], [r.log2P for r in recs])],
            "log2 N", "log2 P")


def cmd_sweep(args) -> list[dict]:
    _required(args.out, "--out")
    fig = args.figure
    if args.channel is not None and fig != 6:
        raise CliError("--channel applies to --figure 6 only")
    n_max = {} if args.nmax is None else {"n_max": args.nmax}
    if fig == 6:
        kinds = [ChannelKind(args.channel)] if args.channel else tuple(ChannelKind)
        records = experiments.run_serial_sweep(kinds=kinds, **n_max)
    elif fig == 7:
        records = experiments.run_policy_sweep(**n_max)
    else:
        records = experiments.run_parallelism_sweep(factor=args.factor, **n_max)
    experiments.write_csv(records, args.out)
    record = {"rows": len(records), "out": args.out}
    plot = _sweep_series(fig, records) if args.svg or args.gnuplot else None
    for flag, render in (("svg", render_line_plot), ("gnuplot", render_gnuplot)):
        path = getattr(args, flag)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render(*plot, title=f"sweep preset {fig}"))
            record[flag] = path
    return [record]


def cmd_bound(args) -> list[dict]:
    if args.c <= 0.0:
        raise CliError(f"--c must be positive, got {args.c}")
    if args.eps < 0.0:
        raise CliError(f"--eps must be >= 0, got {args.eps}")
    mu = args.mu if args.mu is not None else SCALING_EXPONENT[ChannelKind.BEC]
    if args.n is None and args.nmax is None:
        raise CliError("--n or --nmax is required")
    n_lo = args.n if args.n is not None else 4
    n_hi = args.nmax if args.nmax is not None else n_lo
    if n_hi < n_lo:
        raise CliError(f"--nmax must be >= --n, got {n_hi} < {n_lo}")
    _cap_n(n_hi, "--nmax" if args.nmax is not None else "--n")
    records = []
    for n in range(n_lo, n_hi + 1):
        N = 2 ** _check_n(n)
        P = _resolve_p(args, n, ChannelKind.BEC)
        value = latency_upper_bound(N, P, mu, args.c, args.eps)
        records.append({"n": n, "N": N, "P": P, "bound": value,
                        "log2_bound": math.log2(value)})
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscpolar",
        description="Polar code construction, SC/SSC decoding simulation, and "
                    "exact decoder latency under P processing elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(p, with_code=False):
        p.add_argument("--channel", choices=[k.value for k in ChannelKind])
        p.add_argument("--capacity", type=float)
        p.add_argument("--param", type=float)
        p.add_argument("--pe", type=float)
        p.add_argument("--n", type=int)
        if with_code:
            p.add_argument("--code", help="read the code from a code file instead")

    p = sub.add_parser("construct", help="construct a code and write its code file")
    add_channel_flags(p)
    p.add_argument("--out", required=False)

    p = sub.add_parser("latency", help="exact decoder latency for a code and PE count")
    add_channel_flags(p, with_code=True)
    p.add_argument("--p", type=int)
    p.add_argument("--policy", choices=experiments.POLICIES)
    p.add_argument("--mu", type=float)

    p = sub.add_parser("simulate", help="SC/SSC agreement and frame error rate")
    add_channel_flags(p, with_code=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("sweep", help="run an experiment preset and write CSV")
    p.add_argument("--figure", type=int, choices=(6, 7, 8), required=True)
    p.add_argument("--channel", choices=[k.value for k in ChannelKind],
                   help="restrict preset 6 to one channel family")
    p.add_argument("--nmax", type=int)
    p.add_argument("--factor", type=float, default=1.01)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.add_argument("--gnuplot")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility with older command lines; ignored")

    p = sub.add_parser("bound", help="evaluate the pruned-latency upper bound curve")
    p.add_argument("--n", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--policy", choices=experiments.POLICIES)
    p.add_argument("--mu", type=float)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.5)

    return parser


# each command, and what main puts between the fields of one of its records:
# a newline for one field a line, a space for one record (a row) a line
_COMMANDS = {
    "construct": (cmd_construct, "\n"),
    "latency": (cmd_latency, "\n"),
    "simulate": (cmd_simulate, "\n"),
    "sweep": (cmd_sweep, "\n"),
    "bound": (cmd_bound, " "),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, sep = _COMMANDS[args.command]
    try:
        for record in command(args):
            print(sep.join(f"{key}={format_value(value)}" for key, value in record.items()))
        return 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
