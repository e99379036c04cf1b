"""Run one `sscpolar` CLI command repeatedly in one interpreter and report its costs.

Usage: python3 child.py SRC_DIR --setup-only
       python3 child.py SRC_DIR SECONDS -- CLI_ARG...

Prints one JSON object on stdout.  `ready` is the CLOCK_MONOTONIC time at
which `sscpolar.cli` was imported and its parser built, so the parent can
subtract its own spawn time.  With CLI arguments it then calls
`cli.main(argv)` in the current directory until the next call would end
after SECONDS (at least once), and reports for every call its wall and CPU
seconds, exit code, the text `main` printed and the sha256 of every file it
wrote; after each call those files are removed, so that the next call must
write them again.  `peak_rss_mb` is this process's peak RSS over all calls.
sscpolar keeps no caches between calls, so every call does the same work.

Each call also reports `ref_s`, the mean of `ref_loop_s()` timed just
before and just after it.  The host this benchmark was tuned on (2 shared
vCPUs) runs the same call anywhere from 1.7 to 3.4 s, in phases of tens of
seconds to minutes; a call's wall time divided by `ref_s` spread two to
three times less from run to run, because the loop slows down with the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


REF_LOOPS = 8  # the reference loop's time is the mean of this many runs


def ref_loop_s() -> float:
    """Seconds of a fixed pure-Python loop, the mean of REF_LOOPS runs.

    The loop does float arithmetic, integer masks and dict stores, the kind
    of interpreter work that sscpolar's scans and decoders do per node.  It
    belongs to the benchmark, so a change to sscpolar cannot change it.  A
    mean, not a minimum: the call lives through the host's slow moments too,
    and in trials the mean cut the run-to-run spread of the ratio by a
    quarter against the best of three.
    """
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        d = {}
        acc = 0.0
        for i in range(200_000):
            z = (i % 97) / 97.0
            z = 2 * z - z * z
            d[i & 1023] = z
            acc += z
    return (time.perf_counter() - t0) / REF_LOOPS


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # every thread of this process
    return ru.ru_utime + ru.ru_stime


def one_call(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    error = ""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a failed call, not a crash of the benchmark
            rc = -1
            error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    sha256 = {}
    for name in sorted(os.listdir(".")):
        if os.path.isfile(name):
            with open(name, "rb") as fh:
                sha256[name] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(name)
    return {"wall_s": wall, "cpu_s": cpu, "rc": rc, "stdout": out.getvalue(),
            "error": error, "sha256": sha256}


def main() -> int:
    src, mode, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import sscpolar.cli as cli

    cli.build_parser()
    ready = time.monotonic()
    if mode == "--setup-only":
        print(json.dumps({"ready": ready}))
        return 0

    import numpy
    import scipy

    seconds = float(mode)
    cli_args = rest[1:]  # after "--"
    calls = []
    ref_before = ref_loop_s()
    while True:
        call = one_call(cli, cli_args)
        ref_after = ref_loop_s()
        call["ref_s"] = (ref_before + ref_after) / 2
        calls.append(call)
        ref_before = ref_after
        if time.monotonic() - ready + call["wall_s"] + ref_after > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "ready": ready, "calls": calls, "peak_rss_mb": peak_kb / 1024.0,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
