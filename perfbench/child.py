"""One benchmark process: set up a workload, optionally time it, report.

Started by ``run.py`` as a fresh interpreter, so imports and memory
belong to this workload alone.  The peak-RSS count restarts when the
timed loop starts.  ``--t0`` is the parent's ``time.monotonic()`` just
before the start, so ``setup_s`` includes the interpreter start.  The
result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument(
        "--span-dir", help="trace the layers; spans are written here at exit"
    )
    parser.add_argument(
        "--setup-only", action="store_true", help="time the set-up and stop"
    )
    args = parser.parse_args()
    if args.span_dir:
        import tracing

        tracing.install(args.span_dir)
    workload = WORKLOADS[args.workload](args.workdir, args.seed, args.span_dir)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"setup_s": setup_s}, fh)
            return 0
        workload.reset_peak_rss()
        workload.run(args.seconds, args.min_ops)
        peak_rss_mb = workload.peak_rss_mb()
        checks_start = time.monotonic()
        failed, problems = workload.check()
        print(
            f"{args.workload}: setup {setup_s:.2f} s, "
            f"{workload.attempted} ops in "
            f"{workload.window[1] - workload.window[0]:.2f} s, "
            f"checks {time.monotonic() - checks_start:.2f} s",
            file=sys.stderr,
        )
        result = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": workload.attempted,
            "latencies": workload.latencies,
            "refs": workload.refs,
            "kernel_s": workload.kernel_s,
            "window": list(workload.window),
            "failed": failed,
            "problems": problems,
            "extras": workload.extras(),
        }
    finally:
        workload.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
