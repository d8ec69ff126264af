#!/usr/bin/env python
"""Regenerate the committed perf-smoke baseline.

Runs the fast-mode perf harness and writes a fresh
``perf_baseline.json`` in the format :func:`repro.perf.harness
.compare_to_baseline` consumes.  CI's ``perf-baseline-refresh`` job
runs this and uploads the result as an artifact; review the numbers and
commit the file to ``benchmarks/baselines/perf_baseline.json``.

With ``--from-artifact BENCH_perf.json`` no harness runs: the baseline
is derived from an already-recorded report — e.g. the artifact the
perf-smoke CI job uploads — so the committed numbers can come from the
exact machine/run that produced them.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="benchmarks/baselines/perf_baseline.json",
        help="where to write the refreshed baseline",
    )
    parser.add_argument(
        "--speedup-floor",
        type=float,
        default=1.5,
        help="min_speedup_floor to embed (default: %(default)s)",
    )
    parser.add_argument(
        "--read-speedup-floor",
        type=float,
        default=1.5,
        help=(
            "min_read_speedup_floor to embed: the batched read path "
            "(fan-out + coalescing + chunk data cache) must beat the "
            "sequential uncached one by this factor (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--from-artifact",
        default=None,
        metavar="PATH",
        help=(
            "derive the baseline from this BENCH_perf.json report "
            "(e.g. a downloaded CI artifact) instead of running the harness"
        ),
    )
    args = parser.parse_args(argv)

    from repro.perf.harness import render_report, run_perf

    if args.from_artifact:
        try:
            with open(args.from_artifact, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read artifact: {exc}", file=sys.stderr)
            return 2
        if report.get("schema") != 1:
            print(
                f"error: unsupported report schema {report.get('schema')!r}"
                " (expected 1)",
                file=sys.stderr,
            )
            return 2
        if "calibrated_ops_per_sec" not in report.get("summary", {}):
            print(
                "error: artifact has no summary.calibrated_ops_per_sec",
                file=sys.stderr,
            )
            return 2
        recorded_with = (
            f"artifact {args.from_artifact} (seed {report.get('seed')},"
            f" fast={report.get('fast')}, schema 1)"
        )
    else:
        report = run_perf(fast=True)
        for line in render_report(report):
            print(line)
        recorded_with = "repro perf --fast (seed 0, schema 1)"
    if not report["summary"]["all_verified"]:
        print("refusing to write baseline: verification failed", file=sys.stderr)
        return 1

    baseline = {
        "comment": (
            "Committed perf-smoke baseline; refresh via the "
            "perf-baseline-refresh workflow_dispatch job "
            "(scripts/refresh_perf_baseline.py)."
        ),
        "recorded_with": recorded_with,
        "min_speedup_floor": args.speedup_floor,
        "min_read_speedup_floor": args.read_speedup_floor,
        "calibrated_ops_per_sec": {
            name: round(rate)
            for name, rate in report["summary"]["calibrated_ops_per_sec"].items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
