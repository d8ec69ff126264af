#!/usr/bin/env python
"""Gate the observability layer's runtime overhead (CI's ``obs-overhead``).

Measures the dedup-phase cost of op tracing with the perf harness's own
discipline — traced and untraced runs of each simulated workload
interleaved (t, u, t, u, ...) and the fastest wall time kept, so slow
host drift hits both legs equally — and fails if tracing costs more
than the allowed fraction of dedup throughput.  A full traced
``run_perf`` report is additionally gated against the committed perf
baseline (``benchmarks/baselines/perf_baseline.json``), so "tracing
on" stays within budget of the committed numbers, not just of a
same-machine control run.  The overhead bound is tight (5 %: the two
legs run back-to-back on one host, so the ratio is clean); the
baseline leg uses the perf-smoke job's wider calibrated-rate tolerance
(25 %), because absolute calibrated ops/s carry cross-machine and
host-load noise that the machine-score calibration only partly removes.

Writes the whole comparison as ``BENCH_obs_overhead.json`` (the job's
artifact).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Workloads with no simulator (and therefore no tracer) — excluded
#: from the traced/untraced ratio, which would be pure noise for them.
UNTRACED_WORKLOADS = {"pipeline-chunk-fingerprint"}


def measure_overhead(repeats: int) -> dict:
    """Interleaved best-of traced/untraced dedup rates per sim workload."""
    from repro.perf.harness import WORKLOADS

    overhead = {}
    for name, runner in WORKLOADS.items():
        if name in UNTRACED_WORKLOADS:
            continue
        best_traced = best_untraced = None
        for _ in range(repeats):
            t = runner("batched", {}, 0, True, True)
            if best_traced is None or t.dedup_wall_seconds < best_traced.dedup_wall_seconds:
                best_traced = t
            u = runner("batched", {}, 0, True, False)
            if best_untraced is None or u.dedup_wall_seconds < best_untraced.dedup_wall_seconds:
                best_untraced = u
        control_rate = best_untraced.dedup_ops_per_sec
        traced_rate = best_traced.dedup_ops_per_sec
        overhead[name] = {
            "untraced_dedup_ops_per_sec": control_rate,
            "traced_dedup_ops_per_sec": traced_rate,
            "ratio": traced_rate / control_rate if control_rate else 0.0,
            "identical_results": (
                best_traced.readback_digest == best_untraced.readback_digest
                and best_traced.refcounts == best_untraced.refcounts
            ),
            "span_stages": len(best_traced.spans),
        }
    return overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="allowed fractional dedup-throughput loss with tracing on "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed calibrated ops/s regression of the traced run vs the "
        "committed baseline (default: %(default)s, matching the perf-smoke "
        "gate: calibrated absolute rates are host-noise-bound, unlike the "
        "interleaved overhead ratio)",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/baselines/perf_baseline.json",
        help="committed perf baseline to gate the traced run against "
        "(default: %(default)s; empty string skips)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="best-of-N repeats per (workload, mode) pair (default: %(default)s; "
        "the fast-mode drains are ~50 ms, so the ratio needs several "
        "samples to shake host jitter out of both legs)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_obs_overhead.json",
        help="where to write the comparison report (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.perf.harness import compare_to_baseline, run_perf

    print("measuring tracing overhead (interleaved traced/untraced) ...")
    overhead = measure_overhead(args.repeats)
    failures = []
    for name, entry in overhead.items():
        print(
            f"  {name}: {entry['untraced_dedup_ops_per_sec']:.0f} -> "
            f"{entry['traced_dedup_ops_per_sec']:.0f} dedup ops/s "
            f"({entry['ratio']:.3f}x traced/untraced)"
        )
        if entry["ratio"] < 1.0 - args.max_overhead:
            failures.append(
                f"{name}: tracing costs {1.0 - entry['ratio']:.1%} of dedup"
                f" throughput (allowed {args.max_overhead:.0%})"
            )
        if not entry["identical_results"]:
            failures.append(
                f"{name}: traced and untraced runs produced different results"
            )
        if not entry["span_stages"]:
            failures.append(f"{name}: traced run recorded no span rollup")

    print("running traced perf report for the baseline gate ...")
    traced = run_perf(fast=True, repeats=args.repeats, trace=True)
    if not traced["summary"]["all_verified"]:
        failures.append("traced run failed verification")

    baseline_failures = []
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        baseline_failures = compare_to_baseline(
            traced, baseline, max_regression=args.max_regression
        )
        failures.extend(f"baseline: {f}" for f in baseline_failures)

    report = {
        "schema": 1,
        "max_overhead": args.max_overhead,
        "max_regression": args.max_regression,
        "overhead": overhead,
        "baseline": args.baseline or None,
        "baseline_failures": baseline_failures,
        "failures": failures,
        "traced": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"obs-overhead gate passed (tolerance {args.max_overhead:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
