#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml: runs the same jobs with the
# same commands so a green run here predicts a green run in Actions.
# Tools that only CI installs (ruff, mypy, pytest-cov) are skipped with
# a notice when absent.  Usage:
#
#   scripts/ci_local.sh               # lint + invariants + tests + coverage + faults + elasticity + perf + perfbench + paper-smoke
#   scripts/ci_local.sh --bench-full  # also the full (slow) benchmark suite
set -u
cd "$(dirname "$0")/.."

RUN_BENCH_FULL=0
[ "${1:-}" = "--bench-full" ] && RUN_BENCH_FULL=1

FAILURES=0
step() {
    echo
    echo "==> $1"
    shift
    if "$@"; then
        echo "    OK"
    else
        echo "    FAILED: $*"
        FAILURES=$((FAILURES + 1))
    fi
}

# -- workflow sanity: the YAML must at least parse --------------------------
step "ci.yml parses as YAML" python - <<'EOF'
import sys
try:
    import yaml
except ImportError:
    print("    (PyYAML not installed; structural check skipped)")
    sys.exit(0)
with open(".github/workflows/ci.yml") as fh:
    doc = yaml.safe_load(fh)
jobs = doc["jobs"]
expected = {
    "lint", "lint-invariants", "sanitizer-smoke", "test", "test-no-numpy",
    "coverage", "faults-smoke", "elasticity-smoke", "perf-smoke",
    "perfbench-smoke", "obs-smoke", "obs-overhead", "perf-baseline-refresh",
    "paper-smoke", "bench-full",
}
assert expected <= set(jobs), jobs.keys()
sseeds = jobs["sanitizer-smoke"]["strategy"]["matrix"]["sanitizer-seed"]
assert len(set(sseeds)) == 3, sseeds
matrix = jobs["test"]["strategy"]["matrix"]["python-version"]
assert matrix == ["3.9", "3.11", "3.12", "3.13"], matrix
seeds = jobs["faults-smoke"]["strategy"]["matrix"]["fault-seed"]
assert len(set(seeds)) == 3, seeds
eseeds = jobs["elasticity-smoke"]["strategy"]["matrix"]["elasticity-seed"]
assert len(set(eseeds)) == 3, eseeds
concurrency = doc["concurrency"]
assert concurrency["cancel-in-progress"] is True, concurrency
EOF

# -- lint job ---------------------------------------------------------------
if command -v ruff >/dev/null 2>&1; then
    step "lint: ruff check" ruff check src tests benchmarks
else
    echo
    echo "==> lint: ruff not installed locally; skipping (CI installs it)"
fi

# -- lint-invariants job ----------------------------------------------------
step "lint-invariants: repro lint" \
    env PYTHONPATH=src python -m repro lint --format json --out lint-findings.json
# mypy_gate.py itself skips with a notice when mypy is not installed.
step "lint-invariants: mypy gate" python scripts/mypy_gate.py

# -- sanitizer-smoke job ----------------------------------------------------
for seed in 11 29 4242; do
    step "sanitizer-smoke: lock sanitizer over both scenarios, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" sanitize \
        --out sanitize-report.json
done

# -- test job (this interpreter stands in for the version matrix) -----------
step "test: tier-1 suite" env PYTHONPATH=src python -m pytest -x -q

# -- test-no-numpy job -------------------------------------------------------
# CI uninstalls NumPy outright; locally REPRO_NO_NUMPY=1 forces the same
# pure-Python fallback paths (chunking reference scanners, GF(256) via
# bytes.translate) without touching the environment.
step "test-no-numpy: tier-1 suite, pure-Python fallback" \
    env PYTHONPATH=src REPRO_NO_NUMPY=1 python -m pytest -x -q

# -- coverage job -----------------------------------------------------------
if python -c "import pytest_cov" >/dev/null 2>&1; then
    step "coverage: tier-1 suite with floor" \
        env PYTHONPATH=src python -m pytest -q \
        --cov=repro --cov-report=term --cov-fail-under=70
else
    echo
    echo "==> coverage: pytest-cov not installed locally; skipping (CI installs it)"
fi

# -- faults-smoke job -------------------------------------------------------
for seed in 11 29 4242; do
    step "faults-smoke: suite, seed $seed" \
        env PYTHONPATH=src REPRO_FAULT_SEED="$seed" python -m pytest -x -q tests/faults
    step "faults-smoke: CLI scenario, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" faults
done

# -- elasticity-smoke job ---------------------------------------------------
for seed in 11 29 4242; do
    step "elasticity-smoke: online expand + decommission, seed $seed" \
        env PYTHONPATH=src python -m repro --seed "$seed" rebalance
done

# -- perf-smoke job ---------------------------------------------------------
# Runs every harness workload, including the read-heavy
# read-sequential-deduped one: the baseline gates min_speedup,
# min_read_speedup (the chunk data cache over the batched fan-out), and
# the >60% re-read chunk-cache hit rate.
step "perf-smoke: harness vs committed baseline" \
    env PYTHONPATH=src python -m repro perf --fast \
    --out BENCH_perf.json \
    --profile BENCH_perf_profile.json \
    --baseline benchmarks/baselines/perf_baseline.json

# -- perfbench-smoke job ---------------------------------------------------
step "perfbench-smoke: system benchmark test suite" \
    python3 -m pytest perfbench -q

# -- obs-smoke job ----------------------------------------------------------
step "obs-smoke: traced workload + integrity checks" \
    env PYTHONPATH=src python -m repro obs trace \
    --out trace.jsonl --metrics-out metrics.prom
step "obs-smoke: span rollup report" \
    env PYTHONPATH=src python -m repro obs report --trace trace.jsonl

# -- obs-overhead job -------------------------------------------------------
step "obs-overhead: tracing overhead vs untraced + baseline" \
    env PYTHONPATH=src python scripts/check_obs_overhead.py

# -- paper-smoke job --------------------------------------------------------
step "paper-smoke: fast-mode paper-shape benchmarks" \
    env PYTHONPATH=src REPRO_BENCH_FAST=1 python -m pytest -q benchmarks \
    --benchmark-json=paper-smoke.json

# -- bench-full job (nightly / dispatch input; opt-in locally) ---------------
if [ "$RUN_BENCH_FULL" = 1 ]; then
    step "bench-full: full benchmark suite" \
        env PYTHONPATH=src python -m pytest -q benchmarks \
        --benchmark-json=bench-full.json
else
    echo
    echo "==> bench-full: skipped (pass --bench-full to run)"
fi

# -- perf-baseline-refresh job (manual-only in CI; notice here) --------------
echo
echo "==> perf-baseline-refresh: manual-only (run scripts/refresh_perf_baseline.py to regenerate)"

echo
if [ "$FAILURES" -ne 0 ]; then
    echo "ci_local: $FAILURES step(s) FAILED"
    exit 1
fi
echo "ci_local: all steps passed"
