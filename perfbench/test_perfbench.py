"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs untraced and traced; the test checks the output
contract (last line of stdout, every named metric with its unit), that
the determinism gate and the audit passed, that the layers predicted
idle read as idle, and that the tracer leaves the program untouched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(tmp_path, workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
        "--tiny", "--out", str(tmp_path),
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tmp = tmp_path_factory.mktemp(f"{workload}-{trace}")
            proc = run_bench(tmp, workload, trace)
            record = json.loads((tmp / f"{workload}-seed3-trace{trace}.json").read_text())
            out[workload, trace] = (proc, record)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_contract(results, workload, trace):
    proc, record = results[workload, trace]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert record["gate"] == [] and record["audit"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(results, workload):
    proc, _record = results[workload, 0]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_sim_metrics_repeat_across_processes(results):
    """Same seed, two processes (different string-hash seeds): the
    sim-clock results are identical."""
    for workload in WORKLOADS:
        untraced = results[workload, 0][1]["sim"]
        traced = results[workload, 1][1]["sim"]
        assert untraced == traced, workload


def test_idle_layers_read_idle(results):
    def layer(workload, name):
        return results[workload, 1][1]["per_layer"][name]["value"]

    assert layer("vm-ingest", "rados.read_batch.calls") == 0
    assert layer("vm-ingest", "io_path.read_path.calls") == 0
    assert layer("restore-seq", "fingerprint.bytes") == 0
    assert layer("restore-seq", "engine.process_object.calls") == 0
    assert layer("restore-seq", "rados.read_batch.calls") > 0
    assert layer("vm-ingest", "rados.submit_batch.calls") > 0
    assert layer("db-oltp", "io_path.read_path.calls") > 0
    assert layer("db-oltp", "io_path.write_path.calls") > 0
    assert layer("vm-ingest", "rate_control.throttles") == 0


def test_host_record(results):
    host = results["vm-ingest", 0][1]["host"]
    assert {"nproc", "python", "numpy", "fingerprint_workers", "commit"} <= set(host)
    assert host["threads_max"] <= host["nproc"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "vm-ingest", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.bench import build_cluster, proposed
    from repro.cluster import RadosCluster
    from repro.core import client as facade, io_path
    from repro.sim import Simulator
    from tracing import Tracer

    originals = (RadosCluster.submit, Simulator.step, io_path.write_path, facade.write_path)
    storage = proposed(build_cluster())
    tracer = Tracer(storage.sim)
    with tracer:
        assert facade.write_path is not originals[3]
        storage.write_sync("obj", b"x" * 70000)
    assert (RadosCluster.submit, Simulator.step, io_path.write_path, facade.write_path) == originals
    assert storage.read_sync("obj") == b"x" * 70000
    by_id = {s.sid: s for s in tracer.spans}
    write = next(s for s in tracer.spans if s.name == "io_path.write_path")
    submit = next(s for s in tracer.spans if s.name == "rados.submit")
    assert by_id[submit.parent] is write
    disk = next(s for s in tracer.spans if s.name == "disk.write")
    # A replica's disk write runs in a spawned process: its ancestry
    # still reaches the write through the inherited parent.
    chain, span = [], disk
    while span.parent is not None:
        span = by_id[span.parent]
        chain.append(span.name)
    assert "io_path.write_path" in chain
    assert all(s.sim_end is not None and s.host_self <= s.host_incl + 1e-9 for s in tracer.spans)
    storage.engine.fingerprint_pool.shutdown()
