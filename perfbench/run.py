"""System benchmark of the deduplicated store, on two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vm-ingest --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed`` (a few
independent parts), then repeats rounds (fresh cluster, set-up, measured
phase), cycling through the parts, until ``--seconds`` have passed.  It
reports:

* **sim** metrics from the modelled system (latency, MB/s, space),
  pooled over the parts.  They are deterministic for a seed, so every
  round of a part must reproduce them exactly (the determinism gate);
* **host** metrics of what the simulator costs to run, as medians over
  the rounds.

``--trace 1`` adds one traced round of part 0: wrappers installed from
outside the program time every call into each layer's public functions,
giving the per-layer metrics; its sim metrics and counters must equal
the untraced rounds'.  The first round of every part, and the traced
round, are audited (read-back against a shadow copy, scrub, refcounts).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
full record, and the traced round's spans, go to ``.perfbench-out/``.
Exit status is 0 only when every op, the audit and the gate passed; 2
when the program itself (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
META = json.loads((HERE / "meta.json").read_text())

#: End-to-end metrics: name -> (unit, clock).
E2E = {
    "op_mean_ms": ("ms", "sim"),
    "op_p99_ms": ("ms", "sim"),
    "sim_MBps": ("MB/s", "sim"),
    "stored_per_user_byte": ("ratio", "sim"),
    "host_ops_per_s": ("1/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
}


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: the program is missing ({src / 'repro'} not found)\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


#: Nominal duration of :func:`reference_seconds` on the machine the
#: bounds were set on (2-core x86 VM, Python 3.11).
REFERENCE_SECONDS = 0.18


def reference_seconds(processes: int = 10000) -> float:
    """Host seconds of a fixed, self-contained event loop.

    Generators on a heap with small dict and bytes churn: the same kind
    of interpreter- and memory-bound work as the simulator, but sharing
    no code with it.  Run just before and after each measured phase, it
    tracks how fast the machine is at that moment; ``host_ops_per_s``
    and ``setup_s`` are scaled by it so that other tenants' load on a
    shared host does not read as a change of the program.
    """
    t0 = perf_counter()
    heap, seq, store = [], 0, {}

    def proc(i):
        for k in range(4):
            store[i, k] = bytes(256)
            yield (i * 7 + k * 13) % 97 * 1e-6
            store.pop((i, k - 1), None)

    for i in range(processes):
        seq += 1
        heapq.heappush(heap, (0.0, seq, proc(i)))
    while heap:
        now, _seq, gen = heapq.heappop(heap)
        for delay in gen:
            seq += 1
            heapq.heappush(heap, (now + delay, seq, gen))
            break
    return perf_counter() - t0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Round:
    """One round of one part: set-up, measured phase, what it produced."""

    def __init__(self, workload, traced: bool = False, untraced_host_s: float = 0.0):
        from layers import cross_check, diff, layer_metrics, program_counters
        from tracing import Tracer

        self.part = workload.part
        gc.collect()
        t0 = perf_counter()
        storage = workload.build()
        clients = workload.clients(storage)
        workload.setup(storage)
        self.setup_s = perf_counter() - t0
        before = program_counters(storage, clients)
        tracer = Tracer(storage.sim) if traced else None
        reference = reference_seconds()
        sim0 = storage.sim.now
        t1 = perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            phase = workload.run(storage, clients, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        phase.host_s = perf_counter() - t1
        phase.sim_s = storage.sim.now - sim0
        #: Machine speed around the phase, as seconds of the reference loop.
        self.reference_s = (reference + reference_seconds()) / 2
        self.phase = phase
        self.threads = threading.active_count() - 1  # besides the main thread
        self.fingerprint_workers = storage.engine.fingerprint_pool.workers
        self.counts = diff(program_counters(storage, clients), before)
        #: Space at the end of the measured phase.
        self.raw_used = storage.space_report().raw_used_bytes
        self.logical = workload.logical_bytes()
        self.storage = storage
        self.tracer = tracer
        self.layers = {}
        self.cross_check = []
        if tracer is not None:
            self.layers = layer_metrics(tracer, phase, self.counts, storage, untraced_host_s)
            self.cross_check = cross_check(tracer, self.counts)

    def fingerprint(self):
        """Everything that must repeat exactly for this part."""
        from layers import sim_counts

        p = self.phase
        return {
            "latency": p.latency, "user_bytes": p.user_bytes, "sim_s": p.sim_s,
            "ops": p.ops, "failed": p.failed, "raw_used": self.raw_used,
            "logical": self.logical, **sim_counts(self.counts),
        }

    def close(self, workload, audit_it: bool):
        """Optionally audit, then stop the program's threads."""
        from workloads import audit

        problems = []
        if audit_it:
            workload.quiesce(self.storage)
            problems = audit(self.storage, workload.expected())
        self.storage.engine.fingerprint_pool.shutdown()
        self.storage = None
        return problems


def _difference(a: Round, b: Round) -> str:
    fa, fb = a.fingerprint(), b.fingerprint()
    for name in fa:
        if fa[name] != fb.get(name):
            if name == "latency":
                return "latency samples differ"
            return f"{name}: {fa[name]} vs {fb.get(name)}"
    return "?"


def pooled_sim_metrics(rounds):
    """Sim-clock metrics over one round of every part."""
    from workloads import percentile

    lat = {"read": [], "write": []}
    for r in rounds:
        for kind in lat:
            lat[kind] += r.phase.latency[kind]
    samples = lat["read"] + lat["write"]
    sim_s = sum(r.phase.sim_s for r in rounds)
    top, q = percentile(samples)
    out = {
        "op_mean_ms": statistics.fmean(samples) * 1e3 if samples else 0.0,
        "op_p50_ms": percentile(samples, 0.50, 0)[0] * 1e3,
        "op_p99_ms": top * 1e3,
        "op_top_quantile": q,
        "op_samples": len(samples),
        "sim_MBps": sum(r.phase.user_bytes for r in rounds) / sim_s / 1e6 if sim_s else 0.0,
        "stored_per_user_byte": sum(r.raw_used for r in rounds)
        / max(1, sum(r.logical for r in rounds)),
        "sim_s": sim_s,
    }
    for kind, values in lat.items():
        out[f"{kind}_ops"] = len(values)
        out[f"{kind}_p50_ms"] = percentile(values, 0.50, 0)[0] * 1e3
        value, q = percentile(values)
        out[f"{kind}_p99_ms"] = value * 1e3
        out[f"{kind}_top_quantile"] = q
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=META["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--out", default=str(ROOT / ".perfbench-out"))
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    parts = [cls(args.seed, part, tiny=args.tiny) for part in range(cls.parts)]

    # Whole cycles through the parts (at least two, so every part is
    # checked against itself) until the time is up; the first round of
    # each part is kept as its reference and audited.
    rounds, first, problems, gate = [], {}, [], []
    start = perf_counter()
    while (
        len(rounds) < 2 * len(parts)
        or perf_counter() - start < args.seconds
        or len(rounds) % len(parts)
    ):
        workload = parts[len(rounds) % len(parts)]
        r = Round(workload)
        rounds.append(r)
        ref = first.setdefault(r.part, r)
        if r is not ref and r.fingerprint() != ref.fingerprint():
            gate.append(f"round {len(rounds) - 1} (part {r.part}) differs: {_difference(ref, r)}")
        problems += r.close(workload, audit_it=r is ref)

    traced = None
    if args.trace:
        untraced = statistics.median(r.phase.host_s for r in rounds if r.part == 0)
        traced = Round(parts[0], traced=True, untraced_host_s=untraced)
        if traced.fingerprint() != first[0].fingerprint():
            gate.append(f"traced round differs: {_difference(first[0], traced)}")
        gate += traced.cross_check
        os.makedirs(args.out, exist_ok=True)
        traced.tracer.write(str(Path(args.out) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        problems += traced.close(parts[0], audit_it=True)

    all_rounds = rounds + ([traced] if traced else [])
    threads_max = max(r.threads for r in all_rounds)
    if threads_max > nproc():
        gate.append(f"{threads_max} threads started, more than nproc={nproc()}")
    attempted = sum(r.phase.ops for r in all_rounds)
    failed = sum(r.phase.failed for r in all_rounds) + len(problems) + len(gate)

    sim = pooled_sim_metrics([first[p.part] for p in parts])
    e2e = {
        "op_mean_ms": sim["op_mean_ms"],
        "op_p99_ms": sim["op_p99_ms"],
        "sim_MBps": sim["sim_MBps"],
        "stored_per_user_byte": sim["stored_per_user_byte"],
        "host_ops_per_s": statistics.median(
            r.phase.ops / r.phase.host_s * r.reference_s / REFERENCE_SECONDS for r in rounds
        ),
        "setup_s": statistics.median(
            r.setup_s * REFERENCE_SECONDS / r.reference_s for r in rounds
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "parts": len(parts),
        "rounds": len(rounds),
        "host": {
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": has_numpy,
            "fingerprint_workers": rounds[0].fingerprint_workers,
            "threads_max": threads_max,
            "commit": commit_id(),
        },
        "end_to_end": {k: {"value": v, "unit": E2E[k][0], "clock": E2E[k][1]} for k, v in e2e.items()},
        "failed_op_ratio": failed / max(1, attempted),
        "sim": sim,
        "round_host_s": [r.phase.host_s for r in rounds],
        "round_reference_s": [r.reference_s for r in rounds],
        "host_ops_per_s_unscaled": statistics.median(r.phase.ops / r.phase.host_s for r in rounds),
        "setup_s_unscaled": statistics.median(r.setup_s for r in rounds),
        "round_setup_s": [r.setup_s for r in rounds],
        "counts": [first[p.part].counts for p in parts],
        "gate": gate,
        "audit": problems,
        "op_errors": [e for r in all_rounds for e in r.phase.errors][:10],
    }
    if traced is not None:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in traced.layers.items()}
        record["traced_host_s"] = traced.phase.host_s
        record["spans"] = len(traced.tracer.spans)

    _print_human(record)
    os.makedirs(args.out, exist_ok=True)
    out = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    if traced is not None:
        metrics = record["per_layer"]
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["end_to_end"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _print_human(record) -> None:
    print(f"== perfbench {record['workload']} seed={record['seed']} "
          f"parts={record['parts']} rounds={record['rounds']} ==")
    print("host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    for name, m in record["end_to_end"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']:<6} [{m['clock']}]")
    sim = record["sim"]
    print(f"{'op_p50_ms':<28} {sim['op_p50_ms']:>14.6g} ms     [sim] (n={sim['op_samples']})")
    for kind in ("write", "read"):
        if sim[f"{kind}_ops"]:
            print(f"{kind + '_p50_ms':<28} {sim[f'{kind}_p50_ms']:>14.6g} ms     [sim]")
            print(f"{kind + '_p99_ms':<28} {sim[f'{kind}_p99_ms']:>14.6g} ms     [sim] "
                  f"(q={sim[f'{kind}_top_quantile']:.4f}, n={sim[f'{kind}_ops']})")
    print(f"{'failed_op_ratio':<28} {record['failed_op_ratio']:>14.6g} ratio")
    for name, m in record.get("per_layer", {}).items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for line in record["gate"]:
        print(f"GATE FAILED: {line}")
    for line in record["audit"]:
        print(f"AUDIT FAILED: {line}")
    for line in record["op_errors"]:
        print(f"OP FAILED: {line}")


if __name__ == "__main__":
    sys.exit(main())
