"""Per-layer metrics of the traced run, and the counters the gate compares.

``program_counters`` reads the program's own public counters (device
totals, tier stage counters, engine and rate-control stats); the
difference across a measured phase is the same whether or not the
phase was traced, which is what the determinism gate checks.
``layer_metrics`` turns a traced phase's spans and plain-call counters
into the named per-layer metrics.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Tuple

from workloads import percentile

__all__ = ["program_counters", "diff", "sim_counts", "layer_metrics", "cross_check"]

#: Stage counters that hold host seconds, not counts.  They are kept
#: under ``host.`` names, which the determinism gate skips.
_HOST_FIELDS = {
    "fingerprint_seconds": "host.fingerprint_s",
    "fingerprint_pool_busy_seconds": "host.fingerprint_busy_s",
    "fingerprint_pool_wall_seconds": "host.fingerprint_wall_s",
}


def program_counters(storage, clients) -> Dict[str, float]:
    """A flat snapshot of the program's public counters."""
    cluster, tier, engine = storage.cluster, storage.tier, storage.engine
    disks = [osd.disk for osd in cluster.osds.values()]
    nics = [node.nic for node in cluster.nodes.values()] + [c.nic for c in clients]
    out: Dict[str, float] = {
        "disk.reads": sum(d.reads for d in disks),
        "disk.writes": sum(d.writes for d in disks),
        "disk.bytes": sum(d.bytes_read + d.bytes_written for d in disks),
        "nic.bytes": sum(n.bytes_sent + n.bytes_received for n in nics),
        "cpu.busy_s": sum(node.cpu.busy_seconds for node in cluster.nodes.values()),
        "rate.throttled": tier.rate.throttled,
        "rate.passed": tier.rate.passed,
        "retry.retries": tier.retry_stats.retries,
        # The kernel's event counter has no public accessor.
        "sim.events": getattr(storage.sim, "_processed_events", 0),
    }
    for name, value in tier.stage.snapshot().items():
        out[_HOST_FIELDS.get(name, f"stage.{name}")] = value
    for name, value in asdict(engine.stats).items():
        out[f"engine.{name}"] = value
    return out


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def sim_counts(counts: Dict[str, float]) -> Dict[str, float]:
    """The counters that must repeat exactly for a given seed."""
    return {k: v for k, v in counts.items() if not k.startswith("host.")}


class _Agg:
    __slots__ = (
        "calls", "items", "nbytes", "sim", "closed_s", "host_incl", "host_self", "service", "errors",
    )

    def __init__(self):
        self.calls = self.items = self.nbytes = self.errors = 0
        self.host_incl = self.host_self = self.service = self.closed_s = 0.0
        #: Simulated duration of every call; one still open at the end of
        #: the phase counts up to the end (e.g. a throttled engine pass).
        self.sim: List[float] = []


def _aggregate(spans, phase_end: float) -> Dict[str, _Agg]:
    out: Dict[str, _Agg] = {}
    for span in spans:
        agg = out.get(span.name)
        if agg is None:
            agg = out[span.name] = _Agg()
        agg.calls += 1
        agg.items += span.items
        agg.nbytes += span.nbytes
        agg.host_incl += span.host_incl
        agg.host_self += span.host_self
        agg.errors += span.error
        if span.sim_end is None:
            agg.sim.append(max(0.0, phase_end - span.sim_start))
        else:
            agg.sim.append(span.sim_end - span.sim_start)
            agg.closed_s += span.sim_end - span.sim_start
            agg.service += span.service
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _wait(*aggs: _Agg) -> float:
    """Simulated time completed calls spent queued: their span time minus
    their modelled service time (clamped at 0 against float rounding)."""
    return max(0.0, sum(a.closed_s - a.service for a in aggs))


def cross_check(tracer, counts: Dict[str, float]) -> List[str]:
    """Wrapper-seen counts that must equal the program's own counters."""
    spans = _aggregate(tracer.spans, tracer.sim.now)
    get = lambda name: spans.get(name, _Agg())  # noqa: E731
    pairs = [
        ("disk.read calls", get("disk.read").calls, counts["disk.reads"]),
        ("disk.write calls", get("disk.write").calls, counts["disk.writes"]),
        ("disk bytes", get("disk.read").nbytes + get("disk.write").nbytes, counts["disk.bytes"]),
        ("nic bytes", get("nic.send").nbytes + get("nic.receive").nbytes, counts["nic.bytes"]),
        ("sim.step calls", tracer.counters["sim.step"].calls, counts["sim.events"]),
        ("fingerprint bytes", tracer.counters["fingerprint.submit_many"].nbytes,
         counts["stage.fingerprint_bytes"]),
    ]
    return [f"{what}: traced {seen} != program {own}" for what, seen, own in pairs if seen != own]


def layer_metrics(tracer, phase, counts, storage, untraced_host_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced phase: name -> (value, unit).

    Call it right after the phase, while the simulated clock still reads
    the phase's end.
    """
    spans = _aggregate(tracer.spans, storage.sim.now)
    plain = tracer.counters
    ops = max(phase.ops, 1)
    m: Dict[str, Tuple[float, str]] = {}

    def span(name) -> _Agg:
        return spans.get(name, _Agg())

    step = plain["sim.step"]
    m["sim.events_per_op"] = (step.calls / ops, "count")
    m["sim.host_us_per_event"] = (_ratio(step.host_incl, step.calls) * 1e6, "us")

    pg = plain["pool.pg_of"]
    m["pool.pg_of.calls_per_op"] = (pg.calls / ops, "count")
    m["pool.pg_of.host_share"] = (_ratio(pg.host_incl, phase.host_s), "ratio")

    for fn in ("submit", "submit_batch", "read", "read_batch"):
        a = span(f"rados.{fn}")
        p50 = percentile(a.sim, 0.50, 0)[0] if a.sim else 0.0
        p99 = percentile(a.sim, 0.99, 0)[0] if a.sim else 0.0
        m[f"rados.{fn}.calls"] = (a.calls, "count")
        m[f"rados.{fn}.items_per_call"] = (_ratio(a.items, a.calls), "count")
        m[f"rados.{fn}.sim_ms_p50"] = (p50 * 1e3, "ms")
        m[f"rados.{fn}.sim_ms_p99"] = (p99 * 1e3, "ms")
        m[f"rados.{fn}.host_s"] = (a.host_incl, "s")
        m[f"rados.{fn}.retries"] = (a.errors, "count")

    m["osd.prepared_txns_per_op"] = (span("osd.prepare_transaction").calls / ops, "count")
    m["osd.reads_per_op"] = (span("osd.execute_read").calls / ops, "count")

    disks = len(storage.cluster.osds)
    dr, dw = span("disk.read"), span("disk.write")
    disk_busy = dr.service + dw.service
    m["disk.ops"] = (dr.calls + dw.calls, "count")
    m["disk.bytes"] = (dr.nbytes + dw.nbytes, "bytes")
    m["disk.busy_s"] = (disk_busy, "s")
    m["disk.wait_s"] = (_wait(dr, dw), "s")
    m["disk.util"] = (_ratio(disk_busy, disks * phase.sim_s), "ratio")
    ns, nr = span("nic.send"), span("nic.receive")
    m["nic.bytes"] = (ns.nbytes + nr.nbytes, "bytes")
    m["nic.wait_s"] = (_wait(ns, nr), "s")
    cpu = span("cpu.execute")
    m["cpu.busy_s"] = (cpu.service, "s")
    m["cpu.wait_s"] = (_wait(cpu), "s")

    for fn in ("read_path", "write_path"):
        a = span(f"io_path.{fn}")
        m[f"io_path.{fn}.calls"] = (a.calls, "count")
        m[f"io_path.{fn}.host_self_s"] = (a.host_self, "s")

    for fn in ("load_chunk_map", "commit_chunk_batch", "read_chunk", "chunk_ref", "chunk_deref"):
        a = span(f"tier.{fn}")
        m[f"tier.{fn}.calls"] = (a.calls, "count")
        m[f"tier.{fn}.items_per_call"] = (_ratio(a.items, a.calls), "count")
        m[f"tier.{fn}.sim_ms"] = (_ratio(sum(a.sim), len(a.sim)) * 1e3, "ms")
        m[f"tier.{fn}.host_s"] = (a.host_incl, "s")
    c = counts
    m["tier.map_cache_hit_ratio"] = (
        _ratio(c["stage.map_cache_hits"], c["stage.map_cache_hits"] + c["stage.map_cache_misses"]),
        "ratio",
    )
    commits = c["stage.map_commits_incremental"] + c["stage.map_commits_full"]
    m["tier.map_bytes_per_commit"] = (_ratio(c["stage.map_bytes_serialized"], commits), "bytes")
    m["tier.refset_cache_hit_ratio"] = (
        _ratio(
            c["stage.refset_cache_hits"],
            c["stage.refset_cache_hits"] + c["stage.refset_cache_misses"],
        ),
        "ratio",
    )

    m["chunk_cache.hit_ratio"] = (
        _ratio(
            c["stage.chunk_cache_hits"],
            c["stage.chunk_cache_hits"] + c["stage.chunk_cache_misses"],
        ),
        "ratio",
    )
    m["chunk_cache.evictions"] = (c["stage.chunk_cache_evictions"], "count")

    for fn in ("process_object", "drain", "promote_object"):
        a = span(f"engine.{fn}")
        m[f"engine.{fn}.calls"] = (a.calls, "count")
        m[f"engine.{fn}.sim_ms"] = (_ratio(sum(a.sim), len(a.sim)) * 1e3, "ms")
        m[f"engine.{fn}.host_s"] = (a.host_incl, "s")
    flushed, deduped = c["engine.chunks_flushed"], c["engine.chunks_deduped"]
    m["engine.dup_chunk_ratio"] = (_ratio(deduped, flushed + deduped), "ratio")
    m["engine.dirty_backlog_end"] = (storage.tier.dirty_count, "count")
    m["engine.promotions"] = (c["engine.chunks_promoted"], "count")

    throttle = span("rate_control.throttle")
    m["rate_control.throttles"] = (c["rate.throttled"], "count")
    m["rate_control.sim_wait_s"] = (sum(throttle.sim), "s")

    fp_busy, fp_wall = c["host.fingerprint_busy_s"], c["host.fingerprint_wall_s"]
    m["fingerprint.bytes"] = (plain["fingerprint.submit_many"].nbytes, "bytes")
    m["fingerprint.busy_s"] = (fp_busy, "s")
    m["fingerprint.wall_s"] = (fp_wall, "s")
    m["fingerprint.parallelism"] = (_ratio(fp_busy, fp_wall), "ratio")

    chunk, aligned = plain["chunking.chunk"], plain["chunking.aligned_range"]
    m["chunking.calls"] = (chunk.calls + aligned.calls, "count")
    m["chunking.bytes"] = (chunk.nbytes + aligned.nbytes, "bytes")
    m["chunking.host_s"] = (chunk.host_incl + aligned.host_incl, "s")

    m["trace.overhead_ratio"] = (_ratio(phase.host_s, untraced_host_s), "ratio")

    # The user's view split by op kind (0 where the workload has none).
    lat = phase.latency
    m["client.op_p50_ms"] = (percentile(lat["read"] + lat["write"], 0.50, 0)[0] * 1e3, "ms")
    for kind in ("read", "write"):
        m[f"client.{kind}_ops"] = (len(lat[kind]), "count")
        m[f"client.{kind}_p50_ms"] = (percentile(lat[kind], 0.50, 0)[0] * 1e3, "ms")
        m[f"client.{kind}_p99_ms"] = (percentile(lat[kind])[0] * 1e3, "ms")
    m["client.failed_op_ratio"] = (_ratio(phase.failed, phase.ops), "ratio")
    return m
