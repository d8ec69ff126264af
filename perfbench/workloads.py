"""The benchmark's three workloads against the shipped ``DedupedStorage``.

Every workload generates its inputs from the seed once, before anything
is timed, and keeps a shadow copy of what the user wrote.  A round then
builds a fresh storage with ``repro.bench.proposed(build_cluster(), ...)``
(overriding only the workload's shape), sets it up, runs the measured
phase and returns a :class:`Phase`.  The storage is then audited against
the shadow copy, outside every timed window.

* ``vm-ingest``   closed loop, one client, 64 KiB writes of a seeded
  VM-image population, then ``drain()``.
* ``db-oltp``     open loop at a fixed rate on the simulated clock: the
  SPEC SFS 2014 DATABASE mix of 8 KiB pages, engine running with rate
  control.
* ``restore-seq`` closed loop of 128 KiB sequential reads of objects
  already deduplicated into the chunk pool.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bench import KiB, MiB, build_cluster, proposed
from repro.core import scrub_sync
from repro.workloads import (
    ContentGenerator,
    SfsDatabaseSpec,
    VmImagePopulation,
    private_cloud_spec,
)

__all__ = ["Phase", "WORKLOADS", "audit"]


@dataclass
class Phase:
    """Outcome of one measured phase."""

    ops: int = 0
    failed: int = 0
    #: Simulated latency samples (seconds), by op kind.
    latency: Dict[str, List[float]] = field(default_factory=lambda: {"read": [], "write": []})
    #: Bytes moved by user ops.
    user_bytes: int = 0
    sim_s: float = 0.0
    host_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    def record(self, kind: str, latency: float, nbytes: int, ok: bool, error: str = "") -> None:
        self.ops += 1
        self.latency[kind].append(latency)
        if ok:
            self.user_bytes += nbytes
        else:
            self.failed += 1
            if error and len(self.errors) < 5:
                self.errors.append(error)


class Workload:
    """Base: op execution and the closed loop shared by the workloads."""

    name = ""
    #: Config overrides: the workload's shape only.
    overrides: Dict[str, object] = {}
    #: Independent input sets per seed.  Sim metrics pool all of them,
    #: so a run samples more placements than one round holds.
    parts = 2

    def __init__(self, seed: int, part: int = 0):
        self.part = part
        #: Integer seed of this part's generators.
        self.sub = seed * 16 + part
        #: Prefix of this part's object names: the seed moves placement.
        self.tag = f"s{seed}p{part}"

    def expected(self) -> Iterator[Tuple[str, bytes]]:
        """``(oid, bytes)``: what the user has written, after a round."""
        raise NotImplementedError

    def logical_bytes(self) -> int:
        """Size of the user's data after a round."""
        return sum(len(data) for _oid, data in self.expected())

    def build(self):
        """A fresh storage: the shipped defaults plus the workload's shape."""
        return proposed(build_cluster(), **self.overrides)

    def clients(self, storage) -> list:
        """The client hosts the measured phase issues from."""
        return [storage.client(f"{self.name}-client")]

    def setup(self, storage) -> None:
        """Prefill and initial drain (timed as set-up)."""

    def run(self, storage, clients, tracer=None) -> Phase:
        """The measured phase."""
        raise NotImplementedError

    def quiesce(self, storage) -> None:
        """Bring the storage to rest before the audit (not timed)."""
        storage.engine.stop()
        storage.drain()

    def check_read(self, op, data: bytes, issued: float) -> bool:
        """Whether a read issued at ``issued`` may return ``data``."""
        raise NotImplementedError

    def _do(self, storage, client, op, due: float, phase: Phase, tracer):
        """Process: one user op, timed from ``due`` to its ack."""
        op_id, kind, oid, offset, payload = op
        sim = storage.sim
        if tracer is not None:
            tracer.begin_op(op_id)
        ok, error, nbytes = False, "", 0
        try:
            if kind == "write":
                self.note_write_issued(op, due)
                yield from storage.write(oid, payload, offset, client)
                nbytes = len(payload)
                self.note_write_acked(op, sim.now)
                ok = True
            else:
                data = yield from storage.read(oid, offset, payload, client)
                nbytes = len(data)
                ok = self.check_read(op, data, due)
                if not ok:
                    error = f"wrong bytes: read {oid}@{offset}+{payload}"
        except Exception as exc:  # a raising op is a failed op, the loop goes on
            error = f"{kind} {oid}@{offset}: {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end_op()
        phase.record(kind, sim.now - due, nbytes, ok, error)

    def note_write_issued(self, op, when: float) -> None:
        pass

    def note_write_acked(self, op, when: float) -> None:
        pass

    def _closed_loop(self, storage, clients, ops, depth: int, phase: Phase, tracer) -> None:
        """``depth`` lanes per client, each issuing its next op on ack."""
        sim = storage.sim

        def lane(client, queue):
            for op in queue:
                yield from self._do(storage, client, op, sim.now, phase, tracer)

        procs = []
        for client, queue in zip(clients, ops):
            queue = iter(queue)
            procs += [sim.process(lane(client, queue)) for _ in range(depth)]
        sim.run_until_complete(sim.all_of(procs))


class VmIngest(Workload):
    """Cloud-image ingest (Fig. 3/13): clone VMs onto a cluster that
    already holds the golden template images, then drain."""

    name = "vm-ingest"
    block = 64 * KiB
    #: Images are striped over RADOS objects of this size, as RBD does.
    object_size = 4 * MiB

    def __init__(self, seed: int, part: int = 0, tiny: bool = False):
        super().__init__(seed, part)
        self.depth = 8
        spec = private_cloud_spec(
            num_vms=6 if tiny else 18, image_size=(1 if tiny else 4) * MiB, seed=self.sub
        )
        population = VmImagePopulation(spec)
        self.images = {vm: [b for _oid, b in population.image_blocks(vm)] for vm in range(spec.num_vms)}
        # One golden image per template is on the cluster before the
        # measured phase; the remaining VMs are the ingest, interleaved
        # block by block as concurrent provisioning reaches the cluster.
        self.golden_vms = range(spec.num_templates)
        clones = list(range(spec.num_templates, spec.num_vms))
        self.ops = []
        per_object = self.object_size // self.block
        rng = random.Random(self.sub)
        # Each clone is written sequentially; every clone writes one
        # block per turn, in a fresh random order each turn.
        streams = []
        for _ in range(spec.blocks_per_image):
            rng.shuffle(clones)
            streams += clones
        cursor = {vm: 0 for vm in clones}
        for vm in streams:
            index = cursor[vm]
            cursor[vm] += 1
            obj, slot = divmod(index, per_object)
            oid = self.oid(vm, obj)
            self.ops.append((len(self.ops), "write", oid, slot * self.block, self.images[vm][index]))

    def oid(self, vm: int, obj: int) -> str:
        return f"{self.tag}.vm{vm}.o{obj}"

    def _stripes(self, vms) -> Iterator[Tuple[str, bytes]]:
        per_object = self.object_size // self.block
        for vm in vms:
            blocks = self.images[vm]
            for i in range(0, len(blocks), per_object):
                yield self.oid(vm, i // per_object), b"".join(blocks[i:i + per_object])

    def expected(self) -> Iterator[Tuple[str, bytes]]:
        return self._stripes(self.images)

    def setup(self, storage) -> None:
        for oid, data in self._stripes(self.golden_vms):
            storage.write_sync(oid, data)
        storage.drain()

    def run(self, storage, clients, tracer=None) -> Phase:
        phase = Phase()
        self._closed_loop(storage, clients, [self.ops], self.depth, phase, tracer)
        storage.drain()
        return phase


class DbOltp(Workload):
    """SPEC SFS 2014 DATABASE (Fig. 12 "Proposed"): open loop at a fixed
    requested rate near the modelled knee, background dedup with rate
    control.

    The op stream follows ``SfsDatabaseWorkload`` (its spec, op mix and
    sequential/random page choice) but is generated up front, so the
    program receives only generated inputs and every read can be checked.
    """

    name = "db-oltp"
    overrides = {"chunk_size": 8 * KiB, "cache_on_flush": False}
    #: SfsDatabaseWorkload's op mix: sequential read / random read /
    #: random write.
    mix = (("read", 0.10), ("randread", 0.50), ("randwrite", 0.40))

    def __init__(self, seed: int, part: int = 0, tiny: bool = False):
        super().__init__(seed, part)
        self.spec = SfsDatabaseSpec(
            load=96,
            ops_per_load=200.0,  # 19.2k op/s requested
            dataset_per_load=(8 if tiny else 80) * KiB,
            block_size=8 * KiB,
            object_size=64 * KiB,
            duration=(0.02 if tiny else 0.21),
            dedupe_ratio=0.5,
            seed=self.sub,
        )
        spec = self.spec
        per_obj = spec.object_size // spec.block_size
        nobj = spec.dataset_bytes // spec.object_size
        prefill = ContentGenerator(seed=self.sub + 1, dedupe_ratio=spec.dedupe_ratio)
        self.prefill = {
            self.oid(o): b"".join(prefill.stream(spec.object_size, spec.block_size))
            for o in range(nobj)
        }
        rng = random.Random(self.sub)
        content = ContentGenerator(seed=self.sub + 2, dedupe_ratio=spec.dedupe_ratio)
        total_blocks = nobj * per_obj
        cursor = 0
        self.ops = []
        # Independent users: Poisson arrivals at the requested mean rate,
        # as offsets from the start of the measured phase.
        clock = random.Random(f"{self.sub}.arrivals")
        self.arrivals: List[float] = []
        at = 0.0
        for op_id in range(int(spec.op_rate * spec.duration)):
            self.arrivals.append(at)
            at += clock.expovariate(spec.op_rate)
            roll, acc, kind = rng.random(), 0.0, self.mix[-1][0]
            for name, weight in self.mix:
                acc += weight
                if roll < acc:
                    kind = name
                    break
            if kind == "read":
                block_no, cursor = cursor, (cursor + 1) % total_blocks
            else:
                block_no = rng.randrange(total_blocks)
            obj, index = divmod(block_no, per_obj)
            offset = index * spec.block_size
            if kind == "randwrite":
                op = (op_id, "write", self.oid(obj), offset, content.block(spec.block_size))
            else:
                op = (op_id, "read", self.oid(obj), offset, spec.block_size)
            self.ops.append(op)

    def oid(self, obj: int) -> str:
        return f"{self.tag}.sfsdb.o{obj}"

    def expected(self) -> Iterator[Tuple[str, bytes]]:
        return iter(self.shadow.items())

    def setup(self, storage) -> None:
        for oid, data in self.prefill.items():
            storage.write_sync(oid, data)
        storage.drain()
        storage.engine.start()

    def run(self, storage, clients, tracer=None) -> Phase:
        phase = Phase()
        sim = storage.sim
        client = clients[0]
        #: oid -> bytes: the user's view once the phase has ended.
        self.shadow = dict(self.prefill)
        # Per page: the versions written, in issue (= apply) order, as
        # [data, issued, acked]; a read may return any version not yet
        # superseded by an acked write when the read was issued.
        self.versions: Dict[Tuple[str, int], List[list]] = {}
        self._pending: Dict[int, list] = {}  # op id -> its version, until acked
        procs = []

        def arrivals():
            start = sim.now
            for at, op in zip(self.arrivals, self.ops):
                if start + at > sim.now:
                    yield sim.timeout(start + at - sim.now)
                procs.append(sim.process(self._do(storage, client, op, sim.now, phase, tracer)))
            yield sim.all_of(procs)

        sim.run_until_complete(sim.process(arrivals()))
        for (oid, offset), versions in self.versions.items():
            data = self.shadow[oid]
            self.shadow[oid] = data[:offset] + versions[-1][0] + data[offset + len(versions[-1][0]):]
        return phase

    def note_write_issued(self, op, when: float) -> None:
        _id, _kind, oid, offset, data = op
        history = self.versions.setdefault((oid, offset), [])
        if not history:
            base = self.prefill[oid][offset:offset + len(data)]
            history.append([base, float("-inf"), float("-inf")])
        history.append([data, when, None])
        self._pending[op[0]] = history[-1]

    def note_write_acked(self, op, when: float) -> None:
        self._pending.pop(op[0])[2] = when

    def check_read(self, op, data: bytes, issued: float) -> bool:
        oid, offset = op[2], op[3]
        history = self.versions.get((oid, offset))
        if not history:
            return data == self.prefill[oid][offset:offset + len(data)]
        for i, (value, _issued, _acked) in enumerate(history):
            successor = history[i + 1] if i + 1 < len(history) else None
            superseded = successor is not None and successor[2] is not None and successor[2] < issued
            if not superseded and value == data:
                return True
        return False


class RestoreSeq(Workload):
    """Restore (Fig. 11 sequential read): 128 KiB sequential reads of
    half-duplicate objects already drained to the chunk pool."""

    name = "restore-seq"
    overrides = {"cache_on_flush": False}
    read_size = 128 * KiB

    def __init__(self, seed: int, part: int = 0, tiny: bool = False):
        super().__init__(seed, part)
        self.jobs, self.depth, self.passes = 3, 2, 3
        per_job = 1 if tiny else 4
        obj_size = (1 if tiny else 4) * MiB
        content = ContentGenerator(seed=self.sub, dedupe_ratio=0.5)
        self.data = {}
        for job in range(self.jobs):
            for o in range(per_job):
                self.data[f"{self.tag}.restore.j{job}.o{o}"] = b"".join(
                    content.stream(obj_size, 32 * KiB)
                )
        self.queues = []
        op_id = 0
        for job in range(self.jobs):
            queue = []
            oids = [oid for oid in self.data if f".j{job}." in oid]
            for _ in range(self.passes):
                for oid in oids:
                    for offset in range(0, obj_size, self.read_size):
                        queue.append((op_id, "read", oid, offset, self.read_size))
                        op_id += 1
            self.queues.append(queue)

    def expected(self) -> Iterator[Tuple[str, bytes]]:
        return iter(self.data.items())

    def check_read(self, op, data: bytes, issued: float) -> bool:
        oid, offset, length = op[2], op[3], op[4]
        return data == self.data[oid][offset:offset + length]

    def setup(self, storage) -> None:
        for oid, data in self.data.items():
            storage.write_sync(oid, data)
        storage.drain()

    def clients(self, storage) -> list:
        return [storage.client(f"{self.name}-client-{j}") for j in range(self.jobs)]

    def run(self, storage, clients, tracer=None) -> Phase:
        phase = Phase()
        self._closed_loop(storage, clients, self.queues, self.depth, phase, tracer)
        return phase


WORKLOADS = {w.name: w for w in (VmIngest, DbOltp, RestoreSeq)}


def audit(storage, expected: Iterable[Tuple[str, bytes]]) -> List[str]:
    """Post-run correctness audit; returns the problems found.

    Reads every object back and compares it with the shadow copy
    (``expected``), runs the tier scrub, and checks that every chunk's
    refcount equals the references the chunk maps hold.
    """
    problems: List[str] = []
    for oid, want in expected:
        try:
            got = storage.read_sync(oid)
        except Exception as exc:  # an audit read that raises is a finding
            problems.append(f"read-back {oid}: {type(exc).__name__}: {exc}")
            continue
        if got != want:
            problems.append(f"read-back {oid}: wrong bytes")
    tier, cluster = storage.tier, storage.cluster
    report = scrub_sync(tier)
    if not report.clean:
        problems.append(
            f"scrub: {len(report.corrupt_chunks)} corrupt, "
            f"{len(report.dangling_map_entries)} dangling, "
            f"{len(report.stale_references)} stale, "
            f"{len(report.unreferenced_chunks)} unreferenced"
        )
    live: Dict[str, int] = {}
    for oid in cluster.list_objects(tier.metadata_pool):
        cmap = tier.peek_chunk_map(oid)
        for entry in cmap or ():
            if entry.chunk_id:
                live[entry.chunk_id] = live.get(entry.chunk_id, 0) + 1
    stored = cluster.list_objects(tier.chunk_pool)
    wrong = [cid for cid in stored if tier.chunk_refcount(cid) != live.get(cid, 0)]
    missing = sorted(set(live) - set(stored))
    if wrong or missing:
        problems.append(f"refcounts: {len(wrong)} wrong, {len(missing)} missing chunks")
    return problems


def percentile(samples: List[float], top: float = 0.99, beyond: int = 10) -> Tuple[float, Optional[float]]:
    """``(value, q)``: the nearest-rank ``top`` quantile, or the highest
    quantile with at least ``beyond`` samples above it when there are too
    few samples.  ``q`` is ``None`` when there are no samples."""
    n = len(samples)
    if n == 0:
        return 0.0, None
    q = min(top, max(0.0, 1.0 - beyond / n))
    rank = min(n, max(1, math.ceil(q * n - 1e-9)))
    return sorted(samples)[rank - 1], q
