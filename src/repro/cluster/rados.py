"""The simulated scale-out storage cluster (RADOS-like facade).

:class:`RadosCluster` wires together the cluster map, CRUSH placement,
nodes, OSDs, and pools, and exposes the client operations the dedup tier
is built on: full/partial object writes, reads, removes, xattr/omap
access, and atomic per-object transactions — over replicated *and*
erasure-coded pools, with degraded-mode handling when OSDs are down.

All operations are simulation processes (generators): they charge
network, CPU, and disk time on the modelled devices and therefore
exhibit queueing and interference.  Synchronous helpers (``*_sync`` and
:meth:`RadosCluster.run`) drive the event loop for callers outside the
simulation (tests, benchmarks).

Semantics follow Ceph:

* Writes go to the PG primary, which fans out to replicas (or encodes
  and distributes shards); the ack returns once every available copy is
  durable.
* Reads are served by the primary (or by ``k`` shards + decode for EC).
* A write succeeds in degraded mode while at least ``min_size`` copies
  (or ``k`` shards) are writable; otherwise it raises.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..obs import NULL_SPAN
from ..sim import Resource, Simulator
from .clustermap import ClusterMap
from .crush import CrushMap
from .hardware import HardwareProfile, Nic
from .objectstore import NoSuchObject, ObjectKey, StoredObject, Transaction
from .osd import Node, OSD, OsdDownError
from .pool import Pool, Replicated

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .rebalance import PgRemap, RemapDiff

__all__ = ["Client", "RadosCluster", "NotEnoughReplicas"]

_EC_LEN_XATTR = "_ec.length"
_EC_IDX_XATTR = "_ec.index"
#: Per-shard content checksum (Ceph stores the analogous hinfo_key):
#: without it, a single corrupt shard in a k+1 profile cannot be located.
_EC_CRC_XATTR = "_ec.crc"
#: Transaction ops that leave EC stripe data untouched: each shard
#: carries a full copy of the object's xattrs and omap.
_EC_SHARD_LOCAL_OPS = frozenset({"setxattr", "rmxattr", "omap_set", "omap_rm"})


def _shard_crc(shard: bytes) -> bytes:
    import zlib

    return zlib.crc32(shard).to_bytes(4, "big")


class NotEnoughReplicas(RuntimeError):
    """Fewer than ``min_size`` copies/shards are writable or readable.

    Retryable: recovery or an OSD restart can restore the missing
    copies, so a backed-off retry may find the PG healthy again.
    """

    retryable = True


class _NodeAsClient:
    """Lets a storage node stand in as the initiator of an internal op."""

    def __init__(self, node):
        self.node = node
        self.nic = node.nic


class Client:
    """A client host with its own NIC (the paper uses three of them)."""

    def __init__(self, sim: Simulator, name: str, profile: HardwareProfile):
        self.sim = sim
        self.name = name
        self.nic = Nic(sim, profile.nic)
        # The fault injector partitions hosts by NIC owner name.
        self.nic.owner = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Client {self.name}>"


class RadosCluster:
    """A simulated shared-nothing scale-out storage cluster."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        profile: Optional[HardwareProfile] = None,
        num_hosts: int = 4,
        osds_per_host: int = 4,
        pg_num: int = 64,
    ):
        self.sim = sim if sim is not None else Simulator()
        self.profile = profile if profile is not None else HardwareProfile()
        self.default_pg_num = pg_num
        self.cluster_map = ClusterMap()
        self.crush = CrushMap(self.cluster_map)
        self.nodes: Dict[str, Node] = {}
        self.osds: Dict[int, OSD] = {}
        self.pools: Dict[str, Pool] = {}
        self._next_pool_id = 1
        for h in range(num_hosts):
            self.add_host(f"host{h}", osds_per_host)
        self._default_client = Client(self.sim, "client0", self.profile)
        #: Fault-injection hook (a FaultInjector, or None); consulted on
        #: every inter-host transfer.
        self.faults = None
        # RADOS orders mutations per object at the PG: concurrent writes
        # to one object serialise.
        self._write_locks: Dict[ObjectKey, Resource] = {}
        # PGs whose acting set changed under live data (expansion /
        # decommission).  While an entry is active, IO for the PG runs
        # against the union of old+new locations; the rebalance engine
        # (repro.cluster.rebalance) migrates the data and retires it.
        self._active_remaps: Dict[Tuple[int, int], "PgRemap"] = {}
        # Callbacks fired after recovery / rebalance rewrites stored
        # objects (see notify_repaired): layers holding decoded caches
        # above the substrate (e.g. the dedup tier's chunk-map and
        # RefSet LRUs) register here to drop state the repair may have
        # replaced underneath them.
        self._repair_listeners: List[Callable[[], None]] = []

    def add_repair_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever stored objects may have
        been rewritten outside the normal client I/O path."""
        self._repair_listeners.append(listener)

    def notify_repaired(self) -> None:
        """Tell listeners that recovery/rebalance rewrote objects."""
        for listener in self._repair_listeners:
            listener()

    def _write_lock(self, key: ObjectKey) -> Resource:
        lock = self._write_locks.get(key)
        if lock is None:
            lock = Resource(
                self.sim,
                capacity=1,
                label=f"rados.write:{key.pool_id}/{key.pg}/{key.name}",
            )
            self._write_locks[key] = lock
        return lock

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str, num_osds: int, rack: str = "default") -> Node:
        """Add a server with ``num_osds`` OSDs to the cluster."""
        if name in self.nodes:
            raise ValueError(f"duplicate host name {name!r}")
        node = Node(self.sim, name, self.profile)
        self.nodes[name] = node
        for _ in range(num_osds):
            osd_id = self.cluster_map.add_osd(name, rack=rack)
            osd = OSD(
                self.sim, osd_id, node, self.cluster_map.osds[osd_id], self.profile
            )
            # An attached fault injector only wires the OSDs that exist
            # at attach time; hosts added online inherit the hook here
            # (getattr: __init__ builds the seed hosts before .faults).
            osd.faults = getattr(self, "faults", None)
            self.osds[osd_id] = osd
        return node

    def client(self, name: str) -> Client:
        """Create an additional client host."""
        return Client(self.sim, name, self.profile)

    def create_pool(
        self,
        name: str,
        redundancy=None,
        pg_num: Optional[int] = None,
        failure_domain: str = "host",
    ) -> Pool:
        """Create a pool (default: 2-way replication, host domains)."""
        if name in self.pools:
            raise ValueError(f"duplicate pool name {name!r}")
        if redundancy is None:
            redundancy = Replicated(2)
        pool = Pool(
            pool_id=self._next_pool_id,
            name=name,
            redundancy=redundancy,
            pg_num=pg_num if pg_num is not None else self.default_pg_num,
            crush=self.crush,
            failure_domain=failure_domain,
        )
        self._next_pool_id += 1
        self.pools[name] = pool
        return pool

    def object_key(self, pool: Pool, oid: str) -> ObjectKey:
        """The fully qualified key for an object name in ``pool``."""
        return ObjectKey(pool.pool_id, pool.pg_of(oid), oid)

    # -- acting-set helpers ---------------------------------------------------

    def _remap_for(self, pool: Pool, pg: int) -> Optional["PgRemap"]:
        """The active remap covering ``(pool, pg)``, if any."""
        if not self._active_remaps:
            return None
        return self._active_remaps.get((pool.pool_id, pg))

    def _acting_osds(self, pool: Pool, oid: str) -> List[OSD]:
        remap = self._remap_for(pool, pool.pg_of(oid))
        if remap is not None:
            # Mid-remap, data may sit on the old acting set, the new
            # one, or both: IO runs against the union (old first, so
            # established copies keep serving) until the rebalance
            # engine retires the remap.
            return [self.osds[i] for i in remap.union_ids() if i in self.osds]
        return [self.osds[i] for i in pool.acting_set_for(oid)]

    def acting_osds(self, pool: Pool, oid: str) -> List[OSD]:
        """Every OSD that may hold a copy of ``oid`` right now.

        The CRUSH acting set — widened to the old+new union while the
        object's PG is mid-remap.  Callers that locate copies by probing
        stores (the dedup tier's holder loops, scrub, space accounting)
        must use this rather than ``pool.acting_set_for`` directly, or
        they would miss objects still parked on a pre-remap acting set.
        """
        return self._acting_osds(pool, oid)

    def _up_subset(self, osds: Iterable[OSD]) -> List[OSD]:
        # Replicas rejoining after a crash hold possibly-stale contents
        # until recovery reconciles them; ordering them last keeps them
        # out of the primary role (stable within each class).
        return sorted((o for o in osds if o.up), key=lambda o: o.needs_backfill)

    def _primary(self, pool: Pool, oid: str) -> OSD:
        acting = self._acting_osds(pool, oid)
        up = self._up_subset(acting)
        if not up:
            raise NotEnoughReplicas(f"no up OSD for {oid!r} in pool {pool.name!r}")
        if self._active_remaps and self._remap_for(pool, pool.pg_of(oid)) is not None:
            # Prefer a member that actually holds the object: mid-remap
            # the nominal first member may not have received it yet.
            key = self.object_key(pool, oid)
            holders = [o for o in up if o.store.exists(key)]
            if holders:
                return holders[0]
        return up[0]

    # -- network helper ---------------------------------------------------------

    def _transfer(self, src_nic: Nic, dst_nic: Nic, nbytes: int):
        """Process: move ``nbytes`` between two NICs (store-and-forward).

        Raises :class:`~repro.faults.errors.NetworkPartitionError` when
        a fault injector holds the two hosts partitioned.
        """
        if src_nic is dst_nic:
            return
        if self.faults is not None:
            self.faults.check_link(src_nic, dst_nic)
        yield from src_nic.send(nbytes)
        yield self.sim.timeout(src_nic.spec.latency)
        yield from dst_nic.receive(nbytes)

    def _rpc_latency(self):
        """Process: one small control message (request or ack)."""
        yield self.sim.timeout(self.profile.nic.latency)

    # -- replicated data path -----------------------------------------------------

    def submit(
        self,
        pool: Pool,
        oid: str,
        txn: Transaction,
        client: Optional[Client] = None,
        span=NULL_SPAN,
    ):
        """Process: apply ``txn`` atomically on every replica of ``oid``.

        A one-item :meth:`submit_batch`.  This is the self-contained-object
        workhorse: chunk-map updates, reference counts, dirty flags, and
        data all travel in one transaction, so replication and recovery
        cover dedup metadata with no extra machinery (paper §4.1).
        """
        yield from self.submit_batch(pool, [(oid, txn)], client, span=span)

    def submit_batch(
        self, pool: Pool, items, client: Optional[Client] = None, span=NULL_SPAN
    ):
        """Process: apply ``(oid, txn)`` pairs with one prepared round
        per placement group.

        Items are grouped by PG and each group's transactions merge into
        one, so N refcount-sized round trips collapse into one prepared
        transaction per PG; a single item is simply a batch of one (its
        span keeps the name ``rados.submit``).

        Replication is all-or-nothing across the *whole batch*: every
        replica of every group first *prepares* (transfers, charges
        device time, runs fault hooks — anything that can fail), and
        only when all prepares succeed does each group *commit* on each
        replica, instantly.  A transient error or crash during prepare
        thus leaves no object on any OSD mutated, so the caller can
        retry the batch as a unit.  A replica that dies between its
        prepare and the commit point is simply skipped as long as its
        group keeps quorum — it rejoins stale and recovery reconciles
        it, exactly as for a crash before the write.

        On an erasure-coded pool each item is an independent
        transaction on its stripe (see :meth:`_ec_submit`), so nothing
        merges and a mid-batch fault leaves a committed prefix — callers
        that need batch atomicity on EC submit one item at a time.
        """
        items = [(oid, txn) for oid, txn in items if len(txn)]
        if not items:
            return
        if len(items) == 1:
            oid, txn = items[0]
            ctx = span.child(
                "rados.submit", pool=pool.name, pg=pool.pg_of(oid), ops=len(txn)
            )
        else:
            ctx = span.child("rados.submit_batch", pool=pool.name, items=len(items))
        with ctx as s:
            if pool.is_ec:
                for oid, txn in items:
                    yield from self._ec_submit(pool, oid, txn, client)
                return
            client = client or self._default_client
            if self._active_remaps and any(
                self._remap_for(pool, pool.pg_of(oid)) is not None
                for oid, _ in items
            ):
                yield from self._submit_batch_remapped(pool, items, client, s)
                return
            groups: Dict[int, List[Transaction]] = {}
            group_oids: Dict[int, str] = {}
            for oid, txn in items:
                pg = pool.pg_of(oid)
                groups.setdefault(pg, []).append(txn)
                group_oids.setdefault(pg, oid)
            plans = []  # (txn, up OSDs, acting count), one per PG
            for pg in sorted(groups):
                acting = self._acting_osds(pool, group_oids[pg])
                up = self._up_subset(acting)
                if len(up) < pool.redundancy.min_size:
                    raise NotEnoughReplicas(
                        f"{len(up)}/{len(acting)} replicas up for pg {pg}; "
                        f"need {pool.redundancy.min_size}"
                    )
                merged = groups[pg][0]
                if len(groups[pg]) > 1:
                    merged = Transaction()
                    for txn in groups[pg]:
                        merged.ops.extend(txn.ops)
                plans.append((merged, up, len(acting)))
            if len(plans) == 1:
                merged, up, _n = plans[0]
                s.tag(osd=up[0].osd_id, replicas=len(up), nbytes=merged.io_bytes)
            else:
                s.tag(pgs=len(plans))
            yield from self._send_payloads(client, plans)
            # Per-object write locks, in deterministic order, so two
            # concurrent batches cannot cycle.
            locks = [
                self._write_lock(key)
                for key in sorted({self.object_key(pool, oid) for oid, _ in items})
            ]
            acquired: List[Resource] = []
            try:
                for lock in locks:
                    yield lock.acquire()
                    acquired.append(lock)
                yield from self._prepare_and_commit(pool, plans)
            finally:
                for lock in reversed(acquired):
                    lock.release()
            yield from self._rpc_latency()  # ack to client

    def _send_payloads(self, client: Client, plans):
        """Process: move each plan's payload from the client to its
        primary — inline for a single plan, in parallel otherwise."""
        if len(plans) == 1:
            txn, targets, _n = plans[0]
            yield from self._transfer(client.nic, targets[0].node.nic, txn.io_bytes)
            return
        yield self.sim.all_of([
            self.sim.process(
                self._transfer(client.nic, targets[0].node.nic, txn.io_bytes)
            )
            for txn, targets, _n in plans
        ])

    def _prepare_and_commit(self, pool: Pool, plans):
        """Process: the two-phase core of :meth:`submit_batch`.

        Every target of every ``(txn, targets, acting count)`` plan
        prepares; then every plan must still have quorum before *any*
        commits, so a lost PG aborts the batch with nothing mutated.
        """
        jobs = []
        for txn, targets, _n in plans:
            primary = targets[0]
            for osd in targets:
                jobs.append(
                    self.sim.process(
                        self._replica_prepare(primary, osd, txn, txn.io_bytes)
                    )
                )
        yield self.sim.all_of(jobs)
        # Commit point: applying is instantaneous, so no fault can
        # interleave and split the copies.  An OSD that crashed after its
        # prepare is skipped (recovery reconciles it when it rejoins).
        for _txn, targets, acting_count in plans:
            survivors = [osd for osd in targets if osd.up]
            if len(survivors) < pool.redundancy.min_size:
                raise NotEnoughReplicas(
                    f"{len(survivors)}/{acting_count} replicas survived "
                    f"prepare; need {pool.redundancy.min_size}"
                )
        for txn, targets, _n in plans:
            for osd in targets:
                if osd.up:
                    osd.commit_transaction(txn)

    def _replica_prepare(self, primary: OSD, replica: OSD, txn: Transaction, payload: int):
        if replica.node is not primary.node:
            yield from self._transfer(primary.node.nic, replica.node.nic, payload)
        yield from replica.prepare_transaction(txn)
        if replica is not primary:
            yield from self._rpc_latency()  # replica ack to primary

    # -- remapped (mid-rebalance) write path ----------------------------------

    def _remap_write_targets(self, pool: Pool, oid: str) -> List[OSD]:
        """Replicas a mid-remap write must land on.

        Existing objects: exactly the up union members that *hold* the
        object — writing to a non-holder would materialise a partial
        copy (a zero-extended overwrite) that later migration could
        mistake for the real thing.  The migrator updates holders and
        trims old copies under the same per-object lock, so the holder
        set can never change under an in-flight write.

        New objects: every up union member, so a creation needs no
        migration pass of its own (the rebalancer merely trims the
        old-side copies when it retires the PG).
        """
        key = self.object_key(pool, oid)
        up = self._up_subset(self._acting_osds(pool, oid))
        holders = [o for o in up if o.store.exists(key)]
        return holders if holders else up

    def _submit_batch_remapped(self, pool: Pool, items, client: Client, s):
        """Process: :meth:`submit_batch` when any item's PG is mid-remap.

        Same two-phase protocol, but per-item target sets are computed
        *inside* the sorted per-object write locks (the rebalance engine
        mutates holder sets under those locks, so the transfers to the
        primaries also happen locked), and nothing merges per PG —
        holder sets differ per object mid-remap.
        """
        s.tag(remapped=True)
        locks = [
            self._write_lock(key)
            for key in sorted({self.object_key(pool, oid) for oid, _ in items})
        ]
        acquired: List[Resource] = []
        try:
            for lock in locks:
                yield lock.acquire()
                acquired.append(lock)
            plans = []  # (txn, targets, target count)
            for oid, txn in items:
                remap = self._remap_for(pool, pool.pg_of(oid))
                if remap is None:
                    targets = self._up_subset(self._acting_osds(pool, oid))
                else:
                    targets = self._remap_write_targets(pool, oid)
                if len(targets) < pool.redundancy.min_size:
                    raise NotEnoughReplicas(
                        f"{len(targets)} replicas reachable for {oid!r}; "
                        f"need {pool.redundancy.min_size}"
                    )
                plans.append((txn, targets, len(targets)))
            yield from self._send_payloads(client, plans)
            yield from self._prepare_and_commit(pool, plans)
        finally:
            for lock in reversed(acquired):
                lock.release()
        yield from self._rpc_latency()  # ack to client

    def write_full(
        self,
        pool: Pool,
        oid: str,
        data: bytes,
        client: Optional[Client] = None,
        span=NULL_SPAN,
    ):
        """Process: replace the whole object payload."""
        if pool.is_ec:
            yield from self._ec_write_full(pool, oid, data, client)
            return
        key = self.object_key(pool, oid)
        txn = Transaction().write_full(key, data)
        yield from self.submit(pool, oid, txn, client, span=span)

    def write(self, pool: Pool, oid: str, offset: int, data: bytes, client: Optional[Client] = None):
        """Process: write ``data`` at ``offset`` (partial overwrite).

        On EC pools this is a full-stripe read-modify-write, which is
        exactly the penalty the paper measures for EC random writes
        (§6.4.1).
        """
        key = self.object_key(pool, oid)
        txn = Transaction().write(key, offset, data)
        yield from self.submit(pool, oid, txn, client)

    def remove(self, pool: Pool, oid: str, client: Optional[Client] = None):
        """Process: delete the object from every replica/shard."""
        key = self.object_key(pool, oid)
        yield from self.submit(pool, oid, Transaction().remove(key), client)

    def read(
        self,
        pool: Pool,
        oid: str,
        offset: int = 0,
        length: Optional[int] = None,
        client: Optional[Client] = None,
        span=NULL_SPAN,
    ):
        """Process: read ``length`` bytes at ``offset``; returns bytes.

        A one-item :meth:`read_batch`.
        """
        results = yield from self.read_batch(
            pool, [(oid, offset, length)], client, span=span
        )
        return results[0]

    def read_batch(
        self,
        pool: Pool,
        requests,
        client: Optional[Client] = None,
        span=NULL_SPAN,
    ):
        """Process: read many ``(oid, offset, length)`` ranges with one
        request round per placement group.

        The read-side peer of :meth:`submit_batch`: requests are grouped
        by PG, and each group costs one request RPC, one primary read
        per distinct object (ranges of the *same* object are merged into
        one covering disk read), and one combined transfer back to the
        client — so a sequential scan over chunks co-located on a few
        primaries pays O(groups) round trips instead of O(chunks).
        Groups proceed in parallel; a single group runs inline, so a
        one-item batch costs exactly one plain read (its span keeps the
        name ``rados.read``).

        Returns a list of byte strings aligned with ``requests``.  A
        range past the stored object comes back short; a missing object
        raises :class:`NoSuchObject` for the whole batch (reads are
        side-effect free, so callers retry the batch as a unit).

        On an erasure-coded pool nothing merges (every read is a
        k-shard gather + decode), so items are read one after another.
        """
        requests = list(requests)
        if not requests:
            return []
        groups: Dict[int, List[int]] = {}
        for i, (oid, _offset, _length) in enumerate(requests):
            groups.setdefault(pool.pg_of(oid), []).append(i)
        if len(requests) == 1:
            ctx = span.child("rados.read", pool=pool.name, pg=next(iter(groups)))
        else:
            ctx = span.child("rados.read_batch", pool=pool.name, items=len(requests))
        with ctx as s:
            client = client or self._default_client
            results: List[Optional[bytes]] = [None] * len(requests)
            if pool.is_ec:
                for i, (oid, offset, length) in enumerate(requests):
                    data = yield from self._ec_read(pool, oid, client)
                    results[i] = (
                        data[offset:] if length is None else data[offset : offset + length]
                    )
                return results
            if len(groups) == 1:
                (indices,) = groups.values()
                yield from self._read_group(pool, requests, indices, client, results, s)
                return results
            s.tag(pgs=len(groups))
            yield self.sim.all_of([
                self.sim.process(
                    self._read_group(pool, requests, groups[pg], client, results)
                )
                for pg in sorted(groups)
            ])
            return results

    def _read_group(self, pool: Pool, requests, indices, client, results, span=NULL_SPAN):
        """Process: serve one PG's share of a batched read.

        One request RPC covers the group; per distinct object the
        primary runs a single covering-range disk read (chunk objects
        are small, so over-reading the gap between two ranges of the
        same object is cheaper than a second dispatch), then the
        group's payload travels to the client as one transfer.
        """
        yield from self._rpc_latency()  # request fan-out, once per group
        by_oid: Dict[str, List[int]] = {}
        for i in indices:
            by_oid.setdefault(requests[i][0], []).append(i)
        total = 0
        primaries: List[OSD] = []
        for oid, sub in by_oid.items():
            key = self.object_key(pool, oid)
            lo = min(requests[i][1] for i in sub)
            span_len: Optional[int] = None
            if all(requests[i][2] is not None for i in sub):
                span_len = max(requests[i][1] + requests[i][2] for i in sub) - lo
            # Only a primary dying mid-dispatch re-resolves; injected
            # errors belong to the caller's retry layer.
            primary, data = yield from self._read_with_failover(
                pool, oid, key, lo, span_len
            )
            primaries.append(primary)
            for i in sub:
                offset, length = requests[i][1], requests[i][2]
                rel = offset - lo
                piece = data[rel:] if length is None else data[rel : rel + length]
                results[i] = piece
                total += len(piece)
        source = primaries[0]
        span.tag(osd=source.osd_id, nbytes=total)
        yield from self._transfer(source.node.nic, client.nic, total)

    def _read_with_failover(self, pool: Pool, oid: str, key: ObjectKey, offset, length):
        """Process: read at the primary, failing over to the next up
        replica if the primary dies between dispatch and execution.

        Only :class:`OsdDownError` triggers failover — injected
        transient errors are the *client's* retry layer's problem (Ceph
        likewise re-peers on OSD death but returns EIO to the client).
        """
        last_exc: Optional[BaseException] = None
        for _ in range(max(1, len(self._acting_osds(pool, oid)))):
            primary = self._primary(pool, oid)
            try:
                data = yield from primary.execute_read(key, offset, length)
                return primary, data
            except OsdDownError as exc:
                last_exc = exc
                yield from self._rpc_latency()  # redirect to next replica
        raise last_exc

    # -- metadata access -----------------------------------------------------------

    def stat(self, pool: Pool, oid: str):
        """Process: object payload size (logical size for EC)."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid)
        yield from self._rpc_latency()
        if pool.is_ec:
            shard = primary.store.get(key)
            return int(shard.xattrs[_EC_LEN_XATTR].decode("ascii"))
        return primary.store.stat(key)

    def exists(self, pool: Pool, oid: str) -> bool:
        """Whether any up replica holds the object (map-time check)."""
        key = self.object_key(pool, oid)
        return any(
            osd.store.exists(key)
            for osd in self._up_subset(self._acting_osds(pool, oid))
        )

    def getxattr(self, pool: Pool, oid: str, name: str):
        """Process: read one xattr from the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid)
        yield from self._rpc_latency()
        return primary.store.getxattr(key, name)

    def setxattr(self, pool: Pool, oid: str, name: str, value: bytes, client=None):
        """Process: set one xattr on all replicas/shards."""
        key = self.object_key(pool, oid)
        yield from self.submit(pool, oid, Transaction().setxattr(key, name, value), client)

    def omap_get(self, pool: Pool, oid: str, name: str):
        """Process: read one omap value from the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid)
        yield from self._rpc_latency()
        return primary.store.omap_get(key, name)

    def omap_keys(self, pool: Pool, oid: str) -> List[str]:
        """Map-time snapshot of omap keys on the primary."""
        key = self.object_key(pool, oid)
        primary = self._primary(pool, oid)
        return list(primary.store.get(key).omap.keys())

    # -- EC data path -------------------------------------------------------------

    def _ec_acting_for_write(self, pool: Pool, oid: str) -> List[Optional[OSD]]:
        # Always the *strict* CRUSH acting set: shard index == slot
        # position, so a mid-remap stripe write lands whole on the new
        # acting set (the parked old shards are purged under the same
        # lock — see _purge_parked_ec_copies).
        acting = [self.osds[i] for i in pool.acting_set_for(oid)]
        up = [o if o.up else None for o in acting]
        if sum(o is not None for o in up) < pool.redundancy.min_size:
            raise NotEnoughReplicas(
                f"only {sum(o is not None for o in up)} shards writable for {oid!r}"
            )
        return up

    def _ec_write_full(self, pool: Pool, oid: str, data: bytes, client: Optional[Client]):
        client = client or self._default_client
        key = self.object_key(pool, oid)
        primary = next(o for o in self._ec_acting_for_write(pool, oid) if o is not None)
        yield from self._transfer(client.nic, primary.node.nic, len(data))
        lock = self._write_lock(key)
        yield lock.acquire()
        try:
            yield from self._ec_write_full_locked(pool, oid, data, client)
            self._purge_parked_ec_copies(pool, oid, key)
        finally:
            lock.release()
        yield from self._rpc_latency()

    def _ec_write_full_locked(
        self,
        pool: Pool,
        oid: str,
        data: bytes,
        client: Optional[Client],
        extra_xattrs: Optional[Dict[str, bytes]] = None,
        omap: Optional[Dict[str, bytes]] = None,
        replace_metadata: bool = False,
    ):
        key = self.object_key(pool, oid)
        slots = self._ec_acting_for_write(pool, oid)
        primary = next(o for o in slots if o is not None)
        # Encode on the primary's CPU.
        yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(len(data)))
        shards = pool.codec.encode(data)
        internal = (_EC_LEN_XATTR, _EC_IDX_XATTR, _EC_CRC_XATTR)
        planned = []
        for idx, osd in enumerate(slots):
            if osd is None:
                continue  # degraded: this shard is skipped until recovery
            txn = (
                Transaction()
                .write_full(key, shards[idx])
                .setxattr(key, _EC_LEN_XATTR, str(len(data)).encode("ascii"))
                .setxattr(key, _EC_IDX_XATTR, str(idx).encode("ascii"))
                .setxattr(key, _EC_CRC_XATTR, _shard_crc(shards[idx]))
            )
            if replace_metadata and osd.store.exists(key):
                # Full-stripe RMW replaces user metadata: drop keys the
                # new state no longer carries.
                current = osd.store.get(key)
                for name in current.xattrs:
                    if name not in internal and name not in (extra_xattrs or {}):
                        txn.rmxattr(key, name)
                stale_omap = [
                    name for name in current.omap if name not in (omap or {})
                ]
                if stale_omap:
                    txn.omap_rm(key, stale_omap)
            for name, value in (extra_xattrs or {}).items():
                txn.setxattr(key, name, value)
            if omap:
                txn.omap_set(key, omap)
            planned.append((osd, txn, len(shards[idx])))
        # Same two-phase shape as replicated submit: prepare every
        # shard (can fail), then commit instantly so a mid-stripe fault
        # cannot leave mixed-generation shards behind.
        jobs = [
            self.sim.process(self._replica_prepare(primary, osd, txn, nbytes))
            for osd, txn, nbytes in planned
        ]
        yield self.sim.all_of(jobs)
        for osd, txn, _ in planned:
            if osd.up:
                osd.commit_transaction(txn)

    def _ec_read(self, pool: Pool, oid: str, client: Optional[Client]):
        client = client or self._default_client
        key = self.object_key(pool, oid)
        acting = self._acting_osds(pool, oid)
        holders = [o for o in acting if o.up and o.store.exists(key)]
        if not holders:
            raise NoSuchObject(key)
        # Mid-remap the union can hold the same shard index twice (an
        # old copy and its migrated twin): pick one holder per distinct
        # index — union order is old-first, and writes purge parked old
        # shards, so duplicates are always the same generation.
        by_idx: Dict[int, OSD] = {}
        for osd in holders:
            idx = int(osd.store.getxattr(key, _EC_IDX_XATTR).decode("ascii"))
            by_idx.setdefault(idx, osd)
        if len(by_idx) < pool.codec.k:
            raise NotEnoughReplicas(
                f"only {len(by_idx)} distinct shards readable for {oid!r}; "
                f"need {pool.codec.k}"
            )
        primary = holders[0]
        length = int(primary.store.getxattr(key, _EC_LEN_XATTR).decode("ascii"))
        chosen = [by_idx[idx] for idx in sorted(by_idx)][: pool.codec.k]
        yield from self._rpc_latency()  # request fan-out
        jobs = [
            self.sim.process(self._ec_fetch_shard(primary, osd, key))
            for osd in chosen
        ]
        results = yield self.sim.all_of(jobs)
        slots: List[Optional[bytes]] = [None] * pool.codec.n
        for idx, shard in results:
            slots[idx] = shard
        # Decode on the primary's CPU, then return to the client.
        yield from primary.node.cpu.execute(primary.node.cpu.spec.ec_time(length))
        data = pool.codec.decode(slots, length)
        yield from self._transfer(primary.node.nic, client.nic, length)
        return data

    def _ec_fetch_shard(self, primary: OSD, holder: OSD, key: ObjectKey):
        shard = yield from holder.execute_read(key)
        idx = int(holder.store.getxattr(key, _EC_IDX_XATTR).decode("ascii"))
        if holder.node is not primary.node:
            yield from self._transfer(holder.node.nic, primary.node.nic, len(shard))
        return (idx, shard)

    def _ec_submit(self, pool: Pool, oid: str, txn: Transaction, client: Optional[Client]):
        """Process: apply a transaction on an EC pool.

        A removal, or a metadata-only transaction (xattr and omap ops)
        on an existing object, leaves the stripe data untouched: it
        applies to every shard directly, with no stripe read.  Anything
        else touches stripe data and is a full-stripe read-modify-write
        (decode, apply, re-encode, rewrite all shards) — the cost that
        makes EC random writes so slow in the paper's Figure 12.
        """
        from .objectstore import ObjectStore, StoredObject

        key = self.object_key(pool, oid)
        kinds = {op[0] for op in txn.ops}
        if kinds == {"remove"} or (
            kinds <= _EC_SHARD_LOCAL_OPS and self.exists(pool, oid)
        ):
            lock = self._write_lock(key)
            yield lock.acquire()
            try:
                yield from self._ec_apply_to_shards(pool, oid, key, txn)
            finally:
                lock.release()
            return
        client = client or self._default_client
        yield from self._transfer(client.nic, self._primary(pool, oid).node.nic, txn.io_bytes)
        lock = self._write_lock(key)
        yield lock.acquire()
        try:
            acting = self._acting_osds(pool, oid)
            holder = next(
                (o for o in acting if o.up and o.store.exists(key)), None
            )
            scratch = ObjectStore()
            if holder is not None:
                data = yield from self._ec_read_internal(pool, oid)
                current = holder.store.get(key)
                xattrs = {
                    k: v
                    for k, v in current.xattrs.items()
                    if k not in (_EC_LEN_XATTR, _EC_IDX_XATTR)
                }
                scratch.put_object(
                    key,
                    StoredObject(
                        data=bytearray(data),
                        xattrs=xattrs,
                        omap=dict(current.omap),
                    ),
                )
            scratch.apply(txn)
            if not scratch.exists(key):
                yield from self._ec_apply_to_shards(
                    pool, oid, key, Transaction().remove(key)
                )
                return
            obj = scratch.get(key)
            yield from self._ec_write_full_locked(
                pool,
                oid,
                bytes(obj.data),
                client,
                extra_xattrs=dict(obj.xattrs),
                omap=dict(obj.omap),
                replace_metadata=True,
            )
            self._purge_parked_ec_copies(pool, oid, key)
        finally:
            lock.release()
        yield from self._rpc_latency()

    def _ec_read_internal(self, pool: Pool, oid: str):
        """Process: EC read delivered to the primary (no client hop)."""
        acting = self._acting_osds(pool, oid)
        primary = next(o for o in acting if o.up)
        data = yield from self._ec_read(pool, oid, _NodeAsClient(primary.node))
        return data

    def _ec_apply_to_shards(self, pool: Pool, oid: str, key: ObjectKey, txn: Transaction):
        """Process: apply ``txn`` to every up shard holding ``key``.

        Every shard prepares before any commits, so a fault during
        prepare leaves no shard mutated.  Caller holds the write lock.
        """
        holders = [
            osd for osd in self._up_subset(self._acting_osds(pool, oid))
            if osd.store.exists(key)
        ]
        if not holders:
            return
        yield self.sim.all_of(
            [self.sim.process(osd.prepare_transaction(txn)) for osd in holders]
        )
        for osd in holders:
            if osd.up:
                osd.commit_transaction(txn)

    def _purge_parked_ec_copies(self, pool: Pool, oid: str, key: ObjectKey) -> None:
        """Drop shards parked outside the strict acting set (mid-remap).

        A full-stripe write lands the whole new generation on the new
        acting set, so any copy still sitting on an old-only union
        member is stale the instant the stripe commits; dropping it here
        (map-time, under the caller's write lock) keeps every reachable
        shard the same generation — the invariant _ec_read's
        distinct-index selection relies on.
        """
        remap = self._remap_for(pool, pool.pg_of(oid))
        if remap is None:
            return
        acting_ids = set(pool.acting_set_for(oid))
        for osd_id in remap.union_ids():
            if osd_id in acting_ids:
                continue
            osd = self.osds.get(osd_id)
            if osd is not None and osd.up and osd.store.exists(key):
                osd.store.delete_object(key)

    # -- enumeration & accounting -----------------------------------------------------

    def list_objects(self, pool: Pool) -> List[str]:
        """All object names in ``pool`` (union over all OSD stores)."""
        names: Set[str] = set()
        for osd in self.osds.values():
            for key in osd.store.keys():
                if key.pool_id == pool.pool_id:
                    names.add(key.name)
        return sorted(names)

    def pool_used_bytes(self, pool: Pool) -> int:
        """Raw bytes (all copies/shards, incl. metadata) used by ``pool``."""
        total = 0
        for osd in self.osds.values():
            for key in osd.store.keys():
                if key.pool_id == pool.pool_id:
                    total += osd.store.get(key).footprint()
        return total

    def pool_logical_bytes(self, pool: Pool) -> int:
        """Payload bytes counting each object once (primary copy)."""
        total = 0
        for oid in self.list_objects(pool):
            key = self.object_key(pool, oid)
            for osd in self._acting_osds(pool, oid):
                if osd.store.exists(key):
                    if pool.is_ec:
                        total += int(
                            osd.store.getxattr(key, _EC_LEN_XATTR).decode("ascii")
                        )
                    else:
                        total += osd.store.stat(key)
                    break
        return total

    def total_used_bytes(self) -> int:
        """Raw bytes used across every OSD."""
        return sum(osd.store.used_bytes() for osd in self.osds.values())

    # -- online elasticity ----------------------------------------------------

    def snapshot_acting_sets(self) -> Dict[Tuple[int, int], List[int]]:
        """(pool_id, pg) -> acting set under the current map.

        Take one before a topology change; :func:`~repro.cluster.rebalance.compute_remap`
        diffs it against the post-change map.
        """
        snap: Dict[Tuple[int, int], List[int]] = {}
        for pool in self.pools.values():
            for pg in range(pool.pg_num):
                snap[(pool.pool_id, pg)] = list(pool.acting_set(pg))
        return snap

    def expand(self, name: str, num_osds: int, rack: str = "default") -> "RemapDiff":
        """Add a host with ``num_osds`` OSDs *online*; returns the remap diff.

        CRUSH immediately includes the new OSDs, moving a (minimal)
        subset of PGs onto them.  Every moved PG becomes an active
        remap: IO keeps flowing against the old+new union while a
        :class:`~repro.cluster.rebalance.Rebalancer` migrates the data.
        """
        before = self.snapshot_acting_sets()
        self.add_host(name, num_osds, rack=rack)
        return self._register_topology_change(before)

    def decommission_osd(self, osd_id: int) -> "RemapDiff":
        """Take an OSD out of placement *online*; returns the remap diff.

        The OSD keeps serving as a migration source (it is out, not
        down); once every remap that references it has retired and its
        store has drained, :meth:`finalize_decommission` removes it.
        """
        if osd_id not in self.osds:
            raise KeyError(f"unknown osd.{osd_id}")
        if not self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(f"osd.{osd_id} is already out of placement")
        before = self.snapshot_acting_sets()
        self.cluster_map.mark_out(osd_id)
        self.cluster_map.osds[osd_id].decommissioned = True
        return self._register_topology_change(before)

    def _register_topology_change(self, before: Dict[Tuple[int, int], List[int]]) -> "RemapDiff":
        from .rebalance import compute_remap

        diff = compute_remap(self, before)
        for remap in diff.remaps:
            prior = self._active_remaps.get((remap.pool_id, remap.pg))
            if prior is not None:
                # A second change landed while the PG was still mid-
                # remap: widen the sources to the prior union, keep the
                # newest destination (and the original degraded clock).
                remap = remap.chained_from(prior)
            self._active_remaps[(remap.pool_id, remap.pg)] = remap
        return diff

    def active_remaps(self) -> List["PgRemap"]:
        """The PGs currently mid-remap, in deterministic order."""
        return [self._active_remaps[k] for k in sorted(self._active_remaps)]

    def complete_remap(self, pool_id: int, pg: int) -> None:
        """Retire one PG's remap (the rebalancer verified it settled)."""
        self._active_remaps.pop((pool_id, pg), None)

    def retire_remaps(self) -> int:
        """Drop remaps whose old-side members hold nothing any more.

        When no union member outside the strict acting set holds any
        object of the PG, the union view and the strict view are the
        same, so serving from the strict map is safe.  Recovery calls
        this after healing to the current map; returns the number
        retired.
        """
        pools_by_id = {p.pool_id: p for p in self.pools.values()}
        retired = 0
        for (pool_id, pg), remap in sorted(self._active_remaps.items()):
            pool = pools_by_id.get(pool_id)
            if pool is None:
                continue
            acting_ids = set(pool.acting_set(pg))
            parked = False
            for osd_id in remap.union_ids():
                if osd_id in acting_ids:
                    continue
                osd = self.osds.get(osd_id)
                if osd is not None and osd.store.keys_in_pg(pool_id, pg):
                    parked = True
                    break
            if not parked:
                del self._active_remaps[(pool_id, pg)]
                retired += 1
        return retired

    def finalize_decommission(self, osd_id: int) -> None:
        """Remove a drained, decommissioned OSD from the cluster.

        Requires the OSD to be out of placement, unreferenced by any
        active remap, and empty — i.e. the rebalance actually finished.
        """
        osd = self.osds.get(osd_id)
        if osd is None:
            raise KeyError(f"unknown osd.{osd_id}")
        if self.cluster_map.osds[osd_id].in_cluster:
            raise ValueError(
                f"osd.{osd_id} is still in placement; decommission it first"
            )
        for (_pool_id, pg), remap in sorted(self._active_remaps.items()):
            if osd_id in remap.union_ids():
                raise ValueError(
                    f"osd.{osd_id} is still a migration source for pg {pg}"
                )
        leftover = len(list(osd.store.keys()))
        if leftover:
            raise ValueError(
                f"osd.{osd_id} still holds {leftover} object(s); "
                f"run the rebalance to completion first"
            )
        osd.node.osds.remove(osd)
        del self.osds[osd_id]
        self.cluster_map.remove_osd(osd_id)

    # -- failure injection ---------------------------------------------------------

    def fail_osd(self, osd_id: int, mark_out: bool = True) -> None:
        """Simulate an OSD failure (down, and optionally out of placement).

        The dead disk keeps its contents — they are simply unreachable —
        so the cluster can still tell "degraded" apart from "lost".
        """
        self.cluster_map.mark_down(osd_id)
        if mark_out:
            self.cluster_map.mark_out(osd_id)

    def revive_osd(self, osd_id: int) -> None:
        """Re-add a failed OSD with a fresh (empty) disk.

        Matches the paper's Table 3 methodology ("removing and re-adding
        the OSD"): the rejoining OSD starts empty and recovery backfills
        it.

        Like :meth:`restart_osd`, the OSD rejoins flagged
        ``needs_backfill`` and only :func:`~repro.cluster.recovery.recover`
        clears the flag (the single owner of that transition).  The
        empty store cannot serve reads anyway, and — crucially — the
        flag keeps the revived OSD from acting as a deletion *witness*:
        an empty acting replica that recovery would otherwise read as
        "this object was deleted while the stale holders were down",
        deleting the last real copy.
        """
        self.osds[osd_id].store = type(self.osds[osd_id].store)()
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # Re-adding cancels an auto-out, but never a decommission: an
        # administratively-out OSD stays out across daemon restarts
        # (mark_in would silently undo the drain with no remap to move
        # the data back).
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)

    def restart_osd(self, osd_id: int) -> None:
        """Bring a crashed OSD back with its disk contents *intact*.

        Models a daemon restart (Ceph's down-but-in window): the disk
        survived, but any write that landed while the OSD was down is
        missing from it, and any object deleted meanwhile still lingers.
        The OSD rejoins flagged ``needs_backfill``; it is kept out of
        the primary role until :func:`~repro.cluster.recovery.recover`
        reconciles its contents against the continuously-up replicas.
        """
        self.osds[osd_id].needs_backfill = True
        self.cluster_map.mark_up(osd_id)
        # See revive_osd: a decommissioned OSD stays out across restarts.
        if not self.cluster_map.osds[osd_id].decommissioned:
            self.cluster_map.mark_in(osd_id)

    # -- sync bridge -----------------------------------------------------------------

    def run(self, gen):
        """Drive the event loop until process ``gen`` completes."""
        return self.sim.run_until_complete(self.sim.process(gen))

    def write_full_sync(self, pool: Pool, oid: str, data: bytes) -> None:
        """Synchronous :meth:`write_full` (drives the event loop)."""
        self.run(self.write_full(pool, oid, data))

    def write_sync(self, pool: Pool, oid: str, offset: int, data: bytes) -> None:
        """Synchronous :meth:`write`."""
        self.run(self.write(pool, oid, offset, data))

    def read_sync(self, pool: Pool, oid: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Synchronous :meth:`read`."""
        return self.run(self.read(pool, oid, offset, length))

    def remove_sync(self, pool: Pool, oid: str) -> None:
        """Synchronous :meth:`remove`."""
        self.run(self.remove(pool, oid))

    def submit_sync(self, pool: Pool, oid: str, txn: Transaction) -> None:
        """Synchronous :meth:`submit`."""
        self.run(self.submit(pool, oid, txn))

    def submit_batch_sync(self, pool: Pool, items) -> None:
        """Synchronous :meth:`submit_batch`."""
        self.run(self.submit_batch(pool, items))
