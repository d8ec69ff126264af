"""Pools: named object namespaces with a redundancy scheme.

The paper's design uses exactly two pools (§4.2): a *metadata pool* for
metadata objects and a *chunk pool* for deduplicated chunk objects, each
free to pick its own redundancy scheme (replication or erasure coding)
and placement.  This module provides the generic pool abstraction those
two are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .crush import CrushMap, stable_hash64
from .ec import ReedSolomon

__all__ = ["Redundancy", "Replicated", "ErasureCoded", "Pool"]


@dataclass(frozen=True)
class Replicated:
    """Primary-copy replication with ``size`` total copies."""

    size: int = 2

    @property
    def width(self) -> int:
        """Number of OSDs in each acting set."""
        return self.size

    @property
    def min_size(self) -> int:
        """Minimum replicas that must be writable to accept I/O."""
        return max(1, self.size - 1)

    def raw_multiplier(self) -> float:
        """Raw-to-logical space multiplier."""
        return float(self.size)


@dataclass(frozen=True)
class ErasureCoded:
    """Reed-Solomon ``k + m`` erasure coding."""

    k: int = 2
    m: int = 1

    @property
    def width(self) -> int:
        """Number of OSDs in each acting set (``k + m`` shards)."""
        return self.k + self.m

    @property
    def min_size(self) -> int:
        """Minimum shards that must be available to serve I/O."""
        return self.k

    def raw_multiplier(self) -> float:
        """Raw-to-logical space multiplier, e.g. 1.5 for 2+1."""
        return (self.k + self.m) / self.k

    def codec(self) -> ReedSolomon:
        """The codec instance for this profile."""
        return ReedSolomon(self.k, self.m)


Redundancy = object  # typing alias: Replicated | ErasureCoded


class Pool:
    """A pool: id, name, redundancy scheme, and PG-based placement."""

    def __init__(
        self,
        pool_id: int,
        name: str,
        redundancy,
        pg_num: int,
        crush: CrushMap,
        failure_domain: str = "host",
    ):
        if pg_num < 1:
            raise ValueError(f"pg_num must be >= 1, got {pg_num}")
        self.pool_id = pool_id
        self.name = name
        self.redundancy = redundancy
        self.pg_num = pg_num
        self.crush = crush
        self.failure_domain = failure_domain
        self._codec: Optional[ReedSolomon] = (
            redundancy.codec() if isinstance(redundancy, ErasureCoded) else None
        )
        # oid -> PG.  A PG is a pure function of (pool_id, oid, pg_num),
        # none of which change after the pool is created (elasticity moves
        # the CRUSH epoch, not pg_num), so entries never need invalidating.
        self._pg_memo: Dict[str, int] = {}

    @property
    def is_ec(self) -> bool:
        """Whether this pool is erasure-coded."""
        return self._codec is not None

    @property
    def codec(self) -> Optional[ReedSolomon]:
        """The EC codec, or ``None`` for replicated pools."""
        return self._codec

    def pg_of(self, oid: str) -> int:
        """Placement group for an object name (hashed once per oid)."""
        pg = self._pg_memo.get(oid)
        if pg is None:
            pg = stable_hash64("obj", self.pool_id, oid) % self.pg_num
            self._pg_memo[oid] = pg
        return pg

    def acting_set(self, pg: int) -> List[int]:
        """OSDs (primary first) for ``pg`` under the current map."""
        return self.crush.map_pg(
            self.pool_id, pg, self.redundancy.width, self.failure_domain
        )

    def acting_set_for(self, oid: str) -> List[int]:
        """OSDs (primary first) for an object name."""
        return self.acting_set(self.pg_of(oid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pool {self.name!r} id={self.pool_id} {self.redundancy}>"
