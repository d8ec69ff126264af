"""Out-of-program tracing for the traced benchmark run.

The benchmark times calls into each layer's public functions by
replacing them, for the duration of one measured phase, with wrappers
installed from outside the program.  Nothing inside ``src/`` knows it is
being traced.

Two kinds of wrapper:

* **generator wrappers** for the simulation processes (disk, NIC, CPU,
  OSD, RADOS, tier, engine, I/O paths, rate control).  Each call becomes
  a :class:`Span`.  A generator's host time is the time spent inside its
  resumes; its self time is that minus the host time of wrapped calls
  nested inside those resumes.  Its simulated time runs from its first
  resume to its return.
* **plain wrappers** for synchronous hot calls (``Simulator.step``,
  ``Pool.pg_of``, the chunk data cache, chunking, the fingerprint pool).
  These are too frequent to keep one span each, so they only add to a
  per-call-site :class:`Counter`.

A span's parent is the innermost open span on the same
``Simulator.current_task``; a process spawned while a span is open
inherits that span as the parent of its own top-level spans.  Each span
also carries the id of the user op it belongs to (``None`` for
background work such as the dedup engine).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Counter", "Span", "Tracer", "default_targets"]


class Span:
    """One traced generator call."""

    __slots__ = (
        "sid", "name", "layer", "parent", "op", "sim_start", "sim_end",
        "host_incl", "host_self", "items", "nbytes", "service", "error",
    )

    def __init__(self, sid, name, layer, parent, op, sim_start, items, nbytes, service):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.host_incl = 0.0
        self.host_self = 0.0
        self.items = items
        self.nbytes = nbytes
        #: Modelled service time (hardware spans); the rest of the
        #: span's simulated duration is time spent waiting.
        self.service = service
        self.error = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return {k: getattr(self, k) for k in self.__slots__}


class Counter:
    """Aggregate of one plain (non-generator) call site."""

    __slots__ = ("calls", "host_incl", "host_self", "items", "nbytes")

    def __init__(self):
        self.calls = 0
        self.host_incl = 0.0
        self.host_self = 0.0
        self.items = 0
        self.nbytes = 0


def _len_or_list(value):
    """``(len, value)``, materialising a one-shot iterable first."""
    if not hasattr(value, "__len__"):
        value = list(value)
    return len(value), value


# -- what gets wrapped ----------------------------------------------------------
#
# Each target: (owner, attribute, layer, name, measure).  ``measure``
# receives the call's positional arguments (``self`` first for methods)
# and returns ``(args, items, nbytes, service)``; it may replace an
# iterable argument by the list it materialised.


def _one(args):
    return args, 1, 0, 0.0


def _disk(kind):
    def measure(args):
        disk, nbytes = args[0], args[1]
        spec = disk.spec
        service = spec.read_time(nbytes) if kind == "read" else spec.write_time(nbytes)
        return args, 1, nbytes, service
    return measure


def _nic(args):
    nic, nbytes = args[0], args[1]
    return args, 1, nbytes, nic.spec.transfer_time(nbytes)


def _cpu(args):
    seconds = args[1]
    return args, 1, 0, max(seconds, 0.0)


def _txn(args):
    return args, 1, args[1].io_bytes, 0.0


def _nth_len(index):
    def measure(args):
        if len(args) <= index:
            return args, 1, 0, 0.0
        n, value = _len_or_list(args[index])
        return args[:index] + (value,) + args[index + 1:], n, 0, 0.0
    return measure


def _batch(args):
    return args, len(args[1]), 0, 0.0


def _chunk(args):
    return args, 1, len(args[1]), 0.0


def _aligned(args):
    return args, 1, max(args[2], 0), 0.0


def _submit_many(args):
    n, payloads = _len_or_list(args[1])
    return args[:1] + (payloads,) + args[2:], n, sum(len(p) for p in payloads), 0.0


def default_targets():
    """The layer boundaries the traced run wraps (imported lazily)."""
    from repro.chunking import StaticChunker
    from repro.cluster import Pool, RadosCluster
    from repro.cluster.hardware import Cpu, Disk, Nic
    from repro.cluster.osd import OSD
    from repro.core import io_path
    from repro.core.engine import DedupEngine
    from repro.core.rate_control import RateController
    from repro.core.read_cache import ChunkDataCache
    from repro.core.tier import DedupTier
    from repro.fingerprint import FingerprintPool
    from repro.sim import Simulator

    return [
        (Simulator, "step", "sim", "sim.step", _one),
        (Pool, "pg_of", "cluster.pool", "pool.pg_of", _one),
        (RadosCluster, "submit", "cluster.rados", "rados.submit", _one),
        (RadosCluster, "submit_batch", "cluster.rados", "rados.submit_batch",
         _nth_len(2)),
        (RadosCluster, "read", "cluster.rados", "rados.read", _one),
        (RadosCluster, "read_batch", "cluster.rados", "rados.read_batch",
         _nth_len(2)),
        (OSD, "prepare_transaction", "cluster.osd", "osd.prepare_transaction", _txn),
        (OSD, "execute_read", "cluster.osd", "osd.execute_read", _one),
        (Disk, "read", "cluster.hardware", "disk.read", _disk("read")),
        (Disk, "write", "cluster.hardware", "disk.write", _disk("write")),
        (Nic, "send", "cluster.hardware", "nic.send", _nic),
        (Nic, "receive", "cluster.hardware", "nic.receive", _nic),
        (Cpu, "execute", "cluster.hardware", "cpu.execute", _cpu),
        (io_path, "read_path", "core.io_path", "io_path.read_path", _one),
        (io_path, "write_path", "core.io_path", "io_path.write_path", _one),
        (DedupTier, "load_chunk_map", "core.tier", "tier.load_chunk_map", _one),
        (DedupTier, "commit_chunk_batch", "core.tier", "tier.commit_chunk_batch", _batch),
        (DedupTier, "read_chunk", "core.tier", "tier.read_chunk", _one),
        (DedupTier, "chunk_ref", "core.tier", "tier.chunk_ref", _one),
        (DedupTier, "chunk_deref", "core.tier", "tier.chunk_deref", _one),
        (ChunkDataCache, "get", "core.read_cache", "chunk_cache.get", _one),
        (ChunkDataCache, "admit", "core.read_cache", "chunk_cache.admit", _one),
        (ChunkDataCache, "evict", "core.read_cache", "chunk_cache.evict", _one),
        (DedupEngine, "process_object", "core.engine", "engine.process_object", _one),
        (DedupEngine, "drain", "core.engine", "engine.drain", _one),
        (DedupEngine, "promote_object", "core.engine", "engine.promote_object", _one),
        (RateController, "throttle", "core.rate_control", "rate_control.throttle", _one),
        (FingerprintPool, "submit_many", "fingerprint", "fingerprint.submit_many",
         _submit_many),
        (StaticChunker, "chunk", "chunking", "chunking.chunk", _chunk),
        (StaticChunker, "aligned_range", "chunking", "chunking.aligned_range", _aligned),
    ]


class Tracer:
    """Installs the wrappers, records spans and counters, removes them.

    Use as a context manager around one measured phase::

        tracer = Tracer(sim)
        with tracer:
            run_measured_phase()
        tracer.spans, tracer.counters   # what was recorded
    """

    def __init__(self, sim):
        self.sim = sim
        self.targets = default_targets()
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        self.active = False
        # Host-time nesting: one accumulator per wrapped call currently
        # executing on the interpreter stack (resumes never interleave:
        # the kernel runs one process step at a time).
        self._host: List[float] = []
        # Open spans per simulation task (innermost last).
        self._open: Dict[Any, List[Span]] = {}
        # (parent span id, op id) a spawned process inherits, keyed by
        # the process's generator.
        self._inherit: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Explicit user-op ids, keyed by the task running the op.
        self._task_op: Dict[Any, Any] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._next_sid = 0

    # -- op attribution ---------------------------------------------------------

    def begin_op(self, op_id) -> None:
        """Attribute spans on the current task to user op ``op_id``."""
        self._task_op[self.sim.current_task] = op_id

    def end_op(self) -> None:
        """Stop attributing the current task's spans to a user op."""
        self._task_op.pop(self.sim.current_task, None)

    def _context(self, task) -> Tuple[Optional[int], Any]:
        stack = self._open.get(task)
        parent, op = (stack[-1].sid, stack[-1].op) if stack else (None, None)
        if not stack and task is not None:
            parent, op = self._inherit.get(task.gen, (None, None))
        return parent, self._task_op.get(task, op)

    # -- install / remove -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        """Replace every target with its wrapper."""
        if self.active:
            return
        from repro.sim import Simulator

        self._patch(Simulator, "process", self._wrap_process(Simulator.__dict__["process"]))
        for owner, attr, layer, name, measure in self.targets:
            original = owner.__dict__[attr]
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, layer, name, measure)
            else:
                wrapper = self._wrap_plain(original, name, measure)
            if inspect.ismodule(owner):
                # Module functions are also bound by name wherever they
                # were imported (``from .io_path import read_path``).
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "") or ""
                    if mod_name.split(".")[0] == "repro" and module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        self.active = True

    def remove(self) -> None:
        """Restore every original (idempotent)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.active = False

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------------------

    def _wrap_process(self, original):
        tracer = self

        def process(sim, gen):
            proc = original(sim, gen)
            parent, op = tracer._context(sim.current_task)
            if parent is not None or op is not None:
                tracer._inherit[gen] = (parent, op)
            return proc

        return process

    def _wrap_plain(self, original, name, measure) -> Callable:
        counter = self.counters.setdefault(name, Counter())
        host = self._host

        def wrapper(*args, **kwargs):
            args, items, nbytes, _service = measure(args)
            t0 = perf_counter()
            host.append(0.0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = host.pop()
                if host:
                    host[-1] += elapsed
                counter.calls += 1
                counter.items += items
                counter.nbytes += nbytes
                counter.host_incl += elapsed
                counter.host_self += elapsed - nested

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, original, layer, name, measure) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            args, items, nbytes, service = measure(args)
            return tracer._drive(original(*args, **kwargs), name, layer, items, nbytes, service)

        wrapper.__wrapped__ = original
        return wrapper

    def _drive(self, gen, name, layer, items, nbytes, service):
        """Generator: run ``gen`` step by step as one span."""
        sim = self.sim
        host = self._host
        task = sim.current_task
        parent, op = self._context(task)
        self._next_sid += 1
        span = Span(self._next_sid, name, layer, parent, op, sim.now, items, nbytes, service)
        self.spans.append(span)
        stack = self._open.setdefault(task, [])
        stack.append(span)
        value: Any = None
        exc: Optional[BaseException] = None
        try:
            while True:
                t0 = perf_counter()
                host.append(0.0)
                try:
                    target = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    span.sim_end = sim.now
                    return stop.value
                except BaseException:
                    span.sim_end = sim.now
                    span.error = True
                    raise
                finally:
                    elapsed = perf_counter() - t0
                    nested = host.pop()
                    if host:
                        host[-1] += elapsed
                    span.host_incl += elapsed
                    span.host_self += elapsed - nested
                try:
                    value, exc = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as error:  # delivered into the wrapped generator
                    value, exc = None, error
        finally:
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
            if not stack:
                self._open.pop(task, None)

    # -- output -------------------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every span as one gzip'd JSON line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict(), separators=(",", ":")))
                out.write("\n")
            for name, c in sorted(self.counters.items()):
                out.write(json.dumps({"counter": name, "calls": c.calls, "items": c.items,
                                      "nbytes": c.nbytes, "host_incl": c.host_incl,
                                      "host_self": c.host_self}, separators=(",", ":")))
                out.write("\n")
        return len(self.spans)
