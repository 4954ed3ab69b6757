"""In-memory span tracing of the program's layers, installed from outside.

The benchmark does not edit the program.  :meth:`Tracer.install` replaces
each layer's public entry points with recording wrappers and
:meth:`Tracer.uninstall` puts the originals back.  A span records its op
name, start, end and parent span; every span of one :class:`SpanBatch`
comes from one process, whose pid the batch carries.  Spans stay in
memory.  Worker processes ship theirs back to the parent piggybacked on
each task's return value, and the parent's wrapped result loop strips
them off again before the program sees the result.

Only the main thread of each process records, so spans nest strictly and
a span's self time is its duration minus its direct children's.  The
engine tiers are keyed by the ``engine`` field of the results a call
returns, so a cell that changes tier moves from one layer to another.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import threading
import weakref
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TIERS = ("kernel", "reference", "fast", "batch")

#: op name -> layer it is accounted to
LAYER_OF_OP = {
    "other": "other",
    **{f"core.engine.{t}": f"core.engine.{t}" for t in TIERS},
    "core.engine.select": "core.engine.select",
    "algorithms.policy_build": "algorithms.policy_build",
    "predictions.stream": "predictions.stream",
    "offline.dp": "offline.dp",
    "experiments.runner": "experiments.runner",
    "experiments.runner.task": "experiments.runner",
    # the parent blocked on its workers: idle, so kept apart from the
    # runner's own work when layers are ranked
    "experiments.runner.wait": "experiments.runner.wait",
    "experiments.cache.get": "experiments.cache",
    "experiments.cache.put": "experiments.cache",
    "experiments.cache.trace_digest": "experiments.cache",
    "system.multi_object.split": "system.multi_object",
    "system.multi_object.observe": "system.multi_object",
    "system.multi_object.system": "system.multi_object",
}
OPS = tuple(LAYER_OF_OP)
LAYERS = tuple(dict.fromkeys(LAYER_OF_OP.values()))
_OP_ID = {op: i for i, op in enumerate(OPS)}
_LAYER_ID_OF_OP = np.array([LAYERS.index(LAYER_OF_OP[op]) for op in OPS])

#: a process's layer self times plus ``other`` must come within this
#: share of its wall time
ACCOUNTING_TOLERANCE = 0.02


@dataclass
class SpanBatch:
    """The spans one process recorded, as parallel columns."""

    pid: int
    sid: array
    parent: array
    op: array
    start: array
    end: array
    units: array
    work: array


@dataclass
class Shipment:
    """What a worker task returns in place of the runner's telemetry
    delta: the delta itself plus the worker's spans."""

    delta: object
    spans: SpanBatch
    result_bytes: int


def _reset_if_alive(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer.reset()


class Tracer:
    """Records spans of the calls it wraps; one instance per benchmark run."""

    def __init__(self) -> None:
        self.home_pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()
        os.register_at_fork(
            after_in_child=functools.partial(_reset_if_alive, weakref.ref(self))
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every span (a forked child starts empty)."""
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self._next = 0
        self._stack: list[int] = []
        self._engine_frames: list[dict[str, int]] = []
        self._batch = self._new_batch()
        self.shipped: list[SpanBatch] = []
        self.ipc_bytes = 0
        self.tasks = 0

    def _new_batch(self) -> SpanBatch:
        return SpanBatch(
            self.pid, array("q"), array("q"), array("b"), array("d"),
            array("d"), array("q"), array("d"),
        )

    def _open(self) -> int:
        sid = self._next
        self._next = sid + 1
        self._stack.append(sid)
        return sid

    def _close(self, sid, op, t0, t1, units=0, work=0.0) -> None:
        self._stack.pop()
        self._record(sid, self._stack[-1] if self._stack else -1, op, t0, t1,
                     units, work)

    def _record(self, sid, parent, op, t0, t1, units, work) -> None:
        b = self._batch
        b.sid.append(sid)
        b.parent.append(parent)
        b.op.append(_OP_ID[op])
        b.start.append(t0)
        b.end.append(t1)
        b.units.append(units)
        b.work.append(work)

    def _mine(self) -> bool:
        return threading.get_ident() == self.thread

    def drain(self) -> list[SpanBatch]:
        """Every batch recorded or received so far; recording restarts."""
        out = self.shipped + [self._batch]
        self._batch = self._new_batch()
        self.shipped = []
        return out

    class _Span:
        def __init__(self, tracer: "Tracer", op: str):
            self.tracer, self.op = tracer, op

        def __enter__(self):
            self.sid = self.tracer._open()
            self.t0 = perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            self.tracer._close(self.sid, self.op, self.t0, perf_counter())

    def span(self, op: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return self._Span(self, op)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, op: str, measure=None):
        """``fn`` recording one ``op`` span per call; ``measure(args,
        result)`` gives the span's ``(units, work)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._mine():
                return fn(*args, **kwargs)
            sid = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, op, t0, perf_counter())
                raise
            t1 = perf_counter()
            units, work = measure(args, out) if measure else (0, 0.0)
            tracer._close(sid, op, t0, t1, units, work)
            return out

        return traced

    def _wrap_engine(self, fn, trace_pos: int, many: bool):
        """An engine entry point: the span's op is the tier that produced
        the most of its own cells, i.e. those not produced by a nested
        engine span.  Cells of other tiers get zero-length spans, so each
        cell is counted exactly once, by the tier in its result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._mine():
                return fn(*args, **kwargs)
            sid = tracer._open()
            frame: dict[str, int] = {}
            tracer._engine_frames.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # the pass fails with this error; its tier is unknown
                tracer._engine_frames.pop()
                tracer._stack.pop()
                raise
            t1 = perf_counter()
            tracer._engine_frames.pop()
            total: dict[str, int] = {}
            for r in out if many else (out,):
                tier = getattr(r, "engine", "reference")
                total[tier] = total.get(tier, 0) + 1
            if tracer._engine_frames:
                outer = tracer._engine_frames[-1]
                for tier, k in total.items():
                    outer[tier] = outer.get(tier, 0) + k
            own = {t: k - frame.get(t, 0) for t, k in total.items()}
            own = {t: k for t, k in own.items() if k > 0}
            pick = own or total or {"reference": 0}   # an empty slab
            tier = max(pick, key=pick.get)
            m = len(args[trace_pos])
            tracer._close(sid, f"core.engine.{tier}", t0, t1,
                          own.get(tier, 0), float(own.get(tier, 0) * m))
            for other, k in own.items():
                if other != tier:
                    tracer._record(tracer._next, sid, f"core.engine.{other}",
                                   t1, t1, k, float(k * m))
                    tracer._next += 1
            return out

        return traced

    def _wrap_runner(self, fn):
        """A runner entry point; ``units`` counts the tasks it completed
        and ``work`` is its duration when it dispatched any."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._mine():
                return fn(*args, **kwargs)
            tasks0 = tracer.tasks
            sid = tracer._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                k = tracer.tasks - tasks0
                tracer._close(sid, "experiments.runner", t0, t1, k,
                              t1 - t0 if k else 0.0)

        return traced

    def _wrap_task(self, fn):
        """A runner task function (the root span of a worker).  In a
        worker the result's telemetry delta is replaced by a
        :class:`Shipment` carrying the worker's spans."""
        tracer = self
        inner = self.wrap(fn, "experiments.runner.task")

        @functools.wraps(fn)
        def task(arg):
            payload, delta = inner(arg)
            if os.getpid() == tracer.home_pid:
                return payload, delta
            size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            (batch,) = tracer.drain()
            return payload, Shipment(delta, batch, size)

        return task

    def _wrap_run_tagged(self, fn):
        """The parent's result loop: time spent blocked on workers is a
        ``wait`` span; shipped spans are taken off each result."""
        tracer = self

        def sized(tasks):
            for tag, task_fn, arg in tasks:
                if tracer._mine():
                    tracer.ipc_bytes += len(
                        pickle.dumps(arg, pickle.HIGHEST_PROTOCOL)
                    )
                yield tag, task_fn, arg

        @functools.wraps(fn)
        def run_tagged(executor, tasks, window=None):
            results = fn(executor, sized(tasks), window)
            while True:
                mine = tracer._mine()
                if mine:
                    sid = tracer._open()
                    t0 = perf_counter()
                try:
                    tag, (payload, delta) = next(results)
                except StopIteration:
                    if mine:
                        tracer._close(sid, "experiments.runner.wait", t0,
                                      perf_counter())
                    return
                if mine:
                    tracer._close(sid, "experiments.runner.wait", t0,
                                  perf_counter())
                    tracer.tasks += 1
                if isinstance(delta, Shipment):
                    tracer.shipped.append(delta.spans)
                    tracer.ipc_bytes += delta.result_bytes
                    delta = delta.delta
                yield tag, (payload, delta)

        return run_tagged

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch_everywhere(self, fn, wrapper) -> None:
        """Replace ``fn`` in every loaded module of the program that
        holds it (``from x import fn`` copies the reference)."""
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point of the program."""
        from repro.core import engine
        from repro.experiments import cache, runner
        from repro.offline import dp
        from repro.predictions.stream import PredictionStream
        from repro.system import multi_object

        def trace_len(args, out):
            return 0, float(len(args[0]))

        def hit(args, out):
            return int(out is not None), 0.0

        everywhere = [
            (dp.optimal_cost, self.wrap(dp.optimal_cost, "offline.dp",
                                        trace_len)),
            (engine.run_slab, self._wrap_engine(engine.run_slab, 0, True)),
            (engine.run_policy_slab,
             self._wrap_engine(engine.run_policy_slab, 0, True)),
            (engine.select_engine,
             self.wrap(engine.select_engine, "core.engine.select")),
            (cache.trace_digest,
             self.wrap(cache.trace_digest, "experiments.cache.trace_digest")),
            (multi_object.split_trace_by_object,
             self.wrap(multi_object.split_trace_by_object,
                       "system.multi_object.split")),
        ]
        for fn, wrapper in everywhere:
            self._patch_everywhere(fn, wrapper)
        for name in ("_slab_chunk_task", "_opt_task", "_fleet_chunk_task"):
            self._patch_attr(runner, name, self._wrap_task(getattr(runner, name)))
        self._patch_attr(runner._Executor, "run_tagged",
                         self._wrap_run_tagged(runner._Executor.run_tagged))
        for cls in (engine.ReferenceEngine, engine.FastCostEngine,
                    engine.BatchCostEngine, engine.KernelCostEngine):
            self._patch_attr(cls, "run", self._wrap_engine(cls.run, 1, False))
            self._patch_attr(cls, "supports",
                             self.wrap(cls.supports, "core.engine.select"))
        for attr, op, measure in (
            ("get", "experiments.cache.get", hit),
            ("put", "experiments.cache.put", None),
        ):
            self._patch_attr(cache.ResultCache, attr, self.wrap(
                getattr(cache.ResultCache, attr), op, measure))
        self._patch_attr(multi_object.FleetStats, "observe", self.wrap(
            multi_object.FleetStats.observe, "system.multi_object.observe"))
        self._patch_attr(multi_object.MultiObjectSystem, "__init__", self.wrap(
            multi_object.MultiObjectSystem.__init__,
            "system.multi_object.system"))
        for attr in ("run", "run_fleet"):
            self._patch_attr(runner.ExperimentRunner, attr, self._wrap_runner(
                getattr(runner.ExperimentRunner, attr)))
        for attr in ("oracle", "noisy_oracle", "adversarial", "fixed", "batch",
                     "batch_for_predictors", "batch_for_cells",
                     "for_predictor"):
            raw = PredictionStream.__dict__[attr].__func__
            self._patch_attr(PredictionStream, attr, classmethod(
                self.wrap(raw, "predictions.stream")))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_factory(self, factory):
        """A policy factory recording ``algorithms.policy_build`` spans."""
        return self.wrap(factory, "algorithms.policy_build")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@dataclass
class LayerTotals:
    """Per-op counts, busy and self time summed over many batches."""

    calls: np.ndarray
    busy: np.ndarray
    self_s: np.ndarray
    units: np.ndarray
    work: np.ndarray

    @classmethod
    def zeros(cls) -> "LayerTotals":
        return cls(*(np.zeros(len(OPS)) for _ in range(5)))

    def add(self, other: "LayerTotals") -> None:
        for f in ("calls", "busy", "self_s", "units", "work"):
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def op(self, name: str, field: str) -> float:
        return float(getattr(self, field)[_OP_ID[name]])

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for i, op in enumerate(OPS):
            out[LAYER_OF_OP[op]] += float(self.self_s[i])
        return out


def analyse(batch: SpanBatch) -> tuple[LayerTotals, float, float]:
    """One process's spans -> (per-op totals, root wall, sum of self).

    A span's busy time and call count are taken only where no ancestor
    has the same op, so an entry point that calls itself is not counted
    twice; self times always add up to the root spans' total.
    """
    n = len(batch.sid)
    totals = LayerTotals.zeros()
    if n == 0:
        return totals, 0.0, 0.0
    sid = np.frombuffer(batch.sid, dtype=np.int64)
    parent = np.frombuffer(batch.parent, dtype=np.int64)
    op = np.frombuffer(batch.op, dtype=np.int8).astype(np.int64)
    dur = np.frombuffer(batch.end, dtype=np.float64) - np.frombuffer(
        batch.start, dtype=np.float64)
    order = np.argsort(sid)
    pos = np.searchsorted(sid, parent, sorter=order)
    pos = np.where(parent >= 0, order[np.minimum(pos, n - 1)], -1)
    if np.any((parent >= 0) & (sid[np.maximum(pos, 0)] != parent)):
        raise RuntimeError("span batch references a parent it does not hold")
    child = np.zeros(n)
    has_parent = pos >= 0
    np.add.at(child, pos[has_parent], dur[has_parent])
    self_s = dur - child
    outermost = np.ones(n, dtype=bool)
    anc = pos.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        same = live.copy()
        same[live] = op[anc[live]] == op[live]
        outermost &= ~same
        anc = np.where(live, pos[np.maximum(anc, 0)], -1)
    np.add.at(totals.calls, op[outermost], 1)
    np.add.at(totals.busy, op[outermost], dur[outermost])
    np.add.at(totals.self_s, op, self_s)
    np.add.at(totals.units, op, np.frombuffer(batch.units, dtype=np.int64))
    np.add.at(totals.work, op, np.frombuffer(batch.work, dtype=np.float64))
    return totals, float(dur[~has_parent].sum()), float(self_s.sum())
