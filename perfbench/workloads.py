"""The benchmark's workloads: input generation, one pass, correctness data.

A workload is a sequence of parts; each part is a grid or a fleet with
its own inputs, pass and correctness data.  Every workload is a
closed-loop batch job: the caller starts a pass only when the previous
one has ended, and a pass runs each part once.  Inputs are made from the
seed alone; the program only ever receives them.  A part's pass
returns, for every cell or object in a fixed order, the online cost and
the offline optimum; the inputs carry the Algorithm 1 ``alpha`` whose
proven ``1 + 1/alpha`` bound applies to each (NaN where none does), so
the caller can check them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.sweep import PAPER_ACCURACIES, PAPER_ALPHAS, algorithm1_factory
from repro.core.costs import CostModel
from repro.core.engine import get_engine
from repro.experiments import ExperimentRunner, ResultCache
from repro.experiments.registry import Scenario, get_scenario
from repro.system import multi_object as mo
from repro.workloads import ibm_like_trace, uniform_random_trace


@dataclass
class PassResult:
    """What one pass produced, in item order."""

    wall_s: float
    cpu_s: float
    rerun_s: float | None
    online: np.ndarray
    optimal: np.ndarray
    state: Any = None   # what rerun_sample needs to rebuild an item

    @property
    def digest(self) -> str:
        return online_digest(self.online)


def online_digest(online: np.ndarray) -> str:
    """SHA-256 of every online cost's IEEE bytes, in item order."""
    return hashlib.sha256(
        np.ascontiguousarray(online, dtype="<f8").tobytes()
    ).hexdigest()


def cpu_seconds() -> float:
    """User + system CPU time of this process and of its reaped children:
    the runner joins its workers before it returns, so a pass's workers
    are counted when the pass ends.  Time the host takes the CPU away
    (steal) is not counted."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


@dataclass
class PassContext:
    workers: int
    workdir: Path


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
@dataclass
class GridInputs:
    traces: dict[int, Any]      # by the job seed that selects them
    scenarios: list[Scenario]
    bound_alpha: np.ndarray


class Grid:
    """Scenario grids run through ``ExperimentRunner`` into a fresh
    ``ResultCache``, then re-run warm against the cache they filled.

    ``tier`` is the engine tier the grid is chosen to run on; the share
    of its cells there is the input property the workload stands for.
    """

    unit = "cells"

    def __init__(self, name, why, build, *, scalar_engine, samples, tier,
                 stresses, bypasses):
        self.name, self.why = name, why
        self._build = build
        self.scalar_engine = scalar_engine
        self.samples = samples
        self.tier = tier
        self.stresses, self.bypasses = stresses, bypasses

    def input_property(self, described: dict, tier_shares: dict):
        return (f"share of cells on the {self.tier} tier",
                tier_shares.get(self.tier))

    @staticmethod
    def slab_shape(inputs: GridInputs) -> tuple[int, int]:
        sc = inputs.scenarios[0]
        m = max(len(tr) for tr in inputs.traces.values())
        return len(sc.alphas) * len(sc.accuracies), m

    def generate(self, seed: int, tiny: bool) -> GridInputs:
        traces, scenarios, alg1 = self._build(seed, tiny)
        # the runner's job order: seed, lambda, alpha, accuracy
        alphas = [
            (alpha if alg1 and alpha > 0 else np.nan)
            for sc in scenarios
            for _seed in sc.seeds
            for _lam in sc.lambdas
            for alpha in sc.alphas
            for _acc in sc.accuracies
        ]
        return GridInputs(traces, scenarios, np.array(alphas, dtype=float))

    @staticmethod
    def input_digest(inputs: GridInputs) -> str:
        h = hashlib.sha256()
        for tr in inputs.traces.values():
            h.update(tr.times.tobytes() + tr.servers.tobytes())
        return h.hexdigest()

    @staticmethod
    def describe(inputs: GridInputs) -> dict:
        first = next(iter(inputs.traces.values()))
        return {
            "traces": len(inputs.traces),
            "requests": len(first),
            "servers": first.n,
            "cells": int(sum(sc.n_jobs for sc in inputs.scenarios)),
            "scenarios": [sc.name for sc in inputs.scenarios],
        }

    @staticmethod
    def with_factories(inputs: GridInputs, wrap: Callable) -> GridInputs:
        """The same inputs with every policy factory passed through ``wrap``."""
        return dataclasses.replace(inputs, scenarios=[
            dataclasses.replace(sc, policy_factory=wrap(sc.policy_factory))
            for sc in inputs.scenarios
        ])

    def run_pass(self, inputs: GridInputs, ctx: PassContext) -> PassResult:
        scenarios = inputs.scenarios
        runner = ExperimentRunner(
            workers=ctx.workers, cache=ResultCache(ctx.workdir / "cache")
        )
        c0, t0 = cpu_seconds(), time.perf_counter()
        cold = [runner.run(sc) for sc in scenarios]
        c1, t1 = cpu_seconds(), time.perf_counter()
        warm = [runner.run(sc) for sc in scenarios]
        t2 = time.perf_counter()
        online = np.array([r.online_cost for res in cold for r in res.results])
        optimal = np.array([r.optimal_cost for res in cold for r in res.results])
        rerun = [
            (r.online_cost, r.optimal_cost, r.cached)
            for res in warm
            for r in res.results
        ]
        # a warm re-run that recomputed or changed any cell is a miss
        if rerun != [(a, b, True) for a, b in zip(online, optimal)]:
            online = np.full_like(online, np.nan)
        jobs = [(sc, r.job) for sc, res in zip(scenarios, cold) for r in res.results]
        return PassResult(t1 - t0, c1 - c0, t2 - t1, online, optimal, jobs)

    def rerun_sample(self, inputs: GridInputs, result: PassResult, index: int) -> float:
        scenario, job = result.state[index]
        trace = inputs.traces[job.seed]
        policy = scenario.policy_factory(
            trace, job.lam, job.alpha, job.accuracy, job.seed
        )
        model = CostModel(lam=job.lam, n=trace.n)
        return get_engine(self.scalar_engine).run(trace, model, policy).total_cost


def _grid_long(seed: int, tiny: bool):
    traces = {seed: ibm_like_trace(n=10, m=2_000 if tiny else 200_000, seed=seed)}
    scenario = Scenario(
        name="perfbench-grid-long",
        description="fig25 alpha x accuracy axes at lambda 10 and 1000",
        trace_factory=lambda seed: traces[seed],
        policy_factory=algorithm1_factory,
        lambdas=(10.0, 1000.0),
        alphas=(0.0, 0.5, 1.0) if tiny else PAPER_ALPHAS,
        accuracies=(0.0, 0.5, 1.0) if tiny else PAPER_ACCURACIES,
        seeds=tuple(traces),
    )
    return traces, [scenario], True


def _grid_adaptive(seed: int, tiny: bool):
    # two traces per seed: the adapted algorithm's work varies from trace
    # to trace, and a pass over two keeps that out of run-to-run spread
    traces = {
        s: ibm_like_trace(n=10, m=1_500, seed=s) if tiny
        else ibm_like_trace(n=10, seed=s)
        for s in (2 * seed, 2 * seed + 1)
    }
    scenarios = [
        dataclasses.replace(
            get_scenario(name).with_grid(
                alphas=(0.2, 0.6), accuracies=(0.0, 0.8), seeds=tuple(traces)
            ),
            trace_factory=lambda seed: traces[seed],
        )
        for name in ("fig29", "fig31")
    ]
    return traces, scenarios, False


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
def _alg1_policy(trace, model, alpha, accuracy, seed):
    return algorithm1_factory(trace, model.lam, alpha, accuracy, seed)


def _conventional_policy(trace, model):
    from repro.algorithms.conventional import ConventionalReplication

    return ConventionalReplication()


def _wang_policy(trace, model):
    from repro.algorithms.wang import WangReplication

    return WangReplication()


@contextmanager
def _observed(costs: list):
    """Collect every ``(online, optimal)`` pair a streaming fleet report
    folds in, in spec order."""
    stats = mo.FleetStats
    original = stats.__dict__["observe"]

    def observe(self, object_id, online, optimal, n_requests):
        costs.append((online, optimal))
        return original(self, object_id, online, optimal, n_requests)

    stats.observe = observe
    try:
        yield
    finally:
        stats.observe = original


def _run_fleet(ctx: PassContext, system) -> tuple[np.ndarray, np.ndarray]:
    costs: list = []
    runner = ExperimentRunner(workers=ctx.workers)
    with _observed(costs):
        runner.run_fleet(
            system, compute_optimal=True, engine="auto", materialize=False
        )
    arr = np.array(costs, dtype=float).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


@dataclass
class FleetLogInputs:
    rows: list
    counts: np.ndarray       # requests per object, in object-id order
    factory: Callable
    bound_alpha: np.ndarray


class FleetLog:
    """A Zipf-popularity ``(time, server, object)`` access log, timed from
    the in-memory rows through the split and a streaming fleet run."""

    name = "fleet-log"
    why = ("access-log fleet: per-object offline.dp, trace_digest and "
           "one-cell fast-tier slabs dominate")
    unit = "objects"
    scalar_engine = "fast"
    samples = 32
    stresses = "offline.dp, with core.engine.fast and per-object runner dispatch"
    bypasses = "experiments.cache and core.engine.batch"
    N_SERVERS = 10
    LAM = 100.0
    ALPHA = 0.5
    ACCURACY = 0.8
    HORIZON = 1e4

    @staticmethod
    def input_property(described: dict, tier_shares: dict):
        return ("share of objects with fewer than 64 requests",
                described["share_objects_under_64_requests"])

    @staticmethod
    def slab_shape(inputs: FleetLogInputs) -> tuple[int, int]:
        return 1, int(inputs.counts.max())

    def generate(self, seed: int, tiny: bool) -> FleetLogInputs:
        n_objects, top = (300, 2_000) if tiny else (10_000, 50_000)
        rng = np.random.default_rng(seed)
        # Zipf popularity: the object of rank k gets top / k requests
        counts = np.maximum(1, np.rint(top / np.arange(1, n_objects + 1)))
        counts = counts.astype(np.int64)
        total = int(counts.sum())
        times = rng.uniform(0.0, self.HORIZON, total)
        servers = rng.integers(0, self.N_SERVERS, total)
        owner = np.repeat(np.arange(n_objects), counts)
        # distinct, positive times within each object
        order = np.lexsort((times, owner))
        times, owner = times[order], owner[order]
        keep = np.ones(total, dtype=bool)
        keep[1:] = (owner[1:] != owner[:-1]) | (times[1:] > times[:-1])
        keep &= times > 0
        times, servers, owner = times[keep], servers[keep], owner[keep]
        counts = np.bincount(owner, minlength=n_objects)
        ids = np.array([f"obj{k:05d}" for k in range(n_objects)])
        perm = rng.permutation(len(times))
        rows = list(zip(times[perm].tolist(), servers[perm].tolist(),
                        ids[owner[perm]].tolist()))
        factory = functools.partial(
            _alg1_policy, alpha=self.ALPHA, accuracy=self.ACCURACY, seed=seed
        )
        return FleetLogInputs(rows, counts, factory,
                              np.full(n_objects, self.ALPHA))

    @staticmethod
    def input_digest(inputs: FleetLogInputs) -> str:
        return hashlib.sha256(repr(inputs.rows).encode()).hexdigest()

    @staticmethod
    def describe(inputs: FleetLogInputs) -> dict:
        return {
            "rows": len(inputs.rows),
            "objects": len(inputs.counts),
            "largest_object_requests": int(inputs.counts.max()),
            "median_object_requests": float(np.median(inputs.counts)),
            "share_objects_under_64_requests": float(np.mean(inputs.counts < 64)),
        }

    @staticmethod
    def with_factories(inputs: FleetLogInputs, wrap: Callable) -> FleetLogInputs:
        return dataclasses.replace(inputs, factory=wrap(inputs.factory))

    def run_pass(self, inputs: FleetLogInputs, ctx: PassContext) -> PassResult:
        factory = inputs.factory
        c0, t0 = cpu_seconds(), time.perf_counter()
        traces = mo.split_trace_by_object(inputs.rows, self.N_SERVERS)
        specs = [mo.ObjectSpec(oid, tr, self.LAM, factory)
                 for oid, tr in traces.items()]
        online, optimal = _run_fleet(ctx, mo.MultiObjectSystem(self.N_SERVERS, specs))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if [len(tr) for tr in traces.values()] != inputs.counts.tolist():
            online = np.full_like(online, np.nan)
        return PassResult(wall, cpu, None, online, optimal, list(traces.values()))

    def rerun_sample(self, inputs: FleetLogInputs, result: PassResult, index: int) -> float:
        trace = result.state[index]
        model = CostModel(lam=self.LAM, n=self.N_SERVERS)
        policy = inputs.factory(trace, model)
        return get_engine(self.scalar_engine).run(trace, model, policy).total_cost


@dataclass
class FleetTemplatedInputs:
    templates: list
    system: Any
    bound_alpha: np.ndarray


class FleetTemplated:
    """``bench_fleet.py``'s shape: many 64-request objects cycling over
    8 templates x 3 lambdas under mixed policies, streamed."""

    name = "fleet-templated"
    why = ("templated fleet: per-object policy build, eligibility and "
           "FleetStats dominate, every cell on the batch tier")
    unit = "objects"
    scalar_engine = "fast"
    samples = 64
    stresses = ("core.engine.batch, algorithms.policy_build, "
                "core.engine.select and FleetStats.observe")
    bypasses = "offline.dp (24 optima) and core.engine.kernel"
    N_SERVERS = 8
    TEMPLATE_M = 64
    N_TEMPLATES = 8
    LAMBDAS = (25.0, 50.0, 100.0)

    @staticmethod
    def input_property(described: dict, tier_shares: dict):
        return "share of cells on the batch tier", tier_shares.get("batch")

    def slab_shape(self, inputs: FleetTemplatedInputs) -> tuple[int, int]:
        groups = self.N_TEMPLATES * len(self.LAMBDAS)
        return len(inputs.system.specs) // groups, self.TEMPLATE_M

    def _factories(self, seed: int):
        # (factory, alpha of the proven bound or NaN)
        return [
            (functools.partial(_alg1_policy, alpha=0.5, accuracy=1.0, seed=seed), 0.5),
            (functools.partial(_alg1_policy, alpha=0.25, accuracy=0.8, seed=seed), 0.25),
            (_conventional_policy, np.nan),
            (_wang_policy, np.nan),
        ]

    def generate(self, seed: int, tiny: bool) -> FleetTemplatedInputs:
        n_objects = 2_000 if tiny else 200_000
        templates = [
            uniform_random_trace(self.N_SERVERS, self.TEMPLATE_M,
                                 horizon=float(self.TEMPLATE_M),
                                 seed=seed * self.N_TEMPLATES + k)
            for k in range(self.N_TEMPLATES)
        ]
        factories = self._factories(seed)
        specs = [
            mo.ObjectSpec(
                f"obj-{i:07d}",
                templates[i % len(templates)],
                self.LAMBDAS[i % len(self.LAMBDAS)],
                factories[i % len(factories)][0],
            )
            for i in range(n_objects)
        ]
        alphas = np.array([factories[i % len(factories)][1] for i in range(n_objects)])
        return FleetTemplatedInputs(
            templates, mo.MultiObjectSystem(self.N_SERVERS, specs), alphas
        )

    @staticmethod
    def input_digest(inputs: FleetTemplatedInputs) -> str:
        h = hashlib.sha256()
        for tr in inputs.templates:
            h.update(tr.times.tobytes() + tr.servers.tobytes())
        h.update(str(len(inputs.system.specs)).encode())
        return h.hexdigest()

    def describe(self, inputs: FleetTemplatedInputs) -> dict:
        return {
            "objects": len(inputs.system.specs),
            "requests_per_object": self.TEMPLATE_M,
            "templates": len(inputs.templates),
            "lambdas": list(self.LAMBDAS),
            "policies": ["alg1-oracle", "alg1-noisy", "conventional", "wang"],
        }

    def with_factories(
        self, inputs: FleetTemplatedInputs, wrap: Callable
    ) -> FleetTemplatedInputs:
        table: dict[int, Callable] = {}
        specs = [
            dataclasses.replace(s, policy_factory=table.setdefault(
                id(s.policy_factory), wrap(s.policy_factory)))
            for s in inputs.system.specs
        ]
        return dataclasses.replace(
            inputs, system=mo.MultiObjectSystem(self.N_SERVERS, specs)
        )

    def run_pass(self, inputs: FleetTemplatedInputs, ctx: PassContext) -> PassResult:
        c0, t0 = cpu_seconds(), time.perf_counter()
        online, optimal = _run_fleet(ctx, inputs.system)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        return PassResult(wall, cpu, None, online, optimal)

    def rerun_sample(self, inputs: FleetTemplatedInputs, result: PassResult, index: int) -> float:
        spec = inputs.system.specs[index]
        model = CostModel(lam=spec.lam, n=self.N_SERVERS)
        policy = spec.policy_factory(spec.trace, model)
        return get_engine(self.scalar_engine).run(spec.trace, model, policy).total_cost


PARTS = {
    w.name: w
    for w in (
        Grid(
            "grid-long",
            "fig25 axes at two lambdas on a long trace: the kernel tier and "
            "offline.dp do the work, the reference simulator none",
            _grid_long,
            scalar_engine="fast",
            samples=3,
            tier="kernel",
            stresses="core.engine.kernel, then offline.dp",
            bypasses="core.engine.reference (core.simulator)",
        ),
        Grid(
            "grid-adaptive",
            "fig29/fig31 adapted algorithm on the paper trace: the reference "
            "simulator does the work, the kernel none",
            _grid_adaptive,
            scalar_engine="reference",
            samples=2,
            tier="reference",
            stresses="core.engine.reference (core.simulator, algorithms.adaptive)",
            bypasses="core.engine.kernel",
        ),
        FleetLog(),
        FleetTemplated(),
    )
}


@dataclass(frozen=True)
class Workload:
    """What one benchmark run measures: its parts, run one after the
    other in every pass."""

    name: str
    why: str
    parts: tuple


#: the benchmark's workloads: each pairs a grid with a fleet, and the two
#: split the engine tiers between them, so a change to one tier moves one
#: workload and leaves the other as it was
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vector-tiers",
            "fig25 grid on a long trace, then a templated mixed-policy "
            "fleet: the kernel and batch tiers do the work, the scalar "
            "tiers none",
            (PARTS["grid-long"], PARTS["fleet-templated"]),
        ),
        Workload(
            "scalar-tiers",
            "fig29/fig31 adapted algorithm, then a Zipf access-log fleet: "
            "the reference simulator, offline.dp and the fast tier do the "
            "work",
            (PARTS["grid-adaptive"], PARTS["fleet-log"]),
        ),
    )
}
