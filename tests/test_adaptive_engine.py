"""Fast-tier replay of the adapted algorithm (Section 8).

The contract under test (core/engine.py DESIGN): ``FastCostEngine``
replays :class:`AdaptiveReplication` — Algorithm 1 plus the running
``OPT_L`` / ``Online_U`` monitors — bit for bit like the reference
simulator, on every field of the cost result.  ``auto`` selection sends
it to the fast tier, and neither slab tier (batch, kernel) claims it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveReplication,
    CostModel,
    CostResult,
    EngineError,
    ExperimentRunner,
    LearningAugmentedReplication,
    PolicyError,
    Trace,
    TraceError,
    get_engine,
    select_engine,
)
from repro.core.engine import run_policy_slab, run_slab
from repro.experiments import get_scenario, list_scenarios
from repro.obs import metrics
from repro.predictions import (
    AdversarialPredictor,
    FixedPredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    SlidingWindowPredictor,
)
from repro.system.multi_object import split_trace_by_object
from repro.workloads import uniform_random_trace

FAST = get_engine("fast")
REF = get_engine("reference")


def assert_bit_identical(fast, ref):
    """Every field of the cost result, bit for bit."""
    assert isinstance(fast, CostResult)
    assert fast.engine == "fast"
    assert fast.policy_name == ref.policy_name
    assert fast.storage_cost == ref.storage_cost
    assert fast.transfer_cost == ref.transfer_cost
    assert fast.n_transfers == ref.ledger.n_transfers
    assert fast.total_cost == ref.total_cost


def assert_fast_matches_reference(trace, model, make_policy, **run_kw):
    """Both engines on fresh policies; returns the fast result and the
    reference-run policy (only the reference populates its monitors)."""
    policy = make_policy()
    assert FAST.supports(trace, model, policy)
    fast = FAST.run(trace, model, policy, **run_kw)
    ref_policy = make_policy()
    assert_bit_identical(fast, REF.run(trace, model, ref_policy, **run_kw))
    return fast, ref_policy


def tripped(policy) -> bool:
    return any(forced for _, _, forced in policy.monitor_history)


# ----------------------------------------------------------------------
# every registered adaptive scenario (coarse grids, two seeds)
# ----------------------------------------------------------------------

ADAPTIVE_SCENARIOS = [s.name for s in list_scenarios(tag="adaptive")]


def test_adaptive_scenarios_registered():
    assert set(ADAPTIVE_SCENARIOS) >= {"fig29", "fig30", "fig31", "fig32"}


@pytest.mark.parametrize("name", ADAPTIVE_SCENARIOS)
def test_registered_adaptive_scenario_bit_identity(name):
    scenario = get_scenario(name).with_grid(
        alphas=(0.2,), accuracies=(0.0, 0.8), seeds=(0, 1)
    )
    n_tripped = 0
    for seed in scenario.seeds:
        trace = scenario.trace_factory(seed)
        for lam in scenario.lambdas:
            model = CostModel(lam=lam, n=trace.n)
            for alpha in scenario.alphas:
                for acc in scenario.accuracies:
                    _, ref_policy = assert_fast_matches_reference(
                        trace,
                        model,
                        lambda: scenario.policy_factory(
                            trace, lam, alpha, acc, seed
                        ),
                    )
                    n_tripped += tripped(ref_policy)
    # at beta = 0.1 the grid exercises the forced-lambda branch too
    assert n_tripped > 0 or ref_policy.beta >= 1.0


# ----------------------------------------------------------------------
# hypothesis: tie-prone instances x warmup x beta x predictor family
# ----------------------------------------------------------------------


@st.composite
def tie_prone_instances(draw, max_n=4, max_m=40):
    """Integer gaps and lambdas with alpha * lambda on the same grid:
    expiries coincide with request times and with each other."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    gaps = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    servers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    times = np.cumsum(np.asarray(gaps, dtype=float))
    trace = Trace(n, list(zip(times.tolist(), servers)))
    lam = float(draw(st.integers(1, 6)))
    return trace, CostModel(lam=lam, n=n)


PREDICTOR_FAMILIES = ("fixed-within", "fixed-beyond", "oracle", "noisy", "adversarial")


def _predictor(family, trace, seed):
    if family == "fixed-within":
        return FixedPredictor(True)
    if family == "fixed-beyond":
        return FixedPredictor(False)
    if family == "oracle":
        return OraclePredictor(trace)
    if family == "noisy":
        return NoisyOraclePredictor(trace, 0.5, seed=seed)
    return AdversarialPredictor(trace)


@settings(max_examples=120, deadline=None)
@given(
    tie_prone_instances(),
    st.sampled_from((0.25, 0.5, 1.0)),
    st.sampled_from((0, 1, 100)),
    st.sampled_from((0.0, 0.1, 1.0, 1e6)),
    st.sampled_from(PREDICTOR_FAMILIES),
    st.integers(0, 3),
)
def test_tie_prone_bit_identity(inst, alpha, warmup, beta, family, seed):
    trace, model = inst
    assert_fast_matches_reference(
        trace,
        model,
        lambda: AdaptiveReplication(
            _predictor(family, trace, seed), alpha, beta=beta, warmup=warmup
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 60),
    st.floats(0.05, 50.0),
    st.floats(0.05, 1.0),
    st.sampled_from((0, 1, 100)),
    st.sampled_from((0.0, 0.1, 1.0, 1e6)),
    st.sampled_from(PREDICTOR_FAMILIES),
    st.integers(0, 1000),
)
def test_random_instance_bit_identity(
    n, m, lam, alpha, warmup, beta, family, seed
):
    trace = uniform_random_trace(n=n, m=m, horizon=10.0 * (m + 1), seed=seed)
    model = CostModel(lam=lam, n=n)
    assert_fast_matches_reference(
        trace,
        model,
        lambda: AdaptiveReplication(
            _predictor(family, trace, seed), alpha, beta=beta, warmup=warmup
        ),
    )


@pytest.mark.parametrize("drain,cap", [(False, None), (True, 0), (True, 1), (True, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drain_modes_bit_identity(drain, cap, seed):
    trace = uniform_random_trace(n=4, m=120, horizon=600.0, seed=seed)
    model = CostModel(lam=25.0, n=4)
    for warmup in (0, 10):
        assert_fast_matches_reference(
            trace,
            model,
            lambda: AdaptiveReplication(
                NoisyOraclePredictor(trace, 0.3, seed=seed),
                0.2,
                beta=0.1,
                warmup=warmup,
            ),
            drain=drain,
            drain_event_cap=cap,
        )


def test_monitor_trips_on_bad_predictions():
    """A cell where the fallback trips must differ from plain Algorithm 1
    on the fast tier exactly as it does on the reference."""
    trace = uniform_random_trace(n=3, m=400, horizon=4000.0, seed=5)
    model = CostModel(lam=50.0, n=3)

    def make():
        return AdaptiveReplication(AdversarialPredictor(trace), 0.1, beta=0.1, warmup=0)

    fast, ref_policy = assert_fast_matches_reference(trace, model, make)
    assert tripped(ref_policy)
    plain = FAST.run(
        trace, model, LearningAugmentedReplication(AdversarialPredictor(trace), 0.1)
    )
    assert plain.total_cost != fast.total_cost


# ----------------------------------------------------------------------
# slab dispatch and the experiment runner
# ----------------------------------------------------------------------


def _adaptive_factory(trace, lam, alpha, accuracy, seed):
    return AdaptiveReplication(
        NoisyOraclePredictor(trace, accuracy, seed=seed), alpha, beta=0.5, warmup=5
    )


def test_run_slab_and_policy_slab_bit_identity():
    trace = uniform_random_trace(n=4, m=300, horizon=3000.0, seed=3)
    model = CostModel(lam=40.0, n=4)
    cells = [(a, acc, s) for a in (0.2, 1.0) for acc in (0.0, 0.7) for s in (0, 1)]
    refs = [
        REF.run(trace, model, _adaptive_factory(trace, model.lam, *c)) for c in cells
    ]
    for engine in ("auto", "fast"):
        got = run_slab(trace, model, cells, _adaptive_factory, engine=engine)
        for g, r in zip(got, refs):
            assert_bit_identical(g, r)
        got = run_policy_slab(
            trace,
            [(model, _adaptive_factory(trace, model.lam, *c)) for c in cells],
            engine=engine,
        )
        for g, r in zip(got, refs):
            assert_bit_identical(g, r)


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_runner_bit_identity(workers):
    traces = {s: uniform_random_trace(n=5, m=250, horizon=2500.0, seed=s) for s in (0, 1)}
    scenario = dataclasses.replace(
        get_scenario("fig29").with_grid(
            lambdas=(30.0,), alphas=(0.2, 0.6), accuracies=(0.0, 0.8), seeds=(0, 1)
        ),
        trace_factory=lambda seed: traces[seed],
    )
    ref = ExperimentRunner(workers=1, engine="reference").run(scenario)
    got = ExperimentRunner(workers=workers, engine="auto").run(scenario)
    assert [r.online_cost for r in got.results] == [
        r.online_cost for r in ref.results
    ]
    assert [r.optimal_cost for r in got.results] == [
        r.optimal_cost for r in ref.results
    ]


# ----------------------------------------------------------------------
# selection: only the fast tier claims the adapted algorithm
# ----------------------------------------------------------------------


class TestSelection:
    def setup_method(self):
        self.trace = uniform_random_trace(n=4, m=40, horizon=300.0, seed=0)
        self.model = CostModel(lam=20.0, n=4)
        self.policy = AdaptiveReplication(OraclePredictor(self.trace), 0.5, beta=0.1)

    def test_slab_tiers_do_not_claim_it(self):
        assert FAST.supports(self.trace, self.model, self.policy)
        for tier in ("batch", "kernel"):
            eng = get_engine(tier)
            assert not eng.supports(self.trace, self.model, self.policy)
            with pytest.raises(EngineError):
                eng.run(self.trace, self.model, self.policy)

    @pytest.mark.parametrize("slab_size", [1, 8])
    @pytest.mark.parametrize("m", [40, 3_000])
    def test_auto_picks_fast_at_every_size(self, slab_size, m):
        trace = uniform_random_trace(n=4, m=m, horizon=10.0 * m, seed=0)
        policy = AdaptiveReplication(OraclePredictor(trace), 0.5, beta=0.1)
        assert select_engine(
            trace, self.model, policy, "auto", slab_size=slab_size
        ) is FAST

    def test_select_reason_label(self):
        metrics.reset()
        with metrics.enabled_scope():
            select_engine(self.trace, self.model, self.policy, "auto", slab_size=8)
        counters = metrics.get_registry().snapshot()["counters"]
        metrics.reset()
        assert {
            "name": "repro_engine_select_total",
            "tags": {"engine": "fast", "reason": "fast_only"},
            "value": 1,
        } in counters

    def test_unstreamable_or_subclassed_falls_back(self):
        class Tweaked(AdaptiveReplication):
            pass

        for policy in (
            AdaptiveReplication(SlidingWindowPredictor(window=5), 0.5, beta=0.1),
            Tweaked(OraclePredictor(self.trace), 0.5, beta=0.1),
        ):
            assert not FAST.supports(self.trace, self.model, policy)
            assert select_engine(self.trace, self.model, policy, "auto") is REF
            with pytest.raises(EngineError):
                FAST.run(self.trace, self.model, policy)

    def test_non_uniform_storage(self):
        model = CostModel(lam=20.0, n=4, storage_rates=(1.0, 1.0, 2.0, 2.0))
        assert not FAST.supports(self.trace, model, self.policy)
        with pytest.raises(PolicyError):
            FAST.run(self.trace, model, self.policy)


# ----------------------------------------------------------------------
# input boundary: non-finite times and lambdas fail loudly on every tier
# ----------------------------------------------------------------------

BAD_TIMES = [
    [1.0, float("nan"), 3.0],
    [float("nan")],
    [1.0, 2.0, float("inf")],
    [float("-inf"), 1.0],
]


@pytest.mark.parametrize("times", BAD_TIMES)
@pytest.mark.parametrize("tier", ["reference", "fast", "batch", "kernel"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_non_finite_times_rejected_on_every_tier(times, tier, adaptive):
    servers = np.arange(len(times)) % 2
    with pytest.raises(TraceError, match="finite"):
        trace = Trace.from_arrays(np.asarray(times), servers, n=2)
        model = CostModel(lam=2.0, n=2)
        policy = (
            AdaptiveReplication(FixedPredictor(False), 0.5, beta=0.1)
            if adaptive
            else LearningAugmentedReplication(FixedPredictor(False), 0.5)
        )
        get_engine(tier).run(trace, model, policy)


@pytest.mark.parametrize("times", BAD_TIMES)
def test_non_finite_times_rejected_by_split(times):
    rows = [(t, i % 2, "obj") for i, t in enumerate(times)]
    with pytest.raises(TraceError, match="^object obj: request times must be finite"):
        split_trace_by_object(rows, 2)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_lambda_rejected(lam):
    with pytest.raises(ValueError, match="lambda"):
        CostModel(lam=lam, n=2)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0])
def test_non_finite_storage_rate_rejected(rate):
    with pytest.raises(ValueError, match="storage rates"):
        CostModel(lam=1.0, n=2, storage_rates=(1.0, rate))
