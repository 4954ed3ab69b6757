"""Tests for the incremental (adversary-facing) simulation API."""

from __future__ import annotations

import pytest

from repro import (
    CostModel,
    FixedPredictor,
    InteractiveSimulation,
    LearningAugmentedReplication,
    simulate,
)
from repro.workloads import uniform_random_trace


def make_sim(alpha=0.5, lam=10.0, n=2):
    model = CostModel(lam=lam, n=n)
    pol = LearningAugmentedReplication(FixedPredictor(False), alpha)
    return InteractiveSimulation(n, model, pol), pol


class TestSubmission:
    def test_requests_must_increase(self):
        sim, _ = make_sim()
        sim.submit(1.0, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.submit(1.0, 0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, t):
        sim, _ = make_sim()
        sim.submit(1.0, 1)
        with pytest.raises(ValueError, match="finite"):
            sim.submit(t, 0)

    def test_finish_builds_trace(self):
        sim, _ = make_sim()
        sim.submit(1.0, 1)
        sim.submit(2.0, 0)
        res = sim.finish()
        assert [r.time for r in res.trace] == [1.0, 2.0]
        assert [r.server for r in res.trace] == [1, 0]

    def test_model_mismatch(self):
        model = CostModel(lam=1.0, n=3)
        pol = LearningAugmentedReplication(FixedPredictor(False), 0.5)
        with pytest.raises(ValueError):
            InteractiveSimulation(2, model, pol)


class TestStateInspection:
    def test_holds_copy_before_expiry(self):
        sim, _ = make_sim(alpha=0.5, lam=10.0)  # initial copy lasts 5
        assert sim.holds_copy_at(0, 4.9)

    def test_special_copy_never_vanishes(self):
        # the initial copy expires at 5 but becomes special (only copy)
        sim, _ = make_sim(alpha=0.5, lam=10.0)
        assert sim.holds_copy_at(0, 100.0)

    def test_drop_observed(self):
        sim, _ = make_sim(alpha=0.5, lam=10.0)
        sim.submit(1.0, 1)  # server 1 copy until 6; server 0 copy until 5
        t = sim.watch_for_drop(0, t_limit=20.0)
        assert t == pytest.approx(5.0)

    def test_watch_returns_none_when_no_drop(self):
        sim, _ = make_sim()
        assert sim.watch_for_drop(0, t_limit=3.0) is None


class TestEquivalenceWithBatch:
    def test_same_costs_as_simulate(self):
        tr = uniform_random_trace(3, 30, horizon=60.0, seed=9)
        model = CostModel(lam=3.0, n=3)

        pol_batch = LearningAugmentedReplication(FixedPredictor(False), 0.4)
        batch = simulate(tr, model, pol_batch, drain=False)

        pol_inc = LearningAugmentedReplication(FixedPredictor(False), 0.4)
        sim = InteractiveSimulation(3, model, pol_inc)
        for r in tr:
            sim.submit(r.time, r.server)
        inc = sim.finish()

        assert inc.total_cost == pytest.approx(batch.total_cost)
        assert inc.ledger.n_transfers == batch.ledger.n_transfers

    def test_same_serve_decisions(self):
        tr = uniform_random_trace(2, 25, horizon=40.0, seed=10)
        model = CostModel(lam=2.0, n=2)
        pol_a = LearningAugmentedReplication(FixedPredictor(True), 0.7)
        batch = simulate(tr, model, pol_a, drain=False)
        pol_b = LearningAugmentedReplication(FixedPredictor(True), 0.7)
        sim = InteractiveSimulation(2, model, pol_b)
        for r in tr:
            sim.submit(r.time, r.server)
        inc = sim.finish()
        assert [s.local for s in batch.serves] == [s.local for s in inc.serves]
