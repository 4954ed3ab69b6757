"""Engine tier benchmark: reference event loop vs fast cost-only replay.

Runs the *engines smoke grid* — Algorithm 1 with noisy-oracle
predictions over ``lambda x alpha x accuracy`` = {100, 1000} x
{0.2, 1.0} x {0, 1} on a 2000-request IBM-like trace — once per engine,
asserts the two cost ledgers are identical, and records wall-clock and
speedup.  The same grid then runs the adapted algorithm (Section 8) at
``beta`` in {0.1, 1}, recorded as ``adaptive_speedup``; only
``speedup`` is gated.  A 2000-request trace keeps the grid seconds-scale for CI while
being long enough that per-request overheads (not fixed setup) dominate,
which is what the engine tiers differ in.

Standalone use (the CI smoke step)::

    python benchmarks/bench_engines.py [--out benchmarks/BENCH_engines.json]

writes ``BENCH_engines.json`` seeding the perf trajectory:
``{"speedup": ..., "reference_s": ..., "fast_s": ..., "cells": [...],
"adaptive_speedup": ..., "adaptive_cells": [...]}``.
Cost equality between the engines is always asserted; the wall-clock
speedup gate only fails the process under ``--strict`` (CI smoke runs
non-strict so a contended shared runner cannot flake unrelated PRs —
the pytest entry point keeps the gate for dedicated perf runs).
"""

from __future__ import annotations

import os
import sys
import time

SMOKE_LAMBDAS = (100.0, 1000.0)
SMOKE_ALPHAS = (0.2, 1.0)
SMOKE_ACCURACIES = (0.0, 1.0)
SMOKE_M = 2000
SMOKE_N = 10
SMOKE_SEED = 0
#: robustness slacks of the adapted-algorithm rows (Figures 29/31's betas)
SMOKE_BETAS = (0.1, 1.0)

#: CI gate; locally measured speedups are ~13x (see BENCH_engines.json),
#: the gate leaves headroom for noisy shared runners
MIN_SPEEDUP = 8.0

#: report key diffed against the committed BENCH_*.json history
#: by the persistent regression gate (`repro bench --regress`)
GATE_METRIC = "speedup"


def _smoke_trace():
    from repro.workloads import ibm_like_trace

    return ibm_like_trace(n=SMOKE_N, m=SMOKE_M, seed=SMOKE_SEED)


def _time_cells(trace, cells, repeats: int):
    """Time both engines on each ``(row, lam, make_policy)`` cell; best
    of ``repeats``.  Policies are constructed outside the timers
    (predictor setup is identical for both engines); each timed unit is
    one ``engine.run``.  Every cost field is asserted bit-identical."""
    from repro.core.costs import CostModel
    from repro.core.engine import FastCostEngine, ReferenceEngine

    fast = FastCostEngine()
    ref = ReferenceEngine()
    rows = []
    total_ref = 0.0
    total_fast = 0.0
    for row, lam, make_policy in cells:
        model = CostModel(lam=lam, n=trace.n)
        best_ref = best_fast = float("inf")
        for _ in range(repeats):
            policy = make_policy()
            t0 = time.perf_counter()
            r = ref.run(trace, model, policy)
            best_ref = min(best_ref, time.perf_counter() - t0)

            policy = make_policy()
            t0 = time.perf_counter()
            f = fast.run(trace, model, policy)
            best_fast = min(best_fast, time.perf_counter() - t0)

            assert f.storage_cost == r.storage_cost, row
            assert f.transfer_cost == r.transfer_cost, row
            assert f.n_transfers == r.ledger.n_transfers, row
        total_ref += best_ref
        total_fast += best_fast
        rows.append(
            {
                **row,
                "total_cost": f.total_cost,
                "reference_s": best_ref,
                "fast_s": best_fast,
                "speedup": best_ref / best_fast,
            }
        )
    return rows, total_ref, total_fast


def run_engine_grid(trace=None, repeats: int = 3) -> dict:
    """Time both engines over every smoke-grid cell, for Algorithm 1
    and for the adapted algorithm (Section 8) at each of
    :data:`SMOKE_BETAS`."""
    from repro.algorithms import AdaptiveReplication
    from repro.analysis.sweep import algorithm1_factory
    from repro.predictions import NoisyOraclePredictor, OraclePredictor

    if trace is None:
        trace = _smoke_trace()

    def adaptive(lam, alpha, acc, beta):
        pred = (
            OraclePredictor(trace)
            if acc >= 1.0
            else NoisyOraclePredictor(trace, acc, seed=SMOKE_SEED)
        )
        return AdaptiveReplication(pred, alpha, beta=beta)

    axes = [
        (lam, alpha, acc)
        for lam in SMOKE_LAMBDAS
        for alpha in SMOKE_ALPHAS
        for acc in SMOKE_ACCURACIES
    ]
    cells, total_ref, total_fast = _time_cells(
        trace,
        [
            (
                {"lam": lam, "alpha": alpha, "accuracy": acc},
                lam,
                lambda lam=lam, alpha=alpha, acc=acc: algorithm1_factory(
                    trace, lam, alpha, acc, SMOKE_SEED
                ),
            )
            for lam, alpha, acc in axes
        ],
        repeats,
    )
    adaptive_cells, adaptive_ref, adaptive_fast = _time_cells(
        trace,
        [
            (
                {"beta": beta, "lam": lam, "alpha": alpha, "accuracy": acc},
                lam,
                lambda lam=lam, alpha=alpha, acc=acc, beta=beta: adaptive(
                    lam, alpha, acc, beta
                ),
            )
            for beta in SMOKE_BETAS
            for lam, alpha, acc in axes
        ],
        repeats,
    )
    return {
        "grid": "engines-smoke",
        "trace": {"workload": "ibm_like", "n": SMOKE_N, "m": SMOKE_M,
                  "seed": SMOKE_SEED},
        "reference_s": total_ref,
        "fast_s": total_fast,
        "speedup": total_ref / total_fast,
        "cells": cells,
        "adaptive_reference_s": adaptive_ref,
        "adaptive_fast_s": adaptive_fast,
        "adaptive_speedup": adaptive_ref / adaptive_fast,
        "adaptive_cells": adaptive_cells,
    }


def test_engine_speedup(benchmark, paper_trace):
    """Fast engine: identical costs, >= MIN_SPEEDUP x on the smoke grid."""
    from conftest import emit
    from repro.core.costs import CostModel
    from repro.core.engine import FastCostEngine
    from repro.analysis.sweep import algorithm1_factory

    report = run_engine_grid()
    lines = [
        f"{c['lam']:>8g} {c['alpha']:>5g} {c['accuracy']:>4g} "
        f"{c['reference_s'] * 1e3:>9.2f}ms {c['fast_s'] * 1e3:>8.2f}ms "
        f"{c['speedup']:>6.1f}x"
        for c in report["cells"]
    ]
    emit(
        "Engine tiers (reference vs fast, smoke grid)",
        "  lambda alpha  acc  reference     fast  speedup\n"
        + "\n".join(lines)
        + f"\nTOTAL reference {report['reference_s']:.3f}s  fast "
        f"{report['fast_s']:.3f}s  speedup {report['speedup']:.1f}x",
    )
    assert report["speedup"] >= MIN_SPEEDUP

    # timed unit: one fast-engine run on the full-length paper trace
    model = CostModel(lam=1000.0, n=paper_trace.n)
    fast = FastCostEngine()
    policy = algorithm1_factory(paper_trace, 1000.0, 0.2, 1.0, 0)
    benchmark(lambda: fast.run(paper_trace, model, policy).total_cost)


def main(argv=None) -> int:
    from benchcli import gate_exit, parse_flags, write_report

    args = list(sys.argv[1:] if argv is None else argv)
    out, gate, strict = parse_flags(
        args,
        os.path.join(os.path.dirname(__file__), "BENCH_engines.json"),
        MIN_SPEEDUP,
    )
    report = run_engine_grid()
    write_report(report, out)
    print(
        f"engines smoke grid ({len(report['cells'])} cells, "
        f"m={SMOKE_M}): reference {report['reference_s']:.3f}s, "
        f"fast {report['fast_s']:.3f}s, speedup {report['speedup']:.1f}x; "
        f"adaptive ({len(report['adaptive_cells'])} cells) speedup "
        f"{report['adaptive_speedup']:.1f}x -> {out}"
    )
    return gate_exit(report["speedup"], gate, strict, label="speedup")


if __name__ == "__main__":
    sys.exit(main())
