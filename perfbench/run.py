"""The repository benchmark: user workloads timed end to end, and a traced
pass that splits their time by layer.

Run from the repository root::

    python3 perfbench/run.py --workload vector-tiers --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

A workload is a grid and a fleet (see ``workloads.py``); one pass runs
each of its parts once.  Each workload runs from this one process with
``workers = nproc``.  Set-up (a fresh interpreter importing the program,
then input generation) is done ``SETUPS`` times and ``setup_s`` is its
median.  Then passes run back to back until ``--seconds`` is used up,
and ``cpu_s`` is the median pass's CPU time, the parent's and its
workers'.  CPU time leaves out the time the host takes the CPUs away;
the host's speed, which changes by up to 2x over minutes, is taken out
by timing a fixed reference work before the first pass and after every
pass (``reference.py``): each time metric is reported scaled by
``REFERENCE_S`` over the run's median reference time, and as measured.
``wall_s`` and each part's items per second are printed too.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``spans.py``).  Every part of every pass is checked: the digest of
every online cost must repeat across passes and match ``recorded.json``
for the pinned seed on the platform it was pinned on, a sample of cells
or objects re-run on the scalar engine must match bit for bit,
online >= OPT everywhere, and Algorithm 1 cells with alpha > 0 must keep
ratio <= 1 + 1/alpha.  The last stdout line is one JSON object; the exit
code is 1 on any correctness miss and 2 when the program cannot be
imported.  ``--record`` stores each part's measured digest, input
property and layer shares in ``recorded.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from reference import REFERENCE_S, Reference
from spans import TIERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED = HERE / "recorded.json"
NAMES = ("vector-tiers", "scalar-tiers")

#: set-ups per run (a fresh interpreter importing the program, then one
#: input generation); setup_s reports their median
SETUPS = 5
#: fewest cold passes a run makes, whatever --seconds says: untraced
#: passes alone, or untraced and traced passes each under --trace 1
MIN_PASSES = {False: 3, True: 2}
#: what the benchmark imports before it can generate inputs
PROGRAM_MODULES = ("numpy", "repro.experiments", "repro.system.multi_object",
                   "repro.workloads", "repro.analysis.sweep")
#: online and OPT come from different summation orders, so where the
#: online schedule is itself optimal the two floats can differ in the
#: last bits either way; sums of up to ~1e6 float64 terms differ by at
#: most ~1e6 * 2**-53 ~ 1e-10 relative, far below any real bound miss
REL_TOL = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_peak_rss_mb", "MB"),
)

PER_LAYER = (
    *((f"core.engine.{t}.{f}", u) for t in TIERS
      for f, u in (("cells", "count"), ("busy_s", "s"), ("ns_per_req_cell", "ns"))),
    ("core.engine.select.calls", "count"),
    ("core.engine.select.busy_s", "s"),
    ("algorithms.policy_build.calls", "count"),
    ("algorithms.policy_build.busy_s", "s"),
    ("predictions.stream.busy_s", "s"),
    ("offline.dp.calls", "count"),
    ("offline.dp.busy_s", "s"),
    ("offline.dp.us_per_request", "us"),
    ("experiments.runner.tasks", "count"),
    ("experiments.runner.ipc_bytes", "bytes"),
    ("experiments.runner.wait_s", "s"),
    ("experiments.runner.utilization", "ratio"),
    ("experiments.cache.puts", "count"),
    ("experiments.cache.put_s", "s"),
    ("experiments.cache.gets", "count"),
    ("experiments.cache.hit_ratio", "ratio"),
    ("experiments.cache.get_s", "s"),
    ("experiments.cache.trace_digest_s", "s"),
    ("system.multi_object.split_s", "s"),
    ("system.multi_object.observe_calls", "count"),
    ("system.multi_object.observe_s", "s"),
    ("workloads.gen_s", "s"),
    ("other.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-scale inputs for the benchmark's tests")
    p.add_argument("--record", action="store_true",
                   help="store digest, input property and layer shares")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# statistics and printing
# ----------------------------------------------------------------------
def timing(values: list[float], higher_is_better: bool = False) -> dict:
    """Median, the most extreme percentile on the bad side with at least
    ten samples beyond it (None below eleven samples), the worst sample,
    and the sample count."""
    s = sorted(values, reverse=higher_is_better)
    n = len(s)
    tail = None
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        tail = {"pct": 100 - pct if higher_is_better else pct,
                "value": s[n - 11]}
    return {"median": statistics.median(s), "tail": tail, "n": n,
            "worst": s[-1]}


def _timing_note(t: dict, unit: str) -> str:
    if t["tail"] is not None:
        tail = f"p{t['tail']['pct']} {t['tail']['value']:.6g} {unit}"
    else:
        tail = (f"worst {t['worst']:.6g} {unit}; no percentile has 10 "
                "samples beyond it")
    return f"median of n={t['n']}; {tail}"


def _git_sha() -> str:
    """HEAD's commit from the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def platform_key() -> dict:
    """What the online costs' bits may depend on besides the code: float
    results can differ in the last bits across NumPy builds and the SIMD
    kernels they dispatch to."""
    import numpy

    from repro.core import backends

    try:
        from numpy._core._multiarray_umath import (
            __cpu_dispatch__,
            __cpu_features__,
        )

        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = ["unknown"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": backends.numba_available(), "simd": simd}


def fingerprint(workers: int, shapes: dict) -> dict:
    """``shapes`` maps each part to its slab's (cells, requests)."""
    from repro.core import backends

    # the kernel backend a worker resolves for each part's slab shape,
    # under the cores // workers thread budget the runner installs
    prev = backends.set_thread_budget(max(1, (os.cpu_count() or 1) // workers))
    try:
        backend = {name: backends.get_backend(None).resolve(cells, m).name
                   for name, (cells, m) in shapes.items()}
    finally:
        backends.set_thread_budget(prev)
    return {
        "cpu_count": os.cpu_count(),
        **platform_key(),
        "git_sha": _git_sha(),
        "workers": workers,
        "kernel_backend": backend,
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class _PartTally:
    """One part's correctness check and timings, pass by pass.  Only the
    first pass's outputs are kept, so memory does not grow with the
    number of passes a run makes."""

    def __init__(self, part, inputs, pinned: str | None):
        self.part, self.inputs, self.pinned = part, inputs, pinned
        self.first = None
        self.mismatched: list[int] = []
        self.attempted = self.failed = self.inversions = 0
        self.notes: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.reruns: list[float] = []

    def add(self, result, traced: bool) -> None:
        if not traced:
            self.walls.append(result.wall_s)
            self.cpus.append(result.cpu_s)
            if result.rerun_s is not None:
                self.reruns.append(result.rerun_s)
        n = len(result.online)
        self.attempted += n
        if self.first is None:
            self.first = result
            self._check_first()
        first = self.first
        if self.pinned is not None and first.digest != self.pinned:
            self.failed += n
            return
        if result.digest != first.digest:
            self.notes.append(f"pass {len(self.walls)}: online-cost digest "
                              "changed")
            self.failed += n
            return
        self.failed += self._check_bounds(result)

    def _check_first(self) -> None:
        """The pinned digest, and a sample re-run on the scalar engine."""
        import numpy as np

        first, part = self.first, self.part
        if self.pinned is not None and first.digest != self.pinned:
            self.notes.append(f"online-cost digest {first.digest} != pinned "
                              f"{self.pinned}")
            return
        n = len(first.online)
        sample = sorted(set(np.linspace(0, n - 1, min(n, part.samples))
                            .astype(int).tolist()))
        for i in sample:
            scalar = part.rerun_sample(self.inputs, first, i)
            if not scalar == first.online[i]:
                self.mismatched.append(i)
                self.notes.append(f"item {i}: {part.scalar_engine} engine "
                                  f"gives {scalar!r}, pass gave "
                                  f"{first.online[i]!r}")

    def _check_bounds(self, p) -> int:
        """Items of pass ``p`` with online < OPT or, for Algorithm 1 with
        alpha > 0, ratio > 1 + 1/alpha, beyond ``REL_TOL``; on the first
        pass, also counts rounding inversions (online below OPT by less
        than ``REL_TOL``) and notes the first misses."""
        import numpy as np

        alpha = self.inputs.bound_alpha
        bounded = ~np.isnan(alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = ~(p.online >= p.optimal * (1.0 - REL_TOL))
            ratio = p.online / p.optimal
            bad[bounded] |= ~(ratio[bounded]
                              <= (1.0 + 1.0 / alpha[bounded]) * (1.0 + REL_TOL))
        bad[self.mismatched] = True
        if p is self.first:
            self.inversions = int(np.sum((p.online < p.optimal) & ~bad))
            for i in np.flatnonzero(bad)[:5]:
                self.notes.append(f"item {i}: online {p.online[i]!r}, OPT "
                                  f"{p.optimal[i]!r}, alpha {alpha[i]}")
        return int(bad.sum())


class _LayerAccount:
    """Per-layer totals over the traced passes, and the per-process
    accounting check."""

    def __init__(self):
        self.totals = spans.LayerTotals.zeros()
        self.worker_busy = 0.0
        self.ipc_bytes = 0
        self.passes = 0
        self.worst_residual = 0.0
        #: "parent"/"workers" -> [wall, layers + other, process count]
        self.processes: dict[str, list] = {}

    def add_pass(self, tracer, stopwatch: float) -> None:
        self.passes += 1
        self.ipc_bytes += tracer.ipc_bytes
        tracer.ipc_bytes = 0
        per_pid: dict[int, list[float]] = {}
        for batch in tracer.drain():
            totals, root_s, self_s = spans.analyse(batch)
            self.totals.add(totals)
            acc = per_pid.setdefault(batch.pid, [0.0, 0.0])
            acc[0] += root_s
            acc[1] += self_s
            if batch.pid != os.getpid():
                self.worker_busy += root_s
        for pid, (root_s, self_s) in per_pid.items():
            parent = pid == os.getpid()
            wall = stopwatch if parent else root_s
            residual = abs(self_s - wall) / wall if wall else 0.0
            self.worst_residual = max(self.worst_residual, residual)
            slot = self.processes.setdefault(
                "parent" if parent else "workers", [0.0, 0.0, 0])
            slot[0] += wall
            slot[1] += self_s
            slot[2] += 1

    def metrics(self, workers: int, gen_s: float, overhead: float) -> dict:
        t, n = self.totals, max(1, self.passes)

        def per(op, field):
            return t.op(op, field) / n

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for tier in TIERS:
            op = f"core.engine.{tier}"
            out[f"{op}.cells"] = per(op, "units")
            out[f"{op}.busy_s"] = per(op, "busy")
            out[f"{op}.ns_per_req_cell"] = ratio(
                1e9 * t.op(op, "busy"), t.op(op, "work"))
        out.update({
            "core.engine.select.calls": per("core.engine.select", "calls"),
            "core.engine.select.busy_s": per("core.engine.select", "busy"),
            "algorithms.policy_build.calls": per("algorithms.policy_build", "calls"),
            "algorithms.policy_build.busy_s": per("algorithms.policy_build", "busy"),
            "predictions.stream.busy_s": per("predictions.stream", "busy"),
            "offline.dp.calls": per("offline.dp", "calls"),
            "offline.dp.busy_s": per("offline.dp", "busy"),
            "offline.dp.us_per_request": ratio(
                1e6 * t.op("offline.dp", "busy"), t.op("offline.dp", "work")),
            "experiments.runner.tasks": per("experiments.runner", "units"),
            "experiments.runner.ipc_bytes": self.ipc_bytes / n,
            "experiments.runner.wait_s": per("experiments.runner.wait", "busy"),
            "experiments.runner.utilization": ratio(
                self.worker_busy, workers * t.op("experiments.runner", "work")),
            "experiments.cache.puts": per("experiments.cache.put", "calls"),
            "experiments.cache.put_s": per("experiments.cache.put", "busy"),
            "experiments.cache.gets": per("experiments.cache.get", "calls"),
            "experiments.cache.hit_ratio": ratio(
                t.op("experiments.cache.get", "units"),
                t.op("experiments.cache.get", "calls")),
            "experiments.cache.get_s": per("experiments.cache.get", "busy"),
            "experiments.cache.trace_digest_s": per(
                "experiments.cache.trace_digest", "busy"),
            "system.multi_object.split_s": per("system.multi_object.split", "busy"),
            "system.multi_object.observe_calls": per(
                "system.multi_object.observe", "calls"),
            "system.multi_object.observe_s": per(
                "system.multi_object.observe", "busy"),
            "workloads.gen_s": gen_s,
            "other.self_s": per("other", "self_s"),
            "trace_overhead_frac": overhead,
        })
        return out

    def self_seconds(self) -> dict[str, float]:
        """Each layer's self time per traced pass, every process summed."""
        n = max(1, self.passes)
        return {k: v / n for k, v in self.totals.layer_self().items()}


    @classmethod
    def merged(cls, accounts) -> "_LayerAccount":
        """One account over several parts' traced runs of the same passes."""
        out = cls()
        for a in accounts:
            out.totals.add(a.totals)
            out.worker_busy += a.worker_busy
            out.ipc_bytes += a.ipc_bytes
            out.passes = max(out.passes, a.passes)
            out.worst_residual = max(out.worst_residual, a.worst_residual)
            for proc, (wall, acc, count) in a.processes.items():
                slot = out.processes.setdefault(proc, [0.0, 0.0, 0])
                slot[0] += wall
                slot[1] += acc
                slot[2] += count
        return out


def _workers() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_report(tally: _PartTally, account) -> dict:
    """One part's correctness check and figures over its cold passes."""
    part = tally.part
    n_items = len(tally.first.online)
    out = {
        "why": part.why,
        "unit": part.unit,
        "inputs": part.describe(tally.inputs),
        "digest": tally.first.digest,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": [f"{part.name}: {n}" for n in tally.notes],
        "inversions": tally.inversions,
        "wall": timing(tally.walls),
        "cpu": timing(tally.cpus),
        "items_per_s": timing([n_items / w for w in tally.walls], True),
        "rerun": timing(tally.reruns) if tally.reruns else None,
        "stresses": part.stresses,
        "bypasses": part.bypasses,
    }
    if account is not None:
        out["self_s"] = account.self_seconds()
        total = sum(out["self_s"].values())
        out["shares"] = {k: v / total for k, v in out["self_s"].items()} \
            if total else {}
        cells = {t: account.totals.op(f"core.engine.{t}", "units") for t in TIERS}
        total = sum(cells.values())
        out["tier_shares"] = {t: c / total for t, c in cells.items()} \
            if total else {}
    out["property"] = part.input_property(out["inputs"],
                                          out.get("tier_shares", {}))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, pinned: dict | None = None) -> dict:
    """Run one workload; returns everything the report prints.  ``pinned``
    maps a part's name to the online-cost digest it must give."""
    from workloads import WORKLOADS, PassContext

    parts = WORKLOADS[name].parts
    pinned = pinned or {}
    workers = _workers()
    # the helper is waited for only after the children's peak RSS is read,
    # so its processes never count towards it
    with Reference(workers) as reference:
        workdir = ROOT / ".perfbench-work" / str(os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(workdir)   # the runner's trace spool lands here
        try:
            imports, gen = [], []
            for _ in range(SETUPS):
                imports.append(_import_seconds())
                t0 = time.perf_counter()
                inputs = [part.generate(seed, tiny) for part in parts]
                gen.append(time.perf_counter() - t0)
            # lazy imports of the program happen here, not in the first pass
            for part in parts:
                part.run_pass(part.generate(seed, True),
                              PassContext(1, workdir / "warm-up"))

            setups = [a + b for a, b in zip(imports, gen)]
            tracer = spans.Tracer() if trace else None
            accounts = [_LayerAccount() for _ in parts] if trace else None
            traced_inputs = ([part.with_factories(i, tracer.wrap_factory)
                              for part, i in zip(parts, inputs)] if trace else None)
            tallies = [_PartTally(part, i, pinned.get(part.name))
                       for part, i in zip(parts, inputs)]
            walls, cpus, traced_walls, stopwatches = [], [], [], []
            #: reference CPU seconds before the first pass and after each pass
            refs = [reference.measure()]
            start = time.perf_counter()
            k = 0
            while True:
                traced = trace and k % 2 == 1
                wall = cpu = stopwatch = 0.0
                for i, part in enumerate(parts):
                    ctx = PassContext(workers, workdir / f"pass{k}-{i}")
                    if traced:
                        tracer.install()
                        try:
                            t0 = time.perf_counter()
                            with tracer.span("other"):
                                result = part.run_pass(traced_inputs[i], ctx)
                            elapsed = time.perf_counter() - t0
                        finally:
                            tracer.uninstall()
                        accounts[i].add_pass(tracer, elapsed)
                    else:
                        t0 = time.perf_counter()
                        result = part.run_pass(inputs[i], ctx)
                        elapsed = time.perf_counter() - t0
                    shutil.rmtree(ctx.workdir, ignore_errors=True)
                    tallies[i].add(result, traced)
                    wall += result.wall_s
                    cpu += result.cpu_s
                    stopwatch += elapsed
                refs.append(reference.measure())
                if traced:
                    traced_walls.append(wall)
                else:
                    walls.append(wall)
                    cpus.append(cpu)
                stopwatches.append(stopwatch)
                k += 1
                enough = min(len(walls), len(traced_walls) if trace else len(walls)) \
                    >= MIN_PASSES[trace]
                elapsed = time.perf_counter() - start
                if enough and elapsed + statistics.median(stopwatches) > seconds:
                    break

            # the host's speed over the run, from the median reference: it
            # follows the run's slow and fast spells better than the two
            # references next to each pass, which are short and noisy
            speed = REFERENCE_S / statistics.median(refs)
            reports = {
                part.name: _part_report(tallies[i], accounts[i] if trace else None)
                for i, part in enumerate(parts)
            }
            out = {
                "workload": name,
                "why": WORKLOADS[name].why,
                "seed": seed,
                "profile": "tiny" if tiny else "full",
                "fingerprint": fingerprint(workers, {
                    part.name: part.slab_shape(i) for part, i in zip(parts, inputs)}),
                "parts": reports,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "notes": [n for r in reports.values() for n in r["notes"]],
                "setup": {"total": timing(setups), "imports": timing(imports),
                          "gen": timing(gen),
                          "scaled": timing([t * speed for t in setups])},
                "wall": timing(walls),
                "walls": walls,
                "wall_scaled": timing([w * speed for w in walls]),
                "cpu": timing(cpus),
                "cpus": cpus,
                "cpu_scaled": timing([c * speed for c in cpus]),
                "refs": refs,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "worker_peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            }
            if trace:
                account = _LayerAccount.merged(accounts)
                overhead = (statistics.median(traced_walls)
                            / statistics.median(walls) - 1.0)
                out["layers"] = account.metrics(workers, statistics.median(gen),
                                                overhead)
                out["processes"] = account.processes
                out["worst_residual"] = account.worst_residual
                out["tolerance"] = spans.ACCOUNTING_TOLERANCE
                if account.worst_residual > spans.ACCOUNTING_TOLERANCE:
                    out["failed"] = out["attempted"]
                    out["notes"].append(
                        f"layer self times + other miss a process's wall time by "
                        f"{account.worst_residual:.2%} > "
                        f"{spans.ACCOUNTING_TOLERANCE:.0%}")
            return out
        finally:
            tempfile.tempdir = saved_tempdir
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()   # unless another run still uses it
            except OSError:
                pass


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import the program."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        + "".join(f"import {m}\n" for m in PROGRAM_MODULES)
        + "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True)
    return float(out.stdout)


def _metric_values(r: dict, trace: bool) -> dict:
    if trace:
        return r["layers"]
    return {
        "setup_s": r["setup"]["scaled"]["median"],
        "cpu_s": r["cpu_scaled"]["median"],
        "peak_rss_mb": r["peak_rss_mb"],
        "worker_peak_rss_mb": r["worker_peak_rss_mb"],
    }


def _print_part(name: str, p: dict, trace: bool) -> None:
    unit = p["unit"]
    print(f"  part {name}: {p['why']}")
    print("    inputs " + json.dumps(p["inputs"], sort_keys=True))
    print(f"    stresses {p['stresses']}; bypasses {p['bypasses']}")
    label, value = p["property"]
    if value is not None:
        print(f"    input property: {label} = {value:.4g}")
    print(f"    online-cost digest {p['digest']}")
    if not trace:
        print(f"    cpu {p['cpu']['median']:.6g} s, wall "
              f"{p['wall']['median']:.6g} s  [{_timing_note(p['wall'], 's')}]")
        print(f"    {unit}_per_s = {p['items_per_s']['median']:.6g} 1/s  "
              f"[{_timing_note(p['items_per_s'], '1/s')}]")
        if p["rerun"] is not None:
            print(f"    rerun_s = {p['rerun']['median']:.6g} s  [warm re-run, "
                  f"every cell a cache hit; {_timing_note(p['rerun'], 's')}]")
    else:
        print("    layer self time per pass, s " + json.dumps(
            {k: round(v, 4) for k, v in p["self_s"].items()}))
        print("    layer self-time shares " + json.dumps(
            {k: round(v, 4) for k, v in p["shares"].items()}))
        print("    engine tier shares of cells " + json.dumps(
            {k: round(v, 4) for k, v in p["tier_shares"].items()}))
    print(f"    failed_frac = {p['failed'] / p['attempted']:.6g} ratio  "
          f"[{p['failed']} of {p['attempted']} {unit}]")
    if p["inversions"]:
        print(f"    note: {p['inversions']} {unit} per pass have online below "
              f"OPT by float rounding only (relative gap < {REL_TOL:g}); "
              "not misses")


def _print_report(r: dict, trace: bool) -> None:
    print(f"perfbench workload={r['workload']} seed={r['seed']} "
          f"profile={r['profile']} trace={int(trace)}")
    print(f"  why: {r['why']}")
    print("  fingerprint " + json.dumps(r["fingerprint"], sort_keys=True))
    for name, p in r["parts"].items():
        _print_part(name, p, trace)
    values = _metric_values(r, trace)
    if not trace:
        st = r["setup"]
        print(f"  setup_s = {values['setup_s']:.6g} s  [at reference speed; "
              f"{_timing_note(st['scaled'], 's')}; measured median "
              f"{st['total']['median']:.6g} s: imports "
              f"{st['imports']['median']:.6g} s, input generation "
              f"{st['gen']['median']:.6g} s]")
        print(f"  cpu_s = {values['cpu_s']:.6g} s  [parent and workers, every "
              f"part once, at reference speed; "
              f"{_timing_note(r['cpu_scaled'], 's')}; measured median "
              f"{r['cpu']['median']:.6g} s]")
        print(f"  wall_s = {r['wall_scaled']['median']:.6g} s  [every part "
              f"once, at reference speed; "
              f"{_timing_note(r['wall_scaled'], 's')}; measured median "
              f"{r['wall']['median']:.6g} s]")
        print("  measured pass cpu s " + " ".join(f"{c:.4g}" for c in r["cpus"]))
        print("  measured pass walls s " + " ".join(f"{w:.4g}" for w in r["walls"]))
        print("  reference work cpu s " + " ".join(f"{c:.4g}" for c in r["refs"]))
        print(f"  peak_rss_mb = {values['peak_rss_mb']:.6g} MB  [parent]")
        print(f"  worker_peak_rss_mb = {values['worker_peak_rss_mb']:.6g} MB  "
              f"[largest worker]")
    else:
        units = dict(PER_LAYER)
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        for proc, (wall, acc, count) in sorted(r["processes"].items()):
            print(f"  accounting {proc} ({count} process-passes): wall "
                  f"{wall:.6g} s, layers + other {acc:.6g} s")
        print(f"  worst per-process accounting residual "
              f"{r['worst_residual']:.3%} (tolerance "
              f"{r['tolerance']:.0%})")
    print(f"  failed_frac = {r['failed'] / r['attempted']:.6g} ratio  "
          f"[{r['failed']} of {r['attempted']} cells and objects]")
    for note in r["notes"]:
        print(f"  MISS {note}")


def _record(r: dict, trace: bool) -> None:
    data = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    for name, p in r["parts"].items():
        entry = data.setdefault(name, {})
        entry["why"] = p["why"]
        entry["pinned"] = {"seed": r["seed"], "online_digest": p["digest"],
                           "platform": platform_key()}
        entry["inputs"] = p["inputs"]
        entry["stresses"], entry["bypasses"] = p["stresses"], p["bypasses"]
        label, value = p["property"]
        if value is not None:
            entry["input_property"] = {"name": label, "value": round(value, 4)}
        if trace:
            entry["engine_tier_shares"] = {
                k: round(v, 4) for k, v in p["tier_shares"].items()}
            entry["layer_shares"] = {k: round(v, 4)
                                     for k, v in p["shares"].items()}
    RECORDED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _pinned(name: str, seed: int, tiny: bool) -> dict:
    """Each part's pinned digest for this seed, where it was pinned on
    this platform."""
    from workloads import WORKLOADS

    if tiny or not RECORDED.exists():
        return {}
    data = json.loads(RECORDED.read_text())
    out = {}
    for part in WORKLOADS[name].parts:
        pin = data.get(part.name, {}).get("pinned")
        if not pin or pin["seed"] != seed:
            continue
        if pin["platform"] != platform_key():
            print(f"perfbench: {part.name} digest was pinned on another "
                  f"platform ({pin['platform']}); not compared",
                  file=sys.stderr)
            continue
        out[part.name] = pin["online_digest"]
    return out


def _run_all(args) -> int:
    """Each benchmark workload in its own process, so peak RSS stays per
    workload."""
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--profile", args.profile]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 2
        ok &= proc.returncode == 0 and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, v in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = v
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import workloads  # noqa: F401  (imports the program)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    tiny = args.profile == "tiny"
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                     tiny=tiny, pinned=_pinned(args.workload, args.seed, tiny))
    _print_report(r, bool(args.trace))
    if args.record:
        _record(r, bool(args.trace))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    correct = r["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in _metric_values(r, bool(args.trace)).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
