"""Tests of the benchmark itself, on the seconds-scale ``tiny`` profile.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import PARTS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_profile_prints_every_metric_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "0.5",
                     "--trace", str(trace), "--profile", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.strip().startswith(f"{m['name']} = ")
                   and f" {m['unit']}" in line for line in lines[:-1]), m
    assert any(line.strip().startswith("failed_frac = 0 ") for line in lines)


@pytest.mark.parametrize("name", run.NAMES)
def test_wrong_pinned_digest_fails_every_item(name):
    pinned = {part.name: "0" * 64 for part in WORKLOADS[name].parts}
    r = run.run_workload(name, 0, 0.1, False, tiny=True, pinned=pinned)
    assert r["attempted"] > 0 and r["failed"] == r["attempted"]


@pytest.mark.parametrize("name", PARTS)
def test_seed_decides_the_inputs(name):
    w = PARTS[name]
    a, b, c = (w.input_digest(w.generate(s, True)) for s in (0, 0, 1))
    assert a == b != c


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    # every part is measured by exactly one workload
    parts = [p.name for name in run.NAMES for p in WORKLOADS[name].parts]
    assert sorted(parts) == sorted(PARTS)


def test_every_part_has_a_pinned_digest():
    recorded = json.loads(run.RECORDED.read_text())
    for name in PARTS:
        assert recorded[name]["pinned"]["seed"] == 0
        assert len(recorded[name]["pinned"]["online_digest"]) == 64


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    noop = tracer.wrap(lambda: None, "offline.dp")
    with tracer.span("other"):
        with tracer.span("experiments.runner"):
            noop()
            with tracer.span("experiments.runner"):
                noop()
    (batch,) = tracer.drain()
    totals, root_s, self_s = spans.analyse(batch)
    assert self_s == pytest.approx(root_s, rel=1e-9)
    # the nested runner span is not a second call of its op
    assert totals.op("experiments.runner", "calls") == 1
    assert totals.op("offline.dp", "calls") == 2
    assert sum(totals.layer_self().values()) == pytest.approx(root_s, rel=1e-9)


def test_reference_helper_times_the_work_and_exits():
    with reference.Reference(2) as ref:
        times = [ref.measure() for _ in range(2)]
    assert all(t > 0 for t in times)
    assert ref._proc.returncode == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.NAMES[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
