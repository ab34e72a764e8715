"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import refclock
from tracer import Tracer
from workloads import Phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 0.5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_output_lists_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_target_is_listed_and_other_spans_still_traced():
    def inner(x):
        time.sleep(0.01)
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod = types.SimpleNamespace(__name__="mod", inner=inner, outer=outer)
    parents = []
    tracer = Tracer()
    tracer.wrap("outer", mod, "outer")
    tracer.wrap("gone", mod, "fused_away")
    tracer.wrap("inner", mod, "inner",
                lambda tr, parent, args, result: parents.append(parent))
    try:
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert tracer.missing == ["mod.fused_away"]
    assert tracer.active == ["mod.outer", "mod.inner"]
    assert tracer.counts["outer.calls"] == tracer.counts["inner.calls"] == 1
    assert parents == ["outer"]
    assert tracer.self_ms("gone") == 0.0
    # the child's sleep is not the parent's self time
    assert tracer.self_ms("inner") >= 10.0 > tracer.self_ms("outer")


def test_times_are_scaled_by_the_kernel_around_each_op():
    ref = refclock.REFERENCE_KERNEL_S
    # two ops of 0.1 s wall and 0.12 s cycle; the core runs at half speed
    # around the first and at reference speed after the second
    phase = Phase(starts=[0.0, 1.0], latencies=[0.1, 0.1], ends=[0.12, 1.12],
                  kernel_s=[2 * ref, 2 * ref, ref])
    assert phase.scales() == pytest.approx([0.5, 2 / 3])
    assert phase.ref_latencies() == pytest.approx([0.05, 0.1 * 2 / 3])
    assert phase.latency_p50() == pytest.approx((0.05 + 0.1 * 2 / 3) / 2)
    # one stretch per op
    assert phase.ops_per_s() == pytest.approx((1 / 0.06 + 1 / 0.08) / 2)
    assert phase.wall()["wall_ops_per_s"] == pytest.approx(2 / 0.24)
    assert refclock.kernel_seconds() > 0
