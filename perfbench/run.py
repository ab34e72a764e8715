"""rspo-lab benchmark.

Usage:
    python3 perfbench/run.py --workload {train-default,score-heavy,audit} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it times the workload for S seconds with nothing wrapped
but the op timer and reports the end-to-end metrics.  Times are reported in
reference seconds: wall time scaled by the core's speed, measured by a fixed
kernel around every op (see refclock.py).  With ``--trace 1`` it
runs S/2 seconds untraced, then S/2 seconds with every layer boundary traced,
and reports the per-layer metrics.  Either way it checks the program's output
and prints one JSON result as its last line; it exits 1 if a check fails.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, inherited by the set-up probes too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

SETUP_REPEATS = 15
# |sum of centered scores| bound of the zero-sum identity (acceptance criterion 5)
ZERO_SUM_TOL = 1e-12


def machine() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def pin_to_one_core() -> int | None:
    """Keep the benchmark and its set-up probes on one core, so the kernel
    that measures the core's speed runs where the ops run: the two cores of a
    shared machine are slowed by neighbours independently."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(workload: str, seed: int, tmp: Path) -> float:
    """Median time, in reference seconds, from starting a fresh interpreter
    to the state the first op needs.  Bytecode is cached as for an installed
    package: one unmeasured start fills the cache."""
    import refclock

    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    before = refclock.kernel_seconds()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(tmp / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True, env=env,
        )
        ready = float(proc.stdout.strip().splitlines()[-1])
        after = refclock.kernel_seconds()
        if i:
            samples.append((ready - t0) * refclock.scale(before, after))
        before = after
    return statistics.median(samples)


def check_train(phase, cfg, label: str, problems: list[str]) -> list[str]:
    """Validate one training phase's metrics.jsonl; returns its lines."""
    if not phase.metrics_path.is_file():
        problems.append(f"{label}: no {phase.metrics_path.name} written")
        return []
    lines = phase.metrics_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != phase.ops:
        problems.append(f"{label}: {len(lines)} metric lines for {phase.ops} ops")
    batch = cfg.groups_per_batch * cfg.group_size
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("step") != i:
            problems.append(f"{label}: line {i} has step {rec.get('step')}")
            break
        if not (math.isfinite(rec["loss"]) and math.isfinite(rec["grad_norm"])):
            problems.append(f"{label}: non-finite loss/grad_norm at step {i}")
            break
        if cfg.centering and abs(rec["batch_mean_offset"]) * batch > ZERO_SUM_TOL:
            problems.append(f"{label}: batch_mean_offset {rec['batch_mean_offset']} "
                            f"breaks zero-sum at step {i}")
            break
    return lines


def check_audit(phase, label: str, problems: list[str]) -> None:
    for i, out in enumerate(phase.outputs):
        passes = sum(ln.startswith("PASS ") for ln in out.splitlines())
        if passes != 5 or "FAIL" in out:
            problems.append(f"{label}: audit pass {i} printed {passes} PASS lines: {out!r}")


def check_phase(workload, phase, cfg, label, problems):
    """Per-phase gate; returns what the program wrote, one item per op."""
    if phase.error:
        problems.append(f"{label}: {phase.error}")
    if workload == "audit":
        check_audit(phase, label, problems)
        return phase.outputs
    return check_train(phase, cfg, label, problems)


def check_identical(a: list[str], b: list[str], what: str, problems: list[str]) -> None:
    n = min(len(a), len(b))
    if n == 0 or a[:n] != b[:n]:
        problems.append(f"traced and untraced {what} differ over the first {n} ops")


def run(args, tmp: Path) -> tuple[bool, int, int, dict]:
    import layers
    import workloads
    from tracer import Tracer

    wl, seed = args.workload, args.seed
    cfg = None if wl == "audit" else workloads.train_config(wl, seed, tmp)
    what = "audit output" if wl == "audit" else "metrics.jsonl"
    prefix = workloads.PREFIX_OPS[wl]
    problems: list[str] = []
    setup_s = measure_setup(wl, seed, tmp)

    def traced_phase(name, **kw):
        tracer = Tracer()
        layers.install(tracer)
        try:
            phase = workloads.run_phase(wl, seed, tmp / name, tracer=tracer, **kw)
        finally:
            tracer.uninstall()
        return phase, tracer

    if args.trace == 0:
        window = workloads.run_phase(wl, seed, tmp / "window", seconds=args.seconds,
                                     min_ops=prefix)
        replay, _ = traced_phase("replay", max_ops=prefix)
        out_window = check_phase(wl, window, cfg, "window", problems)
        out_replay = check_phase(wl, replay, cfg, "traced replay", problems)
        check_identical(out_window, out_replay, what, problems)
        p90 = window.latency_p90()
        metrics = {
            "ops_per_s": window.ops_per_s(),
            "op_ms_p50": 1e3 * window.latency_p50(),
            "op_ms_p90": 1e3 * p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        info = {"samples": window.ops,
                "beyond_p90": sum(x > p90 for x in window.ref_latencies()),
                "window_s": window.t_end - window.t_start, **window.wall()}
        attempted = window.attempted
        failed = window.failed
    else:
        half = args.seconds / 2
        plain = workloads.run_phase(wl, seed, tmp / "untraced", seconds=half,
                                    min_ops=prefix)
        traced, tracer = traced_phase("traced", seconds=half, min_ops=prefix)
        again, _ = traced_phase("again", max_ops=prefix)
        out_plain = check_phase(wl, plain, cfg, "untraced", problems)
        out_traced = check_phase(wl, traced, cfg, "traced", problems)
        check_phase(wl, again, cfg, "traced repeat", problems)
        check_identical(out_plain, out_traced, what, problems)
        first = layers.exact_counts(traced.prefix_counts or {})
        second = layers.exact_counts(again.prefix_counts or {})
        if not first or first != second:
            problems.append(f"counts over the first {prefix} ops do not repeat: "
                            f"{first} vs {second}")
        metrics = layers.per_layer_metrics(
            tracer, max(traced.ops, 1), traced.wall().get("core_speed", 1.0),
            traced.prefix_counts or {}, prefix, plain.ops_per_s() - traced.ops_per_s())
        units = dict(layers.PER_LAYER)
        info = {"traced_ops": traced.ops, "untraced_ops": plain.ops,
                "untraced_ops_per_s": plain.ops_per_s(),
                "traced_ops_per_s": traced.ops_per_s(), "prefix_ops": prefix,
                "active_spans": tracer.active, "missing_spans": tracer.missing}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    print(json.dumps({"workload": wl, "seed": seed, **info}))
    for p in problems:
        print(f"CHECK FAILED {p}")
    result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return not problems and failed == 0, attempted, failed, result_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rspo_lab" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'rspo_lab'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print(json.dumps({"machine": {**machine(), "pinned_cpu": pin_to_one_core()}}))
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        correct, attempted, failed, metrics = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
