"""Workload definitions and the closed-loop drivers that run them.

One client, one process: each op starts only after the previous one has
returned.  The program receives only the ``RunConfig`` or argv built here.
Before every op, and once after the last, the reference kernel runs (see
``refclock.py``); its time is recorded outside the op's.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import refclock  # noqa: E402
from rspo_lab import cli, harness  # noqa: E402

WORKLOADS = ("train-default", "score-heavy", "audit")

# Ops in the fixed prefix whose counters are reported and must repeat exactly.
PREFIX_OPS = {"train-default": 20, "score-heavy": 20, "audit": 2}

# RunConfig fields each training workload sets beyond task and seed.
_TRAIN = {
    "train-default": {"task": "arith"},
    "score-heavy": {"task": "sudoku4", "block_size": 16, "unmask_per_step": 16,
                    "k_masks": 8},
}

# Throughput and tail latency are medians over this many consecutive stretches
# of a window, so one stretch stalled by a neighbour on a shared machine does
# not move them.
STRETCHES = 10

# The window, not the step budget, ends a training run.
_UNBOUNDED_STEPS = 10**9


def train_config(workload: str, seed: int, out_dir: Path) -> harness.RunConfig:
    if workload not in _TRAIN:
        raise ValueError(f"{workload!r} is not a training workload")
    return harness.RunConfig(seed=seed, steps=_UNBOUNDED_STEPS, out_dir=str(out_dir),
                             **_TRAIN[workload])


def audit_argv(seed: int, i: int) -> list[str]:
    return ["audit", "--seed", str(seed * 1000 + i)]


def setup(workload: str, seed: int, out_dir: Path) -> None:
    """What a user waits for before the first op: build the config and the
    initial state, or the CLI parser."""
    if workload == "audit":
        cli.build_parser().parse_args(audit_argv(seed, 0))
    else:
        harness.init_state(train_config(workload, seed, out_dir))


@dataclass
class Phase:
    """One closed-loop run: per-op wall times, the reference kernel's time
    around each op, and what the program wrote."""

    starts: list[float] = field(default_factory=list)  # op i starts, after its kernel
    latencies: list[float] = field(default_factory=list)  # op i's own wall time
    # op i's cycle ends when the next kernel starts: metric writes and
    # checkpoints after the op are inside its cycle
    ends: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # before each op, and after the last
    t_start: float = 0.0
    t_end: float = 0.0
    failed: int = 0
    error: str = ""
    outputs: list[str] = field(default_factory=list)  # audit stdout per pass
    metrics_path: Path | None = None
    prefix_counts: dict | None = None

    @property
    def ops(self) -> int:
        """Ops completed without failing."""
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.ops + self.failed

    def scales(self) -> list[float]:
        """Per op, the factor from wall to reference seconds."""
        k, last = self.kernel_s, len(self.kernel_s) - 1
        return [refclock.scale(k[min(i, last)], k[min(i + 1, last)])
                for i in range(self.ops)]

    def ref_latencies(self) -> list[float]:
        return [lat * sc for lat, sc in zip(self.latencies, self.scales())]

    def _ref_cycles(self) -> list[float]:
        return [(end - start) * sc
                for start, end, sc in zip(self.starts, self.ends, self.scales())]

    def _stretches(self) -> list[tuple[int, int]]:
        """Index ranges of STRETCHES runs of consecutive ops."""
        n = min(STRETCHES, self.ops)
        edges = [round(i * self.ops / n) for i in range(n + 1)]
        return list(zip(edges, edges[1:]))

    def ops_per_s(self) -> float:
        """Median over stretches of ops / reference seconds of their cycles."""
        cycles = self._ref_cycles()
        if not cycles:
            return 0.0
        return statistics.median((hi - lo) / sum(cycles[lo:hi])
                                 for lo, hi in self._stretches())

    def latency_p50(self) -> float:
        """Median op latency in reference seconds."""
        return statistics.median(self.ref_latencies() or [0.0])

    def latency_p90(self) -> float:
        """Median over stretches of each stretch's 90th-percentile latency,
        in reference seconds."""
        lats = self.ref_latencies()
        if not lats:
            return 0.0
        return statistics.median(_p90(lats[lo:hi]) for lo, hi in self._stretches())

    def wall(self) -> dict:
        """The same figures on the wall clock, and the median core speed
        relative to the reference (below 1 when the core ran slower)."""
        if not self.ops:
            return {}
        n = len(self.ends)
        return {"wall_ops_per_s": n / sum(e - s for s, e in zip(self.starts, self.ends)),
                "wall_op_ms_p50": 1e3 * statistics.median(self.latencies),
                "core_speed": statistics.median(self.scales())}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class _WindowClosed(Exception):
    pass


def _should_stop(phase: Phase, now: float, seconds, min_ops: int, max_ops) -> bool:
    if phase.attempted < min_ops:
        return False
    if max_ops is not None and phase.attempted >= max_ops:
        return True
    return seconds is not None and now - phase.t_start >= seconds


def run_phase(workload: str, seed: int, out_dir: Path, *, seconds=None, min_ops=1,
              max_ops=None, tracer=None) -> Phase:
    """Run ops until ``seconds`` have passed and at least ``min_ops`` ops
    completed, or until ``max_ops`` ops.  With a tracer, its counters are
    snapshotted after the workload's prefix ops."""
    phase = Phase()
    prefix = PREFIX_OPS[workload]

    def between_ops(now: float) -> bool:
        """Close the last op's cycle and run the kernel; True to stop."""
        if len(phase.ends) < phase.ops:
            phase.ends.append(now)
        phase.kernel_s.append(refclock.kernel_seconds())
        if _should_stop(phase, now, seconds, min_ops, max_ops):
            phase.t_end = now
            return True
        return False

    def finished_op(t0: float) -> None:
        phase.starts.append(t0)
        phase.latencies.append(time.perf_counter() - t0)
        if tracer is not None and phase.ops == prefix:
            phase.prefix_counts = tracer.snapshot_counts()

    if workload == "audit":
        phase.t_start = time.perf_counter()
        while not between_ops(time.perf_counter()):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(audit_argv(seed, phase.attempted))
            if rc == 0:
                finished_op(t0)
            else:
                phase.failed += 1
            phase.outputs.append(buf.getvalue())
        return phase

    real = harness.train_step

    def op(state, cfg):
        now = time.perf_counter()
        if not phase.t_start:
            phase.t_start = now
        if between_ops(now):
            raise _WindowClosed
        t0 = time.perf_counter()
        out = real(state, cfg)
        finished_op(t0)
        return out

    cfg = train_config(workload, seed, out_dir)
    phase.metrics_path = out_dir / harness.METRICS_FILE
    harness.train_step = op
    try:
        harness.run_experiment(cfg)
    except _WindowClosed:
        pass
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        phase.failed += 1
        phase.t_end = time.perf_counter()
        phase.error = f"{type(exc).__name__}: {exc}"
    finally:
        harness.train_step = real
    return phase
