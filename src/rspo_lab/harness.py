"""Training loop, optimizer, configuration, and metric persistence.

One training step: sample prompt instances, roll out a group of completions
per prompt, grade them, convert rewards to zero-sum group advantages, score
each completion against the frozen reference under shared masks, center the
scores, and apply one feedback-weighted gradient update.

Reproducibility contract: (config, seed) fully determines the metrics
stream.  All RNG streams derive from the run seed and the step index, and
the serialized metrics contain no timing data (wall times go to a separate
sidecar file so the main stream stays byte-for-byte reproducible).
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mdm, objectives, score, tasks
from .denoiser import (
    DenoiserParams,
    init_params,
    params_from_bytes,
    params_to_bytes,
    read_section,
    write_atomic,
)

METRICS_FILE = "metrics.jsonl"
TIMINGS_FILE = "timings.jsonl"
SUMMARY_FILE = "summary.json"


class RunAborted(RuntimeError):
    """Raised when a step produces a non-finite loss or gradient."""


@dataclass
class RunConfig:
    task: str = "arith"
    lam: float = 0.01
    group_size: int = 6
    k_masks: int = 2
    groups_per_batch: int = 4
    steps: int = 200
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    gen_len: int = 16
    block_size: int = 8
    unmask_per_step: int = 2
    temperature: float = 0.9
    centering: bool = True
    reference: bool = True
    normalize_adv: bool = False
    modulus: int = 10
    hidden: int = 32
    embed_dim: int = 8
    window: int = 3
    seed: int = 0
    out_dir: str = "runs/default"
    checkpoint_every: int = 100
    debug_checks: bool = False

    # JSON uses "lambda"; the attribute avoids the Python keyword.
    _JSON_KEYS = {"lam": "lambda"}

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            key = self._JSON_KEYS.get(f.name, f.name)
            kind = type(f.default)
            allowed = (int, float) if kind is float else kind
            # bool is a subclass of int, so only bool fields may hold one
            if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        rules = [
            ("lam", self.lam >= 0, ">= 0"),
            ("group_size", self.group_size >= 2, ">= 2"),
            ("k_masks", self.k_masks >= 1, ">= 1"),
            ("groups_per_batch", self.groups_per_batch >= 1, ">= 1"),
            ("steps", self.steps >= 0, ">= 0"),
            ("lr", self.lr > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0, "> 0"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("gen_len", self.gen_len >= 1, ">= 1"),
            ("block_size", self.block_size >= 1, ">= 1"),
            ("modulus", 2 <= self.modulus <= 100, "in 2..100"),  # what gen_arith accepts
            ("hidden", self.hidden >= 1, ">= 1"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("window", self.window >= 0, ">= 0"),
            ("checkpoint_every", self.checkpoint_every >= 0, ">= 0"),
            ("seed", 0 <= self.seed < 2**64, "in 0..2**64-1"),  # checkpoints store it as uint64
        ]
        for name, holds, rule in rules:
            if not holds:
                key = self._JSON_KEYS.get(name, name)
                raise ValueError(f"{key} must be {rule}, got {getattr(self, name)!r}")
        if self.task not in tasks.GENERATORS:
            raise ValueError(f"unknown task {self.task!r}")
        self.decode_config()  # gen_len/block_size, unmask_per_step, temperature

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            out[self._JSON_KEYS.get(f.name, f.name)] = getattr(self, f.name)
        return out

    @classmethod
    def field_keys(cls) -> list[str]:
        return [cls._JSON_KEYS.get(f.name, f.name) for f in dataclasses.fields(cls)]

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        keys = cls.field_keys()
        reverse = {v: k for k, v in cls._JSON_KEYS.items()}
        unknown = [k for k in obj if k not in keys]
        if unknown:
            msgs = []
            for k in unknown:
                hint = difflib.get_close_matches(k, keys, n=1)
                msgs.append(f"{k!r}" + (f" (did you mean {hint[0]!r}?)" if hint else ""))
            raise ValueError("unknown config keys: " + ", ".join(msgs))
        kwargs = {reverse.get(k, k): v for k, v in obj.items()}
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def decode_config(self, seed: int = 0) -> mdm.DecodeConfig:
        return mdm.DecodeConfig(
            gen_len=self.gen_len,
            block_size=self.block_size,
            unmask_per_step=self.unmask_per_step,
            temperature=self.temperature,
            seed=seed,
        )


class ConfigError(ValueError):
    """A bad config file, RSPO_* value or config field."""


def read_json_object(path) -> dict:
    """The JSON object held by a file; a ``ConfigError`` names the file when
    it cannot be read, is not JSON or holds another kind of value."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return obj


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_json_object(path))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_config(path, cfg: RunConfig) -> None:
    write_atomic(path, _json_bytes(cfg.to_dict()))


#: The consecutive parts of a training step whose wall times ``timings.jsonl``
#: records: rollouts, grading with advantages, mask draws with the scores and
#: their gradients, the objective, and the optimizer update.
PHASES = ("decode", "grade", "score_grad", "objective", "adam")


@dataclass
class StepMetrics:
    step: int
    mean_reward: float
    loss: float
    grad_norm: float
    var_delta: float
    batch_mean_offset: float
    zero_std_group_ratio: float
    wall_time: float
    phase_times: dict[str, float] = dataclasses.field(default_factory=dict)

    def to_json_line(self) -> str:
        # wall times are serialized separately to keep the stream reproducible
        obj = dataclasses.asdict(self)
        obj.pop("wall_time")
        obj.pop("phase_times")
        return json.dumps(obj, sort_keys=True)


@dataclass
class TrainState:
    params: DenoiserParams
    ref_params: DenoiserParams
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_state(cfg: RunConfig) -> TrainState:
    vocab = tasks.char_vocab()
    n_positions = _max_prompt_len(cfg) + cfg.gen_len
    params = init_params(
        vocab.size,
        window=cfg.window,
        hidden=cfg.hidden,
        embed_dim=cfg.embed_dim,
        n_positions=n_positions,
        seed=cfg.seed,
    )
    return TrainState(
        params=params,
        ref_params=params.copy(),
        m=np.zeros_like(params.theta),
        v=np.zeros_like(params.theta),
    )


def _max_prompt_len(cfg: RunConfig) -> int:
    if cfg.task == "arith":
        return 2 * len(str(cfg.modulus - 1)) + 3
    if cfg.task == "countdown":
        return 4 * 2 + 3 + 3  # four 1-digit numbers, separators, 2-digit target
    return 17  # sudoku4: 16 givens + '='


def adam_update(theta, grad, m, v, step, lr, beta1=0.9, beta2=0.99, eps=1e-8,
                weight_decay=0.0):
    """Bias-corrected first/second moment update; returns new (theta, m, v).

    ``step`` is the 1-based update count.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    if grad.shape != np.shape(theta):
        raise ValueError("gradient dimension mismatch")
    if weight_decay:
        grad = grad + weight_decay * theta
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


def _step_rngs(cfg: RunConfig, step: int):
    """Deterministic per-step streams for prompts, rollouts, and masks."""
    base = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(step,))
    kids = base.spawn(3)
    return tuple(np.random.default_rng(k) for k in kids)


def _gen_instance(cfg: RunConfig, rng: np.random.Generator) -> tasks.TaskInstance:
    if cfg.task == "arith":
        return tasks.gen_arith(rng, cfg.modulus)
    if cfg.task == "countdown":
        return tasks.gen_countdown(rng)
    return tasks.gen_sudoku4(rng)


def train_step(state: TrainState, cfg: RunConfig) -> tuple[TrainState, StepMetrics]:
    """One optimizer step over a micro-batch of complete prompt groups: all
    groups decode in lockstep, and the whole micro-batch is scored in one
    stacked forward per model."""
    t0 = time.perf_counter()
    marks = [t0]
    vocab = tasks.char_vocab()
    prompt_rng, rollout_rng, mask_rng = _step_rngs(cfg, state.step)

    insts = [_gen_instance(cfg, prompt_rng) for _ in range(cfg.groups_per_batch)]
    groups = mdm.sample_completion_groups(
        state.params, [tasks.encode_text(inst.prompt_text, vocab) for inst in insts],
        cfg.group_size, cfg.decode_config(), rollout_rng,
    )
    marks.append(time.perf_counter())

    adv_cfg = objectives.AdvantageConfig(normalize=cfg.normalize_adv)
    rewards_all: list[float] = []
    advantages: list[float] = []
    zero_std = 0
    for inst, group in zip(insts, groups):
        rewards = [tasks.reward(inst, tasks.decode_tokens(c.completion, vocab)) for c in group]
        if np.std(rewards) == 0.0:
            zero_std += 1
        advantages.extend(objectives.group_advantages(rewards, adv_cfg))
        rewards_all.extend(rewards)
    marks.append(time.perf_counter())

    completions = [c for group in groups for c in group]
    masks_per = [score.sample_mask_sets(c.completion_len, cfg.k_masks, mask_rng)
                 for c in completions]
    deltas, grads = score.coupled_deltas_and_grads(
        state.params, state.ref_params if cfg.reference else None, completions, masks_per)
    marks.append(time.perf_counter())

    if cfg.centering:
        batch = score.center_scores(deltas)
    else:
        batch = score.uncentered_scores(deltas)

    adv = np.asarray(advantages)
    loss_out = objectives.rspo_loss(batch, adv, cfg.lam)
    grad = objectives.rspo_gradient(batch, adv, cfg.lam, grads)

    if cfg.debug_checks:
        assert abs(batch.centered.sum()) <= 1e-12 * max(1, len(deltas)) or not cfg.centering
        assert abs(loss_out.weights.sum()) <= 1e-10 or not cfg.centering

    if not np.isfinite(loss_out.loss) or not np.all(np.isfinite(grad)):
        raise RunAborted(
            f"non-finite loss/gradient at step {state.step}: loss={loss_out.loss}"
        )
    marks.append(time.perf_counter())

    theta, m, v = adam_update(
        state.params.theta, grad, state.m, state.v, state.step + 1,
        cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay,
    )
    marks.append(time.perf_counter())
    new_state = TrainState(
        params=state.params.replace_theta(theta),
        ref_params=state.ref_params,
        m=m,
        v=v,
        step=state.step + 1,
    )
    metrics = StepMetrics(
        step=state.step,
        mean_reward=float(np.mean(rewards_all)),
        loss=loss_out.loss,
        grad_norm=float(np.linalg.norm(grad)),
        var_delta=score.var_delta(batch),
        batch_mean_offset=score.batch_mean_offset(batch),
        zero_std_group_ratio=zero_std / cfg.groups_per_batch,
        wall_time=time.perf_counter() - t0,
        phase_times=dict(zip(PHASES, np.diff(marks).tolist())),
    )
    return new_state, metrics


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, state: TrainState, cfg: RunConfig) -> None:
    """Current params and frozen reference in the model binary format,
    followed by the step counter, optimizer moments, and the config hash."""
    blob = params_to_bytes(state.params) + params_to_bytes(state.ref_params)
    blob += struct.pack("<Q", state.step)
    for vec in (state.m, state.v):
        blob += struct.pack("<Q", vec.size) + vec.astype("<f8").tobytes()
    blob += bytes.fromhex(cfg.config_hash())
    write_atomic(path, blob)


def load_checkpoint(path, cfg: RunConfig | None = None) -> TrainState:
    """Parse a checkpoint, rejecting truncated sections, moment vectors whose
    length differs from theta's, and trailing bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0
    models = []
    for section in ("current params", "reference params"):
        try:
            model, off = params_from_bytes(data, off)
        except ValueError as exc:
            raise ValueError(f"{section}: {exc}") from exc
        models.append(model)
    params, ref = models
    raw, off = read_section(data, off, 8, "step counter")
    (step,) = struct.unpack("<Q", raw)
    vecs = []
    for section in ("m", "v"):
        raw, off = read_section(data, off, 8, f"{section} length")
        (n,) = struct.unpack("<Q", raw)
        if n != params.theta.size:
            raise ValueError(f"{section} has {n} entries, theta has {params.theta.size}")
        raw, off = read_section(data, off, 8 * n, section)
        vecs.append(np.frombuffer(raw, dtype="<f8").astype(np.float64))
    raw, off = read_section(data, off, hashlib.sha256().digest_size, "config hash")
    if off != len(data):
        raise ValueError(f"{len(data) - off} trailing bytes after the config hash")
    if cfg is not None and raw.hex() != cfg.config_hash():
        raise ValueError("checkpoint was written under a different config")
    return TrainState(params=params, ref_params=ref, m=vecs[0], v=vecs[1], step=step)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def run_experiment(cfg: RunConfig) -> tuple[TrainState, dict]:
    """Run the configured number of steps, streaming metrics as JSON Lines
    and writing periodic checkpoints plus a final summary."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        save_config(out / "config.json", cfg)
    except OSError as exc:
        raise OSError(f"cannot prepare output directory {out}: {exc}") from exc

    state = init_state(cfg)
    ref_hash_start = hashlib.sha256(state.ref_params.theta.tobytes()).hexdigest()
    history: list[StepMetrics] = []

    metrics_path = out / METRICS_FILE
    timings_path = out / TIMINGS_FILE
    with open(metrics_path, "w", encoding="utf-8") as mfh, \
            open(timings_path, "w", encoding="utf-8") as tfh:
        for _ in range(cfg.steps):
            try:
                state, metrics = train_step(state, cfg)
            except RunAborted as exc:
                record = {"step": state.step, "aborted": str(exc)}
                mfh.write(json.dumps(record, sort_keys=True) + "\n")
                mfh.flush()
                raise
            history.append(metrics)
            mfh.write(metrics.to_json_line() + "\n")
            mfh.flush()
            tfh.write(json.dumps({"step": metrics.step, "wall_time": metrics.wall_time,
                                  **metrics.phase_times}) + "\n")
            if cfg.checkpoint_every and state.step % cfg.checkpoint_every == 0:
                save_checkpoint(out / f"checkpoint_{state.step:06d}.bin", state, cfg)

    ref_hash_end = hashlib.sha256(state.ref_params.theta.tobytes()).hexdigest()
    if ref_hash_start != ref_hash_end:
        raise RuntimeError("reference parameters changed during the run")

    if history:
        final_reward = history[-1].mean_reward
        tail = history[-10:]
        var_tail = float(np.mean([h.var_delta for h in tail]))
        offset_tail = float(np.mean([abs(h.batch_mean_offset) for h in history]))
    else:
        init_metrics = _init_summary_metrics(cfg)
        final_reward = init_metrics["mean_reward"]
        var_tail = 0.0
        offset_tail = 0.0

    summary = {
        "task": cfg.task,
        "steps": cfg.steps,
        "lambda": cfg.lam,
        "centering": cfg.centering,
        "reference": cfg.reference,
        "normalize_adv": cfg.normalize_adv,
        "seed": cfg.seed,
        "final_reward": final_reward,
        "mean_last10_var_delta": var_tail,
        "mean_abs_batch_offset": offset_tail,
        "config_hash": cfg.config_hash(),
    }
    write_atomic(out / SUMMARY_FILE, _json_bytes(summary))
    save_checkpoint(out / "checkpoint_final.bin", state, cfg)
    return state, summary


def _init_summary_metrics(cfg: RunConfig) -> dict:
    """Evaluation of the untouched initialization (used for steps=0 runs)."""
    state = init_state(cfg)
    vocab = tasks.char_vocab()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 1)))
    # spawning children draws nothing from rng, so drawing every instance
    # before the spawns matches alternating them
    insts = [_gen_instance(cfg, rng) for _ in range(cfg.groups_per_batch)]
    groups = mdm.sample_completion_groups(
        state.params, [tasks.encode_text(inst.prompt_text, vocab) for inst in insts],
        cfg.group_size, cfg.decode_config(), rng,
    )
    rewards = [tasks.reward(inst, tasks.decode_tokens(c.completion, vocab))
               for inst, group in zip(insts, groups) for c in group]
    return {"mean_reward": float(np.mean(rewards))}


def read_metrics(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out
