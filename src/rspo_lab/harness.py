"""Training loop, optimizer, configuration, and every run file: metrics,
JSON config and summaries, and the checkpoint codec.

One training step: draw prompts through ``tasks.TASKS``, roll out one stack
of a group of completions per prompt, grade them, turn rewards into zero-sum
group advantages, score that stack against the frozen reference under shared
masks, center the scores, and apply one feedback-weighted gradient update.

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
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mdm, objectives, score, tasks
from .denoiser import DenoiserParams, architecture_mismatch, init_params

METRICS_FILE = "metrics.jsonl"
TIMINGS_FILE = "timings.jsonl"
SUMMARY_FILE = "summary.json"


class RunAborted(RuntimeError):
    """Raised when a step produces a non-finite loss or gradient."""


class ConfigError(ValueError):
    """A bad config file, RSPO_* value or config field."""


@dataclass
class RunConfig:
    task: str = "arith"
    lam: float = 0.01
    group_size: int = 6
    k_masks: int = 2
    groups_per_batch: int = 4
    steps: int = 200
    lr: float = 1e-3
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

    # JSON uses "lambda"; the attribute avoids the Python keyword.
    _JSON_KEYS = {"lam": "lambda"}
    # Keys that were fields once and that no run set: config.json still holds
    # each at the value it was always written at, and only that value loads.
    _RETIRED = {"beta1": 0.9, "beta2": 0.99, "adam_eps": 1e-8, "weight_decay": 0.0,
                "debug_checks": False}

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            key = self._JSON_KEYS.get(f.name, f.name)
            kind = type(f.default)
            allowed = (int, float) if kind is float else kind
            # bool is a subclass of int, so only bool fields may hold one
            if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
            if kind is float:
                if not math.isfinite(value):
                    raise ValueError(f"{key} must be finite, got {value!r}")
                # an int stored as given would write another config.json and hash
                setattr(self, f.name, float(value))
        rules = [
            ("lam", self.lam >= 0, ">= 0"),
            ("group_size", self.group_size >= 2, ">= 2"),
            ("k_masks", self.k_masks >= 1, ">= 1"),
            ("groups_per_batch", self.groups_per_batch >= 1, ">= 1"),
            ("steps", self.steps >= 0, ">= 0"),
            ("lr", self.lr > 0, "> 0"),
            ("modulus", 2 <= self.modulus <= 100, "in 2..100"),  # what gen_arith accepts
            ("hidden", self.hidden >= 1, ">= 1"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("window", self.window >= 0, ">= 0"),
            ("checkpoint_every", self.checkpoint_every >= 0, ">= 0"),
            ("seed", 0 <= self.seed < 2**64, "in 0..2**64-1"),  # checkpoints store it as uint64
            ("out_dir", self.out_dir != "", "a nonempty path"),  # "" would write into the cwd
            ("task", self.task in tasks.TASKS, "one of " + ", ".join(tasks.TASKS)),
            ("modulus", self.modulus == RunConfig.modulus or self.task not in tasks.TASKS
             or tasks.TASKS[self.task].reads_modulus,
             f"{RunConfig.modulus} on task {self.task}, which never reads it"),
        ]
        for name, holds, rule in rules:
            if not holds:
                key = self._JSON_KEYS.get(name, name)
                raise ValueError(f"{key} must be {rule}, got {getattr(self, name)!r}")
        self.decode_config()  # gen_len, block_size, unmask_per_step, temperature

    def to_dict(self) -> dict:
        out = {self._JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
               for f in dataclasses.fields(self)}
        return {**out, **self._RETIRED}

    @classmethod
    def field_keys(cls) -> list[str]:
        return [cls._JSON_KEYS.get(f.name, f.name) for f in dataclasses.fields(cls)]

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """The config a dict of JSON keys holds; a bad key or value is a ``ConfigError``."""
        keys = cls.field_keys()
        reverse = {v: k for k, v in cls._JSON_KEYS.items()}
        unknown = [k for k in obj if k not in keys and k not in cls._RETIRED]
        if unknown:
            msgs = []
            for k in unknown:
                hint = difflib.get_close_matches(k, keys, n=1)
                msgs.append(f"{k!r}" + (f" (did you mean {hint[0]!r}?)" if hint else ""))
            raise ConfigError("unknown config keys: " + ", ".join(msgs))
        for key, fixed in cls._RETIRED.items():
            value = obj.get(key, fixed)
            # as for a field: an int is a float value, and only a bool is a bool
            if value != fixed or isinstance(value, bool) != isinstance(fixed, bool):
                raise ConfigError(f"{key} is retired and must be {fixed!r}, got {value!r}")
        kwargs = {reverse.get(k, k): v for k, v in obj.items() if k not in cls._RETIRED}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def decode_config(self) -> mdm.DecodeConfig:
        return mdm.DecodeConfig(
            gen_len=self.gen_len,
            block_size=self.block_size,
            unmask_per_step=self.unmask_per_step,
            temperature=self.temperature,
        )


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
    n_positions = tasks.TASKS[cfg.task].prompt_width(cfg.modulus) + cfg.gen_len
    params = init_params(
        tasks.VOCAB_SIZE,
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


#: Adam's moment decays and denominator guard, fixed for every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.99, 1e-8


def adam_update(theta, grad, m, v, step, lr):
    """Bias-corrected first/second moment update at the fixed ``ADAM_*``
    constants; returns new (theta, m, v).

    ``step`` is the 1-based update count.
    """
    if step < 1:  # bias correction divides by 1 - ADAM_BETA1**step
        raise ValueError(f"step must be >= 1, got {step!r}")
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    if grad.shape != np.shape(theta):
        raise ValueError("gradient dimension mismatch")
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return theta, m, v


def _step_rngs(cfg: RunConfig, step: int):
    """Deterministic per-step streams for prompts, rollouts, and masks."""
    base = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(step,))
    kids = base.spawn(3)
    return tuple(np.random.default_rng(k) for k in kids)


def _rollout(params: DenoiserParams, cfg: RunConfig, prompt_rng, rollout_rng):
    """The micro-batch's prompt instances, drawn from ``prompt_rng``, and the
    stack of a group of completions per prompt, decoded from ``rollout_rng``."""
    task = tasks.TASKS[cfg.task]
    insts = [task.generate(prompt_rng, cfg.modulus) for _ in range(cfg.groups_per_batch)]
    stack = mdm.sample_completion_groups(
        params, [tasks.encode_text(inst.prompt_text) for inst in insts],
        cfg.group_size, cfg.decode_config(), rollout_rng,
    )
    return insts, stack


def _grade(insts, stack) -> list[list[float]]:
    """Each group's rewards, one per completion row, from its prompt's verifier."""
    groups = stack.completion.reshape(len(insts), -1, stack.completion_len)
    return [[tasks.reward(inst, tasks.decode_tokens(c)) for c in group]
            for inst, group in zip(insts, groups)]


def train_step(state: TrainState, cfg: RunConfig) -> tuple[TrainState, StepMetrics]:
    """One optimizer step over a micro-batch of complete prompt groups: all
    groups decode in lockstep, and the whole micro-batch is scored in one
    stacked forward per model."""
    t0 = time.perf_counter()
    marks = [t0]
    prompt_rng, rollout_rng, mask_rng = _step_rngs(cfg, state.step)

    insts, stack = _rollout(state.params, cfg, prompt_rng, rollout_rng)
    marks.append(time.perf_counter())

    rewards = _grade(insts, stack)
    zero_std = sum(1 for r in rewards if np.std(r) == 0.0)
    adv = np.concatenate([objectives.group_advantages(r, cfg.normalize_adv) for r in rewards])
    marks.append(time.perf_counter())

    masks = score.sample_mask_sets(cfg.gen_len, cfg.k_masks, mask_rng, len(stack.completion))
    deltas, grads = score.coupled_deltas_and_grads(
        state.params, state.ref_params if cfg.reference else None, stack, masks)
    marks.append(time.perf_counter())

    batch = score.center_scores(deltas, cfg.centering)
    loss, coeffs = objectives.rspo_loss(batch, adv, cfg.lam)
    grad = objectives.weighted_gradient(coeffs, grads)

    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise RunAborted(f"non-finite loss/gradient at step {state.step}: loss={loss}")
    marks.append(time.perf_counter())

    theta, m, v = adam_update(state.params.theta, grad, state.m, state.v, state.step + 1, cfg.lr)
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
        mean_reward=float(np.mean(rewards)),
        loss=loss,
        grad_norm=float(np.linalg.norm(grad)),
        var_delta=score.var_delta(batch),
        batch_mean_offset=score.batch_mean_offset(batch),
        zero_std_group_ratio=zero_std / cfg.groups_per_batch,
        wall_time=time.perf_counter() - t0,
        phase_times=dict(zip(PHASES, np.diff(marks).tolist())),
    )
    return new_state, metrics


# ---------------------------------------------------------------------------
# run files: atomic writes, JSON, checkpoints
# ---------------------------------------------------------------------------


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``: a write that fails midway leaves the previous file untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` atomically as JSON with sorted keys, indented by two and
    ending in a newline: the layout of the config and summary files."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


CHECKPOINT_MAGIC = b"MDMC"
CHECKPOINT_VERSION = 1
# magic, version, vocab_size, window, hidden, embed_dim, n_positions, seed, theta size
CHECKPOINT_HEADER = struct.Struct("<4sIIIIIIQQ")


def params_to_bytes(params: DenoiserParams) -> bytes:
    header = CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        params.vocab_size,
        params.window,
        params.hidden,
        params.embed_dim,
        params.n_positions,
        params.seed,
        params.theta.size,
    )
    return header + params.theta.astype("<f8").tobytes()


def read_section(data: bytes, offset: int, size: int, section: str) -> tuple[bytes, int]:
    """The ``size`` bytes at ``offset`` and their end offset; raises naming
    ``section`` when the data stops short."""
    end = offset + size
    if end > len(data):
        raise ValueError(f"truncated {section}: need {size} bytes, {len(data) - offset} left")
    return data[offset:end], end


def params_from_bytes(data: bytes, offset: int = 0) -> tuple[DenoiserParams, int]:
    """Parse a checkpoint section, returning the params and the end offset."""
    head, start = read_section(data, offset, CHECKPOINT_HEADER.size, "params header")
    magic, version, vocab, window, hidden, embed, npos, seed, count = CHECKPOINT_HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a denoiser checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    raw, end = read_section(data, start, 8 * count, "params theta")
    theta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return DenoiserParams(theta, vocab, window, hidden, embed, npos, seed), end


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
    """Parse a checkpoint, rejecting truncated sections, a reference whose
    architecture metadata differ from the current params', moment vectors
    whose length differs from theta's, a non-finite moment or a negative
    second moment, and trailing bytes."""
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
    if diff := architecture_mismatch(ref, params):
        raise ValueError(f"reference params: {diff} in the current params")
    raw, off = read_section(data, off, 8, "step counter")
    (step,) = struct.unpack("<Q", raw)
    vecs = []
    for section in ("m", "v"):
        raw, off = read_section(data, off, 8, f"{section} length")
        (n,) = struct.unpack("<Q", raw)
        if n != params.theta.size:
            raise ValueError(f"{section} has {n} entries, theta has {params.theta.size}")
        raw, off = read_section(data, off, 8 * n, section)
        vec = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.isfinite(vec).all():
            raise ValueError(f"{section} has non-finite entries")
        if section == "v" and (vec < 0).any():
            raise ValueError("v has negative entries")
        vecs.append(vec)
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
        write_json(out / "config.json", cfg.to_dict())
    except OSError as exc:
        raise OSError(f"cannot prepare output directory {out}: {exc}") from exc

    state = init_state(cfg)
    ref_hash_start = hashlib.sha256(state.ref_params.theta.tobytes()).hexdigest()

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
            mfh.write(metrics.to_json_line() + "\n")
            mfh.flush()
            tfh.write(json.dumps({"step": metrics.step, "wall_time": metrics.wall_time,
                                  **metrics.phase_times}) + "\n")
            tfh.flush()
            if cfg.checkpoint_every and state.step % cfg.checkpoint_every == 0:
                save_checkpoint(out / f"checkpoint_{state.step:06d}.bin", state, cfg)

    ref_hash_end = hashlib.sha256(state.ref_params.theta.tobytes()).hexdigest()
    if ref_hash_start != ref_hash_end:
        raise RuntimeError("reference parameters changed during the run")

    # JSON floats round-trip exactly, so the stream gives back every figure
    if rows := read_metrics(metrics_path):
        final_reward = rows[-1]["mean_reward"]
        var_tail = float(np.mean([r["var_delta"] for r in rows[-10:]]))
        offset_tail = float(np.mean([abs(r["batch_mean_offset"]) for r in rows]))
    else:
        # the untouched initialization; one generator for prompts and rollouts,
        # as recorded steps=0 summaries were drawn
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 1)))
        final_reward = float(np.mean(_grade(*_rollout(state.params, cfg, rng, rng))))
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
    write_json(out / SUMMARY_FILE, summary)
    save_checkpoint(out / "checkpoint_final.bin", state, cfg)
    return state, summary


def read_metrics(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out
