"""Masked diffusion core: noise schedule, corruption, reverse-step sampling,
and semi-autoregressive confidence decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sequences import MASKED_TOKEN, Sequence, left_pad


def alpha_linear(t: float) -> float:
    """Linear noise schedule: alpha(0)=1, alpha(1)=0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    return 1.0 - t


@dataclass(frozen=True)
class DecodeConfig:
    gen_len: int = 16
    block_size: int = 8
    unmask_per_step: int = 2
    temperature: float = 0.9

    def __post_init__(self):
        for name in ("gen_len", "block_size", "unmask_per_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gen_len % self.block_size != 0:
            raise ValueError("block_size must divide gen_len")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


def forward_mask(y: Sequence, t: float, rng: np.random.Generator) -> Sequence:
    """Corrupt a clean sequence: each completion token is independently
    replaced by the mask with probability 1 - alpha(t).  The prompt is never
    masked."""
    p_mask = 1.0 - alpha_linear(t)
    return y.with_masked(np.flatnonzero(rng.random(y.completion_len) < p_mask))


def _sample_categorical(logprobs: np.ndarray, temperature: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from temperature-adjusted categoricals over the last
    axis of ``logprobs``, one per entry of ``u``; temperature 0 is argmax."""
    if temperature == 0.0:
        return logprobs.argmax(axis=-1)
    scaled = logprobs / temperature
    p = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    # the count of cumulative masses <= u is searchsorted(cdf, u, side="right")
    draws = (np.cumsum(p, axis=-1) <= u[..., None]).sum(axis=-1)
    return np.minimum(draws, p.shape[-1] - 1)


def reverse_step(
    params: DenoiserParams,
    z_t: Sequence,
    t: float,
    s: float,
    rng: np.random.Generator,
) -> Sequence:
    """One reverse transition z_t -> z_s.

    Unmasked positions are copied.  A masked position stays masked with
    probability (1-alpha_s)/(1-alpha_t) and otherwise draws a token from the
    denoiser distribution.
    """
    if not (0.0 <= s < t <= 1.0):
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")
    stay = (1.0 - alpha_linear(s)) / (1.0 - alpha_linear(t))
    masked = np.flatnonzero(z_t.masked)
    logprobs = params.logprobs(z_t, z_t.masked)  # one row per masked position
    # per masked position in order: the stay draw, then the token draw if it moves
    moves, us = [], []
    for row in range(masked.size):
        if rng.random() >= stay:
            moves.append(row)
            us.append(rng.random())
    moves = np.asarray(moves, dtype=np.int64)
    fill = masked[moves]
    z_s = z_t.copy()
    z_s.completion[fill] = _sample_categorical(logprobs[moves], 1.0, np.asarray(us))
    return z_s


def decode(
    params: DenoiserParams,
    prompts: list[np.ndarray],
    cfg: DecodeConfig,
    rngs,
) -> Sequence:
    """Block-wise confidence decoding of one completion per prompt.

    The prompts are left-padded to one width and their completions decoded
    in lockstep as one stack; completion ``b`` draws from ``rngs[b]``.  Each
    starts fully masked and proceeds block by block.  Each step samples
    candidate tokens at the masked positions of the active block (temperature
    0 means argmax) and commits the ``unmask_per_step`` positions whose
    sampled token has the highest denoiser probability, breaking ties by
    lowest position index.

    Every step commits ``min(unmask_per_step, still masked)`` positions of
    the active block in every completion, so all completions keep the same
    number of masked positions and share one stacked forward per step, which
    evaluates only those still-masked positions of the block.
    """
    if not prompts:
        raise ValueError("need at least one prompt")
    seq = Sequence(left_pad(prompts), np.full((len(rngs), cfg.gen_len), MASKED_TOKEN))
    completion = seq.completion
    rows = np.arange(len(rngs))[:, None]
    # masked positions left in the active block at each step of a block
    lefts = range(cfg.block_size, 0, -cfg.unmask_per_step)
    # a step draws one uniform per such position from every stream;
    # Generator.random is split-invariant, so one call per stream for the
    # whole decode, sliced per step, draws what one call per step would
    uniforms = np.array([rng.random(cfg.gen_len // cfg.block_size * sum(lefts))
                         for rng in rngs])
    drawn = 0
    for start in range(0, cfg.gen_len, cfg.block_size):
        for left in lefts:
            # the still-masked positions of the block, ascending, per completion
            where = np.zeros(completion.shape, dtype=bool)
            where[:, start:start + cfg.block_size] = (
                completion[:, start:start + cfg.block_size] == MASKED_TOKEN)
            cand = params.logprobs(seq, where).reshape(len(rngs), left, -1)
            active = np.nonzero(where)[1].reshape(len(rngs), left)
            tok = _sample_categorical(cand, cfg.temperature, uniforms[:, drawn:drawn + left])
            drawn += left
            conf = np.exp(cand[rows, np.arange(left), tok])
            # highest confidence first; ties broken by lowest index
            best = np.lexsort((active, -conf))[:, :cfg.unmask_per_step]
            commit = active[rows, best]
            completion[rows, commit] = tok[rows, best]
    return seq


def sample_completion_groups(
    params: DenoiserParams,
    prompts: list[np.ndarray],
    group_size: int,
    cfg: DecodeConfig,
    rng: np.random.Generator,
) -> list[list[Sequence]]:
    """Decode ``group_size`` completions per prompt, all groups in lockstep
    over one stack whose prompts are left-padded to one width.  Each prompt's
    completions draw from the next ``group_size`` children of ``rng``, in
    prompt order, so each group equals this call on that prompt alone."""
    if group_size < 2:
        raise ValueError("group size must be >= 2 for a relative signal")
    rngs = rng.spawn(len(prompts) * group_size)
    stack = decode(params, [p for p in prompts for _ in range(group_size)], cfg, rngs)
    rows = stack.completion.reshape(len(prompts), group_size, cfg.gen_len)
    return [[Sequence(p, c) for c in group] for p, group in zip(prompts, rows)]

