"""Masked diffusion decoding: ``DecodeConfig``, the temperature-adjusted
categorical draw ``_sample_categorical``, and the semi-autoregressive
confidence decoder ``decode``, which decodes one completion per prompt row,
each from its own stream, in one lockstep stack, with each position's commit
step.  Which rows repeat a prompt and which streams they draw is the caller's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import denoiser
from .denoiser import DenoiserParams
from .sequences import MASKED_TOKEN, Sequence, left_pad


@dataclass(frozen=True)
class DecodeConfig:
    gen_len: int = 16
    block_size: int = 8
    unmask_per_step: int = 2
    temperature: float = 0.9

    def __post_init__(self):
        # bool is an Integral and a Real, so it is rejected by name
        for name in ("gen_len", "block_size", "unmask_per_step"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gen_len % self.block_size != 0:
            raise ValueError("block_size must divide gen_len")
        if not isinstance(self.temperature, numbers.Real) or isinstance(self.temperature, bool):
            raise ValueError(f"temperature must be a real number, got {self.temperature!r}")
        try:
            finite = math.isfinite(self.temperature)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("temperature must be finite")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


def _sample_categorical(logprobs: np.ndarray, temperature: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from temperature-adjusted categoricals over the last
    axis of ``logprobs``, one per entry of ``u``; temperature 0 is argmax."""
    if temperature == 0.0:
        return logprobs.argmax(axis=-1)
    with np.errstate(over="ignore"):
        scaled = logprobs / temperature
    top = denoiser.row_max(scaled)[..., None]
    # a row that overflows to -inf whole draws its temperature-0 limit, the argmax
    if top.min() == -np.inf:
        over = top == -np.inf
        return np.where(over[..., 0], logprobs.argmax(axis=-1),
                        _sample_categorical(np.where(over, 0.0, logprobs), temperature, u))
    p = np.exp(scaled - top)
    p /= p.sum(axis=-1, keepdims=True)
    # the count of cumulative masses <= u is searchsorted(cdf, u, side="right")
    draws = (np.cumsum(p, axis=-1) <= u[..., None]).sum(axis=-1)
    return np.minimum(draws, p.shape[-1] - 1)


def decode(
    params: DenoiserParams,
    prompts: list[np.ndarray],
    cfg: DecodeConfig,
    rngs,
) -> tuple[Sequence, np.ndarray]:
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
    evaluates only those still-masked positions of the block.  The steps
    share one ``denoiser.Layout`` of the stack and commit into it.  Returns
    ``(stack, steps)``: ``steps`` is the int64 ``(n, gen_len)`` 0-based step,
    one per forward, counted across blocks, at which each position committed.
    """
    if not prompts:
        raise ValueError("need at least one prompt")
    if len(rngs) != len(prompts):
        raise ValueError(f"need one rng per prompt, got {len(prompts)} prompts "
                         f"and {len(rngs)} rngs")
    seq = Sequence(left_pad(prompts), np.full((len(rngs), cfg.gen_len), MASKED_TOKEN))
    layout = denoiser.Layout(params, seq)
    completion = layout.completion
    rows = np.arange(len(rngs))[:, None]
    # masked positions left in the active block at each step of a block
    lefts = range(cfg.block_size, 0, -cfg.unmask_per_step)
    # a step draws one uniform per such position from every stream;
    # Generator.random is split-invariant, so one call per stream for the
    # whole decode, sliced per step, draws what one call per step would
    uniforms = np.array([rng.random(cfg.gen_len // cfg.block_size * sum(lefts))
                         for rng in rngs])
    steps = np.full(completion.shape, -1)
    drawn = step = 0
    for start in range(0, cfg.gen_len, cfg.block_size):
        for left in lefts:
            # the still-masked positions of the block, ascending, per completion
            where = completion == MASKED_TOKEN
            where[:, start + cfg.block_size:] = False
            cand = denoiser.forward(params, denoiser.Rows(layout, where))[0].reshape(len(rngs), left, -1)
            active = np.nonzero(where)[1].reshape(len(rngs), left)
            tok = _sample_categorical(cand, cfg.temperature, uniforms[:, drawn:drawn + left])
            conf = np.exp(cand[rows, np.arange(left), tok])
            # highest confidence first; ties broken by lowest index
            best = np.lexsort((active, -conf))[:, :cfg.unmask_per_step]
            commit = active[rows, best]
            completion[rows, commit] = tok[rows, best]
            steps[rows, commit] = step
            drawn, step = drawn + left, step + 1
    return Sequence(seq.prompt, completion.copy()), steps
