"""Masked diffusion core: noise schedule, corruption, reverse-step sampling,
and semi-autoregressive confidence decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sequences import MASKED_TOKEN, Sequence


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
    seed: int = 0

    def __post_init__(self):
        if self.gen_len % self.block_size != 0:
            raise ValueError("block_size must divide gen_len")
        if self.unmask_per_step < 1:
            raise ValueError("unmask_per_step must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


def forward_mask(y: Sequence, t: float, rng: np.random.Generator) -> Sequence:
    """Corrupt a clean sequence: each completion token is independently
    replaced by the mask with probability 1 - alpha(t).  The prompt is never
    masked."""
    if not y.is_clean():
        raise ValueError("forward_mask expects a clean sequence")
    p_mask = 1.0 - alpha_linear(t)
    hit = rng.random(y.completion_len) < p_mask
    z = y.copy()
    z.masked[:] = hit
    z.completion[hit] = MASKED_TOKEN
    return z


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
    logprobs = params.logprobs(z_t)
    # per masked position in order: the stay draw, then the token draw if it moves
    fill, us = [], []
    for i in np.flatnonzero(z_t.masked):
        if rng.random() >= stay:
            fill.append(i)
            us.append(rng.random())
    fill = np.asarray(fill, dtype=np.int64)
    z_s = z_t.copy()
    z_s.completion[fill] = _sample_categorical(logprobs[fill], 1.0, np.asarray(us))
    z_s.masked[fill] = False
    return z_s


def _unmask(params, prompt: np.ndarray, shape: tuple[int, ...], cfg: DecodeConfig,
            rngs) -> Sequence:
    """Confidence-decode fully masked completions of ``shape``: (gen_len,)
    for one, (len(rngs), gen_len) for a stack decoded in lockstep;
    completion ``b`` draws from ``rngs[b]``.

    Every step commits ``min(unmask_per_step, still masked)`` positions of
    the active block in every completion, so all completions keep the same
    number of masked positions and share one stacked forward per step.
    """
    seq = Sequence(prompt, np.full(shape, MASKED_TOKEN), np.ones(shape, dtype=bool))
    # (completions, gen_len) views: one row per completion
    completion = seq.completion.reshape(len(rngs), cfg.gen_len)
    masked = seq.masked.reshape(len(rngs), cfg.gen_len)
    rows = np.arange(len(rngs))[:, None]
    for start in range(0, cfg.gen_len, cfg.block_size):
        left = cfg.block_size
        while left:
            logprobs = params.logprobs(seq).reshape(len(rngs), cfg.gen_len, -1)
            # the still-masked positions of the block, ascending, per completion
            block = masked[:, start:start + cfg.block_size]
            active = start + np.nonzero(block)[1].reshape(len(rngs), left)
            u = np.array([rng.random(left) for rng in rngs])
            cand = logprobs[rows, active]
            tok = _sample_categorical(cand, cfg.temperature, u)
            conf = np.exp(cand[rows, np.arange(left), tok])
            # highest confidence first; ties broken by lowest index
            best = np.lexsort((active, -conf))[:, :cfg.unmask_per_step]
            commit = active[rows, best]
            completion[rows, commit] = tok[rows, best]
            masked[rows, commit] = False
            left -= best.shape[1]
    return seq


def decode_semi_ar(
    params: DenoiserParams,
    prompt: np.ndarray,
    cfg: DecodeConfig,
    rng: np.random.Generator | None = None,
) -> Sequence:
    """Block-wise confidence decoding.

    Starts fully masked and proceeds block by block.  Each step samples
    candidate tokens at the masked positions of the active block (temperature
    0 means argmax) and commits the ``unmask_per_step`` positions whose
    sampled token has the highest denoiser probability, breaking ties by
    lowest position index.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return _unmask(params, prompt, (cfg.gen_len,), cfg, [rng])


def sample_completion_group(
    params: DenoiserParams,
    prompt: np.ndarray,
    group_size: int,
    cfg: DecodeConfig,
    rng: np.random.Generator,
) -> list[Sequence]:
    """Decode ``group_size`` completions in lockstep, each on its own child
    RNG stream; each equals ``decode_semi_ar`` on that stream."""
    if group_size < 2:
        raise ValueError("group size must be >= 2 for a relative signal")
    stack = _unmask(params, prompt, (group_size, cfg.gen_len), cfg, rng.spawn(group_size))
    return [Sequence(stack.prompt, completion) for completion in stack.completion]
