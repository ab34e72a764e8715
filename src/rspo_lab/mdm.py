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


def _sample_from_logprobs(logprobs: np.ndarray, temperature: float, u: float) -> int:
    """Inverse-CDF draw from a temperature-adjusted categorical."""
    if temperature == 0.0:
        return int(np.argmax(logprobs))
    scaled = logprobs / temperature
    scaled = scaled - scaled.max()
    p = np.exp(scaled)
    p /= p.sum()
    return int(np.searchsorted(np.cumsum(p), u, side="right").clip(0, len(p) - 1))


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
    z_s = z_t.copy()
    for i in np.flatnonzero(z_t.masked):
        if rng.random() < stay:
            continue
        z_s.completion[i] = _sample_from_logprobs(logprobs[i], 1.0, rng.random())
        z_s.masked[i] = False
    return z_s


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
    seq = Sequence(
        prompt=np.asarray(prompt, dtype=np.int64),
        completion=np.full(cfg.gen_len, MASKED_TOKEN, dtype=np.int64),
        masked=np.ones(cfg.gen_len, dtype=bool),
    )
    for start in range(0, cfg.gen_len, cfg.block_size):
        block = np.arange(start, start + cfg.block_size)
        while seq.masked[block].any():
            logprobs = params.logprobs(seq)
            active = block[seq.masked[block]]
            cands = []
            for i in active:
                u = rng.random()
                tok = _sample_from_logprobs(logprobs[i], cfg.temperature, u)
                conf = float(np.exp(logprobs[i, tok]))
                cands.append((i, tok, conf))
            # highest confidence first; ties broken by lowest index
            cands.sort(key=lambda c: (-c[2], c[0]))
            for i, tok, _ in cands[: cfg.unmask_per_step]:
                seq.completion[i] = tok
                seq.masked[i] = False
    return seq


def sample_completion_group(
    params: DenoiserParams,
    prompt: np.ndarray,
    group_size: int,
    cfg: DecodeConfig,
    rng: np.random.Generator,
) -> list[Sequence]:
    """Decode ``group_size`` completions on independent child RNG streams."""
    if group_size < 2:
        raise ValueError("group size must be >= 2 for a relative signal")
    children = rng.spawn(group_size)
    return [decode_semi_ar(params, prompt, cfg, child) for child in children]
