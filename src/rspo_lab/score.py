"""ELBO-based sequence scoring with coupled masks and detached centering.

Scores are likelihood-oriented throughout: a larger value means the model
assigns higher estimated likelihood to the completion.  Centering subtracts
the micro-batch mean as a constant; gradients of centered scores equal
gradients of raw scores by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams, denoiser_logprobs, logprob_sum_grad
from .sequences import Sequence


@dataclass(frozen=True)
class MaskSample:
    """One Monte Carlo corruption: a noise time and a nonempty position set."""

    t: float
    positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) == 0:
            raise ValueError("mask position set must be nonempty")
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"mask time t={self.t} outside (0, 1]")


@dataclass
class ElboEstimate:
    value: float
    k: int
    terms: np.ndarray


@dataclass
class RelativeScoreBatch:
    deltas: np.ndarray
    center: float
    centered: np.ndarray


def sample_mask_sets(l_c: int, k: int, rng: np.random.Generator) -> list[MaskSample]:
    """Draw ``k`` masks: each takes t ~ U(0,1] and an independent Bernoulli(t)
    mask over completion positions, resampling both until the set is
    nonempty."""
    if l_c < 1:
        raise ValueError("completion length must be >= 1")
    if k < 1:
        raise ValueError("need k >= 1 mask samples")
    out: list[MaskSample] = []
    while len(out) < k:
        n = k - len(out)
        ts = 1.0 - rng.random(n)
        hits = rng.random((n, l_c)) < ts[:, None]
        for row in range(n):
            pos = np.flatnonzero(hits[row])
            if pos.size:
                out.append(MaskSample(t=float(ts[row]), positions=tuple(int(i) for i in pos)))
    return out


def elbo_score(params: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> ElboEstimate:
    """Monte Carlo sequence score: average over masks of the mask-size
    reweighted sum of denoising log-probabilities at masked positions."""
    if not masks:
        raise ValueError("need at least one mask sample")
    if not seq.is_clean():
        raise ValueError("elbo_score expects a clean sequence")
    l_c = seq.completion_len

    # one denoiser evaluation per distinct position set
    cache: dict[tuple[int, ...], np.ndarray] = {}
    terms = np.empty(len(masks), dtype=np.float64)
    for j, m in enumerate(masks):
        lp = cache.get(m.positions)
        if lp is None:
            lp = denoiser_logprobs(params, seq.with_masked(m.positions))
            cache[m.positions] = lp
        idx = np.asarray(m.positions, dtype=np.int64)
        terms[j] = (l_c / idx.size) * lp[idx, seq.completion[idx]].sum()
    return ElboEstimate(value=float(terms.mean()), k=len(masks), terms=terms)


def elbo_grad(params: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> np.ndarray:
    """Gradient w.r.t. theta of the elbo_score value under fixed masks."""
    if not masks:
        raise ValueError("need at least one mask sample")
    l_c = seq.completion_len
    grad = np.zeros_like(params.theta)
    for m in masks:
        idx = np.asarray(m.positions, dtype=np.int64)
        g = logprob_sum_grad(params, seq.with_masked(m.positions), idx, seq.completion[idx])
        grad += (l_c / idx.size) * g
    return grad / len(masks)


def coupled_delta(
    params_cur: DenoiserParams,
    params_ref: DenoiserParams | None,
    seq: Sequence,
    masks: list[MaskSample],
) -> float:
    """Per-token current-reference score difference under shared masks.

    The same mask draws evaluate both models, so identical parameters give
    exactly zero.  Without a reference (``params_ref`` None) the result is
    the per-token current score.
    """
    cur = elbo_score(params_cur, seq, masks).value
    if params_ref is None:
        return cur / seq.completion_len
    ref = elbo_score(params_ref, seq, masks).value
    return (cur - ref) / seq.completion_len


def delta_grad(params_cur: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> np.ndarray:
    """Gradient of the coupled score difference; only the current model side
    depends on theta."""
    return elbo_grad(params_cur, seq, masks) / seq.completion_len


def center_scores(deltas) -> RelativeScoreBatch:
    """Subtract the detached micro-batch mean.  The center is a constant in
    any gradient computation; centered values sum to zero in the forward
    pass."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size < 2:
        raise ValueError("centering needs a batch of at least 2 scores")
    center = float(deltas.mean())
    return RelativeScoreBatch(deltas=deltas, center=center, centered=deltas - center)


def uncentered_scores(deltas) -> RelativeScoreBatch:
    """Ablation constructor: raw deltas pass through (center fixed at zero)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    return RelativeScoreBatch(deltas=deltas, center=0.0, centered=deltas.copy())


def var_delta(batch: RelativeScoreBatch) -> float:
    """Population variance of the raw deltas; the stability diagnostic."""
    if batch.deltas.size < 2:
        raise ValueError("variance needs at least 2 scores")
    return float(np.var(batch.deltas))


def batch_mean_offset(batch: RelativeScoreBatch) -> float:
    """Mean of the values the loss actually sees.  Near zero with centering
    on; the mean raw delta with centering off."""
    return float(batch.centered.mean())
