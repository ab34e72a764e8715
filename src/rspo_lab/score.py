"""ELBO-based sequence scoring with coupled masks and detached centering.

Scores are likelihood-oriented throughout: a larger value means the model
assigns higher estimated likelihood to the completion.  Centering subtracts
the micro-batch mean as a constant; gradients of centered scores equal
gradients of raw scores by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# logprob_sum_grad stays importable from score, where the benchmark's tracer wraps it
from .denoiser import (DenoiserParams, backward, denoiser_logprobs, forward,  # noqa: F401
                       logprob_sum_grad)
from .sequences import MASKED_TOKEN, Sequence


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


class _MaskStack:
    """A clean sequence corrupted at each distinct position set of ``masks``,
    stacked so that one denoiser forward scores every set once."""

    def __init__(self, seq: Sequence, masks: list[MaskSample]):
        if not masks:
            raise ValueError("need at least one mask sample")
        if not seq.is_clean():
            raise ValueError("scoring expects a clean sequence")
        sets = list(dict.fromkeys(m.positions for m in masks))
        index = {s: j for j, s in enumerate(sets)}
        self.which = np.array([index[m.positions] for m in masks])
        self.sets = [np.asarray(s, dtype=np.int64) for s in sets]
        masked = np.zeros((len(sets), seq.completion_len), dtype=bool)
        for j, idx in enumerate(self.sets):
            masked[j, idx] = True
        self.stack = Sequence(seq.prompt, np.where(masked, MASKED_TOKEN, seq.completion), masked)
        self.clean = seq.completion

    def terms(self, logprobs: np.ndarray) -> np.ndarray:
        """Per-mask terms from the stack's log-probability tables: the
        mask-size reweighted log-probability sum of the clean tokens."""
        l_c = self.clean.size
        by_set = np.array([(l_c / idx.size) * logprobs[j, idx, self.clean[idx]].sum()
                           for j, idx in enumerate(self.sets)])
        return by_set[self.which]

    def grad(self, params: DenoiserParams, fwd, scale: float) -> np.ndarray:
        """Gradient of ``scale`` times the mean term, by one backward through
        the stack's forward ``fwd``."""
        l_c, k = self.clean.size, self.which.size
        counts = np.bincount(self.which, minlength=len(self.sets))
        rows = np.concatenate([j * l_c + idx for j, idx in enumerate(self.sets)])
        positions = np.concatenate(self.sets)
        weights = np.concatenate([np.full(idx.size, scale * c * (l_c / idx.size) / k)
                                  for c, idx in zip(counts, self.sets)])
        return backward(params, fwd, rows, self.clean[positions], weights)


def elbo_score(params: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> ElboEstimate:
    """Monte Carlo sequence score: average over masks of the mask-size
    reweighted sum of denoising log-probabilities at masked positions."""
    stack = _MaskStack(seq, masks)
    terms = stack.terms(denoiser_logprobs(params, stack.stack))
    return ElboEstimate(value=float(terms.mean()), k=len(masks), terms=terms)


def elbo_grad(params: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> np.ndarray:
    """Gradient w.r.t. theta of the elbo_score value under fixed masks."""
    stack = _MaskStack(seq, masks)
    return stack.grad(params, forward(params, stack.stack), 1.0)


def _per_token_delta(cur: float, params_ref: DenoiserParams | None, seq: Sequence,
                     masks: list[MaskSample]) -> float:
    if params_ref is None:
        return cur / seq.completion_len
    return (cur - elbo_score(params_ref, seq, masks).value) / seq.completion_len


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
    return _per_token_delta(elbo_score(params_cur, seq, masks).value, params_ref, seq, masks)


def delta_grad(params_cur: DenoiserParams, seq: Sequence, masks: list[MaskSample]) -> np.ndarray:
    """Gradient of the coupled score difference; only the current model side
    depends on theta."""
    return elbo_grad(params_cur, seq, masks) / seq.completion_len


def coupled_delta_and_grad(
    params_cur: DenoiserParams,
    params_ref: DenoiserParams | None,
    seq: Sequence,
    masks: list[MaskSample],
) -> tuple[float, np.ndarray]:
    """``coupled_delta`` and ``delta_grad`` together: the current model's
    stacked forward gives both its score and, through one backward, the
    gradient."""
    stack = _MaskStack(seq, masks)
    fwd = forward(params_cur, stack.stack)
    cur = float(stack.terms(fwd[0]).mean())
    return (_per_token_delta(cur, params_ref, seq, masks),
            stack.grad(params_cur, fwd, 1.0 / seq.completion_len))


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
