"""Objective layer: group-relative advantages, relative-score feedback
weights and loss (at lam = 0, the advantage-weighted ablation), the matched
quadratic comparison objective, and analytic gradient assembly.

Convention: every objective is a detached per-completion coefficient times
the gradient of that completion's score, so one ``weighted_gradient``
assembles the update from externally supplied score gradients.
"""

from __future__ import annotations

import numpy as np

from .score import RelativeScoreBatch


ADV_EPSILON = 1e-4  # added to the group's reward std when normalizing


def group_advantages(rewards, normalize: bool = False) -> np.ndarray:
    """Zero-sum advantages for prompt groups along the last axis of
    ``rewards``: rewards minus their group's mean, optionally divided by the
    group's population reward std plus the stabilizer.  Zero-variance groups
    are retained (all advantages zero)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim < 1 or rewards.shape[-1] < 2:
        raise ValueError("group size must be >= 2")
    adv = rewards - rewards.mean(axis=-1, keepdims=True)
    if normalize:
        adv = adv / (rewards.std(axis=-1, keepdims=True) + ADV_EPSILON)
    return adv


def rspo_weights(advantages, centered, lam: float) -> np.ndarray:
    """Detached feedback weights: advantage minus lam times the centered
    score.  lam=0 reduces to plain advantage weighting."""
    advantages = np.asarray(advantages, dtype=np.float64)
    centered = np.asarray(centered, dtype=np.float64)
    if advantages.shape != centered.shape:
        raise ValueError("advantages and centered scores must align")
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    return advantages - lam * centered


def rspo_loss(batch: RelativeScoreBatch, advantages, lam: float) -> tuple[float, np.ndarray]:
    """Feedback loss, minus the batch mean of weight times centered score,
    and its coefficients: the weights, forward values of the residual
    treated as constants in any gradient computation."""
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != batch.centered.shape:
        raise ValueError("advantages must align with the score batch")
    w = rspo_weights(advantages, batch.centered, lam)
    return -float(np.mean(w * batch.centered)), w


def quad_loss(batch: RelativeScoreBatch, advantages, lam: float) -> float:
    """Matched quadratic objective: -<A, delta>_B + (lam/2)||centered||^2_B."""
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != batch.deltas.shape:
        raise ValueError("advantages must align with the score batch")
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    linear = -float(np.mean(advantages * batch.deltas))
    return linear + 0.5 * lam * float(np.mean(batch.centered**2))


def weighted_gradient(coeffs, score_grads) -> np.ndarray:
    """Analytic gradient of a detached-coefficient objective:
    -(1/N) sum_i c_i grad_delta_i, accumulated in sample-index order for
    bit-reproducibility.  RSPO's coefficients are ``rspo_weights``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    grads = [np.asarray(g, dtype=np.float64) for g in score_grads]
    if len(grads) != coeffs.size:
        raise ValueError("need one score gradient per sample")
    total = np.zeros_like(grads[0])
    for c, g in zip(coeffs, grads):
        total += c * g
    return -total / coeffs.size


def quad_gradient(
    batch: RelativeScoreBatch,
    advantages,
    lam: float,
    score_grads,
) -> np.ndarray:
    """Gradient of the matched quadratic objective, assembled term by term
    (linear part plus penalty part) from the same score gradients."""
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    advantages = np.asarray(advantages, dtype=np.float64)
    grads = [np.asarray(g, dtype=np.float64) for g in score_grads]
    n = advantages.size
    if len(grads) != n:
        raise ValueError("need one score gradient per sample")
    linear = np.zeros_like(grads[0])
    penalty = np.zeros_like(grads[0])
    for a, c, g in zip(advantages, batch.centered, grads):
        linear += a * g
        penalty += c * g
    return -linear / n + lam * penalty / n


def fixed_point_residual(batch: RelativeScoreBatch, advantages, lam: float) -> float:
    """max_i |A_i - lam * centered_i|; zero iff the feedback weights vanish."""
    if not 0.0 < lam < np.inf:  # NaN fails too
        raise ValueError(f"fixed-point residual requires finite lam > 0, got {lam!r}")
    advantages = np.asarray(advantages, dtype=np.float64)
    return float(np.max(np.abs(advantages - lam * batch.centered)))
