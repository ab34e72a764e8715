"""Objective layer: group-relative advantages, the relative-score feedback
loss and its coefficients (at lam = 0, the advantage-weighted ablation), and
analytic gradient assembly.  The matched quadratic objective whose gradient
the feedback gradient equals is a reference, ``oracle.quad_loss``.

Convention: every objective is a detached per-completion coefficient times
the gradient of that completion's score, so one ``weighted_gradient``
assembles the update from externally supplied score gradients.  Scores,
advantages and coefficients are plain float64 arrays, one entry per
completion.
"""

from __future__ import annotations

import numpy as np


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


def rspo_loss(centered, advantages, lam: float) -> tuple[float, np.ndarray]:
    """Feedback loss, minus the batch mean of coefficient times centered
    score, and its coefficients ``A - lam * centered``: forward values of the
    residual, treated as constants in any gradient computation.  lam = 0
    reduces them to plain advantage weighting; ``np.abs(coeffs).max()`` is the
    fixed-point residual, zero iff every coefficient vanishes."""
    centered = np.asarray(centered, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if centered.shape != advantages.shape:
        raise ValueError("scores and advantages must align")
    if not centered.size:
        raise ValueError("the batch is empty")
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    w = advantages - lam * centered
    return -float(np.mean(w * centered)), w


def weighted_gradient(coeffs, score_grads) -> np.ndarray:
    """Analytic gradient of a detached-coefficient objective:
    -(1/N) sum_i c_i grad_delta_i, accumulated in sample-index order for
    bit-reproducibility.  RSPO's coefficients are ``rspo_loss``'s second
    value."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    grads = [np.asarray(g, dtype=np.float64) for g in score_grads]
    if len(grads) != coeffs.size:
        raise ValueError("need one score gradient per sample")
    if not grads:
        raise ValueError("the batch is empty")
    total = np.zeros_like(grads[0])
    for c, g in zip(coeffs, grads):
        total += c * g
    return -total / coeffs.size
