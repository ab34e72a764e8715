"""Objective layer: group-relative advantages, relative-score feedback
weights and loss (at lam = 0, the advantage-weighted ablation), the matched
quadratic comparison objective, and analytic gradient assembly.

Convention: feedback weights are detached quantities.  Differentiation
passes only through the per-sample score factor, which is why the analytic
gradient is assembled from externally supplied score gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .score import RelativeScoreBatch


ADV_EPSILON = 1e-4  # added to the group's reward std when normalizing


@dataclass
class LossOutput:
    loss: float
    weights: np.ndarray
    decomposition: dict = field(default_factory=dict)


def group_advantages(rewards, normalize: bool = False) -> np.ndarray:
    """Zero-sum advantages for one prompt group: rewards minus the group
    mean, optionally divided by the population reward std plus the
    stabilizer.  Zero-variance groups are retained (all advantages zero)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size < 2:
        raise ValueError("group size must be >= 2")
    adv = rewards - rewards.mean()
    if normalize:
        adv = adv / (rewards.std() + ADV_EPSILON)
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


def rspo_loss(batch: RelativeScoreBatch, advantages, lam: float) -> LossOutput:
    """Feedback loss: minus the batch mean of weight times centered score.

    Weights are forward values of the residual, treated as constants in any
    gradient computation.
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != batch.centered.shape:
        raise ValueError("advantages must align with the score batch")
    w = rspo_weights(advantages, batch.centered, lam)
    loss = -float(np.mean(w * batch.centered))
    return LossOutput(loss=loss, weights=w)


def quad_loss(batch: RelativeScoreBatch, advantages, lam: float) -> LossOutput:
    """Matched quadratic objective: -<A, delta>_B + (lam/2)||centered||^2_B.

    For lam > 0 the completed-square decomposition is reported and the
    identity is verified to 1e-12.
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != batch.deltas.shape:
        raise ValueError("advantages must align with the score batch")
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    linear = -float(np.mean(advantages * batch.deltas))
    penalty = 0.5 * lam * float(np.mean(batch.centered**2))
    value = linear + penalty
    w = rspo_weights(advantages, batch.centered, lam)
    out = LossOutput(loss=value, weights=w)
    if lam > 0:
        square = 0.5 * lam * float(np.mean((batch.centered - advantages / lam) ** 2))
        const = -float(np.mean(advantages**2)) / (2.0 * lam)
        cross = -batch.center * float(np.mean(advantages))
        recon = square + const + cross
        if abs(recon - value) > 1e-12 * max(1.0, abs(value)):
            raise AssertionError(
                f"completed-square identity violated: {recon} vs {value}"
            )
        out.decomposition = {"square": square, "const": const, "center_cross": cross}
    return out


def rspo_gradient(
    batch: RelativeScoreBatch,
    advantages,
    lam: float,
    score_grads,
) -> np.ndarray:
    """Analytic gradient: -(1/N) sum_i (A_i - lam * centered_i) grad_delta_i.

    Accumulated in sample-index order for bit-reproducibility.
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    grads = [np.asarray(g, dtype=np.float64) for g in score_grads]
    n = advantages.size
    if len(grads) != n:
        raise ValueError("need one score gradient per sample")
    coeffs = rspo_weights(advantages, batch.centered, lam)
    total = np.zeros_like(grads[0])
    for c, g in zip(coeffs, grads):
        total += c * g
    return -total / n


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
