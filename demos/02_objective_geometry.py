"""The geometry of the feedback objective.

Three things to see on a tiny synthetic batch:

1. the feedback loss and the matched quadratic have identical gradients but
   different forward values (full lambda vs lambda/2 on the penalty);
2. the fixed point sits at centered score = advantage / lambda, where the
   coefficients, the residual, and the gradient all vanish;
3. centering costs nothing in the forward value when advantages are
   zero-sum, but changes the gradient once scores drift off-center.
"""

import numpy as np

from rspo_lab.objectives import rspo_loss, weighted_gradient
from rspo_lab.oracle import quad_gradient, quad_loss
from rspo_lab.score import center_scores


def feedback_gradient(centered, adv, lam, grads):
    """Each completion's detached coefficient A - lam * centered times its
    score gradient, averaged with a minus sign."""
    return weighted_gradient(rspo_loss(centered, adv, lam)[1], grads)


def main():
    rng = np.random.default_rng(3)
    lam = 0.25
    adv = np.array([0.5, -0.5, 0.25, -0.25])
    grads = [rng.normal(size=6) for _ in range(4)]

    print("=== walking toward the fixed point ===")
    target = adv / lam
    print(f"lambda = {lam}, advantages = {adv}")
    print(f"fixed-point target for the centered scores: {target}")
    print(f"{'alpha':>6} {'loss':>10} {'quad':>10} {'|grad|':>10} {'residual':>10}")
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        deltas = alpha * target + (1 - alpha) * rng.normal(size=4) * 0.1
        centered = center_scores(deltas)
        loss, coeffs = rspo_loss(centered, adv, lam)
        quad = quad_loss(deltas, centered, adv, lam)
        g = weighted_gradient(coeffs, grads)
        res = np.abs(coeffs).max()  # the fixed-point residual
        print(f"{alpha:6.2f} {loss:10.4f} {quad:10.4f} {np.linalg.norm(g):10.2e} {res:10.2e}")
    g = feedback_gradient(center_scores(target), adv, lam, grads)
    print(f"  at the fixed point exactly: |grad| = {np.linalg.norm(g):.1e}")
    print()

    print("=== gradient agreement, forward disagreement ===")
    deltas = rng.normal(size=4)
    centered = center_scores(deltas)
    g_feedback = feedback_gradient(centered, adv, lam, grads)
    g_quad = quad_gradient(centered, adv, lam, grads)
    print(f"max |feedback grad - quad grad| = {np.max(np.abs(g_feedback - g_quad)):.2e}")
    pen_feedback, _ = rspo_loss(centered, np.zeros(4), lam)
    pen_quad = quad_loss(deltas, centered, np.zeros(4), lam)
    print(f"pure penalty terms: feedback {pen_feedback:.6f} vs quad {pen_quad:.6f} "
          f"(ratio {pen_feedback / pen_quad:.1f})")
    print()

    print("=== what centering does ===")
    shifted = rng.normal(size=4) + 3.0  # scores with a large common offset
    centered, raw = center_scores(shifted), center_scores(shifted, centering=False)
    on, _ = rspo_loss(centered, adv, 0.0)
    off, _ = rspo_loss(raw, adv, 0.0)
    print(f"advantage-weighted forward value, centered:   {on:.10f}")
    print(f"advantage-weighted forward value, uncentered: {off:.10f}")
    print("(identical: the offset is annihilated by zero-sum advantages)")
    g_on = feedback_gradient(centered, adv, lam, grads)
    g_off = feedback_gradient(raw, adv, lam, grads)
    print(f"but with lambda > 0 the gradients differ: "
          f"max gap {np.max(np.abs(g_on - g_off)):.3f}")


if __name__ == "__main__":
    main()
