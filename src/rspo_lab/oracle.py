"""Brute-force and closed-form oracles.

Everything here is a separate code path from the estimators it checks: a
per-position loop for the denoiser features and a one-sequence forward on
top of it, exhaustive mask enumeration for the sequence score, dynamic
programming for the exact reverse-chain likelihood, softmax optima for
KL-regularized improvement, exact KL computations, and the
surrogate-error bound, checked over a stack of trials in one call.  Both
likelihood oracles take their log-probabilities from that loop forward and
read only the parameter arrays of the model, so no oracle runs the
production denoiser code it checks.  Oracles run inside the test suite and
the audit command only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sequences import Sequence

MAX_ENUM_LC = 4
MAX_ENUM_STEPS = 4


def _check_tiny(l_c: int, steps: int | None = None) -> None:
    if l_c > MAX_ENUM_LC:
        raise ValueError(f"completion length {l_c} exceeds enumeration limits")
    if steps is not None and steps > MAX_ENUM_STEPS:
        raise ValueError(f"step count {steps} exceeds enumeration limits")


def mask_set_weight(positions: tuple[int, ...], l_c: int) -> float:
    """Probability of one nonempty mask set under the lab mask law.

    t ~ U(0,1] with independent Bernoulli(t) positions, conditioned on a
    nonempty draw: integral of t^m (1-t)^(L-m) dt over the Beta normalizer,
    divided by P(nonempty) = L/(L+1).
    """
    m = len(positions)
    beta = math.factorial(m) * math.factorial(l_c - m) / math.factorial(l_c + 1)
    return beta * (l_c + 1) / l_c


def loop_features(params, seq: Sequence) -> np.ndarray:
    """The denoiser's feature matrix (L_c, F), built position by position and
    neighbour by neighbour: position one-hot, the embedding of each visible
    token at offsets -window..-1, 1..window, then the masked fraction.  It
    takes one unpadded sequence: a prompt holding -1 raises ``ValueError``."""
    if seq.prompt.min(initial=0) < 0:
        raise ValueError("prompt must hold no -1 padding")
    pl, lc, total = seq.prompt_len, seq.completion_len, seq.total_len
    w, e = params.window, params.embed_dim
    full = np.concatenate([seq.prompt, seq.completion])
    visible = np.concatenate([np.ones(pl, dtype=bool), ~seq.masked])
    offsets = [o for o in range(-w, w + 1) if o != 0]
    x = np.zeros((lc, params.feature_dim), dtype=np.float64)
    for i in range(lc):
        pos = pl + i
        x[i, pos] = 1.0
        for slot, off in enumerate(offsets):
            j = pos + off
            if 0 <= j < total and visible[j]:
                lo = params.n_positions + slot * e
                x[i, lo:lo + e] = params.embed[int(full[j])]
        x[i, -1] = float(seq.masked.sum()) / lc
    return x


def loop_logprobs(params, seq: Sequence) -> np.ndarray:
    """The denoiser's log-probability table (L_c, size) of one completion:
    ``loop_features`` through the hidden layer and a row-wise log-softmax."""
    h = np.tanh(loop_features(params, seq) @ params.w1.T + params.b1)
    logits = h @ params.w2.T + params.b2
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))


def exact_elbo_expectation(params, seq: Sequence) -> float:
    """Analytic expectation of the Monte Carlo sequence score: closed-form
    time integrals summed over every nonempty mask set."""
    if not seq.is_clean():
        raise ValueError("expected a clean sequence")
    l_c = seq.completion_len
    _check_tiny(l_c)
    total = 0.0
    for m in range(1, l_c + 1):
        for positions in itertools.combinations(range(l_c), m):
            lp = loop_logprobs(params, seq.with_masked(positions))
            idx = np.asarray(positions, dtype=np.int64)
            term = (l_c / m) * lp[idx, seq.completion[idx]].sum()
            total += mask_set_weight(positions, l_c) * term
    return float(total)


def exact_sequence_loglik(params, seq: Sequence, steps: int) -> float:
    """Log marginal probability that the T-step reverse chain, started from
    an all-masked completion, produces exactly this completion.

    Dynamic programming over still-masked position subsets on the uniform
    time grid t_k = k/T with the linear schedule.
    """
    if not seq.is_clean():
        raise ValueError("expected a clean sequence")
    l_c = seq.completion_len
    _check_tiny(l_c, steps)
    if steps < 1:
        raise ValueError("need at least one reverse step")

    full = (1 << l_c) - 1
    prob = {full: 1.0}
    for k in range(steps, 0, -1):
        t = k / steps
        s = (k - 1) / steps
        stay = s / t
        nxt: dict[int, float] = {}
        for state, p in prob.items():
            if p == 0.0:
                continue
            positions = [i for i in range(l_c) if state >> i & 1]
            if not positions:
                nxt[state] = nxt.get(state, 0.0) + p
                continue
            lp = loop_logprobs(params, seq.with_masked(positions))
            fill = {i: math.exp(lp[i, seq.completion[i]]) for i in positions}
            # each masked position independently stays or fills with o^i
            for keep in _subsets(positions):
                keep_set = set(keep)
                weight = 1.0
                for i in positions:
                    if i in keep_set:
                        weight *= stay
                    else:
                        weight *= (1.0 - stay) * fill[i]
                child = 0
                for i in keep:
                    child |= 1 << i
                nxt[child] = nxt.get(child, 0.0) + p * weight
        prob = nxt
    p0 = prob.get(0, 0.0)
    return math.log(p0) if p0 > 0 else -math.inf


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def kl_regularized_optimum(pi_ref, rewards, beta: float):
    """Softmax optimum of KL-regularized improvement over an enumerable
    support, plus the ideal log-ratio per completion.

    Verifies that centering the log-ratios reproduces centered rewards
    scaled by 1/beta.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    pi_ref = np.asarray(pi_ref, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if pi_ref.shape != rewards.shape:
        raise ValueError("pi_ref and rewards must align")
    if np.any(pi_ref <= 0):
        raise ValueError("pi_ref must be strictly positive on its support")
    logits = np.log(pi_ref) + rewards / beta
    m = logits.max()
    log_z = m + math.log(np.exp(logits - m).sum())
    pi_star = np.exp(logits - log_z)
    delta_star = rewards / beta - log_z
    centered = delta_star - delta_star.mean()
    expected = (rewards - rewards.mean()) / beta
    if not (np.max(np.abs(centered - expected)) <= 1e-12):  # NaN fails too
        raise AssertionError("centered log-ratio identity violated")
    return pi_star, delta_star


def kl_proxy(p, q):
    """Exact forward and reverse KL plus half the variance of the log-ratio
    under p; nearby distributions make all three nearly equal."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    if np.any((p > 0) != (q > 0)):
        raise ValueError("supports differ")
    sup = p > 0
    ps, qs = p[sup], q[sup]
    log_ratio = np.log(qs) - np.log(ps)
    kl_pq = float(np.sum(ps * -log_ratio))
    kl_qp = float(np.sum(qs * log_ratio))
    mean = float(np.sum(ps * log_ratio))
    half_var = 0.5 * float(np.sum(ps * (log_ratio - mean) ** 2))
    return kl_pq, kl_qp, half_var


@dataclass(frozen=True)
class PerturbationBound:
    """Both sides of the two bounds: Python floats for one trial, arrays
    over the leading axes for a stack of trials."""

    lhs_aw: float | np.ndarray
    lhs_rspo: float | np.ndarray
    rhs_aw: float | np.ndarray
    rhs_rspo: float | np.ndarray


def perturbation_bound_check(a_tilde, r_hat, xi, lam: float) -> PerturbationBound:
    """Surrogate-error audit over the last axis, for any number of leading
    trial axes.

    Compares the advantage-weighted and feedback losses evaluated with ideal
    centered scores versus scores perturbed by per-sample errors bounded by
    eps, against the bounds 2*eps*||A|| and 2*eps*||A|| +
    lam*(4*eps*||R|| + 4*eps^2) in the batch norm.  A NaN or infinite side
    counts as a violation; the error names the first failing trial.
    """
    a = np.asarray(a_tilde, dtype=np.float64)
    r = np.asarray(r_hat, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if not (a.shape == r.shape == xi.shape):
        raise ValueError("inputs must align")
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError("need at least one sample on the last axis")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    eps = np.abs(xi).max(axis=-1)
    r = r - r.mean(axis=-1, keepdims=True)  # ideal scores are centered by definition
    xi_hat = xi - xi.mean(axis=-1, keepdims=True)
    d_hat = r + xi_hat

    def aw(x):
        return -np.mean(a * x, axis=-1)

    def rspo_forward(x):
        return -np.mean((a - lam * x) * x, axis=-1)

    def bnorm(x):
        return np.sqrt(np.mean(x**2, axis=-1))

    lhs_aw = np.abs(aw(d_hat) - aw(r))
    lhs_rspo = np.abs(rspo_forward(d_hat) - rspo_forward(r))
    rhs_aw = 2.0 * eps * bnorm(a)
    # np.square, not **: a float64 scalar's ** 2 goes through libm pow, which can
    # round eps^2 one ulp away from the array path
    rhs_rspo = rhs_aw + lam * (4.0 * eps * bnorm(r) + 4.0 * np.square(eps))
    slack = 1e-12 * np.maximum(1.0, rhs_rspo)
    bad = ~((lhs_aw <= rhs_aw + slack) & (lhs_rspo <= rhs_rspo + slack))
    if bad.any():
        j = tuple(int(i) for i in np.argwhere(bad)[0])
        where = "" if not j else f" at trial {j[0] if len(j) == 1 else j}"
        raise AssertionError(
            f"surrogate-error bound violated{where}: aw {lhs_aw[j]} vs {rhs_aw[j]}, "
            f"feedback {lhs_rspo[j]} vs {rhs_rspo[j]}"
        )
    if a.ndim == 1:
        return PerturbationBound(float(lhs_aw), float(lhs_rspo), float(rhs_aw), float(rhs_rspo))
    return PerturbationBound(lhs_aw, lhs_rspo, rhs_aw, rhs_rspo)


# ---------------------------------------------------------------------------
# task oracles
# ---------------------------------------------------------------------------


def countdown_solvable(numbers, target: int) -> bool:
    """Exhaustive search: can any expression over a nonempty sub-multiset of
    the numbers reach the target (exact division only)?  Every value reached
    is an int; each sub-multiset's reachable set is built once per call."""
    if target != int(target):  # 2.5 is never reached; NaN and inf raise
        return False
    memo: dict[tuple[int, ...], set[int]] = {}

    def reachable(values: tuple[int, ...]) -> set[int]:
        if values in memo:
            return memo[values]
        if len(values) == 1:
            return {values[0]}
        out: set[int] = set()
        n = len(values)
        seen_splits = set()
        for r in range(1, n):
            for combo in itertools.combinations(range(n), r):
                left = tuple(sorted(values[i] for i in combo))
                right = tuple(sorted(values[i] for i in range(n) if i not in combo))
                key = (left, right)
                if key in seen_splits:
                    continue
                seen_splits.add(key)
                right_values = reachable(right)
                for x in reachable(left):
                    for y in right_values:
                        out.add(x + y)
                        out.add(x - y)
                        out.add(y - x)
                        out.add(x * y)
                        if y != 0 and x % y == 0:
                            out.add(x // y)
                        if x != 0 and y % x == 0:
                            out.add(y // x)
        memo[values] = out
        return out

    nums = [int(v) for v in numbers]
    for r in range(1, len(nums) + 1):
        for combo in set(itertools.combinations(sorted(nums), r)):
            if target in reachable(combo):
                return True
    return False


@functools.cache
def all_sudoku4_grids() -> np.ndarray:
    """Every complete 4x4 grid satisfying row/column/box constraints, as one
    read-only (288, 4, 4) array; the brute-force scan runs once."""
    grids = []
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for rows in itertools.product(perms, repeat=4):
        g = np.asarray(rows, dtype=np.int64)
        ok = True
        for c in range(4):
            if len(set(g[:, c])) != 4:
                ok = False
                break
        if not ok:
            continue
        for br in (0, 2):
            for bc in (0, 2):
                if len(set(g[br:br + 2, bc:bc + 2].ravel())) != 4:
                    ok = False
        if ok:
            grids.append(g)
    catalogue = np.array(grids)
    catalogue.flags.writeable = False
    return catalogue


def sudoku4_solutions_by_enumeration(puzzle: np.ndarray) -> int:
    """Count solutions by scanning the full grid catalogue."""
    puzzle = np.asarray(puzzle, dtype=np.int64).reshape(4, 4)
    given = puzzle != 0
    return int((all_sudoku4_grids()[:, given] == puzzle[given]).all(axis=1).sum())
