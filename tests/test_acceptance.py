"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS line on success (a failed assertion shows up as the
usual pytest FAIL for that criterion).  Long-running artifacts (the two
500-step training traces) are shared session fixtures.
"""

import math
import time

import numpy as np
import pytest

from conftest import central_diff, stack_of, tiny_params, tiny_sequence
from rspo_lab import harness, objectives, oracle, score
from rspo_lab.harness import RunConfig, init_state, run_experiment, train_step


def smoke_cfg(**kw):
    base = dict(
        task="arith", modulus=5, gen_len=2, block_size=2, unmask_per_step=2,
        lr=1e-2, group_size=6, groups_per_batch=4, k_masks=2, lam=0.01,
        seed=5, checkpoint_every=0,
    )
    base.update(kw)
    return RunConfig(**base)


def run_steps(cfg, n_steps, collect_sums=False):
    """Drive train_step directly; optionally record per-step centered-score
    and weight sums straight out of the loss call."""
    state = init_state(cfg)
    metrics, sums = [], []
    real = objectives.rspo_loss

    def spy(centered, adv, lam):
        loss, coeffs = real(centered, adv, lam)
        sums.append((abs(float(centered.sum())),
                     abs(float(coeffs.sum()))))
        return loss, coeffs

    if collect_sums:
        harness.objectives.rspo_loss = spy
    try:
        for _ in range(n_steps):
            state, m = train_step(state, cfg)
            metrics.append(m)
    finally:
        if collect_sums:
            harness.objectives.rspo_loss = real
    return state, metrics, sums


@pytest.fixture(scope="session")
def trace_centering_on():
    return run_steps(smoke_cfg(centering=True), 500, collect_sums=True)


@pytest.fixture(scope="session")
def trace_centering_off():
    return run_steps(smoke_cfg(centering=False), 500)


def feedback_gradient(centered, adv, lam, grads):
    """The feedback gradient as train_step assembles it."""
    return objectives.weighted_gradient(objectives.rspo_loss(centered, adv, lam)[1], grads)


def residual_of(centered, adv, lam):
    """The fixed-point residual max_i |A_i - lam * centered_i|, the largest
    feedback coefficient in magnitude."""
    return float(np.abs(objectives.rspo_loss(centered, adv, lam)[1]).max())


def zero_sum_adv(rng, n):
    a = rng.normal(size=n)
    return a - a.mean()


# criterion 1 -----------------------------------------------------------


def test_criterion_01_gradient_identity(rng):
    # analytic feedback gradient vs central differences through the full
    # score pipeline; weights and center frozen at the base point because
    # they are detached constants of the loss
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        params = tiny_params(seed=trial)
        ref = tiny_params(seed=trial + 1000)
        seqs = stack_of([tiny_sequence(rng) for _ in range(3)])
        mask_sets = score.sample_mask_sets(seqs.completion_len, 2, rng, len(seqs.completion))
        lam = float(rng.choice([0.0, 0.01, 0.1]))
        adv = zero_sum_adv(rng, 3)

        ref_terms = score.elbo_terms(ref, seqs, mask_sets)

        def deltas_at(theta):
            cur_terms = score.elbo_terms(params.replace_theta(theta), seqs, mask_sets)
            return np.array([
                (float(a.mean()) - float(b.mean())) / seqs.completion_len
                for a, b in zip(cur_terms, ref_terms)
            ])

        d0 = deltas_at(params.theta)
        centered = score.center_scores(d0)
        _, grads = score.coupled_deltas_and_grads(params, ref, seqs, mask_sets)
        grad = feedback_gradient(centered, adv, lam, grads)

        _, w0 = objectives.rspo_loss(centered, adv, lam)
        c0 = float(d0.mean())

        def loss_frozen(theta):
            return -float(np.mean(w0 * (deltas_at(theta) - c0)))

        fd = central_diff(loss_frozen, params.theta)
        denom = np.maximum(1e-8, np.maximum(np.abs(fd), np.abs(grad)))
        worst = max(worst, float(np.max(np.abs(fd - grad) / denom)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 60.0
    print(f"PASS criterion-01 gradient-identity (max rel err {worst:.2e}, {elapsed:.1f}s)")


# criterion 2 -----------------------------------------------------------


def test_criterion_02_first_order_equivalence(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        centered = score.center_scores(rng.normal(size=n))
        adv = zero_sum_adv(rng, n)
        lam = float(rng.uniform(0, 1))
        grads = [rng.normal(size=7) for _ in range(n)]
        a = feedback_gradient(centered, adv, lam, grads)
        b = oracle.quad_gradient(centered, adv, lam, grads)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12
    print(f"PASS criterion-02 first-order-equivalence (max abs diff {worst:.2e})")


# criterion 3 -----------------------------------------------------------


def test_criterion_03_reference_point_equality(rng):
    # real pipeline with current model equal to the reference
    params = tiny_params(seed=9)
    seqs = stack_of([tiny_sequence(rng) for _ in range(4)])
    mask_sets = score.sample_mask_sets(seqs.completion_len, 2, rng, len(seqs.completion))
    deltas, grads = score.coupled_deltas_and_grads(params, params.copy(), seqs, mask_sets)
    assert all(d == 0.0 for d in deltas)
    centered = score.center_scores(deltas)
    adv = objectives.group_advantages([1.0, 0.0, 0.0, 1.0])
    g_feedback = feedback_gradient(centered, adv, 0.01, grads)
    g_aw = feedback_gradient(centered, adv, 0.0, grads)
    assert np.array_equal(g_feedback, g_aw)

    # centering is a no-op in the advantage-weighted forward value when
    # the advantages sum to zero
    worst = 0.0
    for _ in range(50):
        d = rng.normal(size=6) + rng.normal()
        adv = zero_sum_adv(rng, 6)
        on, _ = objectives.rspo_loss(score.center_scores(d), adv, 0.0)
        off, _ = objectives.rspo_loss(score.center_scores(d, centering=False), adv, 0.0)
        worst = max(worst, abs(on - off))
    assert worst <= 1e-12
    print(f"PASS criterion-03 reference-point-equality (forward gap {worst:.2e})")


# criterion 4 -----------------------------------------------------------


def test_criterion_04_fixed_point(rng):
    lam = 0.25
    adv = np.array([0.5, -0.5, 0.25, -0.25])  # dyadic, exactly zero-sum
    centered = score.center_scores(adv / lam)
    grads = [rng.normal(size=8) for _ in range(4)]
    grad = feedback_gradient(centered, adv, lam, grads)
    assert float(np.linalg.norm(grad)) <= 1e-12
    assert residual_of(centered, adv, lam) <= 1e-12

    # converse on a full-rank synthetic linear score model delta = G theta:
    # the gradient is -(1/N) G^T c, so sigma_min(G) converts a gradient
    # norm bound into a residual bound
    n, dim = 4, 10
    g_mat = rng.normal(size=(n, dim))
    sigma_min = float(np.linalg.svd(g_mat, compute_uv=False)[-1])
    assert sigma_min > n * 1e-10 / 1e-8  # makes 1e-10 -> 1e-8 conversion valid
    theta_star, *_ = np.linalg.lstsq(g_mat, adv / lam, rcond=None)
    row_grads = list(g_mat)

    def state_at(theta):
        centered = score.center_scores(g_mat @ theta)
        grad = feedback_gradient(centered, adv, lam, row_grads)
        residual = residual_of(centered, adv, lam)
        return float(np.linalg.norm(grad)), residual

    gnorm, residual = state_at(theta_star)
    assert gnorm <= 1e-10
    assert residual <= 1e-8
    for _ in range(20):
        gnorm, residual = state_at(theta_star + rng.normal(size=dim) * 1e-6)
        assert residual <= n * gnorm / sigma_min + 1e-12
    print(f"PASS criterion-04 fixed-point (converse residual {residual:.2e})")


# criterion 5 -----------------------------------------------------------


def test_criterion_05_zero_sum(trace_centering_on):
    _, metrics, sums = trace_centering_on
    assert len(sums) == 500
    worst_centered = max(s[0] for s in sums)
    worst_weights = max(s[1] for s in sums)
    assert worst_centered <= 1e-12
    assert worst_weights <= 1e-12
    print(f"PASS criterion-05 zero-sum (|sum centered| {worst_centered:.2e}, "
          f"|sum weights| {worst_weights:.2e})")


# criterion 6 -----------------------------------------------------------


def test_criterion_06_estimator_exactness(rng):
    for trial in range(20):
        params = tiny_params(seed=200 + trial)
        seq = tiny_sequence(rng)
        exact = oracle.exact_elbo_expectation(params, seq)
        masks = score.sample_mask_sets(seq.completion_len, 100_000, rng)
        (terms,) = score.elbo_terms(params, seq, masks)
        se = float(terms.std(ddof=1)) / math.sqrt(terms.size)
        assert abs(float(terms.mean()) - exact) <= 3 * se, f"instance {trial}"
        # identical models cancel exactly under shared masks
        masks = score.sample_mask_sets(seq.completion_len, 2, rng)
        (delta,), _ = score.coupled_deltas_and_grads(params, params.copy(), seq, masks)
        assert delta == 0.0
    print("PASS criterion-06 estimator-exactness (20 instances within 3 SE)")


# criterion 7 -----------------------------------------------------------


def test_criterion_07_kl_proxy(rng):
    p = rng.dirichlet(np.ones(8))
    f = rng.normal(size=8)
    f -= np.sum(p * f)
    eps_grid = np.array([0.04, 0.02, 0.01, 0.005])
    errs = []
    for eps in eps_grid:
        q = p * (1.0 + eps * f)
        q = q / q.sum()
        kl_pq, _, half_var = oracle.kl_proxy(p, q)
        errs.append(abs(kl_pq - half_var))
    slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
    assert 2.7 <= slope <= 3.3

    kl_pq, _, _ = oracle.kl_proxy([0.5, 0.5], [0.51, 0.49])
    by_hand = 0.5 * math.log(0.5 / 0.51) + 0.5 * math.log(0.5 / 0.49)
    assert abs(kl_pq - by_hand) <= 1e-8
    print(f"PASS criterion-07 kl-proxy (slope {slope:.3f})")


# criterion 8 -----------------------------------------------------------


def test_criterion_08_perturbation_bound(rng):
    for _ in range(10_000):
        n = int(rng.integers(2, 10))
        a = zero_sum_adv(rng, n)
        r = rng.normal(size=n)
        xi = rng.uniform(-1, 1, size=n) * float(rng.uniform(0, 1))
        lam = float(rng.uniform(0, 0.5))
        oracle.perturbation_bound_check(a, r, xi, lam)  # raises on violation
    print("PASS criterion-08 perturbation-bound (10000 trials)")


# criterion 9 -----------------------------------------------------------


def test_criterion_09_centered_kl_target(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        pi_ref = rng.dirichlet(np.ones(n))
        rewards = rng.normal(size=n) * float(rng.uniform(0.1, 5))
        beta = float(rng.uniform(0.05, 10))
        _, delta_star = oracle.kl_regularized_optimum(pi_ref, rewards, beta)
        gap = np.abs((delta_star - delta_star.mean())
                     - (rewards - rewards.mean()) / beta)
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12
    print(f"PASS criterion-09 centered-kl-target (max gap {worst:.2e})")


# criterion 10 ----------------------------------------------------------


def test_criterion_10_centering_ablation(trace_centering_on, trace_centering_off):
    _, on_metrics, _ = trace_centering_on
    _, off_metrics, _ = trace_centering_off
    on = float(np.mean([abs(m.batch_mean_offset) for m in on_metrics]))
    off = float(np.mean([abs(m.batch_mean_offset) for m in off_metrics]))
    assert on <= 1e-10
    assert off >= 1e6 * max(on, 1e-300)
    print(f"PASS criterion-10 centering-ablation (on {on:.2e}, off {off:.2e})")


# criterion 11 ----------------------------------------------------------


def test_criterion_11_training_smoke():
    t0 = time.monotonic()
    for seed in (1, 2, 3):
        _, metrics, _ = run_steps(smoke_cfg(seed=seed), 200)
        initial = metrics[0].mean_reward
        final = float(np.mean([m.mean_reward for m in metrics[-50:]]))
        assert final > initial, f"seed {seed}: {initial} -> {final}"
    # the lam=0 ablation must run to completion without divergence
    _, aw_metrics, _ = run_steps(smoke_cfg(seed=1, lam=0.0), 200)
    assert all(np.isfinite(m.loss) and np.isfinite(m.grad_norm) for m in aw_metrics)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"PASS criterion-11 training-smoke (3/3 seeds improve, {elapsed:.0f}s)")


# criterion 12 ----------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    cfg_a = smoke_cfg(steps=20, out_dir=str(tmp_path / "a"))
    cfg_b = smoke_cfg(steps=20, out_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    bytes_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert bytes_a == bytes_b
    print(f"PASS criterion-12 determinism ({len(bytes_a)} byte metrics streams identical)")
