import hashlib
import itertools
import math

import numpy as np
import pytest

from rspo_lab.denoiser import init_params
from rspo_lab.oracle import (
    PerturbationBound,
    all_sudoku4_grids,
    countdown_solvable,
    exact_elbo_expectation,
    exact_sequence_loglik,
    kl_proxy,
    kl_regularized_optimum,
    loop_features,
    loop_logprobs,
    mask_set_weight,
    perturbation_bound_check,
    sudoku4_solutions_by_enumeration,
)
from rspo_lab.sequences import Sequence
from rspo_lab.tasks import _count_sudoku4, gen_sudoku4


def small_model(seed, vocab=3):
    return init_params(vocab, window=2, hidden=6, embed_dim=3, n_positions=4, seed=seed)


class TestSequenceLikelihood:
    def test_total_probability_is_one(self):
        # the reverse chain defines a distribution over completions
        params = small_model(seed=1)
        prompt = np.array([0])
        total = 0.0
        for completion in itertools.product(range(3), repeat=2):
            seq = Sequence(prompt=prompt, completion=np.array(completion))
            total += math.exp(exact_sequence_loglik(params, seq, steps=3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_denoiser_gives_probability_one(self):
        # a readout that ignores the features and puts logit 60 on token 1:
        # every position is certain of it, to within exp(-60)
        params = small_model(seed=0)
        params.w2[...] = 0.0
        params.b2[...] = [0.0, 60.0, 0.0]
        seq = Sequence(prompt=np.array([0]), completion=np.array([1, 1]))
        assert exact_sequence_loglik(params, seq, steps=4) == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_score_expectation(self):
        # the closed-form score expectation is the many-step limit of the
        # chain log-likelihood; Richardson extrapolation in 1/T shows it
        rng = np.random.default_rng(0)
        for trial in range(6):
            params = small_model(seed=trial)
            seq = Sequence(prompt=rng.integers(0, 3, size=1),
                           completion=rng.integers(0, 3, size=2))
            e = exact_elbo_expectation(params, seq)
            ll2 = exact_sequence_loglik(params, seq, steps=2)
            ll4 = exact_sequence_loglik(params, seq, steps=4)
            err_raw = abs(ll4 - e)
            err_extrap = abs(2 * ll4 - ll2 - e)
            assert err_extrap < 0.1 * err_raw + 1e-9

    def test_size_limits_enforced(self):
        params = small_model(seed=1)
        big = Sequence(prompt=np.array([0]), completion=np.zeros(6, dtype=np.int64))
        with pytest.raises(ValueError, match="enumeration"):
            exact_sequence_loglik(params, big, steps=2)
        small = Sequence(prompt=np.array([0]), completion=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="enumeration"):
            exact_sequence_loglik(params, small, steps=9)

    def test_size_limit_boundary(self):
        # L_c = 4 is the largest completion both oracles enumerate
        params = init_params(3, window=2, hidden=6, embed_dim=3, n_positions=6, seed=1)
        prompt = np.array([0])
        ok = Sequence(prompt=prompt, completion=np.array([0, 1, 2, 1]))
        assert math.isfinite(exact_elbo_expectation(params, ok))
        assert math.isfinite(exact_sequence_loglik(params, ok, steps=4))
        big = Sequence(prompt=prompt, completion=np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError, match="enumeration"):
            exact_elbo_expectation(params, big)
        with pytest.raises(ValueError, match="enumeration"):
            exact_sequence_loglik(params, big, steps=4)


class TestLoopForward:
    @pytest.mark.parametrize("fn", [loop_features, loop_logprobs, exact_elbo_expectation])
    def test_padded_prompt_rejected(self, fn):
        # -1 once read as the last embedding row and moved every position
        # past the padding; the loop takes unpadded sequences only
        params = small_model(seed=0)
        with pytest.raises(ValueError, match="prompt must hold no -1"):
            fn(params, Sequence(prompt=np.array([-1, 0]), completion=np.array([1, 2])))


class TestMaskWeights:
    def test_uniform_over_sizes_then_sets(self):
        # P(|M| = m) = 1/L conditioned nonempty, split evenly within a size
        l_c = 4
        for m in range(1, l_c + 1):
            sets = list(itertools.combinations(range(l_c), m))
            total = sum(mask_set_weight(s, l_c) for s in sets)
            assert total == pytest.approx(1.0 / l_c, rel=1e-12)
            assert mask_set_weight(sets[0], l_c) == pytest.approx(
                total / len(sets), rel=1e-12
            )


class TestKLOptimum:
    def test_matches_grid_search(self):
        # softmax optimum beats every nearby candidate on the regularized
        # improvement objective
        rng = np.random.default_rng(3)
        pi_ref = rng.dirichlet(np.ones(5))
        rewards = rng.normal(size=5)
        beta = 0.7
        pi_star, _ = kl_regularized_optimum(pi_ref, rewards, beta)
        assert pi_star.sum() == pytest.approx(1.0, abs=1e-12)

        def objective(pi):
            return float(np.sum(pi * rewards) - beta * np.sum(pi * np.log(pi / pi_ref)))

        best = objective(pi_star)
        for _ in range(200):
            probe = pi_star + 0.01 * rng.normal(size=5)
            probe = np.abs(probe)
            probe /= probe.sum()
            assert objective(probe) <= best + 1e-12

    def test_centered_log_ratio_identity(self):
        rng = np.random.default_rng(4)
        pi_ref = rng.dirichlet(np.ones(6))
        rewards = rng.normal(size=6)
        beta = 0.25
        _, delta_star = kl_regularized_optimum(pi_ref, rewards, beta)
        centered = delta_star - delta_star.mean()
        expected = (rewards - rewards.mean()) / beta
        np.testing.assert_allclose(centered, expected, atol=1e-12)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            kl_regularized_optimum([0.5, 0.5], [0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            kl_regularized_optimum([1.0, 0.0], [0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            kl_regularized_optimum([0.5, 0.5], [0.0], 1.0)

    def test_non_finite_rewards_fail_identity(self):
        with pytest.raises(AssertionError, match="identity"):
            kl_regularized_optimum([0.5, 0.5], [0.0, float("nan")], 1.0)


class TestKLProxy:
    def test_exact_values(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        kl_pq, kl_qp, _ = kl_proxy(p, q)
        want_pq = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        want_qp = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
        assert kl_pq == pytest.approx(want_pq, rel=1e-12)
        assert kl_qp == pytest.approx(want_qp, rel=1e-12)

    def test_third_order_accuracy(self):
        # error of the half-variance proxy shrinks cubically in the
        # perturbation size: halving eps cuts it by about 8
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6))
        f = rng.normal(size=6)
        f -= np.sum(p * f)

        def error(eps):
            q = p * (1.0 + eps * f)
            q = q / q.sum()
            kl_pq, _, half_var = kl_proxy(p, q)
            return abs(kl_pq - half_var)

        e1, e2 = error(0.02), error(0.01)
        assert e1 / e2 == pytest.approx(8.0, rel=0.25)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_proxy([0.5, 0.5, 0.0], [0.5, 0.25, 0.25])


class TestSurrogateErrorBound:
    def test_random_trials_within_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n)
            a -= a.mean()
            r = rng.normal(size=n)
            xi = rng.uniform(-1, 1, size=n) * float(rng.uniform(0, 0.5))
            lam = float(rng.uniform(0, 0.2))
            out = perturbation_bound_check(a, r, xi, lam)
            assert isinstance(out, PerturbationBound)
            assert out.lhs_aw <= out.rhs_aw + 1e-12
            assert out.lhs_rspo <= out.rhs_rspo + 1e-12

    def test_zero_perturbation_is_free(self):
        a = np.array([1.0, -1.0])
        out = perturbation_bound_check(a, np.array([0.3, -0.3]),
                                       np.zeros(2), 0.1)
        assert out.lhs_aw == 0.0
        assert out.lhs_rspo == 0.0

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            perturbation_bound_check([1.0, -1.0], [0.0, 0.0], [0.0, 0.0], -1.0)

    @staticmethod
    def _draws(rng, shape):
        a = rng.normal(size=shape)
        a -= a.mean(axis=-1, keepdims=True)
        r = rng.normal(size=shape)
        xi = rng.uniform(-1, 1, size=shape) * rng.uniform(0, 0.5, size=shape[:-1] + (1,))
        return a, r, xi

    def test_stack_equals_per_trial_calls(self):
        rng = np.random.default_rng(9)
        fields = ("lhs_aw", "lhs_rspo", "rhs_aw", "rhs_rspo")
        for n in (2, 3, 6, 9, 17):
            a, r, xi = self._draws(rng, (250, n))
            # an eps whose square libm pow rounds one ulp off the product
            xi[0] *= 0.5
            xi[0, 0] = float.fromhex("0x1.fac433cb8f530p-2")
            for lam in (0.0, 0.01, 0.3):
                stacked = perturbation_bound_check(a, r, xi, lam)
                singles = [perturbation_bound_check(a[i], r[i], xi[i], lam) for i in range(250)]
                for f in fields:
                    got = getattr(stacked, f)
                    assert isinstance(got, np.ndarray) and got.shape == (250,)
                    assert np.array_equal(got, [getattr(o, f) for o in singles]), (n, lam, f)
        # several leading axes are trials too
        a, r, xi = self._draws(rng, (4, 5, 6))
        out = perturbation_bound_check(a, r, xi, 0.1)
        flat = perturbation_bound_check(a.reshape(20, 6), r.reshape(20, 6), xi.reshape(20, 6), 0.1)
        for f in fields:
            assert np.array_equal(getattr(out, f).ravel(), getattr(flat, f))

    def test_one_trial_returns_floats(self):
        a, r, xi = self._draws(np.random.default_rng(2), (5,))
        out = perturbation_bound_check(a, r, xi, 0.1)
        for value in (out.lhs_aw, out.lhs_rspo, out.rhs_aw, out.rhs_rspo):
            assert type(value) is float

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_violation_names_first_failing_trial(self):
        a, r, xi = self._draws(np.random.default_rng(3), (40, 6))
        perturbation_bound_check(a, r, xi, 0.1)
        for j in (0, 17, 39):
            bad = r.copy()
            bad[j, 2] = np.nan
            bad[-1, 0] = np.inf  # a later failure is not the one named
            with pytest.raises(AssertionError, match=rf"at trial {j}: aw nan vs"):
                perturbation_bound_check(a, bad, xi, 0.1)
        a3, r3, xi3 = self._draws(np.random.default_rng(4), (2, 3, 6))
        r3[1, 2, 0] = np.nan
        with pytest.raises(AssertionError, match=r"at trial \(1, 2\)"):
            perturbation_bound_check(a3, r3, xi3, 0.1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_fails(self):
        a, r, xi = self._draws(np.random.default_rng(5), (6,))
        for arr in (a, r, xi):
            for value in (np.nan, np.inf):
                saved = arr[1]
                arr[1] = value
                with pytest.raises(AssertionError, match="bound violated"):
                    perturbation_bound_check(a, r, xi, 0.1)
                arr[1] = saved
        with pytest.raises(AssertionError):
            perturbation_bound_check(a, r, xi, float("nan"))

    def test_empty_sample_axis_rejected(self):
        for shape in ((0,), (3, 0)):
            empty = np.zeros(shape)
            with pytest.raises(ValueError, match="at least one sample"):
                perturbation_bound_check(empty, empty, empty, 0.1)
        with pytest.raises(ValueError, match="at least one sample"):
            perturbation_bound_check(1.0, 0.0, 0.0, 0.1)

    def test_batched_bad_inputs_rejected(self):
        a, r, xi = self._draws(np.random.default_rng(6), (8, 6))
        for args in ((a, r[:, :5], xi), (a, r, xi[:7]), (a, r, xi.T), (a[0], r, xi)):
            with pytest.raises(ValueError, match="align"):
                perturbation_bound_check(*args, 0.1)
        with pytest.raises(ValueError, match="lam"):
            perturbation_bound_check(a, r, xi, -0.5)


class TestTaskOracles:
    def test_countdown_known_cases(self):
        assert countdown_solvable([2, 3, 4], 14)
        assert countdown_solvable([2, 3, 4], 2)  # single number
        assert countdown_solvable([8, 2], 4)     # exact division
        assert not countdown_solvable([2, 2], 5)
        assert not countdown_solvable([1, 1, 1], 4)

    # sha256 of the countdown_solvable answers (one byte each) over every
    # 3-number multiset from 1..9 and every target 1..99, recorded from the
    # exact-rational search the integer one replaced
    TABLE_DIGEST = "55f5d90a1c5720bfdf48f3b59a9bf4c07384297c0b53fe88bcafc602e4104fdb"

    def test_countdown_table_matches_recorded_digest(self):
        table = bytes(countdown_solvable(list(m), t)
                      for m in itertools.combinations_with_replacement(range(1, 10), 3)
                      for t in range(1, 100))
        assert len(table) == 165 * 99
        assert hashlib.sha256(table).hexdigest() == self.TABLE_DIGEST

    def test_countdown_input_types_and_signs(self):
        assert not countdown_solvable([2, 3], 2.5)   # non-integral target
        assert countdown_solvable([2, 3], 2.0)       # integral float target
        assert countdown_solvable(np.array([2, 3, 4], dtype=np.int64), np.int64(14))
        assert countdown_solvable([0, 5], 0) and countdown_solvable([0, 5], -5)
        assert not countdown_solvable([0, 0], 1)
        assert countdown_solvable([-6, 3], -2)       # exact division of a negative
        assert not countdown_solvable([7, -2], -4)   # 7 // -2 is not exact
        assert not countdown_solvable([-7, 2], -4)
        with pytest.raises(ValueError):
            countdown_solvable([2, 3], float("nan"))
        with pytest.raises(OverflowError):
            countdown_solvable([2, 3], float("inf"))

    def test_grid_catalogue_size(self):
        assert len(all_sudoku4_grids()) == 288

    def test_enumeration_agrees_with_backtracking(self):
        rng = np.random.default_rng(7)
        empty = np.zeros((4, 4), dtype=np.int64)
        assert sudoku4_solutions_by_enumeration(empty) == 288
        assert _count_sudoku4(empty.ravel().tolist(), 1000) == 288
        for _ in range(5):
            inst = gen_sudoku4(rng, holes=7)
            puzzle = np.asarray(inst.payload["puzzle"]).reshape(4, 4)
            assert sudoku4_solutions_by_enumeration(puzzle) == \
                _count_sudoku4(puzzle.ravel().tolist(), 1000) == 1
