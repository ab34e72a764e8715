import numpy as np
import pytest

from rspo_lab.objectives import center, group_advantages, rspo_loss, weighted_gradient
from rspo_lab.oracle import quad_gradient, quad_loss


def random_batch(rng, n=6):
    """Centered scores and zero-sum advantages."""
    deltas = rng.normal(size=n)
    adv = rng.normal(size=n)
    adv -= adv.mean()  # group advantages are zero-sum by construction
    return center(deltas), adv


class TestAdvantages:
    def test_zero_sum(self):
        adv = group_advantages([1.0, 0.0, 0.0, 1.0])
        assert abs(adv.sum()) < 1e-12
        np.testing.assert_allclose(adv, [0.5, -0.5, -0.5, 0.5])

    def test_normalized_scale(self):
        rewards = np.array([1.0, 0.0, 0.0, 1.0])
        adv = group_advantages(rewards, normalize=True)
        np.testing.assert_allclose(adv, (rewards - 0.5) / (0.5 + 1e-4))

    def test_zero_variance_group_retained(self):
        adv = group_advantages([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(adv, 0.0)
        adv = group_advantages([1.0, 1.0], normalize=True)
        np.testing.assert_array_equal(adv, 0.0)

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])

    @pytest.mark.parametrize("shape", [(), (0,), (4, 1), (3, 0)])
    def test_last_axis_shorter_than_two_rejected(self, shape):
        with pytest.raises(ValueError, match="at least 2 values along the last axis"):
            group_advantages(np.zeros(shape))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_groups_along_last_axis_equal_each_group_alone(self, rng, normalize):
        # a (groups, group_size) array gives, bit for bit, each row's own 1-D
        # call: the step grades and advantages the whole micro-batch at once
        for _ in range(200):
            g, size = int(rng.integers(1, 9)), int(rng.integers(2, 41))
            rewards = rng.normal(size=(g, size)) * (rng.random((g, 1)) < 0.8)  # zero-std rows too
            if rng.random() < 0.5:
                rewards = (rewards > 0).astype(np.float64)  # 0/1 verifier rewards
            got = group_advantages(rewards, normalize)
            want = np.array([group_advantages(row, normalize) for row in rewards])
            assert got.shape == rewards.shape
            assert got.tobytes() == want.tobytes()


class TestFeedbackLoss:
    def test_forward_value_closed_form(self, rng):
        # loss = -<A, d> + lam * ||d||^2 in the batch mean inner product
        d, adv = random_batch(rng)
        lam = 0.3
        loss, _ = rspo_loss(d, adv, lam)
        expected = -np.mean(adv * d) + lam * np.mean(d**2)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_weights_definition(self, rng):
        centered, adv = random_batch(rng)
        _, w = rspo_loss(centered, adv, 0.7)
        np.testing.assert_allclose(w, adv - 0.7 * centered)

    def test_negative_lam_rejected(self, rng):
        centered, adv = random_batch(rng)
        with pytest.raises(ValueError):
            rspo_loss(centered, adv, -0.1)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_bad_lam_rejected_everywhere(self, rng, lam):
        centered, adv = random_batch(rng)
        with pytest.raises(ValueError, match="lam"):
            rspo_loss(centered, adv, lam)

    def test_fixed_point(self):
        # scores pinned at A/lam zero both the coefficients and the residual
        lam = 0.25
        adv = np.array([0.5, -0.5, 0.25, -0.25])
        _, coeffs = rspo_loss(center(adv / lam), adv, lam)
        assert np.abs(coeffs).max() < 1e-12
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_loss_at_fixed_point(self):
        # forward value there is -||A||^2/lam + lam*||A/lam||^2 = 0
        lam = 0.25
        adv = np.array([0.5, -0.5, 0.25, -0.25])
        assert abs(rspo_loss(center(adv / lam), adv, lam)[0]) < 1e-12


@pytest.mark.parametrize("call", [
    lambda: rspo_loss(np.zeros(0), np.zeros(0), 0.1),
    lambda: weighted_gradient([], []),
], ids=["rspo_loss", "weighted_gradient"])
def test_empty_batch_rejected(call):
    with pytest.raises(ValueError, match="the batch is empty"):
        call()


class TestQuadLoss:
    def test_value_and_decomposition(self, rng):
        # the value, and the completed square (lam/2)||centered - A/lam||^2
        # plus the constant -||A||^2/(2 lam) plus the center's cross term
        # -center * mean(A), which vanishes for zero-sum A
        for lam in (0.4, 0.05, 3.0):
            deltas = rng.normal(size=6) + rng.normal()
            adv = rng.normal(size=6)
            for centering in (True, False):
                d = center(deltas) if centering else deltas
                offset = float(deltas.mean()) if centering else 0.0
                value = quad_loss(deltas, d, adv, lam)
                expected = -np.mean(adv * deltas) + 0.5 * lam * np.mean(d**2)
                assert value == pytest.approx(expected, rel=1e-12)
                square = 0.5 * lam * np.mean((d - adv / lam) ** 2)
                const = -np.mean(adv**2) / (2.0 * lam)
                center_cross = -offset * np.mean(adv)
                assert square + const + center_cross == pytest.approx(value, rel=1e-12)

    def test_penalty_uses_half_lam(self, rng):
        # the quadratic penalty carries lam/2 where the feedback forward
        # value carries the full lam
        deltas = rng.normal(size=6)
        centered = center(deltas)
        zero = np.zeros_like(deltas)
        lam = 0.8
        quad_pen = quad_loss(deltas, centered, zero, lam)
        rspo_pen, _ = rspo_loss(centered, zero, lam)
        assert quad_pen == pytest.approx(0.5 * rspo_pen, rel=1e-12)

    def test_misaligned_deltas_rejected(self, rng):
        centered, adv = random_batch(rng)
        with pytest.raises(ValueError, match="align"):
            quad_loss(centered[:1], centered, adv, 0.1)

    def test_misaligned_gradients_rejected(self, rng):
        # zip would drop the extra advantages, or the extra gradient, silently
        centered, adv = random_batch(rng)
        grads = [np.ones(3)] * adv.size
        for args in ((centered, adv, grads[1:]), (centered, adv, grads + grads[:1]),
                     (centered[:1], adv, grads)):
            with pytest.raises(ValueError, match="align"):
                quad_gradient(args[0], args[1], 0.1, args[2])


class TestGradients:
    def grads(self, rng, n, dim=5):
        return [rng.normal(size=dim) for _ in range(n)]

    def test_rspo_gradient_formula(self, rng):
        centered, adv = random_batch(rng)
        lam = 0.3
        gs = self.grads(rng, adv.size)
        out = weighted_gradient(rspo_loss(centered, adv, lam)[1], gs)
        expected = -np.mean(
            [(a - lam * c) * g for a, c, g in zip(adv, centered, gs)], axis=0
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_quad_gradient_matches_rspo_to_first_order(self, rng):
        # identical analytic gradients when both use the same score grads
        centered, adv = random_batch(rng)
        lam = 0.45
        gs = self.grads(rng, adv.size)
        a = weighted_gradient(rspo_loss(centered, adv, lam)[1], gs)
        b = quad_gradient(centered, adv, lam, gs)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_lam_zero_gradient_bitwise_identical_to_aw(self, rng):
        # at lam = 0 the coefficients are the advantages themselves (A - 0*c
        # is A bit for bit for finite c and nonzero A), so the feedback
        # gradient is the advantage-weighted one bit for bit
        for scale in (1.0, 1e-300, 1e300):
            centered, adv = random_batch(rng)
            _, coeffs = rspo_loss(centered * scale, adv, 0.0)
            assert coeffs.tobytes() == adv.tobytes()
            gs = self.grads(rng, adv.size)
            a = weighted_gradient(coeffs, gs)
            b = weighted_gradient(adv, gs)
            assert a.tobytes() == b.tobytes()

    def test_uncentered_batch_changes_gradient(self, rng):
        deltas = rng.normal(size=4) + 2.0
        adv = rng.normal(size=4)
        adv -= adv.mean()
        gs = self.grads(rng, 4)
        on, off = center(deltas), deltas
        a = weighted_gradient(rspo_loss(on, adv, 0.5)[1], gs)
        b = weighted_gradient(rspo_loss(off, adv, 0.5)[1], gs)
        assert not np.allclose(a, b)

    def test_gradient_count_mismatch_rejected(self, rng):
        centered, adv = random_batch(rng)
        with pytest.raises(ValueError):
            weighted_gradient(rspo_loss(centered, adv, 0.1)[1],
                              self.grads(rng, adv.size - 1))
