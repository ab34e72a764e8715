import math

import numpy as np
import pytest

from conftest import central_diff, tiny_params, tiny_sequence
from rspo_lab.denoiser import (
    _features,
    backward,
    denoiser_logprob_grad,
    denoiser_logprobs,
    forward,
    init_params,
    load_params,
    logprob_sum_grad,
    save_params,
)
from rspo_lab.oracle import loop_features, loop_logprobs
from rspo_lab.sequences import Sequence


class TestLogprobs:
    def test_rows_normalized(self, rng):
        params = tiny_params(seed=1)
        for _ in range(10):
            seq = tiny_sequence(rng).with_masked(
                rng.choice(3, size=rng.integers(1, 4), replace=False)
            )
            lp = denoiser_logprobs(params, seq)
            np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-10)

    def test_zero_theta_is_uniform(self, rng):
        params = tiny_params(seed=1)
        params = params.replace_theta(np.zeros_like(params.theta))
        seq = tiny_sequence(rng).with_masked([0, 1])
        lp = denoiser_logprobs(params, seq)
        np.testing.assert_allclose(lp, -math.log(params.vocab_size), atol=1e-12)

    def test_deterministic(self, rng):
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng).with_masked([1])
        a = denoiser_logprobs(params, seq)
        b = denoiser_logprobs(params, seq)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self, rng):
        params = tiny_params(seed=2)  # n_positions=6
        seq = tiny_sequence(rng, prompt_len=5, completion_len=3)
        with pytest.raises(ValueError, match="position table"):
            denoiser_logprobs(params, seq)

    def test_positive_gradient_coordinate_raises_logprob(self, rng):
        # perturbing a weight along its positive gradient direction must
        # increase the log-probability (first-order sanity of the backward)
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng).with_masked([0, 2])
        tok = int(seq.completion[0]) if seq.completion[0] >= 0 else 0
        grad = logprob_sum_grad(params, seq, [0], [tok])
        coord = int(np.argmax(grad))
        assert grad[coord] > 0
        h = 1e-5
        theta = params.theta.copy()
        theta[coord] += h
        before = denoiser_logprobs(params, seq)[0, tok]
        after = denoiser_logprobs(params.replace_theta(theta), seq)[0, tok]
        assert after > before


class TestFeatures:
    def test_matches_loop_reference(self, rng):
        # the gathered feature matrix equals a per-position, per-neighbour loop
        cases = 0
        for trial in range(200):
            vocab = int(rng.integers(2, 7))
            window = int(rng.integers(1, 6))
            prompt_len = int(rng.integers(0, 5)) if trial % 3 else 0
            completion_len = int(rng.integers(1, 7))
            total = prompt_len + completion_len
            params = init_params(vocab, window=window, hidden=3,
                                 embed_dim=int(rng.integers(1, 5)),
                                 n_positions=total + int(rng.integers(0, 2)),
                                 seed=trial, scale=1.0)
            seq = tiny_sequence(rng, vocab, prompt_len, completion_len)
            kind = trial % 4
            if kind == 0:
                masked = []
            elif kind == 1:
                masked = range(completion_len)
            else:
                masked = np.flatnonzero(rng.random(completion_len) < 0.5)
            z = seq.with_masked(masked)
            x, ctx = _features(params, z)
            assert np.array_equal(x, loop_features(params, z))
            assert ctx.shape == (completion_len, 2 * window)
            cases += window >= total and total == params.n_positions
        assert cases > 0  # windows past both ends of a full position table

    def test_context_marks_masked_and_outside(self):
        params = init_params(5, window=2, hidden=3, embed_dim=2, n_positions=4)
        z = Sequence(prompt=[3], completion=[1, 2, 4]).with_masked([1])
        _, ctx = _features(params, z)
        # slots hold offsets -2, -1, +1, +2
        np.testing.assert_array_equal(ctx, [[-1, 3, -1, 4], [3, 1, 4, -1], [1, -1, -1, -1]])


def random_stack(rng, trial: int, b: int):
    """A random model and a stack of ``b`` corrupted completions sharing a
    prompt; rows cycle through none-masked, all-masked and random masks."""
    vocab = int(rng.integers(2, 7))
    window = int(rng.integers(1, 6))
    prompt_len = int(rng.integers(0, 5)) if trial % 3 else 0
    completion_len = int(rng.integers(1, 7))
    total = prompt_len + completion_len
    params = init_params(vocab, window=window, hidden=int(rng.integers(1, 9)),
                         embed_dim=int(rng.integers(1, 5)),
                         n_positions=total + int(rng.integers(0, 2)),
                         seed=trial, scale=1.0)
    completion = rng.integers(0, vocab, size=(b, completion_len))
    masked = rng.random((b, completion_len)) < 0.5
    masked[0::3] = False
    masked[1::3] = True
    return params, Sequence(prompt=rng.integers(0, vocab, size=prompt_len),
                            completion=np.where(masked, -1, completion), masked=masked)


class TestStack:
    @pytest.mark.parametrize("b", [1, 6, 48])
    def test_matches_loop_reference(self, rng, b):
        # each stacked table equals the one-sequence loop reference
        worst, cases = 0.0, 0
        for trial in range(30):
            params, stack = random_stack(rng, trial, b)
            lp = denoiser_logprobs(params, stack)
            assert lp.shape == (b, stack.completion_len, params.vocab_size)
            for i in range(b):
                one = Sequence(stack.prompt, stack.completion[i], stack.masked[i])
                worst = max(worst, float(np.max(np.abs(lp[i] - loop_logprobs(params, one)))))
            cases += params.window >= stack.total_len == params.n_positions
        assert worst <= 1e-12
        assert cases > 0  # windows past both ends of a full position table

    def test_weighted_backward_sums_single_gradients(self, rng):
        # a stack of mask sets, one of them repeated, scored at every masked
        # position with random weights, against the weighted sum of
        # single-position gradients
        for trial in range(20):
            params, stack = random_stack(rng, trial, 5)
            stack.masked[0] = True
            stack.masked[1:] |= rng.random(stack.masked[1:].shape) < 0.5
            stack.masked[1] = stack.masked[2]
            stack.completion[stack.masked] = -1
            items, positions = np.nonzero(stack.masked)
            tokens = rng.integers(0, params.vocab_size, size=items.size)
            weights = rng.uniform(-2.0, 2.0, size=items.size)
            total = backward(params, forward(params, stack),
                             items * stack.completion_len + positions, tokens, weights)
            singles = sum(
                w * denoiser_logprob_grad(
                    params, Sequence(stack.prompt, stack.completion[i], stack.masked[i]),
                    int(p), int(t))
                for i, p, t, w in zip(items, positions, tokens, weights))
            np.testing.assert_allclose(total, singles, rtol=1e-12, atol=1e-12)


class TestGradients:
    def test_matches_finite_differences(self, rng):
        # 100 random (params, state, position, token) draws, rel. 1e-4
        worst = 0.0
        for trial in range(100):
            params = tiny_params(seed=trial)
            seq = tiny_sequence(rng)
            k = int(rng.integers(1, 4))
            masked = rng.choice(3, size=k, replace=False)
            z = seq.with_masked(masked)
            pos = int(rng.choice(masked))
            tok = int(rng.integers(4))
            grad = denoiser_logprob_grad(params, z, pos, tok)

            def f(theta):
                return denoiser_logprobs(params.replace_theta(theta), z)[pos, tok]

            fd = central_diff(f, params.theta)
            denom = np.maximum(1e-8, np.maximum(np.abs(fd), np.abs(grad)))
            worst = max(worst, float(np.max(np.abs(fd - grad) / denom)))
        assert worst < 1e-4

    def test_sum_over_positions_accumulates(self, rng):
        # a 2-token vocab repeats tokens across slots and positions, so the
        # embedding gradient must add every repeated index, not keep one
        for trial in range(20):
            params = tiny_params(seed=trial, vocab_size=2)
            z = tiny_sequence(rng, 2, 2, 4).with_masked(
                rng.choice(4, size=int(rng.integers(2, 5)), replace=False))
            positions = np.flatnonzero(z.masked)
            tokens = rng.integers(0, 2, size=positions.size)
            total = logprob_sum_grad(params, z, positions, tokens)
            singles = sum(denoiser_logprob_grad(params, z, int(p), int(t))
                          for p, t in zip(positions, tokens))
            np.testing.assert_allclose(total, singles, rtol=1e-12, atol=1e-12)

    def test_softmax_score_identity(self, rng):
        # sum_v pi(v) * grad log pi(v) = 0 for any model
        params = tiny_params(seed=7)
        z = tiny_sequence(rng).with_masked([1])
        lp = denoiser_logprobs(params, z)
        total = np.zeros_like(params.theta)
        for v in range(params.vocab_size):
            total += math.exp(lp[1, v]) * denoiser_logprob_grad(params, z, 1, v)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_unmasked_position_rejected(self, rng):
        params = tiny_params(seed=7)
        z = tiny_sequence(rng).with_masked([1])
        with pytest.raises(ValueError, match="not masked"):
            denoiser_logprob_grad(params, z, 0, 0)

    def test_absent_features_have_zero_gradient(self, rng):
        # embedding rows of tokens nowhere visible in the context stay zero
        params = tiny_params(seed=8)
        seq = tiny_sequence(rng, vocab_size=2)  # tokens 0/1 only
        z = seq.with_masked([0])
        grad = denoiser_logprob_grad(params, z, 0, 0)
        embed_grad = grad[: params.vocab_size * params.embed_dim].reshape(
            params.vocab_size, params.embed_dim
        )
        np.testing.assert_array_equal(embed_grad[2], 0.0)
        np.testing.assert_array_equal(embed_grad[3], 0.0)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path, rng):
        params = init_params(21, window=3, hidden=16, embed_dim=8,
                             n_positions=20, seed=42)
        path = tmp_path / "model.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert np.array_equal(loaded.theta, params.theta)
        assert loaded.vocab_size == params.vocab_size
        assert loaded.window == params.window
        assert loaded.hidden == params.hidden
        assert loaded.embed_dim == params.embed_dim
        assert loaded.n_positions == params.n_positions
        assert loaded.seed == params.seed

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_params(path)

    def test_truncated_and_trailing_bytes_rejected(self, tmp_path):
        params = tiny_params(seed=0)
        path = tmp_path / "model.bin"
        save_params(path, params)
        blob = path.read_bytes()
        for cut, msg in ((10, "truncated params header"),
                         (len(blob) - 1, "truncated params theta")):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=msg):
                load_params(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_params(path)

    def test_theta_metadata_consistency_enforced(self):
        params = tiny_params(seed=0)
        with pytest.raises(ValueError, match="entries"):
            params.replace_theta(params.theta[:-1])
