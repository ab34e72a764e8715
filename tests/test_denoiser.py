import math
import re

import numpy as np
import pytest

from conftest import central_diff, forward_on, logprob_table, tiny_params, tiny_sequence
from rspo_lab.denoiser import Layout, Rows, backward, forward, init_params, row_max
from rspo_lab.harness import (CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              load_checkpoint, params_from_bytes, params_to_bytes)
from rspo_lab.oracle import loop_features, loop_logprobs
from rspo_lab.sequences import Sequence


def logprob_grad(params, seq, positions, tokens):
    """Gradient of sum_j log p(tokens[j] | seq) at positions[j] of one
    completion, distinct and increasing, by one backward through its forward
    at those positions."""
    where = np.zeros(seq.completion.shape, dtype=bool)
    where[positions] = True
    return backward(params, forward_on(params, seq, where), np.asarray(tokens),
                    np.ones(len(tokens)), [0, len(tokens)])[0]


def features(params, seq):
    """``x`` and ``ctx`` of every completion position of ``seq``, with
    ``params``' embeddings written in by a forward."""
    x, ctx, _ = forward_on(params, seq)[1]
    return x, ctx


class TestLogprobs:
    def test_rows_normalized(self, rng):
        params = tiny_params(seed=1)
        for _ in range(10):
            seq = tiny_sequence(rng).with_masked(
                rng.choice(3, size=rng.integers(1, 4), replace=False)
            )
            lp = logprob_table(params, seq)
            np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-10)

    def test_zero_theta_is_uniform(self, rng):
        params = tiny_params(seed=1)
        params = params.replace_theta(np.zeros_like(params.theta))
        seq = tiny_sequence(rng).with_masked([0, 1])
        lp = logprob_table(params, seq)
        np.testing.assert_allclose(lp, -math.log(params.vocab_size), atol=1e-12)

    def test_deterministic(self, rng):
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng).with_masked([1])
        a = logprob_table(params, seq)
        b = logprob_table(params, seq)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self, rng):
        params = tiny_params(seed=2)  # n_positions=6
        seq = tiny_sequence(rng, prompt_len=5, completion_len=3)
        with pytest.raises(ValueError, match="position table"):
            logprob_table(params, seq)

    @pytest.mark.parametrize("field", ["prompt", "completion"])
    @pytest.mark.parametrize("token", [4, 5])
    def test_token_id_past_vocab_rejected(self, field, token):
        # an id equal to vocab_size once read as a zero embedding; larger
        # ids raised a bare IndexError
        params = init_params(4, window=1, hidden=3, embed_dim=2, n_positions=6)
        ids = {"prompt": [1], "completion": [2, 1, 3]}
        ids[field][-1] = token
        with pytest.raises(ValueError, match=f"{field} token ids must be < vocab_size 4"):
            logprob_table(params, Sequence(ids["prompt"], ids["completion"]))

    def test_positive_gradient_coordinate_raises_logprob(self, rng):
        # perturbing a weight along its positive gradient direction must
        # increase the log-probability (first-order sanity of the backward)
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng).with_masked([0, 2])
        tok = int(seq.completion[0]) if seq.completion[0] >= 0 else 0
        grad = logprob_grad(params, seq, [0], [tok])
        coord = int(np.argmax(grad))
        assert grad[coord] > 0
        h = 1e-5
        theta = params.theta.copy()
        theta[coord] += h
        before = logprob_table(params, seq)[0, tok]
        after = logprob_table(params.replace_theta(theta), seq)[0, tok]
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
            x, ctx = features(params, z)
            assert np.array_equal(x, loop_features(params, z))
            assert ctx.shape == (completion_len, 2 * window)
            cases += window >= total and total == params.n_positions
        assert cases > 0  # windows past both ends of a full position table

    def test_context_marks_masked_and_outside(self):
        params = init_params(5, window=2, hidden=3, embed_dim=2, n_positions=4)
        z = Sequence(prompt=[3], completion=[1, 2, 4]).with_masked([1])
        _, ctx = features(params, z)
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
                            completion=np.where(masked, -1, completion))


class TestStack:
    @pytest.mark.parametrize("b", [1, 6, 48])
    def test_matches_loop_reference(self, rng, b):
        # each stacked table equals the one-sequence loop reference
        worst, cases = 0.0, 0
        for trial in range(30):
            params, stack = random_stack(rng, trial, b)
            lp = logprob_table(params, stack)
            assert lp.shape == (b, stack.completion_len, params.vocab_size)
            for i in range(b):
                one = Sequence(stack.prompt, stack.completion[i])
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
            masked = stack.masked.copy()
            masked[0] = True
            masked[1:] |= rng.random(masked[1:].shape) < 0.5
            stack.completion[masked] = -1
            stack.completion[1] = stack.completion[2]
            items, positions = np.nonzero(stack.masked)
            tokens = rng.integers(0, params.vocab_size, size=items.size)
            weights = rng.uniform(-2.0, 2.0, size=items.size)
            total, = backward(params, forward_on(params, stack, stack.masked),
                              tokens, weights, [0, items.size])
            singles = sum(
                w * logprob_grad(
                    params, Sequence(stack.prompt, stack.completion[i]),
                    [p], [t])
                for i, p, t, w in zip(items, positions, tokens, weights))
            np.testing.assert_allclose(total, singles, rtol=1e-12, atol=1e-12)


class TestSharedRows:
    def test_rows_another_model_used_give_a_fresh_forward(self, rng):
        # one model's forward on rows another model's forward has already
        # written its embeddings into: logprobs, x, ctx, h and backward equal
        # a fresh forward on the sequence, bit for bit
        for trial in range(24):
            params, stack = random_stack(rng, trial, 5)
            other = params.replace_theta(rng.uniform(-1.0, 1.0, params.n_params))
            where = None if trial % 4 == 0 else stack.masked | (rng.random(stack.masked.shape) < 0.3)
            rows = Rows(Layout(params, stack), where)
            forward(other, rows)
            shared, fresh = forward(params, rows), forward_on(params, stack, where)
            for got, want in zip((shared[0], *shared[1]), (fresh[0], *fresh[1])):
                assert np.array_equal(got, want)
            n = len(fresh[0])
            tokens = rng.integers(0, params.vocab_size, size=n)
            weights = rng.uniform(-2.0, 2.0, size=n)
            bounds = [0, n // 2, n]
            for got, want in zip(backward(params, shared, tokens, weights, bounds),
                                 backward(params, fresh, tokens, weights, bounds)):
                assert np.array_equal(got, want)


class TestRowMax:
    @pytest.mark.parametrize("width", [1, 2, 21])
    def test_equals_numpy_max(self, rng, width):
        # ties, signed zeros, huge and -inf entries, in shapes of 1 to 3 axes
        special = np.array([0.0, -0.0, 1e300, -1e300, -np.inf, 3.0, 3.0])
        for shape in [(width,), (0, width), (40, width), (3, 5, width)]:
            a = rng.normal(size=shape)
            pick = rng.random(shape) < 0.5
            a[pick] = rng.choice(special, size=int(pick.sum()))
            assert np.array_equal(row_max(a), a.max(axis=-1))
        zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [-np.inf, -np.inf]])
        assert np.array_equal(row_max(zeros), zeros.max(axis=-1))

    def test_nan_row_stays_nan(self, rng):
        a = rng.normal(size=(6, 21))
        a[1, 0] = a[3, -1] = a[4, 7] = np.nan
        a[4, 8] = np.inf
        got = row_max(a)
        assert np.isnan(got[[1, 3, 4]]).all()
        assert np.array_equal(got[[0, 2, 5]], a[[0, 2, 5]].max(axis=-1))


class TestRaggedPrompts:
    def test_each_row_equals_its_unpadded_forward(self, rng):
        # prompts of every length 0..P left-padded with -1 in one stack; each
        # row's features and table equal its own unpadded forward exactly
        worst, cases = 0.0, 0
        for trial in range(40):
            vocab = int(rng.integers(2, 7))
            window = int(rng.integers(1, 6))
            width = int(rng.integers(0, 5))
            completion_len = int(rng.integers(1, 7))
            params = init_params(vocab, window=window, hidden=int(rng.integers(1, 9)),
                                 embed_dim=int(rng.integers(1, 5)),
                                 n_positions=width + completion_len + int(rng.integers(0, 2)),
                                 seed=trial, scale=1.0)
            lengths = np.arange(width + 1).repeat(2)
            prompts = np.full((lengths.size, width), -1)
            for row, n in zip(prompts, lengths):
                row[width - n:] = rng.integers(0, vocab, size=n)
            masked = rng.random((lengths.size, completion_len)) < 0.5
            masked[0] = True
            completion = np.where(masked, -1, rng.integers(0, vocab, size=masked.shape))
            stack = Sequence(prompts, completion)
            x, ctx = features(params, stack)
            x = x.reshape(lengths.size, completion_len, -1)
            ctx = ctx.reshape(lengths.size, completion_len, -1)
            lp = logprob_table(params, stack)
            for b, n in enumerate(lengths):
                one = Sequence(prompts[b, width - n:], completion[b])
                x_one, ctx_one = features(params, one)
                assert np.array_equal(x[b], x_one)
                assert np.array_equal(ctx[b], ctx_one)
                assert np.array_equal(lp[b], logprob_table(params, one))
                worst = max(worst, float(np.max(np.abs(lp[b] - loop_logprobs(params, one)))))
            cases += window >= width + completion_len == params.n_positions
        assert worst <= 1e-12
        assert cases > 0  # windows past both ends of a full position table

    def test_no_positions_give_no_rows(self, rng):
        params, stack = random_stack(rng, 1, 4)
        logprobs, (x, ctx, h) = forward_on(params, stack, np.zeros(stack.completion.shape, bool))
        assert logprobs.shape == (0, params.vocab_size) and ctx.shape == (0, 2 * params.window)
        assert x.shape == (0, params.feature_dim) and h.shape == (0, params.hidden)

    def test_position_table_checks_unpadded_length(self):
        params = init_params(3, window=1, hidden=2, embed_dim=2, n_positions=4)
        fits = Sequence([[-1, -1, 0], [-1, 1, 2]], [[0, 1], [1, 0]])
        assert logprob_table(params, fits).shape == (2, 2, 3)
        with pytest.raises(ValueError, match="position table"):
            logprob_table(params, Sequence([[-1, -1, 0], [0, 1, 2]], [[0, 1], [1, 0]]))

    @pytest.mark.parametrize("prompt", [[3, -1, 4], [-1, 3, -1], [[-1, 0, 1], [0, -1, 1]]])
    def test_padding_after_a_prompt_token_rejected(self, prompt):
        # a -1 after a token was counted out of the prompt length, shifting
        # every completion position of the row by one
        params = init_params(5, window=1, hidden=2, embed_dim=2, n_positions=8)
        completion = [[1, 2], [2, 1]] if np.ndim(prompt) == 2 else [1, 2]
        with pytest.raises(ValueError, match="prompt padding"):
            Layout(params, Sequence(prompt, completion))


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
            grad = logprob_grad(params, z, [pos], [tok])

            def f(theta):
                return logprob_table(params.replace_theta(theta), z)[pos, tok]

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
            total = logprob_grad(params, z, positions, tokens)
            singles = sum(logprob_grad(params, z, [int(p)], [int(t)])
                          for p, t in zip(positions, tokens))
            np.testing.assert_allclose(total, singles, rtol=1e-12, atol=1e-12)

    def test_softmax_score_identity(self, rng):
        # sum_v pi(v) * grad log pi(v) = 0 for any model
        params = tiny_params(seed=7)
        z = tiny_sequence(rng).with_masked([1])
        lp = logprob_table(params, z)
        total = np.zeros_like(params.theta)
        for v in range(params.vocab_size):
            total += math.exp(lp[1, v]) * logprob_grad(params, z, [1], [v])
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_absent_features_have_zero_gradient(self, rng):
        # embedding rows of tokens nowhere visible in the context stay zero
        params = tiny_params(seed=8)
        seq = tiny_sequence(rng, vocab_size=2)  # tokens 0/1 only
        z = seq.with_masked([0])
        grad = logprob_grad(params, z, [0], [0])
        embed_grad = grad[: params.vocab_size * params.embed_dim].reshape(
            params.vocab_size, params.embed_dim
        )
        np.testing.assert_array_equal(embed_grad[2], 0.0)
        np.testing.assert_array_equal(embed_grad[3], 0.0)


class TestSegmentedBackward:
    def test_each_segment_equals_its_own_call(self, rng):
        # one ragged-prompt forward with a repeated row, cut into random
        # segments (some empty); each gradient of one call equals a call
        # on that segment's rows alone, bit for bit, and they sum to the
        # weighted single-position gradients
        for trial in range(20):
            vocab = int(rng.integers(2, 7))
            width = int(rng.integers(0, 5))
            completion_len = int(rng.integers(1, 7))
            params = init_params(vocab, window=int(rng.integers(1, 6)),
                                 hidden=int(rng.integers(1, 9)),
                                 embed_dim=int(rng.integers(1, 5)),
                                 n_positions=width + completion_len + int(rng.integers(0, 2)),
                                 seed=trial, scale=1.0)
            lengths = rng.integers(0, width + 1, size=6)
            prompts = np.full((lengths.size, width), -1)
            for row, n in zip(prompts, lengths):
                row[width - n:] = rng.integers(0, vocab, size=n)
            masked = rng.random((lengths.size, completion_len)) < 0.5
            masked[0] = True
            completion = np.where(masked, -1, rng.integers(0, vocab, size=masked.shape))
            prompts[1], completion[1] = prompts[2], completion[2]
            stack = Sequence(prompts, completion)
            where = rng.random(completion.shape) < 0.7
            where[1], where[2] = True, True
            items, positions = np.nonzero(where)
            tokens = rng.integers(0, vocab, size=items.size)
            weights = rng.uniform(-2.0, 2.0, size=items.size)
            weights[rng.random(items.size) < 0.3] = 0.0
            bounds = np.sort(np.concatenate(
                [[0, items.size], rng.integers(0, items.size + 1, size=3)]))
            logprobs, (x, ctx, h) = fwd = forward_on(params, stack, where)
            grads = backward(params, fwd, tokens, weights, bounds)
            assert len(grads) == bounds.size - 1
            for grad, a, b in zip(grads, bounds, bounds[1:]):
                alone = (logprobs[a:b], (x[a:b], ctx[a:b], h[a:b]))
                one, = backward(params, alone, tokens[a:b], weights[a:b], [0, b - a])
                assert np.array_equal(grad, one)
            singles = sum(
                w * logprob_grad(
                    params, Sequence(prompts[i][prompts[i] >= 0], stack.completion[i]),
                    [p], [t])
                for i, p, t, w in zip(items, positions, tokens, weights))
            np.testing.assert_allclose(sum(grads), singles, rtol=1e-12, atol=1e-12)


class TestCheckpoints:
    def test_roundtrip(self, rng):
        params = init_params(21, window=3, hidden=16, embed_dim=8,
                             n_positions=20, seed=42)
        loaded, end = params_from_bytes(params_to_bytes(params))
        assert end == len(params_to_bytes(params))
        assert np.array_equal(loaded.theta, params.theta)
        assert loaded.vocab_size == params.vocab_size
        assert loaded.window == params.window
        assert loaded.hidden == params.hidden
        assert loaded.embed_dim == params.embed_dim
        assert loaded.n_positions == params.n_positions
        assert loaded.seed == params.seed

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            params_from_bytes(b"XXXX" + b"\x00" * 64)

    def test_truncated_bytes_rejected(self):
        blob = params_to_bytes(tiny_params(seed=0))
        for cut, msg in ((10, "truncated params header"),
                         (len(blob) - 1, "truncated params theta")):
            with pytest.raises(ValueError, match=msg):
                params_from_bytes(blob[:cut])

    def test_all_zero_architecture_rejected(self, tmp_path):
        # right magic and version, every field zero: a 0-parameter model
        blob = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *[0] * 7)
        with pytest.raises(ValueError, match="^vocab_size must be >= 1, got 0$"):
            params_from_bytes(blob)
        path = tmp_path / "ckpt.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="^current params: vocab_size must be >= 1, got 0$"):
            load_checkpoint(path)

    def test_negative_window_rejected(self):
        # window -1 would shrink the feature width below the position one-hot's
        with pytest.raises(ValueError, match="^window must be >= 0, got -1$"):
            init_params(21, window=-1)

    @pytest.mark.parametrize("field,value,shown", [("hidden", 8.0, "8.0"), ("hidden", True, "True"),
                                                   ("window", 2.5, "2.5"),
                                                   ("vocab_size", np.float64(4), "np.float64(4.0)")])
    def test_non_integer_field_rejected(self, field, value, shown):
        # each would otherwise reach numpy, whose error names no field
        kwargs = {"vocab_size": 4, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(shown)}$"):
            init_params(**kwargs)
        # numpy ints still pass
        assert init_params(**{**kwargs, field: np.int64(3)}).theta.size

    def test_theta_metadata_consistency_enforced(self):
        params = tiny_params(seed=0)
        with pytest.raises(ValueError, match="entries"):
            params.replace_theta(params.theta[:-1])
