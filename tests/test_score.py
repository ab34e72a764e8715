import hashlib
import itertools

import numpy as np
import pytest

from conftest import central_diff, default_model, task_prompts, tiny_params, tiny_sequence
from rspo_lab.denoiser import denoiser_logprobs, init_params
from rspo_lab.oracle import exact_elbo_expectation, mask_set_weight
from rspo_lab.sequences import MASKED_TOKEN, Sequence
from rspo_lab.tasks import char_vocab
from rspo_lab.score import (
    MaskBatch,
    MaskSample,
    _MaskStack,
    batch_mean_offset,
    center_scores,
    coupled_delta,
    coupled_deltas_and_grads,
    delta_grad,
    elbo_grad,
    elbo_score,
    sample_mask_sets,
    uncentered_scores,
    var_delta,
)


class TestMaskLaw:
    def test_sample_validity(self, rng):
        for m in sample_mask_sets(4, 200, rng):
            assert 0.0 < m.t <= 1.0
            assert len(m.positions) >= 1
            assert all(0 <= p < 4 for p in m.positions)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            MaskSample(t=0.5, positions=())

    def test_time_zero_rejected(self):
        with pytest.raises(ValueError):
            MaskSample(t=0.0, positions=(0,))

    @pytest.mark.parametrize("l_c,digest", [
        # l_c = 1 leaves about half of each round's rows empty, so it resamples
        (1, "b8f44387ff779e73999c2b0d6a19a5dd94923fb5cd6fe4f0099194944ee35983"),
        (3, "03854754225857f3e473d10838ef08a1499e7fbb4143abcaa4f7f94652b41f7d"),
        (16, "c94b76335d9aa3df097a35a5f4ceb649bdccf19ef7e3fda5b72d55c7a1636e05"),
        (70, "d438a21a0730a06a07735f3549fbe2d86bf5700b3bb5b47af35a43f123b10a44"),
    ])
    def test_sample_mask_sets_match_recorded_digest(self, l_c, digest):
        # the draw order is pinned: each round draws the missing rows' times,
        # then their Bernoulli matrix, and keeps the nonempty rows in order;
        # the digests were recorded from the per-draw MaskSample sampler
        masks = sample_mask_sets(l_c, 64, np.random.default_rng(5))
        assert masks.hits.shape == (64, l_c)
        assert hashlib.sha256(masks.t.tobytes() + masks.hits.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("l_c", [2, 3])
    def test_set_frequencies_match_closed_form(self, l_c):
        # empirical frequency of every nonempty subset of {0,..,l_c-1}
        # against the exact law, 4-sigma multinomial tolerance
        n = 200_000
        rng = np.random.default_rng(77)
        counts: dict[tuple[int, ...], int] = {}
        for m in sample_mask_sets(l_c, n, rng):
            counts[m.positions] = counts.get(m.positions, 0) + 1
        for size in range(1, l_c + 1):
            for positions in itertools.combinations(range(l_c), size):
                p = mask_set_weight(positions, l_c)
                sigma = np.sqrt(p * (1 - p) / n)
                freq = counts.get(positions, 0) / n
                assert abs(freq - p) < 4 * sigma + 1e-9

    def test_weights_sum_to_one(self):
        for l_c in (1, 2, 3, 4, 5):
            total = sum(
                mask_set_weight(pos, l_c)
                for size in range(1, l_c + 1)
                for pos in itertools.combinations(range(l_c), size)
            )
            assert abs(total - 1.0) < 1e-12


class TestMaskBatch:
    @pytest.mark.parametrize("t,hits,field", [
        ([0.5], np.array([1], dtype=bool), "hits"),
        ([0.5], np.array([[1]]), "hits"),
        ([[0.5]], np.array([[True]]), "t"),
        ([0.5, 0.5], np.array([[True]]), "t"),
        ([0.0], np.array([[True]]), "t"),
        ([1.5], np.array([[True]]), "t"),
        ([np.nan], np.array([[True]]), "t"),
        ([0.5, 0.5], np.array([[True, False], [False, False]]), "hits"),
    ])
    def test_invalid_batch_names_field(self, t, hits, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            MaskBatch(np.asarray(t), hits)

    def test_sequence_of_samples(self, rng):
        masks = sample_mask_sets(5, 12, rng)
        samples = list(masks)
        assert len(masks) == len(samples) == 12
        for i, m in enumerate(samples):
            assert m == masks[i] == MaskSample(float(masks.t[i]), tuple(np.flatnonzero(masks.hits[i])))
        assert masks[-1] == samples[-1]
        part = masks[3:9:2]
        assert isinstance(part, MaskBatch) and list(part) == samples[3:9:2]
        again = MaskBatch.from_samples(samples)
        width = again.hits.shape[1]
        assert np.array_equal(again.t, masks.t)
        assert np.array_equal(again.hits, masks.hits[:, :width])
        assert not masks.hits[:, width:].any()

    def test_scoring_takes_only_batches(self, rng):
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        with pytest.raises(TypeError, match="MaskBatch"):
            elbo_score(params, seq, [MaskSample(0.5, (0,))])
        with pytest.raises(ValueError, match="past the completion"):
            elbo_score(params, seq, MaskBatch.from_samples([MaskSample(0.5, (3,))]))


class TestElboScore:
    def test_manual_value(self, rng):
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        masks = MaskBatch.from_samples(
            [MaskSample(t=0.5, positions=(0, 2)), MaskSample(t=0.9, positions=(1,))])
        est = elbo_score(params, seq, masks)
        lp_a = params.logprobs(seq.with_masked((0, 2)))
        lp_b = params.logprobs(seq.with_masked((1,)))
        term_a = (3 / 2) * (lp_a[0, seq.completion[0]] + lp_a[2, seq.completion[2]])
        term_b = (3 / 1) * lp_b[1, seq.completion[1]]
        assert abs(est.value - 0.5 * (term_a + term_b)) < 1e-12
        assert est.k == 2

    def test_duplicate_masks_share_terms(self, rng):
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        m = MaskSample(t=0.5, positions=(0,))
        est = elbo_score(params, seq, MaskBatch.from_samples([m, m, m]))
        assert est.terms[0] == est.terms[1] == est.terms[2]

    def test_masked_input_rejected(self, rng):
        params = tiny_params(seed=1)
        with pytest.raises(ValueError, match="clean"):
            elbo_score(params, tiny_sequence(rng).with_masked([0]),
                       MaskBatch.from_samples([MaskSample(0.5, (0,))]))

    def test_monte_carlo_matches_enumeration(self, rng):
        # z-test of the K-sample estimator against the closed-form expectation
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng)
        exact = exact_elbo_expectation(params, seq)
        masks = sample_mask_sets(seq.completion_len, 40_000, np.random.default_rng(11))
        est = elbo_score(params, seq, masks)
        se = est.terms.std(ddof=1) / np.sqrt(est.k)
        assert abs(est.value - exact) < 5 * se

    def test_estimator_is_unbiased_per_mask_count(self, rng):
        # grouping the same draws into K=1 vs K=4 estimators leaves the
        # overall mean unchanged (plain averaging, no K-dependent bias)
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 400, np.random.default_rng(4))
        whole = elbo_score(params, seq, masks).value
        chunks = [elbo_score(params, seq, masks[i:i + 4]).value for i in range(0, 400, 4)]
        assert abs(np.mean(chunks) - whole) < 1e-10


class TestScoreGradients:
    def test_elbo_grad_matches_finite_differences(self, rng):
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        grad = elbo_grad(params, seq, masks)

        def f(theta):
            return elbo_score(params.replace_theta(theta), seq, masks).value

        fd = central_diff(f, params.theta)
        denom = np.maximum(1e-8, np.maximum(np.abs(fd), np.abs(grad)))
        assert np.max(np.abs(fd - grad) / denom) < 1e-4

    def test_delta_grad_is_length_scaled(self, rng):
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 2, rng)
        np.testing.assert_allclose(
            delta_grad(params, seq, masks),
            elbo_grad(params, seq, masks) / seq.completion_len,
            rtol=0, atol=0,
        )


class TestCoupledDelta:
    def test_identical_models_give_exact_zero(self, rng):
        params = tiny_params(seed=4)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        delta = coupled_delta(params, params.copy(), seq, masks)
        assert delta == 0.0

    def test_sign_tracks_likelihood(self, rng):
        # nudging the current model along the score gradient raises delta
        ref = tiny_params(seed=5)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 2, np.random.default_rng(8))
        delta0 = coupled_delta(ref, ref, seq, masks)
        step = 0.05 * elbo_grad(ref, seq, masks)
        cur = ref.replace_theta(ref.theta + step)
        d_cur = coupled_delta(cur, ref, seq, masks)
        assert delta0 == 0.0
        assert d_cur > 0.0

    def test_no_reference_is_per_token_score(self, rng):
        params = tiny_params(seed=4)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        want = elbo_score(params, seq, masks).value / seq.completion_len
        assert coupled_delta(params, None, seq, masks) == want

    def test_k_zero_rejected(self, rng):
        # masks come from the sampler, which rejects k < 1 and l_c < 1;
        # an empty mask list is rejected by the score itself
        params = tiny_params(seed=4)
        with pytest.raises(ValueError, match="k >= 1"):
            sample_mask_sets(3, 0, rng)
        with pytest.raises(ValueError, match="completion length"):
            sample_mask_sets(0, 2, rng)
        with pytest.raises(ValueError):
            coupled_delta(params, params, tiny_sequence(rng), [])


class TestGroupScoring:
    def test_group_equals_each_member_alone(self, rng):
        # one stacked forward per model over a group, duplicate masks and a
        # shared set across members included, gives every member's delta and
        # gradient bit for bit
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        prompt = rng.integers(0, 4, size=2)
        group = [Sequence(prompt, rng.integers(0, 4, size=3)) for _ in range(5)]
        masks_per = [sample_mask_sets(3, int(rng.integers(1, 5)), rng) for _ in group]
        masks_per[1] = MaskBatch.from_samples([*masks_per[1], *masks_per[1][:1]])
        masks_per[2] = MaskBatch.from_samples([*masks_per[0][:1], *masks_per[2]])
        for params_ref in (ref, None):
            deltas, grads = coupled_deltas_and_grads(cur, params_ref, group, masks_per)
            for seq, masks, delta, grad in zip(group, masks_per, deltas, grads):
                (one,), (one_grad,) = coupled_deltas_and_grads(cur, params_ref, [seq], [masks])
                assert delta == one == coupled_delta(cur, params_ref, seq, masks)
                assert np.array_equal(grad, one_grad)
            np.testing.assert_allclose(
                grads[0], delta_grad(cur, group[0], masks_per[0]), rtol=1e-12, atol=1e-15)

    def test_group_must_share_prompt(self, rng):
        params = tiny_params(seed=6)
        group = [tiny_sequence(rng), tiny_sequence(rng)]
        group[1].prompt[0] = (group[0].prompt[0] + 1) % 4
        masks = [MaskBatch.from_samples([MaskSample(0.5, (0,))])] * 2
        with pytest.raises(ValueError, match="share one prompt"):
            coupled_deltas_and_grads(params, None, group, masks)
        with pytest.raises(ValueError, match="mask list"):
            coupled_deltas_and_grads(params, None, group[:1], masks)


class TestProductionSize:
    @pytest.mark.parametrize("k_masks", [2, 8])
    @pytest.mark.parametrize("task", ["arith", "sudoku4"])
    def test_group_equals_each_member_alone(self, task, k_masks):
        # a group of six length-16 completions on the default architecture,
        # scored at its masked positions only: every member's delta and
        # gradient bit for bit as when it is scored alone
        rng = np.random.default_rng(7)
        cur, ref = default_model(task, rng)
        mask_id = char_vocab().mask_id
        for prompt in task_prompts(task, 5, rng):
            group = [Sequence(prompt, rng.integers(0, mask_id, size=16)) for _ in range(6)]
            masks_per = [sample_mask_sets(16, k_masks, rng) for _ in group]
            deltas, grads = coupled_deltas_and_grads(cur, ref, group, masks_per)
            for seq, masks, delta, grad in zip(group, masks_per, deltas, grads):
                assert delta == coupled_delta(cur, ref, seq, masks)
                # 1/L_c is a power of two, so scaling inside or after is exact
                assert np.array_equal(grad, delta_grad(cur, seq, masks))


class TestMaskStack:
    def test_terms_equal_per_mask_sums(self, rng):
        # sets of 8 and more positions take numpy's unrolled pairwise sum;
        # the sums by set size still equal each mask's own 1-D sum bit for bit
        params = init_params(4, window=2, hidden=8, embed_dim=4, n_positions=22, seed=3)
        prompt = rng.integers(0, 4, size=2)
        group = [Sequence(prompt, rng.integers(0, 4, size=20)) for _ in range(6)]
        masks_per = [sample_mask_sets(20, 8, rng) for _ in group]
        stack = _MaskStack(group, masks_per)
        sizes = {len(m.positions) for masks in masks_per for m in masks}
        assert min(sizes) < 8 <= max(sizes)
        for seq, masks, terms in zip(group, masks_per, stack.terms(stack.logprobs(params))):
            want = []
            for m in masks:
                idx = np.asarray(m.positions)
                lp = denoiser_logprobs(params, seq.with_masked(idx))
                want.append((20 / idx.size) * lp[idx, seq.completion[idx]].sum())
            assert np.array_equal(terms, want)


    @staticmethod
    def _reference_stack(masks_per):
        # the per-completion dict.fromkeys dedup over position tuples
        which, spans, sets = [], [], []
        for masks in masks_per:
            distinct = list(dict.fromkeys(m.positions for m in masks))
            index = {s: len(sets) + j for j, s in enumerate(distinct)}
            which.append(np.array([index[m.positions] for m in masks]))
            spans.append(range(len(sets), len(sets) + len(distinct)))
            sets.extend(distinct)
        return which, spans, sets

    @pytest.mark.parametrize("l_c,k_max", [(3, 12), (6, 8), (70, 6)])
    def test_dedup_matches_dict_reference(self, rng, l_c, k_max):
        prompt = rng.integers(0, 4, size=2)
        for _ in range(5):
            group = [Sequence(prompt, rng.integers(0, 4, size=l_c)) for _ in range(4)]
            masks_per = [sample_mask_sets(l_c, int(rng.integers(1, k_max + 1)), rng) for _ in group]
            # repeat a set within a completion and share one across completions
            masks_per[1] = MaskBatch.from_samples([*masks_per[1], masks_per[1][0], masks_per[0][0]])
            masks_per[3] = MaskBatch.from_samples([masks_per[2][-1], *masks_per[3], masks_per[3][0]])
            stack = _MaskStack(group, masks_per)
            which, spans, sets = self._reference_stack(masks_per)
            assert len(stack.which) == len(which)
            for got, want in zip(stack.which, which):
                assert np.array_equal(got, want)
            assert stack.spans == spans
            assert stack.sizes.tolist() == [len(s) for s in sets]
            want_masked = np.zeros((len(sets), l_c), dtype=bool)
            for row, s in enumerate(sets):
                want_masked[row, list(s)] = True
            assert np.array_equal(stack.stack.masked, want_masked)
            owners = np.repeat(np.arange(len(group)), [len(s) for s in spans])
            clean = np.array([seq.completion for seq in group])[owners]
            assert np.array_equal(stack.stack.completion, np.where(want_masked, MASKED_TOKEN, clean))


class TestCentering:
    def test_centered_values_sum_to_zero(self):
        batch = center_scores([1.0, 2.5, -0.5, 7.0])
        assert abs(batch.centered.sum()) < 1e-12
        assert batch.center == pytest.approx(2.5)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            center_scores([1.0])

    def test_uncentered_passthrough(self):
        batch = uncentered_scores([1.0, 2.0])
        assert batch.center == 0.0
        np.testing.assert_array_equal(batch.centered, batch.deltas)

    def test_var_delta_is_population_variance(self):
        vals = [0.2, -1.0, 3.0, 0.5]
        assert var_delta(center_scores(vals)) == pytest.approx(np.var(vals))
        # centering does not change the diagnostic
        assert var_delta(uncentered_scores(vals)) == pytest.approx(np.var(vals))

    def test_batch_mean_offset(self):
        vals = [1.0, 3.0]
        assert batch_mean_offset(center_scores(vals)) == pytest.approx(0.0, abs=1e-15)
        assert batch_mean_offset(uncentered_scores(vals)) == pytest.approx(2.0)
