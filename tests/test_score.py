import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (central_diff, default_model, logprob_table, stack_of, task_prompts,
                      tiny_params, tiny_sequence)
from rspo_lab import denoiser
from rspo_lab.denoiser import init_params
from rspo_lab.oracle import exact_elbo_expectation, mask_set_weight
from rspo_lab.sequences import MASKED_TOKEN, Sequence
from rspo_lab.tasks import MASK_ID
from rspo_lab.score import (
    MaskBatch,
    _MaskStack,
    batch_mean_offset,
    center_scores,
    coupled_deltas_and_grads,
    elbo_terms,
    sample_mask_sets,
    var_delta,
)


def masks_of(width: int, *rows) -> MaskBatch:
    """A batch of hand-written masks, each a tuple of positions, ``width`` wide."""
    hits = np.zeros((len(rows), width), dtype=bool)
    for row, positions in zip(hits, rows):
        row[list(positions)] = True
    return MaskBatch(hits)


def take(masks: MaskBatch, rows) -> MaskBatch:
    """The batch of ``masks``' rows ``rows``, a slice or an index list."""
    return MaskBatch(masks.hits[rows])


def join(*batches: MaskBatch) -> MaskBatch:
    """One batch of the rows of ``batches``, in order."""
    return MaskBatch(np.concatenate([m.hits for m in batches]))


def shares(masks: MaskBatch, n: int) -> list[MaskBatch]:
    """Each of ``n`` completions' even share of ``masks``' rows, in order."""
    k = len(masks) // n
    return [take(masks, slice(c * k, (c + 1) * k)) for c in range(n)]


class TestMaskLaw:
    def test_sample_validity(self, rng):
        masks = sample_mask_sets(4, 200, rng)
        assert len(masks) == 200 and masks.hits.shape == (200, 4)
        assert masks.hits.any(axis=1).all()

    @pytest.mark.parametrize("l_c,digest", [
        # l_c = 1 leaves about half of each round's rows empty, so it resamples
        (1, "15663876039da59f01360b72e962f35c20e66a8d9c2b8c69e38b22b49dae97e5"),
        (3, "215f0d04d96e87da864b6ad666399c7e31ecb28832e8fc95e4930a8362892117"),
        (16, "cd0b813f645abee29fa2726496b4da2a8df769700792d1544812b6514d19f245"),
        (70, "c8b48e20a75f9b3eb56cb0c0e0d3a5d012a7240dddf02d5749bce0e46d113703"),
    ])
    def test_sample_mask_sets_match_recorded_digest(self, l_c, digest):
        # the draw order is pinned: each round draws the missing rows' times,
        # then their Bernoulli matrix, and keeps the nonempty rows in order;
        # the generator's next double pins how far the call read the stream.
        # Recorded when MaskBatch still kept the times, whose draws are unchanged
        rng = np.random.default_rng(5)
        masks = sample_mask_sets(l_c, 64, rng)
        assert masks.hits.shape == (64, l_c)
        blob = masks.hits.tobytes() + rng.random(1).tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("l_c,k,n", itertools.product([1, 3, 16], [1, 2, 8], [1, 7, 24]))
    def test_one_call_equals_a_call_per_completion(self, l_c, k, n):
        # n completions' masks from one call: the rows of n calls of one
        # completion each, in order, with the generator left where they leave
        # it; l_c 1 resamples about half of each round's rows
        for seed in range(4):
            one, each = np.random.default_rng(seed), np.random.default_rng(seed)
            masks = sample_mask_sets(l_c, k, one, n)
            parts = [sample_mask_sets(l_c, k, each) for _ in range(n)]
            assert np.array_equal(masks.hits, np.concatenate([m.hits for m in parts]))
            assert one.bit_generator.state == each.bit_generator.state

    @pytest.mark.parametrize("l_c,k,n", [(0, 2, 1), (3, 0, 1), (3, 2, 0)])
    def test_invalid_sizes_rejected(self, rng, l_c, k, n):
        with pytest.raises(ValueError):
            sample_mask_sets(l_c, k, rng, n)

    @pytest.mark.parametrize("l_c", [2, 3])
    def test_set_frequencies_match_closed_form(self, l_c):
        # empirical frequency of every nonempty subset of {0,..,l_c-1}
        # against the exact law, 4-sigma multinomial tolerance
        n = 200_000
        rng = np.random.default_rng(77)
        # each set counted under its bit code, position i as bit i
        bits = 1 << np.arange(l_c)
        counts = np.bincount(sample_mask_sets(l_c, n, rng).hits @ bits, minlength=2 ** l_c)
        for size in range(1, l_c + 1):
            for subset in itertools.combinations(range(l_c), size):
                p = mask_set_weight(subset, l_c)
                sigma = np.sqrt(p * (1 - p) / n)
                freq = counts[bits[list(subset)].sum()] / n
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
    @pytest.mark.parametrize("hits", [
        np.array([1], dtype=bool),
        np.array([[1]]),
        np.array([[True, False], [False, False]]),
    ])
    def test_invalid_batch_names_field(self, hits):
        with pytest.raises(ValueError, match="^hits "):
            MaskBatch(hits)

    def test_scoring_takes_only_batches(self, rng):
        # both calls take one batch of n·k rows, l_c wide: a list of batches,
        # a narrower or wider batch and an uneven split are rejected
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        for score in (lambda masks: elbo_terms(params, seq, masks),
                      lambda masks: coupled_deltas_and_grads(params, None, seq, masks)):
            with pytest.raises(TypeError, match="MaskBatch"):
                score([masks_of(3, (0,))])
            for width in (2, 4):
                with pytest.raises(ValueError, match=f"{width} positions wide, the completions 3"):
                    score(masks_of(width, (1,)))
        three = masks_of(3, (0,), (1,), (2,))
        with pytest.raises(ValueError, match="splits evenly among the completions: 3 for 2 "):
            elbo_terms(params, stack_of([seq, seq]), three)


class TestOneInputForm:
    def test_list_of_sequences_rejected(self, rng):
        # the completions come as one Sequence, a stack or a single one
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        masks = masks_of(3, (0,), (1,))
        for score in (lambda seqs: elbo_terms(params, seqs, masks),
                      lambda seqs: coupled_deltas_and_grads(params, None, seqs, masks)):
            for seqs in ([seq], [seq, seq]):
                with pytest.raises(TypeError, match="one Sequence, a stack of completions"):
                    score(seqs)

    def test_single_completion_equals_one_row_stack(self, rng):
        # a 1-D completion under a 1-D prompt scores as the same completion
        # stacked as one row under its prompt as one row, bit for bit
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        seq = tiny_sequence(rng)
        row = Sequence(seq.prompt[None], seq.completion[None])
        masks = sample_mask_sets(3, 5, rng)
        assert np.array_equal(elbo_terms(cur, seq, masks), elbo_terms(cur, row, masks))
        for params_ref in (ref, None):
            (delta,), (grad,) = coupled_deltas_and_grads(cur, params_ref, seq, masks)
            (row_delta,), (row_grad,) = coupled_deltas_and_grads(cur, params_ref, row, masks)
            assert delta == row_delta
            assert np.array_equal(grad, row_grad)

    def test_shared_prompt_equals_prompt_per_row(self, rng):
        # a stack under one 1-D prompt scores as the same stack with that
        # prompt repeated on every row, bit for bit
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        prompt = rng.integers(0, 4, size=2)
        completions = rng.integers(0, 4, size=(4, 3))
        shared = Sequence(prompt, completions)
        per_row = Sequence(np.tile(prompt, (4, 1)), completions)
        masks = sample_mask_sets(3, 3, rng, 4)
        assert np.array_equal(elbo_terms(cur, shared, masks), elbo_terms(cur, per_row, masks))
        for params_ref in (ref, None):
            deltas, grads = coupled_deltas_and_grads(cur, params_ref, shared, masks)
            row_deltas, row_grads = coupled_deltas_and_grads(cur, params_ref, per_row, masks)
            assert deltas == row_deltas
            for grad, row_grad in zip(grads, row_grads, strict=True):
                assert np.array_equal(grad, row_grad)


class TestElboScore:
    def test_manual_value(self, rng):
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        (terms,) = elbo_terms(params, seq, masks_of(3, (0, 2), (1,)))
        lp_a = logprob_table(params, seq.with_masked((0, 2)))
        lp_b = logprob_table(params, seq.with_masked((1,)))
        term_a = (3 / 2) * (lp_a[0, seq.completion[0]] + lp_a[2, seq.completion[2]])
        term_b = (3 / 1) * lp_b[1, seq.completion[1]]
        assert abs(terms.mean() - 0.5 * (term_a + term_b)) < 1e-12
        assert terms.size == 2

    def test_duplicate_masks_share_terms(self, rng):
        params = tiny_params(seed=1)
        seq = tiny_sequence(rng)
        m = (0,)
        (terms,) = elbo_terms(params, seq, masks_of(3, m, m, m))
        assert terms[0] == terms[1] == terms[2]

    def test_masked_input_rejected(self, rng):
        params = tiny_params(seed=1)
        with pytest.raises(ValueError, match="clean"):
            elbo_terms(params, tiny_sequence(rng).with_masked([0]), masks_of(3, (0,)))

    def test_monte_carlo_matches_enumeration(self, rng):
        # z-test of the K-sample estimator against the closed-form expectation
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng)
        exact = exact_elbo_expectation(params, seq)
        masks = sample_mask_sets(seq.completion_len, 40_000, np.random.default_rng(11))
        (terms,) = elbo_terms(params, seq, masks)
        se = terms.std(ddof=1) / np.sqrt(terms.size)
        assert abs(terms.mean() - exact) < 5 * se

    def test_estimator_is_unbiased_per_mask_count(self, rng):
        # grouping the same draws into K=1 vs K=4 estimators leaves the
        # overall mean unchanged (plain averaging, no K-dependent bias)
        params = tiny_params(seed=2)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 400, np.random.default_rng(4))
        whole = elbo_terms(params, seq, masks)[0].mean()
        chunks = [elbo_terms(params, seq, take(masks, slice(i, i + 4)))[0].mean()
                  for i in range(0, 400, 4)]
        assert abs(np.mean(chunks) - whole) < 1e-10


class TestScoreGradients:
    def test_elbo_grad_matches_finite_differences(self, rng):
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        # without a reference the delta is the per-token score
        _, (grad,) = coupled_deltas_and_grads(params, None, seq, masks)

        def f(theta):
            terms = elbo_terms(params.replace_theta(theta), seq, masks)[0]
            return float(terms.mean()) / seq.completion_len

        fd = central_diff(f, params.theta)
        denom = np.maximum(1e-8, np.maximum(np.abs(fd), np.abs(grad)))
        assert np.max(np.abs(fd - grad) / denom) < 1e-4

    def test_delta_grad_is_length_scaled(self, rng):
        # the delta's gradient is the per-token score's gradient whatever the
        # reference, since only the current side depends on theta; the test
        # above checks that gradient against central differences
        params = tiny_params(seed=3)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 2, rng)
        _, (grad,) = coupled_deltas_and_grads(params, tiny_params(seed=4), seq, masks)
        _, (per_token,) = coupled_deltas_and_grads(params, None, seq, masks)
        np.testing.assert_allclose(grad, per_token, rtol=0, atol=0)


class TestCoupledDelta:
    def test_identical_models_give_exact_zero(self, rng):
        params = tiny_params(seed=4)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        (delta,), _ = coupled_deltas_and_grads(params, params.copy(), seq, masks)
        assert delta == 0.0

    def test_sign_tracks_likelihood(self, rng):
        # nudging the current model along the score gradient raises delta
        ref = tiny_params(seed=5)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 2, np.random.default_rng(8))
        (delta0,), (grad,) = coupled_deltas_and_grads(ref, ref, seq, masks)
        step = 0.05 * seq.completion_len * grad  # along the score gradient
        cur = ref.replace_theta(ref.theta + step)
        (d_cur,), _ = coupled_deltas_and_grads(cur, ref, seq, masks)
        assert delta0 == 0.0
        assert d_cur > 0.0

    def test_no_reference_is_per_token_score(self, rng):
        params = tiny_params(seed=4)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 3, rng)
        want = float(elbo_terms(params, seq, masks)[0].mean()) / seq.completion_len
        (delta,), _ = coupled_deltas_and_grads(params, None, seq, masks)
        assert delta == want

    def test_k_zero_rejected(self, rng):
        # masks come from the sampler, which rejects k < 1 and l_c < 1;
        # an empty mask batch is rejected by the score itself
        params = tiny_params(seed=4)
        with pytest.raises(ValueError, match="k >= 1"):
            sample_mask_sets(3, 0, rng)
        with pytest.raises(ValueError, match="completion length"):
            sample_mask_sets(0, 2, rng)
        empty = MaskBatch(np.zeros((0, 3), dtype=bool))
        with pytest.raises(ValueError, match="at least one mask"):
            coupled_deltas_and_grads(params, params, tiny_sequence(rng), empty)

    @pytest.mark.parametrize("field,value", [
        ("vocab_size", 5), ("window", 1), ("hidden", 16), ("embed_dim", 2), ("n_positions", 48),
    ])
    def test_reference_of_other_architecture_rejected(self, rng, field, value):
        cur = tiny_params(seed=4)
        arch = {name: getattr(cur, name) for name in denoiser.ARCHITECTURE} | {field: value}
        ref = init_params(arch.pop("vocab_size"), **arch, seed=5)
        seq = tiny_sequence(rng)
        masks = sample_mask_sets(seq.completion_len, 2, rng)
        with pytest.raises(ValueError, match=f"params_ref {field} {value} differs from "
                                             f"{getattr(cur, field)} in params_cur"):
            coupled_deltas_and_grads(cur, ref, seq, masks)
        # the first differing field is named
        two = init_params(cur.vocab_size, window=2, hidden=16, embed_dim=4, n_positions=48)
        with pytest.raises(ValueError, match="params_ref hidden 16 differs from 8"):
            coupled_deltas_and_grads(cur, two, seq, masks)


class TestGroupScoring:
    def test_group_equals_each_member_alone(self, rng):
        # one stacked forward per model over a group, duplicate masks and a
        # shared set across members included, gives every member's delta and
        # gradient bit for bit
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        prompt = rng.integers(0, 4, size=2)
        group = [Sequence(prompt, rng.integers(0, 4, size=3)) for _ in range(5)]
        parts = shares(sample_mask_sets(3, 4, rng, len(group)), len(group))
        parts[1] = join(take(parts[1], slice(3)), take(parts[1], [0]))
        parts[2] = join(take(parts[0], [0]), take(parts[2], slice(3)))
        masks = join(*parts)
        for params_ref in (ref, None):
            deltas, grads = coupled_deltas_and_grads(cur, params_ref, stack_of(group), masks)
            for seq, part, delta, grad in zip(group, parts, deltas, grads):
                (one,), (one_grad,) = coupled_deltas_and_grads(cur, params_ref, seq, part)
                assert delta == one
                assert np.array_equal(grad, one_grad)

    def test_mixed_prompts_equal_each_member_alone(self, rng):
        # prompts of every length 0..P and two equal ones, scored in one call:
        # every member's delta and gradient bit for bit as when scored alone
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        prompts = [rng.integers(0, 4, size=n) for n in range(4)]
        prompts.append(prompts[2].copy())
        group = [Sequence(p, rng.integers(0, 4, size=3)) for p in prompts]
        parts = shares(sample_mask_sets(3, 3, rng, len(group)), len(group))
        parts[4] = join(take(parts[2], [0]), take(parts[4], slice(2)))
        masks = join(*parts)
        for params_ref in (ref, None):
            deltas, grads = coupled_deltas_and_grads(cur, params_ref, stack_of(group), masks)
            for seq, part, delta, grad in zip(group, parts, deltas, grads):
                (one,), (one_grad,) = coupled_deltas_and_grads(cur, params_ref, seq, part)
                assert delta == one
                assert np.array_equal(grad, one_grad)
        with pytest.raises(ValueError, match="splits evenly among the completions: 15 for 2 "):
            coupled_deltas_and_grads(cur, None, stack_of(group[:2]), masks)

    def test_value_only_and_gradient_paths_agree(self, rng):
        # mixed prompts and repeated mask sets: elbo_terms over the whole group
        # equals each member scored alone, and the mean terms of the two
        # models give coupled_deltas_and_grads' deltas, bit for bit
        cur, ref = tiny_params(seed=6), tiny_params(seed=7)
        prompts = [rng.integers(0, 4, size=n) for n in (2, 0, 3, 1, 2)]
        group = [Sequence(p, rng.integers(0, 4, size=3)) for p in prompts]
        parts = shares(sample_mask_sets(3, 4, rng, len(group)), len(group))
        parts[1] = join(take(parts[1], slice(2)), take(parts[1], [0, 0]))
        parts[3] = join(take(parts[0], [-1]), take(parts[3], slice(2)), take(parts[2], [0]))
        masks = join(*parts)
        cur_terms = elbo_terms(cur, stack_of(group), masks)
        ref_terms = elbo_terms(ref, stack_of(group), masks)
        assert cur_terms.shape == ref_terms.shape == (5, 4)
        for seq, part, terms in zip(group, parts, cur_terms):
            (alone,) = elbo_terms(cur, seq, part)
            assert np.array_equal(terms, alone)
        deltas, _ = coupled_deltas_and_grads(cur, ref, stack_of(group), masks)
        assert deltas == [(float(a.mean()) - float(b.mean())) / 3
                          for a, b in zip(cur_terms, ref_terms)]
        deltas, _ = coupled_deltas_and_grads(cur, None, stack_of(group), masks)
        assert deltas == [float(a.mean()) / 3 for a in cur_terms]


class TestProductionSize:
    @pytest.mark.parametrize("k_masks", [2, 8])
    @pytest.mark.parametrize("task", ["arith", "sudoku4"])
    def test_group_equals_each_member_alone(self, task, k_masks):
        # a group of six length-16 completions on the default architecture,
        # scored at its masked positions only: every member's delta and
        # gradient bit for bit as when it is scored alone
        rng = np.random.default_rng(7)
        cur, ref = default_model(task, rng)
        for prompt in task_prompts(task, 5, rng):
            group = [Sequence(prompt, rng.integers(0, MASK_ID, size=16)) for _ in range(6)]
            masks = sample_mask_sets(16, k_masks, rng, len(group))
            deltas, grads = coupled_deltas_and_grads(cur, ref, stack_of(group), masks)
            for seq, part, delta, grad in zip(group, shares(masks, len(group)), deltas, grads):
                (one,), (one_grad,) = coupled_deltas_and_grads(cur, ref, seq, part)
                assert delta == one
                assert np.array_equal(grad, one_grad)

    def test_micro_batch_equals_each_member_alone(self):
        # a whole default countdown micro-batch, four groups of six on
        # prompts of widths 8 and 9, scored in one call
        rng = np.random.default_rng(7)
        cur, ref = default_model("countdown", rng)
        prompts = task_prompts("countdown", 4, rng)
        assert {p.size for p in prompts} == {8, 9}
        batch = [Sequence(p, rng.integers(0, MASK_ID, size=16)) for p in prompts for _ in range(6)]
        masks = sample_mask_sets(16, 2, rng, len(batch))
        for params_ref in (ref, None):
            deltas, grads = coupled_deltas_and_grads(cur, params_ref, stack_of(batch), masks)
            for seq, part, delta, grad in zip(batch, shares(masks, len(batch)), deltas, grads):
                (one,), (one_grad,) = coupled_deltas_and_grads(cur, params_ref, seq, part)
                assert delta == one
                assert np.array_equal(grad, one_grad)

    @pytest.mark.parametrize("k_masks", [2, 8])
    def test_deltas_equal_per_model_mean_terms(self, k_masks):
        # a score-heavy micro-batch of a moved policy: 24 length-16
        # completions, so sets of 8 and more positions take numpy's pairwise
        # sum.  The deltas of the one stack both forwards share equal each
        # model's own mean terms, bit for bit
        rng = np.random.default_rng(10)
        cur, ref = default_model("sudoku4", rng)
        batch = stack_of([Sequence(p, rng.integers(0, MASK_ID, size=16))
                          for p in task_prompts("sudoku4", 4, rng) for _ in range(6)])
        masks = sample_mask_sets(16, k_masks, rng, len(batch.completion))
        assert _MaskStack(batch, masks).sizes.max() >= 8
        cur_terms, ref_terms = elbo_terms(cur, batch, masks), elbo_terms(ref, batch, masks)
        deltas, _ = coupled_deltas_and_grads(cur, ref, batch, masks)
        assert deltas == [(float(a.mean()) - float(b.mean())) / 16
                          for a, b in zip(cur_terms, ref_terms)]

    def test_peak_memory_stays_below_two_forwards(self):
        # a score-heavy micro-batch: 24 sudoku4 completions, 8 masks each.
        # The reference forward is reduced and released before the current
        # one is built, and the features carry their gemm padding, so the
        # call's peak stays below two forwards' activations (about 1.6 of
        # them; a current forward kept alive through the reference forward
        # reaches about 2.3)
        rng = np.random.default_rng(9)
        cur, ref = default_model("sudoku4", rng)
        batch = stack_of([Sequence(p, rng.integers(0, MASK_ID, size=16))
                          for p in task_prompts("sudoku4", 4, rng) for _ in range(6)])
        masks = sample_mask_sets(16, 8, rng, len(batch.completion))
        stack = _MaskStack(batch, masks)
        logprobs, (x, ctx, h) = denoiser.forward(cur, stack.rows(cur))
        one_forward = logprobs.nbytes + x.nbytes + ctx.nbytes + h.nbytes
        del stack, logprobs, x, ctx, h
        tracemalloc.start()
        try:
            coupled_deltas_and_grads(cur, ref, batch, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * one_forward


class TestMaskStack:
    def test_terms_equal_per_mask_sums(self, rng):
        # sets of 8 and more positions take numpy's unrolled pairwise sum;
        # the sums by set size still equal each mask's own 1-D sum bit for bit
        params = init_params(4, window=2, hidden=8, embed_dim=4, n_positions=22, seed=3)
        prompt = rng.integers(0, 4, size=2)
        group = [Sequence(prompt, rng.integers(0, 4, size=20)) for _ in range(6)]
        masks = sample_mask_sets(20, 8, rng, len(group))
        sizes = set(masks.hits.sum(axis=1).tolist())
        assert min(sizes) < 8 <= max(sizes)
        all_terms = elbo_terms(params, stack_of(group), masks)
        for seq, part, terms in zip(group, shares(masks, len(group)), all_terms):
            want = []
            for row in part.hits:
                idx = np.flatnonzero(row)
                lp = logprob_table(params, seq.with_masked(idx))
                want.append((20 / idx.size) * lp[idx, seq.completion[idx]].sum())
            assert np.array_equal(terms, want)


    @staticmethod
    def _reference_stack(parts):
        # the per-completion dict.fromkeys dedup over position tuples
        which, spans, sets = [], [], []
        for masks in parts:
            sets_of = [tuple(np.flatnonzero(row).tolist()) for row in masks.hits]
            distinct = list(dict.fromkeys(sets_of))
            index = {s: len(sets) + j for j, s in enumerate(distinct)}
            which.append(np.array([index[s] for s in sets_of]))
            spans.append(range(len(sets), len(sets) + len(distinct)))
            sets.extend(distinct)
        return which, spans, sets

    @pytest.mark.parametrize("l_c,k_max", [(3, 12), (6, 8), (70, 6)])
    def test_dedup_matches_dict_reference(self, rng, l_c, k_max):
        prompt = rng.integers(0, 4, size=2)
        for _ in range(5):
            group = [Sequence(prompt, rng.integers(0, 4, size=l_c)) for _ in range(4)]
            k = int(rng.integers(1, k_max + 1))
            parts = shares(sample_mask_sets(l_c, k + 2, rng, len(group)), len(group))
            # repeat a set within a completion and share one across completions
            parts[1] = join(take(parts[1], slice(k)), take(parts[1], [0]), take(parts[0], [0]))
            parts[3] = join(take(parts[2], [-1]), take(parts[3], slice(k)), take(parts[3], [0]))
            stack = _MaskStack(stack_of(group), join(*parts))
            which, spans, sets = self._reference_stack(parts)
            assert np.array_equal(stack.mask_row.reshape(len(group), k + 2), which)
            assert stack.row_offsets.tolist() == [0, *(span.stop for span in spans)]
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
        batch = center_scores([1.0, 2.0], centering=False)
        assert batch.center == 0.0
        np.testing.assert_array_equal(batch.centered, batch.deltas)

    def test_var_delta_is_population_variance(self):
        vals = [0.2, -1.0, 3.0, 0.5]
        assert var_delta(center_scores(vals)) == pytest.approx(np.var(vals))
        # centering does not change the diagnostic
        assert var_delta(center_scores(vals, centering=False)) == pytest.approx(np.var(vals))

    def test_batch_mean_offset(self):
        vals = [1.0, 3.0]
        assert batch_mean_offset(center_scores(vals)) == pytest.approx(0.0, abs=1e-15)
        assert batch_mean_offset(center_scores(vals, centering=False)) == pytest.approx(2.0)
