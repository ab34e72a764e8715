import math

import numpy as np
import pytest

from conftest import tiny_params, tiny_sequence
from rspo_lab.denoiser import init_params
from rspo_lab.mdm import (
    DecodeConfig,
    alpha_linear,
    decode_semi_ar,
    forward_mask,
    reverse_step,
    sample_completion_group,
)
from rspo_lab.sequences import MASKED_TOKEN, Sequence


def wide_params():
    return init_params(4, window=2, hidden=8, embed_dim=4, n_positions=12, seed=5)


def binomial_central_interval(n: int, p: float, coverage: float = 0.99):
    """Quantile oracle from the exact CDF (log-space pmf)."""
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log(1 - p)
        for k in range(n + 1)
    ]
    pmf = np.exp(logs)
    cdf = np.cumsum(pmf)
    tail = (1.0 - coverage) / 2.0
    lo = int(np.searchsorted(cdf, tail))
    hi = int(np.searchsorted(cdf, 1.0 - tail))
    return lo, hi


class TestSchedule:
    def test_endpoints(self):
        assert alpha_linear(0.0) == 1.0
        assert alpha_linear(1.0) == 0.0

    def test_interior(self):
        assert alpha_linear(0.25) == 0.75

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            alpha_linear(-0.1)
        with pytest.raises(ValueError):
            alpha_linear(1.5)


class TestForwardMask:
    def test_t_zero_identity(self, rng):
        y = tiny_sequence(rng)
        z = forward_mask(y, 0.0, rng)
        assert np.array_equal(z.completion, y.completion)
        assert not z.masked.any()

    def test_t_one_all_masked(self, rng):
        y = tiny_sequence(rng)
        z = forward_mask(y, 1.0, rng)
        assert z.masked.all()
        assert (z.completion == MASKED_TOKEN).all()

    def test_prompt_untouched(self, rng):
        y = tiny_sequence(rng)
        z = forward_mask(y, 0.7, rng)
        assert np.array_equal(z.prompt, y.prompt)

    def test_mask_count_within_binomial_interval(self):
        n = 1000
        lo, hi = binomial_central_interval(n, 0.5)
        y = Sequence(prompt=np.array([0]), completion=np.zeros(n, dtype=np.int64))
        for seed in range(5):
            z = forward_mask(y, 0.5, np.random.default_rng(seed))
            assert lo <= int(z.masked.sum()) <= hi

    def test_corrupted_input_rejected(self, rng):
        z = tiny_sequence(rng).with_masked([0])
        with pytest.raises(ValueError, match="clean"):
            forward_mask(z, 0.5, rng)


class PerfectDenoiser:
    """Oracle denoiser: probability one on the clean completion tokens."""

    def __init__(self, clean: Sequence, vocab_size: int):
        self.clean = clean
        self.vocab_size = vocab_size

    def logprobs(self, seq: Sequence) -> np.ndarray:
        lp = np.full((seq.completion_len, self.vocab_size), -np.inf)
        for i in range(seq.completion_len):
            lp[i, self.clean.completion[i]] = 0.0
        return lp


class TestReverseStep:
    def test_unmasked_positions_copied(self, rng):
        params = tiny_params(seed=1)
        z = tiny_sequence(rng).with_masked([1])
        kept = z.completion[[0, 2]].copy()
        out = reverse_step(params, z, 0.8, 0.3, rng)
        assert np.array_equal(out.completion[[0, 2]], kept)

    def test_s_close_to_t_stays_masked(self, rng):
        params = tiny_params(seed=1)
        z = tiny_sequence(rng).with_masked([0, 1, 2])
        out = reverse_step(params, z, 0.8, 0.8 - 1e-12, rng)
        assert out.masked.all()

    def test_s_zero_fills_everything(self, rng):
        params = tiny_params(seed=1)
        z = tiny_sequence(rng).with_masked([0, 1, 2])
        out = reverse_step(params, z, 0.8, 0.0, rng)
        assert not out.masked.any()

    def test_invalid_times_rejected(self, rng):
        params = tiny_params(seed=1)
        z = tiny_sequence(rng).with_masked([0])
        with pytest.raises(ValueError):
            reverse_step(params, z, 0.5, 0.5, rng)
        with pytest.raises(ValueError):
            reverse_step(params, z, 0.3, 0.5, rng)

    def test_perfect_denoiser_reconstructs(self, rng):
        for _ in range(10):
            y = tiny_sequence(rng)
            oracle_model = PerfectDenoiser(y, 4)
            z = forward_mask(y, float(rng.uniform(0.2, 1.0)), rng)
            out = reverse_step(oracle_model, z, 1.0, 0.0, rng)
            assert np.array_equal(out.completion, y.completion)


class TestDecode:
    def cfg(self, **kw):
        base = dict(gen_len=8, block_size=4, unmask_per_step=2,
                    temperature=0.9, seed=0)
        base.update(kw)
        return DecodeConfig(**base)

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            DecodeConfig(gen_len=10, block_size=4)

    def test_fully_unmasked_output(self, rng):
        params = tiny_params(seed=5)
        out = decode_semi_ar(params, np.array([1]), self.cfg(gen_len=4, block_size=4), rng)
        assert not out.masked.any()
        assert (out.completion >= 0).all()

    def test_blocks_fill_in_order(self, rng):
        # instrument the denoiser to watch the mask pattern at each call
        params = wide_params()
        snapshots = []
        real = params.logprobs

        class Spy:
            def logprobs(self, seq):
                snapshots.append(seq.masked.copy())
                return real(seq)

        decode_semi_ar(Spy(), np.array([1]), self.cfg(), rng)
        for masked in snapshots:
            # later blocks must stay fully masked until earlier ones finish
            if masked[:4].any():
                assert masked[4:].all()

    def test_step_count(self, rng):
        params = wide_params()
        calls = 0
        real = params.logprobs

        class Spy:
            def logprobs(self, seq):
                nonlocal calls
                calls += 1
                return real(seq)

        cfg = self.cfg(gen_len=8, block_size=4, unmask_per_step=2)
        decode_semi_ar(Spy(), np.array([1]), cfg, rng)
        assert calls == cfg.gen_len // cfg.unmask_per_step

    def test_seeded_determinism(self):
        params = wide_params()
        cfg = self.cfg()
        a = decode_semi_ar(params, np.array([1]), cfg, np.random.default_rng(9))
        b = decode_semi_ar(params, np.array([1]), cfg, np.random.default_rng(9))
        assert np.array_equal(a.completion, b.completion)

    def test_prompt_not_touched(self, rng):
        params = tiny_params(seed=5)
        prompt = np.array([1, 2])
        out = decode_semi_ar(params, prompt, self.cfg(gen_len=4, block_size=4), rng)
        assert np.array_equal(out.prompt, prompt)


class TestCompletionGroups:
    def test_group_of_one_rejected(self, rng):
        params = tiny_params(seed=5)
        with pytest.raises(ValueError):
            sample_completion_group(params, np.array([1]), 1,
                                    DecodeConfig(gen_len=4, block_size=4), rng)

    def test_temperature_zero_collapses(self, rng):
        params = tiny_params(seed=5)
        cfg = DecodeConfig(gen_len=4, block_size=4, temperature=0.0)
        group = sample_completion_group(params, np.array([1]), 4, cfg, rng)
        first = group[0].completion
        for comp in group[1:]:
            assert np.array_equal(comp.completion, first)

    def test_streams_are_independent_of_group_size(self):
        # the first completions agree regardless of how many siblings follow
        params = tiny_params(seed=5)
        cfg = DecodeConfig(gen_len=4, block_size=4, temperature=0.9)
        a = sample_completion_group(params, np.array([1]), 2, cfg,
                                    np.random.default_rng(3))
        b = sample_completion_group(params, np.array([1]), 4, cfg,
                                    np.random.default_rng(3))
        assert np.array_equal(a[0].completion, b[0].completion)
        assert np.array_equal(a[1].completion, b[1].completion)

    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    @pytest.mark.parametrize("block_size,unmask", [(4, 2), (4, 3), (8, 3), (2, 5)])
    def test_lockstep_equals_decoding_each_child_alone(self, temperature, block_size, unmask):
        params = wide_params()
        cfg = DecodeConfig(gen_len=8, block_size=block_size, unmask_per_step=unmask,
                           temperature=temperature)
        for seed in range(5):
            group = sample_completion_group(params, np.array([1, 3]), 5, cfg,
                                            np.random.default_rng(seed))
            children = np.random.default_rng(seed).spawn(5)
            for comp, child in zip(group, children):
                alone = decode_semi_ar(params, np.array([1, 3]), cfg, child)
                assert np.array_equal(comp.completion, alone.completion)
                assert not comp.masked.any()


class TestTies:
    def test_equal_confidences_commit_lowest_positions_first(self, rng):
        # a uniform model gives every candidate the same confidence
        snapshots = []

        class Uniform:
            def logprobs(self, seq):
                snapshots.append(seq.masked.copy())
                return np.full(seq.completion.shape + (4,), -math.log(4))

        cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=3)
        sample_completion_group(Uniform(), np.array([1]), 3, cfg, rng)
        before = [[1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 1],
                  [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1]]
        assert len(snapshots) == len(before)
        for masked, want in zip(snapshots, before):
            assert np.array_equal(masked, np.tile(np.array(want, dtype=bool), (3, 1)))
