import hashlib
import math

import numpy as np
import pytest

from conftest import default_model, task_prompts, tiny_params, tiny_sequence
from rspo_lab.denoiser import init_params
from rspo_lab.harness import RunConfig
from rspo_lab.mdm import (
    DecodeConfig,
    alpha_linear,
    decode_semi_ar,
    forward_mask,
    reverse_step,
    sample_completion_group,
    sample_completion_groups,
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

    def logprobs(self, seq: Sequence, where: np.ndarray) -> np.ndarray:
        lp = np.full((seq.completion_len, self.vocab_size), -np.inf)
        for i in range(seq.completion_len):
            lp[i, self.clean.completion[i]] = 0.0
        return lp[where]


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
            def logprobs(self, seq, where):
                snapshots.append(seq.masked.copy())
                return real(seq, where)

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
            def logprobs(self, seq, where):
                nonlocal calls
                calls += 1
                return real(seq, where)

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


    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_ragged_groups_equal_one_group_at_a_time(self, temperature):
        # prompts of different lengths, the empty one included, decode in one
        # lockstep stack exactly as one group per prompt on the same RNG
        params = wide_params()
        cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=3,
                           temperature=temperature)
        prompts = [np.array([1, 3, 0]), np.array([2]), np.array([], dtype=np.int64),
                   np.array([3, 3])]
        for seed in range(5):
            groups = sample_completion_groups(params, prompts, 3, cfg,
                                              np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            for prompt, group in zip(prompts, groups):
                alone = sample_completion_group(params, prompt, 3, cfg, rng)
                for comp, want in zip(group, alone):
                    assert np.array_equal(comp.prompt, prompt)
                    assert np.array_equal(comp.completion, want.completion)
                    assert not comp.masked.any()


class TestProductionSize:
    def test_groups_equal_each_group_alone(self):
        # four groups of six at RunConfig defaults, countdown's ragged prompts
        # included, decode in one lockstep stack exactly as one group at a time
        for task in ("arith", "countdown"):
            rng = np.random.default_rng(11)
            params, _ = default_model(task, rng)
            cfg = RunConfig(task=task).decode_config()
            for seed in range(3):
                prompts = task_prompts(task, 4, rng)
                groups = sample_completion_groups(params, prompts, 6, cfg,
                                                  np.random.default_rng(seed))
                alone_rng = np.random.default_rng(seed)
                for prompt, group in zip(prompts, groups):
                    alone = sample_completion_group(params, prompt, 6, cfg, alone_rng)
                    for comp, want in zip(group, alone):
                        assert np.array_equal(comp.completion, want.completion)

    def test_decode_reads_only_the_active_masked_positions(self):
        # each step asks for the still-masked positions of the active block,
        # 8 + 6 + 4 + 2 per block and completion at the defaults, and gets
        # exactly those rows of the full tables
        rng = np.random.default_rng(12)
        params, _ = default_model("arith", rng)
        cfg = RunConfig().decode_config()
        calls = []

        class Spy:
            def logprobs(self, seq, where):
                rows = params.logprobs(seq, where)
                assert np.array_equal(rows, params.logprobs(seq)[where])
                calls.append((seq.masked.copy(), where.copy()))
                return rows

        sample_completion_groups(Spy(), task_prompts("arith", 4, rng), 6, cfg, rng)
        assert len(calls) == cfg.gen_len // cfg.unmask_per_step
        for masked, where in calls:
            start = np.flatnonzero(masked.any(axis=0))[0] // cfg.block_size * cfg.block_size
            want = np.zeros_like(masked)
            want[:, start:start + cfg.block_size] = masked[:, start:start + cfg.block_size]
            assert np.array_equal(where, want)
        assert sum(int(where.sum()) for _, where in calls) == 24 * 2 * (8 + 6 + 4 + 2)


@pytest.mark.parametrize("block_size,unmask,temperature,digest", [
    (8, 2, 0.9, "5fbafea3d32d28e6db59dd8e229660e825b589b77daae143366d50d30b9f9c10"),
    (8, 3, 0.9, "ab217bcca592bea269bfe6d14c4b0faf8a05099d9a702039df4f5dd60a3274f0"),
    (16, 16, 0.9, "89638e15395011c2b73df3482e39099a998520721142067c1ff186099fc24b18"),
    (8, 2, 0.0, "37a381366e58a958ef7ef8a9b45ae5384321cb29b46a0483128bb909f8f86781"),
])
def test_sample_completion_groups_match_recorded_digest(block_size, unmask, temperature,
                                                        digest):
    # four groups of six on countdown's ragged prompts (widths 8 and 9); the
    # digests pin every child stream's uniform draws and the tokens they pick
    rng = np.random.default_rng(21)
    params, _ = default_model("countdown", rng)
    prompts = task_prompts("countdown", 4, rng)
    cfg = DecodeConfig(gen_len=16, block_size=block_size, unmask_per_step=unmask,
                       temperature=temperature)
    groups = sample_completion_groups(params, prompts, 6, cfg, rng)
    assert {p.size for p in prompts} == {8, 9}
    blob = np.array([[c.completion for c in group] for group in groups]).tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest


class TestTies:
    def test_equal_confidences_commit_lowest_positions_first(self, rng):
        # a uniform model gives every candidate the same confidence
        snapshots = []

        class Uniform:
            def logprobs(self, seq, where):
                snapshots.append(seq.masked.copy())
                return np.full((int(where.sum()), 4), -math.log(4))

        cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=3)
        sample_completion_group(Uniform(), np.array([1]), 3, cfg, rng)
        before = [[1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 1],
                  [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1]]
        assert len(snapshots) == len(before)
        for masked, want in zip(snapshots, before):
            assert np.array_equal(masked, np.tile(np.array(want, dtype=bool), (3, 1)))
