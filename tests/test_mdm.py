import copy
import hashlib
import math

import numpy as np
import pytest

from conftest import default_model, forward_on, task_prompts, tiny_params
from rspo_lab import denoiser
from rspo_lab.denoiser import init_params
from rspo_lab.harness import RunConfig
from rspo_lab.mdm import DecodeConfig, _sample_categorical, decode, sample_completion_groups
from rspo_lab.sequences import MASKED_TOKEN, Sequence


def wide_params(scale: float = 0.05):
    return init_params(4, window=2, hidden=8, embed_dim=4, n_positions=12, seed=5,
                       scale=scale)


class SpyRows(denoiser.Rows):
    """``Rows`` that keep the layout and ``where`` they are built from, so a
    spy on ``denoiser.forward`` sees the decode state of its call."""

    def __init__(self, layout, where=None):
        super().__init__(layout, where)
        self.layout, self.where = layout, where


class TestDecode:
    def cfg(self, **kw):
        base = dict(gen_len=8, block_size=4, unmask_per_step=2, temperature=0.9)
        base.update(kw)
        return DecodeConfig(**base)

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            DecodeConfig(gen_len=10, block_size=4)

    @pytest.mark.parametrize("field,value", [
        ("gen_len", 0), ("gen_len", -8), ("block_size", 0), ("block_size", -4),
        ("unmask_per_step", 0), ("temperature", float("nan")),
        ("temperature", float("inf")), ("temperature", -0.5),
        ("gen_len", 16.0), ("block_size", True), ("temperature", "0.5"),
    ])
    def test_invalid_config_names_field(self, field, value):
        # block_size 0 is rejected before gen_len % block_size can divide by it
        with pytest.raises(ValueError, match=f"^{field} "):
            DecodeConfig(**{field: value})

    def test_fully_unmasked_output(self, rng):
        params = tiny_params(seed=5)
        out = decode(params, [np.array([1])], self.cfg(gen_len=4, block_size=4), [rng])
        assert not out.masked.any()
        assert (out.completion[0] >= 0).all()

    def test_blocks_fill_in_order(self, rng, monkeypatch):
        # instrument the denoiser to watch the mask pattern at each call
        params = wide_params()
        snapshots = []
        real = denoiser.forward

        def spy(params, rows):
            snapshots.append(rows.layout.completion == MASKED_TOKEN)
            return real(params, rows)

        monkeypatch.setattr(denoiser, "Rows", SpyRows)
        monkeypatch.setattr(denoiser, "forward", spy)
        decode(params, [np.array([1])], self.cfg(), [rng])
        assert snapshots
        for masked in snapshots:
            # later blocks must stay fully masked until earlier ones finish
            if masked[..., :4].any():
                assert masked[..., 4:].all()

    def test_step_count(self, rng, monkeypatch):
        params = wide_params()
        calls = 0
        real = denoiser.forward

        def spy(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(denoiser, "forward", spy)
        cfg = self.cfg(gen_len=8, block_size=4, unmask_per_step=2)
        decode(params, [np.array([1])], cfg, [rng])
        assert calls == cfg.gen_len // cfg.unmask_per_step

    def test_seeded_determinism(self):
        params = wide_params()
        cfg = self.cfg()
        a = decode(params, [np.array([1])], cfg, [np.random.default_rng(9)])
        b = decode(params, [np.array([1])], cfg, [np.random.default_rng(9)])
        assert np.array_equal(a.completion[0], b.completion[0])

    def test_prompt_not_touched(self, rng):
        params = tiny_params(seed=5)
        prompt = np.array([1, 2])
        out = decode(params, [prompt], self.cfg(gen_len=4, block_size=4), [rng])
        assert np.array_equal(out.prompt[0], prompt)

    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_ragged_prompts_one_stream_each_equal_each_alone(self, temperature):
        # one completion per prompt, the evaluation shape: each row of the
        # left-padded stack decodes as its prompt alone on a copy of its stream;
        # the model is far from uniform, so a misplaced prompt token changes
        # the decoded tokens (at the default init scale it rarely does)
        params = wide_params(scale=1.0)
        cfg = self.cfg(unmask_per_step=3, temperature=temperature)
        prompts = [np.array([], dtype=np.int64), np.array([2]), np.array([3, 1]),
                   np.array([1, 3, 0])]
        for seed in range(5):
            rngs = np.random.default_rng(seed).spawn(len(prompts))
            copies = copy.deepcopy(rngs)
            stack = decode(params, prompts, cfg, rngs)
            assert not stack.masked.any()
            for b, (prompt, rng) in enumerate(zip(prompts, copies)):
                alone = decode(params, [prompt], cfg, [rng])
                assert np.array_equal(stack.completion[b], alone.completion[0])

    def test_no_prompts_rejected(self):
        with pytest.raises(ValueError, match="^need at least one prompt$"):
            decode(tiny_params(seed=5), [], self.cfg(), [])

    def test_one_rng_per_prompt(self):
        with pytest.raises(ValueError, match="got 2 prompts and 1 rngs$"):
            decode(wide_params(), [np.array([1]), np.array([2])], self.cfg(),
                   [np.random.default_rng(0)])

    def test_each_step_equals_a_fresh_forward(self, monkeypatch):
        # every step's forward on the decode's one layout, into which earlier
        # steps committed, equals bit for bit a forward that builds its
        # features afresh from the stack's tokens, on countdown's ragged
        # prompts (widths 8 and 9)
        rng = np.random.default_rng(21)
        params, _ = default_model("countdown", rng)
        prompts = task_prompts("countdown", 4, rng)
        assert {p.size for p in prompts} == {8, 9}
        real = denoiser.forward
        steps = []

        def spy(params, rows):
            layout, where = rows.layout, rows.where
            fwd = real(params, rows)
            fresh = forward_on(params, Sequence(layout.prompt.copy(), layout.completion.copy()), where)
            for got, want in zip((fwd[0], *fwd[1]), (fresh[0], *fresh[1])):
                assert np.array_equal(got, want)
            steps.append(int(where.sum()))
            return fwd

        monkeypatch.setattr(denoiser, "Rows", SpyRows)
        monkeypatch.setattr(denoiser, "forward", spy)
        cfg = RunConfig(task="countdown").decode_config()
        sample_completion_groups(params, prompts, 6, cfg, rng)
        assert steps == [24 * left for left in (8, 6, 4, 2)] * 2


class TestTinyTemperature:
    # logprobs / temperature overflows to -inf across a whole row; such a row
    # draws its temperature-0 limit, the argmax, not token 0 from a NaN cdf
    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_overflowing_rows_draw_the_argmax(self, temperature):
        logprobs = np.log(np.array([[0.1, 0.6, 0.3]] * 3))
        draws = _sample_categorical(logprobs, temperature, np.array([0.0, 0.5, 0.999]))
        assert draws.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_decode_equals_temperature_zero(self, temperature):
        params = wide_params(scale=1.0)
        prompts = [np.array([1, 3]), np.array([2])]
        got, want = (decode(params, prompts, DecodeConfig(gen_len=8, block_size=4, temperature=t),
                            np.random.default_rng(0).spawn(2))
                     for t in (temperature, 0.0))
        assert np.array_equal(got.completion, want.completion)


class TestCompletionGroups:
    def test_group_of_one_rejected(self, rng):
        params = tiny_params(seed=5)
        with pytest.raises(ValueError):
            sample_completion_groups(params, [np.array([1])], 1,
                                     DecodeConfig(gen_len=4, block_size=4), rng)

    def test_no_prompts_rejected(self, rng):
        # rejected before anything is drawn from rng
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^need at least one prompt$"):
            sample_completion_groups(tiny_params(seed=5), [], 4,
                                     DecodeConfig(gen_len=4, block_size=4), rng)
        assert rng.bit_generator.state == state

    def test_temperature_zero_collapses(self, rng):
        params = tiny_params(seed=5)
        cfg = DecodeConfig(gen_len=4, block_size=4, temperature=0.0)
        group = sample_completion_groups(params, [np.array([1])], 4, cfg, rng)[0]
        first = group[0].completion
        for comp in group[1:]:
            assert np.array_equal(comp.completion, first)

    def test_streams_are_independent_of_group_size(self):
        # the first completions agree regardless of how many siblings follow
        params = tiny_params(seed=5)
        cfg = DecodeConfig(gen_len=4, block_size=4, temperature=0.9)
        a = sample_completion_groups(params, [np.array([1])], 2, cfg,
                                     np.random.default_rng(3))[0]
        b = sample_completion_groups(params, [np.array([1])], 4, cfg,
                                     np.random.default_rng(3))[0]
        assert np.array_equal(a[0].completion, b[0].completion)
        assert np.array_equal(a[1].completion, b[1].completion)

    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    @pytest.mark.parametrize("block_size,unmask", [(4, 2), (4, 3), (8, 3), (2, 5)])
    def test_lockstep_equals_decoding_each_child_alone(self, temperature, block_size, unmask):
        params = wide_params()
        cfg = DecodeConfig(gen_len=8, block_size=block_size, unmask_per_step=unmask,
                           temperature=temperature)
        for seed in range(5):
            group = sample_completion_groups(params, [np.array([1, 3])], 5, cfg,
                                             np.random.default_rng(seed))[0]
            children = np.random.default_rng(seed).spawn(5)
            for comp, child in zip(group, children):
                alone = decode(params, [np.array([1, 3])], cfg, [child])
                assert np.array_equal(comp.completion, alone.completion[0])
                assert not comp.masked.any()


    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_ragged_groups_equal_one_group_at_a_time(self, temperature):
        # prompts of different lengths, the empty one included, decode in one
        # lockstep stack exactly as one group per prompt on the same RNG; at
        # init scale 1.0 a misplaced prompt token changes the decoded tokens
        params = wide_params(scale=1.0)
        cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=3,
                           temperature=temperature)
        prompts = [np.array([1, 3, 0]), np.array([2]), np.array([], dtype=np.int64),
                   np.array([3, 3])]
        for seed in range(5):
            groups = sample_completion_groups(params, prompts, 3, cfg,
                                              np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            for prompt, group in zip(prompts, groups):
                alone = sample_completion_groups(params, [prompt], 3, cfg, rng)[0]
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
                    alone = sample_completion_groups(params, [prompt], 6, cfg, alone_rng)[0]
                    for comp, want in zip(group, alone):
                        assert np.array_equal(comp.completion, want.completion)

    def test_decode_reads_only_the_active_masked_positions(self, monkeypatch):
        # each step asks for the still-masked positions of the active block,
        # 8 + 6 + 4 + 2 per block and completion at the defaults, and gets
        # exactly those rows of the full tables
        rng = np.random.default_rng(12)
        params, _ = default_model("arith", rng)
        cfg = RunConfig().decode_config()
        calls = []
        real = denoiser.forward

        def spy(params, rows):
            layout, where = rows.layout, rows.where
            fwd = real(params, rows)
            seq = Sequence(layout.prompt, layout.completion.copy())
            full = forward_on(params, seq)[0].reshape(where.shape + (-1,))
            assert np.array_equal(fwd[0], full[where])
            calls.append((seq.masked, where.copy()))
            return fwd

        monkeypatch.setattr(denoiser, "Rows", SpyRows)
        monkeypatch.setattr(denoiser, "forward", spy)
        sample_completion_groups(params, task_prompts("arith", 4, rng), 6, cfg, rng)
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
    def test_equal_confidences_commit_lowest_positions_first(self, rng, monkeypatch):
        # a zero-theta model is uniform: every candidate the same confidence
        params = wide_params()
        params = params.replace_theta(np.zeros_like(params.theta))
        snapshots = []
        real = denoiser.forward

        def spy(params, rows):
            snapshots.append(rows.layout.completion == MASKED_TOKEN)
            fwd = real(params, rows)
            assert (fwd[0] == -math.log(4)).all()
            return fwd

        monkeypatch.setattr(denoiser, "Rows", SpyRows)
        monkeypatch.setattr(denoiser, "forward", spy)
        cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=3)
        sample_completion_groups(params, [np.array([1])], 3, cfg, rng)
        before = [[1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 1],
                  [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1]]
        assert len(snapshots) == len(before)
        for masked, want in zip(snapshots, before):
            assert np.array_equal(masked, np.tile(np.array(want, dtype=bool), (3, 1)))
