import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from conftest import RETIRED_KEYS, default_model
from rspo_lab import denoiser, harness, mdm, objectives, score, tasks
from rspo_lab.harness import (
    CHECKPOINT_HEADER,
    RunAborted,
    RunConfig,
    StepMetrics,
    TrainState,
    adam_update,
    init_state,
    load_checkpoint,
    read_json_object,
    read_metrics,
    run_experiment,
    save_checkpoint,
    train_step,
    write_json,
)
from rspo_lab.sequences import Sequence


def smoke_config(tmp_path, **kw):
    base = dict(
        task="arith",
        modulus=5,
        gen_len=2,
        block_size=2,
        unmask_per_step=2,
        steps=3,
        groups_per_batch=2,
        group_size=3,
        hidden=8,
        embed_dim=4,
        window=2,
        lr=1e-2,
        checkpoint_every=0,
        out_dir=str(tmp_path / "run"),
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_dict_round_trip_uses_lambda_key(self):
        cfg = RunConfig(lam=0.5)
        obj = cfg.to_dict()
        assert obj["lambda"] == 0.5
        assert "lam" not in obj
        assert RunConfig.from_dict(obj) == cfg

    def test_unknown_key_suggests_fix(self):
        with pytest.raises(ValueError, match="lambda"):
            RunConfig.from_dict({"lamda": 0.1})

    def test_hash_tracks_content(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=2)
        assert a.config_hash() == RunConfig(seed=1).config_hash()
        assert a.config_hash() != b.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(lam=-0.1)
        with pytest.raises(ValueError):
            RunConfig(group_size=1)
        with pytest.raises(ValueError):
            RunConfig(task="chess")
        bad = [dict(lr=-1), dict(lr=0.0), dict(block_size=5), dict(steps=-3),
               dict(temperature=-1.0), dict(unmask_per_step=0),
               dict(centering="false"), dict(group_size=2.5), dict(seed="1"),
               dict(steps="5"), dict(steps=True), dict(lam=True), dict(lr="0.1"),
               dict(reference=1), dict(task=3)]
        for kw in bad:
            with pytest.raises(ValueError):
                RunConfig(**kw)
        assert RunConfig(steps=0).steps == 0
        assert RunConfig(lam=0, lr=1).lam == 0  # an int is a float value
        with pytest.raises(ValueError, match="centering"):
            RunConfig.from_dict({"centering": "false"})
        with pytest.raises(ValueError, match="lambda"):
            RunConfig.from_dict({"lambda": "0.1"})
        # out-of-range values name their JSON key
        named = [("block_size", 0), ("gen_len", 0), ("groups_per_batch", 0), ("hidden", 0),
                 ("embed_dim", 0), ("window", -1), ("modulus", 1), ("modulus", 101),
                 ("checkpoint_every", -1), ("lambda", float("nan")), ("lambda", float("inf")),
                 ("temperature", float("nan")), ("lr", float("inf"))]
        for key, value in named:
            with pytest.raises(ValueError, match=key):
                RunConfig.from_dict({key: value})
        edge = RunConfig(window=0, checkpoint_every=0, modulus=100)
        assert edge.window == 0 and edge.modulus == 100

    def test_modulus_only_on_a_task_that_reads_it(self):
        # a modulus the task never reads would hash apart from the default and
        # train identically, so an ablation would rerun one experiment
        assert RunConfig(task="arith", modulus=5).modulus == 5
        for task in ("countdown", "sudoku4"):
            assert RunConfig(task=task).modulus == 10
            with pytest.raises(ValueError, match=f"modulus must be 10 on task {task}, "
                                                 "which never reads it, got 5"):
                RunConfig(task=task, modulus=5)
        with pytest.raises(ValueError, match="task must be one of"):  # the task is named first
            RunConfig(task="arth", modulus=5)

    def test_retired_keys_written_at_their_values(self):
        for cfg in (RunConfig(), RunConfig(lam=0.5, task="sudoku4", lr=0.1, centering=False)):
            obj = cfg.to_dict()
            assert {key: obj[key] for key in RETIRED_KEYS} == RETIRED_KEYS
            assert all(type(obj[key]) is type(value) for key, value in RETIRED_KEYS.items())
            assert RunConfig.from_dict(obj) == cfg
        assert len(dataclasses.fields(RunConfig)) == 21
        assert not set(RETIRED_KEYS) & set(RunConfig.field_keys())

    def test_retired_keys_load_only_at_their_values(self):
        # an int is a float value, as for a field; only a bool is a bool
        for key, value in [*RETIRED_KEYS.items(), ("weight_decay", 0)]:
            assert RunConfig.from_dict({key: value, "seed": 4}) == RunConfig(seed=4)
        bad = [("beta1", 0.8), ("beta1", float("nan")), ("beta2", 0.999), ("adam_eps", 1e-6),
               ("weight_decay", 0.1), ("weight_decay", False), ("weight_decay", "0.0"),
               ("weight_decay", None), ("debug_checks", True), ("debug_checks", 0)]
        for key, value in bad:
            with pytest.raises(ValueError, match=f"{key} is retired and must be "
                                                 f"{RETIRED_KEYS[key]!r}, got {value!r}"):
                RunConfig.from_dict({key: value})
        for key, value in RETIRED_KEYS.items():
            with pytest.raises(TypeError, match=key):
                RunConfig(**{key: value})

    def test_int_in_a_float_field_writes_the_float(self):
        # a file's "lambda": 0 and --lambda 0 write one config.json, hash and checkpoint
        floats = [f.name for f in dataclasses.fields(RunConfig) if type(f.default) is float]
        assert floats == ["lam", "lr", "temperature"]
        for name in floats:
            as_int, as_float = RunConfig(**{name: 1}), RunConfig(**{name: 1.0})
            assert type(getattr(as_int, name)) is float
            assert as_int.to_dict() == as_float.to_dict()
            assert as_int.config_hash() == as_float.config_hash()
        assert RunConfig(lam=0).config_hash() == RunConfig(lam=0.0).config_hash()

    def test_from_dict_raises_config_error(self):
        # the one validator of outside input: a bad key, retired value or field rule
        for obj, needle in (({"lamda": 0.1}, "unknown config keys"),
                            ({"beta1": 0.8}, "beta1 is retired"),
                            ({"lambda": -1.0}, "lambda must be >= 0"),
                            ({"block_size": 5}, "block_size"),
                            ({"out_dir": ""}, "out_dir must be a nonempty path, got ''")):
            with pytest.raises(harness.ConfigError, match=needle):
                RunConfig.from_dict(obj)

    def test_seed_range(self):
        for seed in (-1, 2**64, -(2**70)):
            with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*64-1"):
                RunConfig(seed=seed)
        assert RunConfig(seed=0).seed == 0
        assert RunConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_default_config_bytes(self, tmp_path):
        # the default config.json and its hash, recorded before any config
        # change: a new, renamed or re-defaulted field changes both, and with
        # them every run directory and checkpoint; a retired field does not,
        # as config.json keeps its key at the one value it loads at
        path = tmp_path / "config.json"
        write_json(path, RunConfig().to_dict())
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            518, "4ea1ecf1f70e9483b0dcd7d45db52adc0ce2055f840d509320838ad61d83eee7")
        assert RunConfig().config_hash() == (
            "0932df6275f2406b7d946fbfda8abb029dbc4c2330cd0ee79e0df9efc227ccaf")

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(lam=0.25, steps=7)
        path = tmp_path / "config.json"
        write_json(path, cfg.to_dict())
        assert RunConfig.from_dict(read_json_object(path)) == cfg
        assert json.loads(path.read_text())["lambda"] == 0.25

    def test_unreadable_file_is_named(self, tmp_path):
        for name, text in (("missing.json", None), ("bad.json", "{"), ("list.json", "[1]")):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            with pytest.raises(harness.ConfigError, match=name):
                read_json_object(path)


class TestMetricsSerialization:
    def test_wall_time_stays_out_of_stream(self):
        m = StepMetrics(step=0, mean_reward=0.5, loss=0.1, grad_norm=1.0,
                        var_delta=0.01, batch_mean_offset=0.0,
                        zero_std_group_ratio=0.0, wall_time=123.4)
        line = m.to_json_line()
        assert "wall_time" not in line
        assert json.loads(line)["mean_reward"] == 0.5


class TestAdam:
    def test_matches_reference_computation(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=5)
        grad = rng.normal(size=5)
        m = rng.normal(size=5)
        v = np.abs(rng.normal(size=5))
        lr, b1, b2, eps = 0.01, 0.9, 0.99, 1e-8
        step = 3
        m_new = b1 * m + (1 - b1) * grad
        v_new = b2 * v + (1 - b2) * grad**2
        want = theta - lr * (m_new / (1 - b1**step)) / (
            np.sqrt(v_new / (1 - b2**step)) + eps
        )
        got, gm, gv = adam_update(theta, grad, m, v, step, lr)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_allclose(gm, m_new)
        np.testing.assert_allclose(gv, v_new)

    def test_rejects_non_finite(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            adam_update(z, np.array([np.nan, 0.0]), z, z, 1, 0.1)
        with pytest.raises(ValueError):
            adam_update(z, np.zeros(3), z, z, 1, 0.1)
        for step in (0, -1):  # no bias correction below step 1
            with pytest.raises(ValueError, match="step"):
                adam_update(z, z, z, z, step, 0.1)


class TestTrainStep:
    def test_deterministic(self, tmp_path):
        cfg = smoke_config(tmp_path)
        s1, m1 = train_step(init_state(cfg), cfg)
        s2, m2 = train_step(init_state(cfg), cfg)
        assert np.array_equal(s1.params.theta, s2.params.theta)
        assert m1.to_json_line() == m2.to_json_line()

    def test_centering_keeps_offset_tiny(self, tmp_path):
        cfg = smoke_config(tmp_path)
        _, metrics = train_step(init_state(cfg), cfg)
        assert abs(metrics.batch_mean_offset) < 1e-12

    def test_reference_never_moves(self, tmp_path):
        # seed 1 yields at least one rewarded rollout, so theta moves
        cfg = smoke_config(tmp_path, seed=1)
        state = init_state(cfg)
        ref0 = state.ref_params.theta.copy()
        for _ in range(3):
            state, _ = train_step(state, cfg)
        assert np.array_equal(state.ref_params.theta, ref0)
        assert not np.array_equal(state.params.theta, ref0)

    def test_non_finite_gradient_aborts(self, tmp_path, monkeypatch):
        cfg = smoke_config(tmp_path)

        def poisoned(coeffs, grads):
            out = np.zeros_like(grads[0])
            out[0] = np.nan
            return out

        monkeypatch.setattr(harness.objectives, "weighted_gradient", poisoned)
        with pytest.raises(RunAborted):
            train_step(init_state(cfg), cfg)

    @pytest.mark.parametrize("reference,score_forwards", [(True, 2), (False, 1)])
    def test_default_step_kernel_calls(self, tmp_path, monkeypatch, reference, score_forwards):
        # a default step decodes in one forward per decode step, scores the
        # whole micro-batch in one forward per model, and backpropagates
        # once, one gradient per completion
        calls = []
        phase = ["score"]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((phase[0], name))
                return fn(*args, **kwargs)
            return wrapper

        sample = mdm.sample_completion_groups

        def decode(*args, **kwargs):
            phase[0] = "decode"
            try:
                return sample(*args, **kwargs)
            finally:
                phase[0] = "score"

        monkeypatch.setattr(mdm, "sample_completion_groups", decode)
        monkeypatch.setattr(denoiser, "forward", counted("forward", denoiser.forward))
        monkeypatch.setattr(denoiser, "backward", counted("backward", denoiser.backward))
        cfg = RunConfig(reference=reference, out_dir=str(tmp_path))
        train_step(init_state(cfg), cfg)
        assert calls.count(("decode", "forward")) == cfg.gen_len // cfg.unmask_per_step == 8
        assert calls.count(("score", "forward")) == score_forwards
        assert calls.count(("score", "backward")) == 1
        assert len(calls) == 8 + score_forwards + 1


class TestMovingPolicyStep:
    @pytest.mark.parametrize("task,k_masks", [("countdown", 2), ("sudoku4", 8)])
    def test_step_equals_rebuild_from_single_completions(self, tmp_path, task, k_masks):
        # default runs of these tasks never leave the reference: reward 0 and
        # params == ref give a zero gradient.  From a policy moved off the
        # reference, the step's new theta equals, bit for bit, a rebuild that
        # decodes one group at a time and scores each completion alone
        cfg = RunConfig(task=task, k_masks=k_masks, out_dir=str(tmp_path))
        start = init_state(cfg)
        params, ref = default_model(task, np.random.default_rng(5))
        assert np.array_equal(ref.theta, start.params.theta)
        state = TrainState(params, ref, start.m, start.v, step=2)
        new_state, metrics = train_step(state, cfg)

        prompt_rng, rollout_rng, mask_rng = harness._step_rngs(cfg, state.step)
        insts = [tasks.TASKS[task].generate(prompt_rng, cfg.modulus) for _ in range(cfg.groups_per_batch)]
        advantages, deltas, grads = [], [], []
        for inst in insts:
            prompt = tasks.encode_text(inst.prompt_text)
            group = mdm.sample_completion_groups(
                params, [prompt], cfg.group_size, cfg.decode_config(), rollout_rng).completion
            rewards = [tasks.reward(inst, tasks.decode_tokens(c)) for c in group]
            advantages.extend(objectives.group_advantages(rewards))
            for c in group:
                masks = score.sample_mask_sets(len(c), cfg.k_masks, mask_rng)
                (delta,), (grad,) = score.coupled_deltas_and_grads(
                    params, ref, Sequence(prompt, c), masks)
                deltas.append(delta)
                grads.append(grad)
        batch = score.center_scores(deltas)
        grad = objectives.weighted_gradient(
            objectives.rspo_weights(advantages, batch.centered, cfg.lam), grads)
        theta, _, _ = adam_update(params.theta, grad, state.m, state.v, state.step + 1, cfg.lr)
        assert metrics.grad_norm == float(np.linalg.norm(grad)) > 0
        assert np.array_equal(new_state.params.theta, theta)
        assert not np.array_equal(theta, params.theta)


class TestCheckpoints:
    @pytest.mark.parametrize("task,size,digest", [
        ("arith", 100400, "60fa5e1378f813af56cbabd30d98aa09601f7d97aedd341c45dd2a8794f6f42b"),
        ("countdown", 109616, "d142d47e85e9944fd9fa5077718389a8cdc5450817040ffd43dbffc5d9f3c65b"),
        ("sudoku4", 112688, "c70f70db3028a2b77c60f3fb7bfa3eb567fe793305975959836f4151a7970c79"),
    ])
    def test_default_checkpoint_bytes(self, tmp_path, task, size, digest):
        # each task's untrained checkpoint at the defaults, recorded before
        # any change to the init draw, the codec or the config: it holds no
        # float arithmetic beyond the uniform init draw, so its bytes are the
        # same on every machine (trained runs' gemm bits may differ by BLAS)
        cfg = RunConfig(task=task)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, init_state(cfg), cfg)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_round_trip(self, tmp_path):
        cfg = smoke_config(tmp_path)
        state = init_state(cfg)
        state, _ = train_step(state, cfg)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, state, cfg)
        loaded = load_checkpoint(path, cfg)
        assert loaded.step == state.step
        assert np.array_equal(loaded.params.theta, state.params.theta)
        assert np.array_equal(loaded.ref_params.theta, state.ref_params.theta)
        assert np.array_equal(loaded.m, state.m)
        assert np.array_equal(loaded.v, state.v)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = smoke_config(tmp_path)
        state = init_state(cfg)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, state, cfg)
        other = smoke_config(tmp_path, seed=99)
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path, other)
        # no config given skips the check
        assert load_checkpoint(path).step == 0

    def test_corrupt_bytes_rejected_naming_section(self, tmp_path):
        cfg = smoke_config(tmp_path)
        state = init_state(cfg)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, state, cfg)
        blob = path.read_bytes()
        n = state.params.theta.size
        head = CHECKPOINT_HEADER.size
        model = head + 8 * n
        mv = 2 * model + 8  # start of the m section
        cuts = {
            head - 4: "current params: truncated params header",
            head + 8: "current params: truncated params theta",
            model + head - 4: "reference params: truncated params header",
            model + head + 8: "reference params: truncated params theta",
            2 * model + 4: "truncated step counter",
            mv + 4: "truncated m length",
            mv + 8 + 8: "truncated m:",
            mv + 8 + 8 * n + 4: "truncated v length",
            mv + 16 + 8 * n + 8: "truncated v:",
            len(blob) - 1: "truncated config hash",
        }
        for cut, msg in cuts.items():
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=msg):
                load_checkpoint(path, cfg)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_checkpoint(path, cfg)
        short_m = blob[:mv] + (n - 1).to_bytes(8, "little") + blob[mv + 8:]
        path.write_bytes(short_m)
        with pytest.raises(ValueError, match=f"m has {n - 1} entries"):
            load_checkpoint(path, cfg)

    @pytest.mark.parametrize("section,cases", [
        ("m", [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite")]),
        ("v", [(np.nan, "non-finite"), (np.inf, "non-finite"), (-1.0, "negative")]),
    ])
    def test_bad_optimizer_moments_rejected_naming_section(self, tmp_path, section, cases):
        # such a checkpoint once loaded, and the next step failed on a
        # message that named theta
        cfg = smoke_config(tmp_path)
        path = tmp_path / "ckpt.bin"
        for value, kind in cases:
            state = init_state(cfg)
            getattr(state, section)[3] = value
            save_checkpoint(path, state, cfg)
            with pytest.raises(ValueError, match=f"^{section} has {kind} entries$"):
                load_checkpoint(path, cfg)

    @pytest.mark.parametrize("field", ["vocab_size", "window", "hidden", "embed_dim", "n_positions"])
    def test_reference_of_other_architecture_rejected(self, tmp_path, field):
        # the checkpoint format holds each section's own metadata; a
        # reference that disagrees with the current params is rejected
        cfg = smoke_config(tmp_path)
        state = init_state(cfg)
        arch = {name: getattr(state.params, name) for name in denoiser.ARCHITECTURE}
        arch[field] *= 2
        ref = denoiser.init_params(arch.pop("vocab_size"), **arch)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, TrainState(state.params, ref, state.m, state.v), cfg)
        with pytest.raises(ValueError, match=f"reference params: {field} {getattr(ref, field)} "
                                             f"differs from {getattr(state.params, field)}"):
            load_checkpoint(path, cfg)


class TestRunExperiment:
    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg_a = smoke_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = smoke_config(tmp_path, out_dir=str(tmp_path / "b"))
        _, summary_a = run_experiment(cfg_a)
        _, summary_b = run_experiment(cfg_b)

        out = tmp_path / "a"
        for name in ("config.json", "metrics.jsonl", "timings.jsonl",
                     "summary.json", "checkpoint_final.bin"):
            assert (out / name).exists()

        # identical seeds give byte-identical metric streams
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        for key in ("final_reward", "mean_last10_var_delta", "config_hash"):
            if key != "config_hash":  # out_dir differs, so hashes differ
                assert summary_a[key] == summary_b[key]

        rows = read_metrics(out / "metrics.jsonl")
        assert len(rows) == cfg_a.steps
        assert [r["step"] for r in rows] == list(range(cfg_a.steps))
        assert all("wall_time" not in r for r in rows)
        # every step's phase wall times, none negative, fit inside its wall time
        timings = read_metrics(out / "timings.jsonl")
        assert [r["step"] for r in timings] == list(range(cfg_a.steps))
        for r in timings:
            phases = [r[name] for name in harness.PHASES]
            assert min(phases) >= 0.0
            assert sum(phases) <= r["wall_time"]

    def test_summary_means_equal_metrics_stream(self, tmp_path):
        # the summary's figures are np.mean over the metrics.jsonl values, so
        # that file alone rebuilds them; with no reference and no centering
        # the offsets are the mean raw scores, away from zero
        _, summary = run_experiment(smoke_config(tmp_path, steps=13, reference=False,
                                                 centering=False))
        rows = read_metrics(tmp_path / "run" / harness.METRICS_FILE)
        offsets = [abs(r["batch_mean_offset"]) for r in rows]
        assert len(rows) == 13 and min(offsets) > 0.0
        assert summary["mean_abs_batch_offset"] == float(np.mean(offsets))
        var_tail = [r["var_delta"] for r in rows[-10:]]
        assert summary["mean_last10_var_delta"] == float(np.mean(var_tail))
        assert summary["final_reward"] == rows[-1]["mean_reward"]

    def test_periodic_checkpoints(self, tmp_path):
        cfg = smoke_config(tmp_path, steps=4, checkpoint_every=2)
        run_experiment(cfg)
        out = tmp_path / "run"
        assert (out / "checkpoint_000002.bin").exists()
        assert (out / "checkpoint_000004.bin").exists()

    def test_zero_steps_still_summarizes(self, tmp_path):
        # the mean reward of one rollout of the untouched initialization,
        # pinned to its recorded value
        for seed, reward in ((0, 0.0), (1, 1 / 3)):
            _, summary = run_experiment(smoke_config(tmp_path, steps=0, seed=seed))
            assert summary["final_reward"] == reward
            assert (tmp_path / "run" / "summary.json").exists()

    def test_timings_written_every_step(self, tmp_path, monkeypatch):
        # a reader during the run sees one timings line per finished step,
        # as in metrics.jsonl
        seen = []
        real_step = harness.train_step

        def step(state, cfg):
            out = tmp_path / "run"
            seen.append((state.step, len(read_metrics(out / "metrics.jsonl")),
                         len(read_metrics(out / "timings.jsonl"))))
            return real_step(state, cfg)

        monkeypatch.setattr(harness, "train_step", step)
        run_experiment(smoke_config(tmp_path, steps=3))
        assert seen == [(k, k, k) for k in range(3)]

    def test_resume_from_checkpoint_state(self, tmp_path):
        # a checkpoint written mid-run reloads into a usable state
        cfg = smoke_config(tmp_path, steps=2, checkpoint_every=1)
        run_experiment(cfg)
        state = load_checkpoint(tmp_path / "run" / "checkpoint_000001.bin", cfg)
        assert state.step == 1
        state, metrics = train_step(state, cfg)
        assert metrics.step == 1
        assert state.step == 2


class TestAtomicWrites:
    def torn_open(self, monkeypatch):
        """Make the writer's file handle write half its data, then fail."""
        real_open = open

        class Torn:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "open",
                            lambda *a, **kw: Torn(real_open(*a, **kw)), raising=False)

    def test_write_failing_midway_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = smoke_config(tmp_path)
        state = init_state(cfg)
        writers = {
            "checkpoint.bin": lambda path: save_checkpoint(path, state, cfg),
            "config.json": lambda path: write_json(path, cfg.to_dict()),
        }
        for name, write in writers.items():
            path = tmp_path / name
            path.write_bytes(b"previous " + name.encode())
            with monkeypatch.context() as patch:
                self.torn_open(patch)
                with pytest.raises(OSError, match="No space"):
                    write(path)
            assert path.read_bytes() == b"previous " + name.encode()
        assert sorted(os.listdir(tmp_path)) == sorted(writers)

    def test_failed_summary_write_keeps_previous_summary(self, tmp_path, monkeypatch):
        run_experiment(smoke_config(tmp_path, steps=1))
        summary = tmp_path / "run" / harness.SUMMARY_FILE
        before = summary.read_bytes()
        real_replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == harness.SUMMARY_FILE:
                raise OSError(5, "Input/output error")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="Input/output"):
            run_experiment(smoke_config(tmp_path, steps=2))
        assert summary.read_bytes() == before
        assert not [n for n in os.listdir(summary.parent) if n.endswith(".tmp")]
