import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import RETIRED_KEYS
import rspo_lab
from rspo_lab import cli, denoiser, objectives, oracle, score, tasks
from rspo_lab.cli import build_parser, main


def smoke_config_obj(out_dir, **kw):
    base = {
        "task": "arith",
        "modulus": 5,
        "gen_len": 2,
        "block_size": 2,
        "steps": 2,
        "groups_per_batch": 2,
        "group_size": 3,
        "hidden": 8,
        "embed_dim": 4,
        "window": 2,
        "checkpoint_every": 0,
        "out_dir": str(out_dir),
    }
    base.update(kw)
    return base


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(smoke_config_obj(tmp_path / "run", **kw)))
    return path


def assert_usage_error(capsys, needle, argv):
    """``main(argv)`` exits 2 with one error line naming ``needle``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("rspo-lab: error: ")]
    assert len(errors) == 1 and needle in errors[0]
    assert "Traceback" not in err


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv,key,value", [
        (["--lambda", "0.5"], "lambda", 0.5), (["--group-size", "4"], "group_size", 4),
        (["--k-masks", "3"], "k_masks", 3), (["--steps", "7"], "steps", 7),
        (["--seed", "5"], "seed", 5), (["--no-centering"], "centering", False),
        (["--no-reference"], "reference", False), (["--normalize-adv"], "normalize_adv", True),
        (["--task", "sudoku4"], "task", "sudoku4"), (["--out", "x"], "out_dir", "x"),
    ])
    def test_flag_lands_on_its_key(self, argv, key, value):
        # a flag's destination is its config key, and an unset flag is absent
        args = build_parser().parse_args(["train", *argv])
        keys = rspo_lab.RunConfig.field_keys()
        assert {k: v for k, v in vars(args).items() if k in keys} == {key: value}
        assert cli._build_config(args).to_dict() == {**rspo_lab.RunConfig().to_dict(), key: value}


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 2
        assert (tmp_path / "run" / "metrics.jsonl").exists()

    def test_env_overrides_file(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, steps=5)
        monkeypatch.setenv("RSPO_STEPS", "1")
        main(["train", "--config", str(cfg_path)])
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 1

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("RSPO_STEPS", "5")
        main(["train", "--config", str(cfg_path), "--steps", "1"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 1

    def test_env_bool_and_float_coercion(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("RSPO_CENTERING", "false")
        monkeypatch.setenv("RSPO_LAMBDA", "0.125")
        main(["train", "--config", str(cfg_path)])
        summary = json.loads(capsys.readouterr().out)
        assert summary["centering"] is False
        assert summary["lambda"] == 0.125

    def test_bad_env_value_names_variable(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("RSPO_STEPS", "abc")
        assert_usage_error(capsys, "RSPO_STEPS", ["train", "--config", str(cfg_path)])
        monkeypatch.delenv("RSPO_STEPS")
        monkeypatch.setenv("RSPO_CENTERING", "flase")
        assert_usage_error(capsys, "RSPO_CENTERING", ["train", "--config", str(cfg_path)])

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, centering="false")
        assert_usage_error(capsys, "centering", ["train", "--config", str(cfg_path)])
        cfg_path.write_text(json.dumps(smoke_config_obj(tmp_path, stpes=2)))
        assert_usage_error(capsys, "stpes", ["train", "--config", str(cfg_path)])
        # a 400-digit int overflowed math.isfinite into a traceback
        cfg_path = write_config(tmp_path, **{"lambda": 10**400})
        assert_usage_error(capsys, "lambda must be finite", ["train", "--config", str(cfg_path)])
        cfg_path.write_text("{not json")
        assert_usage_error(capsys, "cannot load", ["train", "--config", str(cfg_path)])
        missing = tmp_path / "missing.json"
        assert_usage_error(capsys, "No such file", ["train", "--config", str(missing)])
        assert not (tmp_path / "run").exists()

    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        for seed in ("-1", str(2**64)):
            assert_usage_error(capsys, "seed must be in 0..2**64-1",
                               ["train", "--config", str(cfg_path), "--seed", seed])
        monkeypatch.setenv("RSPO_SEED", "-3")
        assert_usage_error(capsys, "seed must be in 0..2**64-1",
                           ["train", "--config", str(cfg_path)])
        assert not (tmp_path / "run").exists()

    def test_unknown_task_is_usage_error(self, tmp_path, capsys, monkeypatch):
        msg = "task must be one of arith, countdown, sudoku4, got 'arth'"
        cfg_path = write_config(tmp_path)
        assert_usage_error(capsys, msg, ["train", "--config", str(cfg_path), "--task", "arth"])
        monkeypatch.setenv("RSPO_TASK", "arth")
        assert_usage_error(capsys, msg, ["train", "--config", str(cfg_path)])
        monkeypatch.delenv("RSPO_TASK")
        assert_usage_error(capsys, msg, ["train", "--config", str(write_config(tmp_path, task="arth"))])
        assert not (tmp_path / "run").exists()

    def test_env_bool_words_case_insensitive(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        for word, want in (("OFF", False), ("No", False), ("0", False),
                           ("Yes", True), ("TRUE", True), ("on", True)):
            monkeypatch.setenv("RSPO_CENTERING", word)
            main(["train", "--config", str(cfg_path), "--steps", "0"])
            assert json.loads(capsys.readouterr().out)["centering"] is want

    # a valid non-default value for every config key: its variable's text and
    # the value the config must then hold
    ENV_VALUES = {
        "task": ("sudoku4", "sudoku4"), "lambda": ("0.5", 0.5), "group_size": ("3", 3),
        "k_masks": ("4", 4), "groups_per_batch": ("2", 2), "steps": ("7", 7),
        "lr": ("0.01", 0.01), "gen_len": ("24", 24),
        "block_size": ("4", 4), "unmask_per_step": ("3", 3), "temperature": ("0.5", 0.5),
        "centering": ("false", False), "reference": ("off", False),
        "normalize_adv": ("yes", True), "modulus": ("7", 7), "hidden": ("16", 16),
        "embed_dim": ("4", 4), "window": ("2", 2), "seed": ("5", 5),
        "out_dir": ("runs/elsewhere", "runs/elsewhere"),
        "checkpoint_every": ("10", 10),
    }

    def test_every_config_key_has_a_variable(self, monkeypatch):
        keys = rspo_lab.RunConfig.field_keys()
        assert sorted(self.ENV_VALUES) == sorted(keys)
        default = rspo_lab.RunConfig().to_dict()
        args = build_parser().parse_args(["train"])
        for key in keys:
            raw, want = self.ENV_VALUES[key]
            assert want != default[key], key
            monkeypatch.setenv("RSPO_" + key.upper(), raw)
            got = cli._build_config(args).to_dict()
            monkeypatch.delenv("RSPO_" + key.upper())
            assert got == {**default, key: want}, key
            assert type(got[key]) is type(default[key]), key

    def test_retired_keys_load_from_a_file_at_their_values(self, tmp_path, capsys):
        # as a float key's int too; every run writes the same config.json
        written = set()
        for key, value in [*RETIRED_KEYS.items(), ("weight_decay", 0)]:
            cfg_path = write_config(tmp_path, **{key: value})
            assert main(["train", "--config", str(cfg_path), "--steps", "0"]) == 0
            written.add((tmp_path / "run" / "config.json").read_bytes())
        assert len(written) == 1
        assert json.loads(written.pop())["weight_decay"] == 0.0
        for key, value in (("beta1", 0.8), ("beta2", 0.999), ("adam_eps", 1e-6),
                           ("weight_decay", 0.1), ("debug_checks", True), ("debug_checks", 0)):
            assert_usage_error(capsys, f"{key} is retired and must be {RETIRED_KEYS[key]!r}",
                               ["train", "--config", str(write_config(tmp_path, **{key: value})),
                                "--out", str(tmp_path / "other")])
        assert not (tmp_path / "other").exists()

    def test_retired_keys_load_from_variables_at_their_values(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        args = build_parser().parse_args(["train", "--config", str(cfg_path)])
        want = cli._build_config(args)
        for key, raw in (("beta1", "0.9"), ("beta2", "0.99"), ("adam_eps", "1e-8"),
                         ("weight_decay", "0"), ("weight_decay", "0.0"),
                         ("debug_checks", "off"), ("debug_checks", "0")):
            monkeypatch.setenv("RSPO_" + key.upper(), raw)
            assert cli._build_config(args) == want, key
            monkeypatch.delenv("RSPO_" + key.upper())
        for key, raw in (("beta1", "0.8"), ("beta2", "0.999"), ("adam_eps", "1e-6"),
                         ("weight_decay", "0.1"), ("debug_checks", "1"), ("debug_checks", "yes")):
            monkeypatch.setenv("RSPO_" + key.upper(), raw)
            assert_usage_error(capsys, f"{key} is retired", ["train", "--config", str(cfg_path)])
            monkeypatch.delenv("RSPO_" + key.upper())
        monkeypatch.setenv("RSPO_ADAM_EPS", "tiny")
        assert_usage_error(capsys, "RSPO_ADAM_EPS", ["train", "--config", str(cfg_path)])
        assert not (tmp_path / "run").exists()

    def test_modulus_on_a_task_that_ignores_it_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the smoke config's modulus is 5
        msg = "modulus must be 10 on task countdown, which never reads it, got "
        assert_usage_error(capsys, msg + "5", ["train", "--config",
                                               str(write_config(tmp_path, task="countdown"))])
        assert_usage_error(capsys, "modulus must be 10 on task sudoku4",
                           ["train", "--config", str(write_config(tmp_path)), "--task", "sudoku4"])
        monkeypatch.setenv("RSPO_MODULUS", "7")
        cfg_path = write_config(tmp_path, task="countdown", modulus=10)
        assert_usage_error(capsys, msg + "7", ["train", "--config", str(cfg_path)])
        assert not (tmp_path / "run").exists()

    def test_empty_out_dir_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # an empty out_dir wrote every run file into the working directory
        monkeypatch.chdir(tmp_path)
        msg = "out_dir must be a nonempty path, got ''"
        cfg_path = write_config(tmp_path)
        assert_usage_error(capsys, msg, ["train", "--config", str(cfg_path), "--out", ""])
        monkeypatch.setenv("RSPO_OUT_DIR", "")
        assert_usage_error(capsys, msg, ["train", "--config", str(cfg_path)])
        monkeypatch.delenv("RSPO_OUT_DIR")
        cfg_path.write_text(json.dumps(smoke_config_obj("")))
        assert_usage_error(capsys, msg, ["train", "--config", str(cfg_path)])
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_out_dir_that_cannot_be_created_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = write_config(tmp_path)
        for out in (blocker / "run", blocker):
            assert_usage_error(capsys, f"out_dir {str(out)!r} cannot be prepared",
                               ["train", "--config", str(cfg_path), "--out", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]
        assert blocker.read_text() == ""

    def test_ablation_toggles(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--no-centering",
              "--no-reference", "--normalize-adv"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["centering"] is False
        assert summary["reference"] is False
        assert summary["normalize_adv"] is True


class TestAudit:
    def test_all_checks_pass(self, capsys):
        assert main(["audit", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 5
        assert all(ln.startswith("PASS ") for ln in lines)

    @pytest.mark.parametrize("bench_seed,op", [(0, 124), (1, 683), (5, 87), (6, 532),
                                               (8, 246), (10, 551)])
    def test_former_tail_seeds_pass(self, capsys, bench_seed, op):
        # audit seed 1000 * bench_seed + op is the pass the benchmark runs at
        # op `op` of `--seed bench_seed`; a Monte Carlo ELBO check once failed
        # these by chance, the exact one cannot
        assert main(["audit", "--seed", str(1000 * bench_seed + op)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 5
        assert all(ln.startswith("PASS ") for ln in lines)

    def test_biased_elbo_terms_fail(self, capsys, monkeypatch):
        elbo_terms = score.elbo_terms

        def biased(params, seqs, masks):
            return elbo_terms(params, seqs, masks) + 1e-9

        monkeypatch.setattr(score, "elbo_terms", biased)
        assert main(["audit", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL elbo-estimator-exactness: ")
        assert all(ln.startswith("PASS ") for ln in lines[1:])

    def test_wrong_production_forward_fails(self, capsys, monkeypatch):
        # the oracle runs its own forward, so a fault in the production one
        # cannot cancel on both sides of the exactness check
        forward = denoiser.forward

        def shifted(*args):
            logprobs, cache = forward(*args)
            return logprobs + 1e-9, cache

        monkeypatch.setattr(denoiser, "forward", shifted)
        assert main(["audit", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL elbo-estimator-exactness: ")
        assert all(ln.startswith("PASS ") for ln in lines[1:])

    CHECKS = ("elbo-estimator-exactness", "centered-kl-target-identity", "kl-variance-proxy",
              "surrogate-error-bound", "countdown-generator-solvable")

    @classmethod
    def _only_these_fail(cls, capsys, *failing):
        assert main(["audit", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        want = [("FAIL " if name in failing else "PASS ") + name for name in cls.CHECKS]
        assert [ln.split(":")[0] for ln in lines] == want

    def test_each_set_scored_once_fails(self, capsys, monkeypatch):
        # the exactness line's plain mean equals the expectation only over the
        # count-weighted batch, the full set 3 times; each distinct set once
        # drops those counts
        elbo_terms = score.elbo_terms

        def once(params, seqs, masks):
            return elbo_terms(params, seqs, score.MaskBatch(np.unique(masks.hits, axis=0)))

        monkeypatch.setattr(score, "elbo_terms", once)
        self._only_these_fail(capsys, "elbo-estimator-exactness")

    def test_flipped_feedback_sign_fails(self, capsys, monkeypatch):
        # the oracle's own identity holds either way; only the production
        # objective can show the fault: its coefficients on the centered
        # line, and its loss at lam > 0 on the surrogate line
        def flipped(centered, advantages, lam):
            w = np.asarray(advantages) + lam * np.asarray(centered)
            return -float(np.mean(w * centered)), w

        monkeypatch.setattr(objectives, "rspo_loss", flipped)
        self._only_these_fail(capsys, "centered-kl-target-identity", "surrogate-error-bound")

    def test_flipped_loss_sign_fails(self, capsys, monkeypatch):
        # right coefficients with a wrong loss: only the surrogate line
        # compares rspo_loss's loss with the oracle's
        rspo_loss = objectives.rspo_loss

        def flipped(centered, advantages, lam):
            loss, coeffs = rspo_loss(centered, advantages, lam)
            return -loss, coeffs

        monkeypatch.setattr(objectives, "rspo_loss", flipped)
        self._only_these_fail(capsys, "surrogate-error-bound")

    def test_dropped_lam_fails(self, capsys, monkeypatch):
        def plain(centered, advantages, lam):
            w = np.asarray(advantages, dtype=np.float64)
            return -float(np.mean(w * centered)), w

        monkeypatch.setattr(objectives, "rspo_loss", plain)
        self._only_these_fail(capsys, "centered-kl-target-identity", "surrogate-error-bound")

    def test_uncentered_scores_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(objectives, "center",
                            lambda values: np.asarray(values, dtype=np.float64))
        self._only_these_fail(capsys, "centered-kl-target-identity")

    def test_flipped_advantage_sign_fails(self, capsys, monkeypatch):
        # the fixed-point line takes its advantages from the code that trains
        group_advantages = objectives.group_advantages
        monkeypatch.setattr(objectives, "group_advantages",
                            lambda rewards, normalize=False: -group_advantages(rewards, normalize))
        self._only_these_fail(capsys, "centered-kl-target-identity")

    def test_unsolvable_countdown_instance_fails(self, capsys, monkeypatch):
        def unreachable(rng):
            return tasks.TaskInstance(kind="countdown", prompt_text="1 1 1=97?",
                                      payload={"numbers": [1, 1, 1], "target": 97})

        monkeypatch.setattr(tasks, "gen_countdown", unreachable)
        assert main(["audit", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[4].startswith("FAIL countdown-generator-solvable: ")
        assert all(ln.startswith("PASS ") for ln in lines[:4])

    def test_bad_seed_is_usage_error(self, capsys):
        for seed in ("-1", str(2**64)):
            assert_usage_error(capsys, "seed must be in 0..2**64-1", ["audit", "--seed", seed])

    def test_non_finite_comparisons_fail(self, capsys, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(oracle, "exact_elbo_expectation", lambda params, seq: nan)
        monkeypatch.setattr(oracle, "kl_proxy", lambda p, q: (nan, nan, nan))
        assert main(["audit"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL elbo-estimator-exactness")
        assert lines[2].startswith("FAIL kl-variance-proxy")
        assert sum(ln.startswith("PASS ") for ln in lines) == 3

    def test_surrogate_bound_is_one_call(self, capsys, monkeypatch):
        calls = []
        check = oracle.perturbation_bound_check

        def spy(a, r, xi, lam):
            calls.append(np.shape(a))
            return check(a, r, xi, lam)

        monkeypatch.setattr(oracle, "perturbation_bound_check", spy)
        assert main(["audit"]) == 0
        assert calls == [(2000, 6)]

    def test_violated_surrogate_bound_fails(self, capsys, monkeypatch):
        def violated(a, r, xi, lam):
            raise AssertionError("trial 0: bound exceeded")

        monkeypatch.setattr(oracle, "perturbation_bound_check", violated)
        assert main(["audit", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[3] == "FAIL surrogate-error-bound: trial 0: bound exceeded"
        assert lines[4] == "PASS countdown-generator-solvable"
        assert all(ln.startswith("PASS ") for ln in lines[:3])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_surrogate_draws_match_per_trial_uniform_loop(self, capsys, monkeypatch, seed):
        # the surrogate check fills its uniforms in place and maps them to
        # [-0.1, 0.1) afterwards; its (a, r, xi) and the stream after it must
        # be those of the loop that drew each trial's uniforms with
        # rng.uniform, run from the generator state at the start of the check
        gens, start, seen = [], [], []
        default_rng, kl_proxy = np.random.default_rng, oracle.kl_proxy
        check = oracle.perturbation_bound_check

        def recording_rng(*args):
            gens.append(default_rng(*args))
            return gens[-1]

        def snapshot(p, q):  # the check just before, and it draws nothing
            start.append(gens[0].bit_generator.state)
            return kl_proxy(p, q)

        def spy(a, r, xi, lam):
            seen.append((a.copy(), r.copy(), xi.copy(), gens[0].bit_generator.state))
            return check(a, r, xi, lam)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monkeypatch.setattr(oracle, "kl_proxy", snapshot)
        monkeypatch.setattr(oracle, "perturbation_bound_check", spy)
        assert main(["audit", "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert len(start) == len(seen) == 1  # gens[0] is the audit's; init_params makes more

        rng = default_rng()
        rng.bit_generator.state = start[0]
        ar, xi = np.empty((2000, 2, 6)), np.empty((2000, 6))
        for i in range(2000):
            rng.standard_normal(out=ar[i])
            xi[i] = rng.uniform(-0.1, 0.1, size=6)
        a, r = ar[:, 0], ar[:, 1]
        a -= a.mean(axis=1, keepdims=True)
        got_a, got_r, got_xi, state_after = seen[0]
        for got, want in ((got_a, a), (got_r, r), (got_xi, xi)):
            assert got.tobytes() == want.tobytes()
        assert state_after == rng.bit_generator.state

    # sha256 of the countdown payloads one pass generates, recorded once the
    # ELBO check stopped drawing masks: the RNG stream every check sees
    PAYLOAD_DIGESTS = {
        0: "5f74c6cf0b081a805dab75414dd33041ffd5b6de88f7efd88658be033a405eae",
        1: "557d1dedc81cd1127dded48d02ca22f28ceb3d8e53eef46865985ea0b1161aea",
        2: "73a915b73b7e4690e74bccced80cec092e2dbd671b5aecdef211ca3a72038959",
    }

    def test_rng_stream_matches_recorded_digest(self, capsys, monkeypatch):
        gen = tasks.gen_countdown
        for seed, digest in self.PAYLOAD_DIGESTS.items():
            payloads = []

            def record(rng, *args, **kwargs):
                inst = gen(rng, *args, **kwargs)
                payloads.append(inst.payload)
                return inst

            monkeypatch.setattr(tasks, "gen_countdown", record)
            assert main(["audit", "--seed", str(seed)]) == 0
            assert len(payloads) == 50
            blob = json.dumps(payloads, sort_keys=True, default=int).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, seed
        capsys.readouterr()


class TestImports:
    def test_train_and_audit_never_import_numpy_ma(self, tmp_path):
        # numpy.ma (pulled in by np.unique, for one) adds about 1.7 MiB of
        # resident memory; a fresh interpreter runs two steps of every task
        # with k_masks 8, then one audit pass, and checks it never loaded
        code = (
            "import contextlib, io, sys\n"
            "from rspo_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for task in ('arith', 'countdown', 'sudoku4'):\n"
            "        main(['train', '--task', task, '--k-masks', '8', '--steps', '2',\n"
            "              '--out', 'run_' + task])\n"
            "    assert main(['audit']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(rspo_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestProcess:
    def test_cli_as_a_process(self, tmp_path):
        # the CLI in fresh interpreters, warnings as errors wherever a run is
        # due: a retired key loads at its one value from a variable, and at
        # any other value is a usage error, exit status 2 before any run. Each
        # of the ten config flags lands on the config.json key it names. A
        # 400-digit lambda and an out_dir below a regular file are usage
        # errors too, and leave no run directory. ablate runs a 1-step
        # lambda x centering grid and lists its 4 runs
        src = str(Path(rspo_lab.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.startswith("RSPO_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def cli(*argv, status=0, strict=True, **variables):
            done = subprocess.run(
                [sys.executable, *(["-W", "error"] if strict else []), "-m", "rspo_lab.cli",
                 *map(str, argv)],
                cwd=tmp_path, env={**env, **variables}, capture_output=True, text=True, timeout=300)
            assert done.returncode == status, (argv, done.stderr)

        cli("audit", "--seed", "0")
        cli("train", "--steps", "2", "--out", tmp_path / "a")
        cli("train", "--lambda", "0.5", "--group-size", "4", "--k-masks", "3", "--steps", "1",
            "--seed", "5", "--no-centering", "--no-reference", "--normalize-adv",
            "--task", "sudoku4", "--out", tmp_path / "d")
        cfg = json.loads((tmp_path / "d" / "config.json").read_text())
        want = {"lambda": 0.5, "group_size": 4, "k_masks": 3, "steps": 1, "seed": 5,
                "centering": False, "reference": False, "normalize_adv": True,
                "task": "sudoku4", "out_dir": str(tmp_path / "d")}
        assert {k: cfg[k] for k in want} == want
        cli("train", "--config", tmp_path / "a" / "config.json", "--steps", "2",
            "--out", tmp_path / "b", RSPO_BETA1="0.9")

        cli("train", "--out", tmp_path / "c", status=2, strict=False, RSPO_WEIGHT_DECAY="0.1")
        assert not (tmp_path / "c").exists()
        (tmp_path / "huge.json").write_text('{"lambda": 1' + "0" * 400 + "}")
        cli("train", "--config", tmp_path / "huge.json", "--out", tmp_path / "e", status=2, strict=False)
        assert not (tmp_path / "e").exists()
        (tmp_path / "file").touch()
        cli("train", "--steps", "1", "--out", tmp_path / "file" / "f", status=2, strict=False)
        assert (tmp_path / "file").is_file() and (tmp_path / "file").stat().st_size == 0

        grid = {"steps": 1, "out_dir": str(tmp_path / "g"),
                "grid": {"lambda": [0.0, 0.5], "centering": [True, False]}}
        (tmp_path / "g.json").write_text(json.dumps(grid))
        cli("ablate", "--matrix", tmp_path / "g.json")
        summaries = json.loads((tmp_path / "g" / "ablation_summaries.json").read_text())
        assert sorted(s["run"] for s in summaries) == [
            "centering=False_lambda=0.0", "centering=False_lambda=0.5",
            "centering=True_lambda=0.0", "centering=True_lambda=0.5"]


class TestAblate:
    def test_grid_runs_every_combination(self, tmp_path, capsys):
        matrix = smoke_config_obj(tmp_path / "grid", steps=1)
        matrix["grid"] = {"lambda": [0.0, 0.01], "centering": [True, False]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert main(["ablate", "--matrix", str(path)]) == 0
        base = tmp_path / "grid"
        tags = sorted(p.name for p in base.iterdir() if p.is_dir())
        assert tags == [
            "centering=False_lambda=0.0",
            "centering=False_lambda=0.01",
            "centering=True_lambda=0.0",
            "centering=True_lambda=0.01",
        ]
        text = (base / "ablation_summaries.json").read_text()
        summaries = json.loads(text)
        assert text == json.dumps(summaries, indent=2, sort_keys=True) + "\n"
        assert len(summaries) == 4
        assert {s["run"] for s in summaries} == set(tags)
        assert not list(base.glob("*.tmp"))

    def test_bad_matrix_fails_before_any_run(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        for needle, change in (("group_size", {"grid": {"group_size": [3, 2.5]}}),
                               ("nonempty", {"grid": {"lambda": []}}),
                               ("out_dir", {"out_dir": 5})):
            matrix = smoke_config_obj(tmp_path / "grid", steps=1)
            matrix.update(change)
            path.write_text(json.dumps(matrix))
            assert_usage_error(capsys, needle, ["ablate", "--matrix", str(path)])
        assert not (tmp_path / "grid").exists()

    def test_empty_out_dir_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        matrix = {**smoke_config_obj("", steps=1), "grid": {"seed": [1, 2]}}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert_usage_error(capsys, "out_dir must be a nonempty path, got ''",
                           ["ablate", "--matrix", str(path)])
        assert [p.name for p in tmp_path.iterdir()] == ["matrix.json"]

    def test_base_dir_that_cannot_be_created_fails_before_any_run(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        matrix = {**smoke_config_obj(blocker / "grid", steps=1), "grid": {"seed": [1, 2]}}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert_usage_error(capsys, f"out_dir {str(blocker / 'grid' / 'seed=1')!r} cannot be prepared",
                           ["ablate", "--matrix", str(path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "matrix.json"]
        assert "done" not in capsys.readouterr().out

    def test_grid_over_out_dir_fails_before_any_run(self, tmp_path, capsys):
        # the grid's out_dir values were silently replaced by subdirectories
        matrix = smoke_config_obj(tmp_path / "grid", steps=1)
        matrix["grid"] = {"out_dir": [str(tmp_path / "x"), str(tmp_path / "y")]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert_usage_error(capsys, "out_dir cannot be a grid key", ["ablate", "--matrix", str(path)])
        assert not any((tmp_path / name).exists() for name in ("grid", "x", "y"))

    def test_repeated_run_directory_fails_before_any_run(self, tmp_path, capsys):
        matrix = smoke_config_obj(tmp_path / "grid", steps=1)
        matrix["grid"] = {"seed": [1, 1]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        needle = f"repeats run directory {tmp_path / 'grid' / 'seed=1'}"
        assert_usage_error(capsys, needle, ["ablate", "--matrix", str(path)])
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize("change,needle", [
        ({"grid": {"weight_decay": [0.0, 0.1]}}, "weight_decay is retired and must be 0.0"),
        ({"task": "countdown", "grid": {"modulus": [10, 5]}}, "modulus must be 10 on task countdown"),
    ])
    def test_grid_over_an_unread_value_fails_before_any_run(self, tmp_path, capsys, change, needle):
        # each grid point would rerun the same experiment under another name
        matrix = {**smoke_config_obj(tmp_path / "grid", steps=1, modulus=10), **change}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert_usage_error(capsys, needle, ["ablate", "--matrix", str(path)])
        assert not (tmp_path / "grid").exists()

    def test_written_config_is_a_base(self, tmp_path, capsys):
        # a run's config.json, retired keys and all, is a valid ablation base
        assert main(["train", "--config", str(write_config(tmp_path)), "--steps", "0"]) == 0
        matrix = json.loads((tmp_path / "run" / "config.json").read_text())
        matrix.update(out_dir=str(tmp_path / "grid"), grid={"seed": [1, 2]})
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert main(["ablate", "--matrix", str(path)]) == 0
        written = json.loads((tmp_path / "grid" / "seed=2" / "config.json").read_text())
        base = {key: value for key, value in matrix.items() if key != "grid"}
        assert written == {**base, "seed": 2, "out_dir": str(tmp_path / "grid" / "seed=2")}
