"""Command-line entry points: train, audit, ablate.

Configuration precedence: config file < RSPO_* environment variables <
command-line flags.  A bad config file, variable or field value is reported
as a one-line usage error (exit status 2) before any run starts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, objectives, oracle, score, tasks
from .denoiser import init_params
from .harness import ConfigError
from .sequences import Sequence

ENV_PREFIX = "RSPO_"


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _env_overrides() -> dict:
    out = {}
    # every key config.json holds, retired ones too, read as its default's type
    for key, default in harness.RunConfig().to_dict().items():
        name = ENV_PREFIX + key.upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            out[key] = _coerce(type(default), raw)
        except ValueError as exc:
            raise ConfigError(f"{name}={raw!r}: {exc}") from None
    return out


def _coerce(kind: type, raw: str):
    if kind is bool:
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ValueError("expected one of " + "/".join(_BOOL_WORDS))
        return _BOOL_WORDS[word]
    return kind(raw)


def _build_config(args) -> harness.RunConfig:
    obj: dict = {}
    if args.config:
        obj.update(harness.read_json_object(args.config))
    obj.update(_env_overrides())
    # an unset flag is absent from args, and a set one is named by its key
    flags = vars(args)
    obj.update((key, flags[key]) for key in harness.RunConfig.field_keys() if key in flags)
    return harness.RunConfig.from_dict(obj)


def cmd_train(args) -> int:
    cfg = _build_config(args)
    _, summary = harness.run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_audit(args) -> int:
    """Run the oracle suite against fresh random tiny instances.  Every check
    is an exact identity or bound, so exit 1 means a fault, never chance."""
    # the seed passes RunConfig's range rule, so a bad one is a usage error
    rng = np.random.default_rng(harness.RunConfig.from_dict({"seed": args.seed}).seed)
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - audit reports, never crashes
            failures += 1
            print(f"FAIL {name}: {exc}")

    def elbo_exactness():
        # the exact expectation as a plain mean: each nonempty set of 3 positions
        # as often as its mask-law weight in ninths, s!(3-s)!/(3!*3), the full set 3 times
        bits = np.array([1, 2, 3, 4, 5, 6, 7, 7, 7])
        every_set = score.MaskBatch(((bits[:, None] >> np.arange(3)) & 1).astype(bool))
        for _ in range(5):
            params = init_params(4, window=2, hidden=8, embed_dim=4,
                                 n_positions=6, seed=int(rng.integers(2**31)),
                                 scale=0.5)
            seq = Sequence(prompt=rng.integers(0, 4, size=2),
                           completion=rng.integers(0, 4, size=3))
            exact = oracle.exact_elbo_expectation(params, seq)
            (terms,) = score.elbo_terms(params, seq, every_set)
            value = float(terms.mean())
            if not (abs(value - exact) <= 1e-12 * max(1.0, abs(exact))):  # NaN fails too
                raise AssertionError(f"mean term {value} vs exact {exact}")

    def centered_target():
        # the first trial also checks the paper's fixed point on the code that
        # trains: at the optimum's log-ratios, rspo_loss's coefficients
        # A - beta * centered vanish
        for trial in range(20):
            n = int(rng.integers(2, 8))
            pi_ref = rng.dirichlet(np.ones(n))
            rewards = rng.normal(size=n)
            beta = float(rng.uniform(0.1, 10.0))
            _, delta_star = oracle.kl_regularized_optimum(pi_ref, rewards, beta)
            if trial == 0:
                adv = objectives.group_advantages(rewards)
                coeffs = objectives.rspo_loss(objectives.center(delta_star), adv, beta)[1]
                residual = np.abs(coeffs).max()
                if not (residual <= 1e-12 * max(1.0, np.abs(adv).max())):  # NaN fails too
                    raise AssertionError(f"rspo_loss coefficient {residual} at the fixed point")

    def proxy_gap():
        """The oracle's self-check on one constant nearby pair: it draws
        nothing, so it is seed-independent."""
        p = np.asarray([0.5, 0.5])
        q = np.asarray([0.51, 0.49])
        kl_pq, _, half_var = oracle.kl_proxy(p, q)
        if not (abs(kl_pq - half_var) <= 1e-5):
            raise AssertionError("KL and half-variance diverge on nearby pair")

    def surrogate_bound():
        # normals stay per trial: the ziggurat reads a varying number of doubles
        # per value, so each trial's normals and uniforms must interleave as
        # before. A uniform reads one double, as rng.uniform(-0.1, 0.1) does, so
        # filling rows with `random` and mapping the block to [-0.1, 0.1) once
        # gives the same bits without an array per trial; one bound check for all
        trials, n = 2000, 6
        ar, xi = np.empty((trials, 2, n)), np.empty((trials, n))
        for ar_i, xi_i in zip(ar, xi):
            rng.standard_normal(out=ar_i)
            rng.random(out=xi_i)
        xi *= 0.2
        xi += -0.1
        a, r = objectives.center(ar[:, 0]), ar[:, 1]
        oracle.perturbation_bound_check(a, r, xi, 0.01)
        # on the first 3 trials the loss that trains must equal the oracle's
        # feedback loss at the perturbed centered scores, at lam and at 0
        a, r, xi = a[:3], r[:3], xi[:3]
        x = objectives.center(r) + objectives.center(xi)
        for lam in (0.01, 0.0):
            for a_t, x_t, want in zip(a, x, oracle.feedback_loss(a, x, lam)):
                got = objectives.rspo_loss(x_t, a_t, lam)[0]
                if not (abs(got - want) <= 1e-12 * max(1.0, abs(want))):  # NaN fails too
                    raise AssertionError(f"rspo_loss {got} vs feedback loss {want} at lam {lam}")

    def countdown_agreement():
        for _ in range(50):
            inst = tasks.gen_countdown(rng)
            if not oracle.countdown_solvable(inst.payload["numbers"],
                                             inst.payload["target"]):
                raise AssertionError(f"unsolvable instance generated: {inst.payload}")

    check("elbo-estimator-exactness", elbo_exactness)
    check("centered-kl-target-identity", centered_target)
    check("kl-variance-proxy", proxy_gap)
    check("surrogate-error-bound", surrogate_bound)
    check("countdown-generator-solvable", countdown_agreement)
    return 1 if failures else 0


def cmd_ablate(args) -> int:
    """Run the ablation grid described by a matrix file.

    The matrix JSON holds a base config plus a "grid" object mapping config
    keys to value lists; every combination becomes one run in its own
    subdirectory.
    """
    spec_obj = harness.read_json_object(args.matrix)
    grid = spec_obj.pop("grid", {})
    if not (isinstance(grid, dict) and all(isinstance(v, list) and v for v in grid.values())):
        raise ConfigError(f"{args.matrix}: grid must map config keys to nonempty value lists")
    if "out_dir" in grid:
        raise ConfigError(f"{args.matrix}: out_dir cannot be a grid key")
    # the base out_dir passes RunConfig's rules, as each run's subdirectory does
    base_out = Path(harness.RunConfig.from_dict(
        {"out_dir": spec_obj.pop("out_dir", "runs/ablation")}).out_dir)
    keys = sorted(grid)
    runs = {}
    for combo in itertools.product(*(grid[k] for k in keys)):
        tag = "_".join(f"{key}={value}" for key, value in zip(keys, combo)) or "base"
        if tag in runs:
            raise ConfigError(f"{args.matrix}: grid repeats run directory {base_out / tag}")
        runs[tag] = harness.RunConfig.from_dict(
            {**spec_obj, **dict(zip(keys, combo)), "out_dir": str(base_out / tag)})
    summaries = []
    for tag, cfg in runs.items():
        _, summary = harness.run_experiment(cfg)
        summary["run"] = tag
        summaries.append(summary)
        print(f"done {tag}: final_reward={summary['final_reward']:.4f}")
    harness.write_json(base_out / "ablation_summaries.json", summaries)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rspo-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's destination is its config key, and an unset flag stays absent
    train = sub.add_parser("train", help="run one training experiment",
                           argument_default=argparse.SUPPRESS)
    train.add_argument("--config", default=None, help="path to a JSON config")
    train.add_argument("--lambda", type=float)
    train.add_argument("--group-size", type=int)
    train.add_argument("--k-masks", type=int)
    train.add_argument("--steps", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--no-centering", dest="centering", action="store_false")
    train.add_argument("--no-reference", dest="reference", action="store_false")
    train.add_argument("--normalize-adv", action="store_true")
    train.add_argument("--task")
    train.add_argument("--out", dest="out_dir")
    train.set_defaults(func=cmd_train)

    audit = sub.add_parser("audit", help="run the oracle suite")
    audit.add_argument("--seed", type=int, default=0)
    audit.set_defaults(func=cmd_audit)

    ablate = sub.add_parser("ablate", help="run an ablation grid")
    ablate.add_argument("--matrix", required=True, help="path to a grid JSON")
    ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
