"""Which program attributes are traced, and the per-layer metrics derived
from them.  Every metric is per op; see README.md for the prediction of which
end-to-end metric each one should move."""

from __future__ import annotations

import os

from tracer import Tracer

# (name, unit) in the order they are reported
PER_LAYER = [
    ("denoiser.forward_calls", "count"),
    ("denoiser.forward_rows", "count"),
    ("denoiser.forward_ms", "ms"),
    ("denoiser.backward_calls", "count"),
    ("denoiser.backward_rows", "count"),
    ("denoiser.backward_ms", "ms"),
    ("mdm.decode_ms", "ms"),
    ("mdm.forwards_per_completion", "ratio"),
    ("mdm.tokens_per_forward", "ratio"),
    ("score.elbo_ms", "ms"),
    ("score.elbo_calls", "count"),
    ("score.grad_ms", "ms"),
    ("score.grad_calls", "count"),
    ("score.mask_sample_ms", "ms"),
    ("score.masks_drawn", "count"),
    ("score.elbo_reuse_ratio", "ratio"),
    ("objectives.ms", "ms"),
    ("objectives.calls", "count"),
    ("tasks.gen_ms", "ms"),
    ("tasks.gen_calls", "count"),
    ("tasks.reward_ms", "ms"),
    ("tasks.reward_calls", "count"),
    ("tasks.reward_hit_ratio", "ratio"),
    ("sequences.with_masked_calls", "count"),
    ("sequences.with_masked_ms", "ms"),
    ("harness.step_self_ms", "ms"),
    ("harness.adam_ms", "ms"),
    ("harness.checkpoint_ms", "ms"),
    ("harness.checkpoint_bytes", "bytes"),
    ("oracle.ms", "ms"),
    ("oracle.calls", "count"),
    ("cli.audit_self_ms", "ms"),
    ("trace.overhead_ops_per_s", "op/s"),
]


def _forward(tr, parent, args, result):
    tr.counts["denoiser.forward_rows"] += args[1].completion_len
    if parent == "mdm.decode":
        tr.counts["mdm.decode_forwards"] += 1


def _backward(tr, parent, args, result):
    tr.counts["denoiser.backward_rows"] += len(args[2])


def _decode(tr, parent, args, result):
    tr.counts["mdm.committed_tokens"] += int((~result.masked).sum())


def _elbo(tr, parent, args, result):
    masks = args[2]
    tr.counts["score.elbo_masks"] += len(masks)
    tr.counts["score.elbo_distinct_sets"] += len({m.positions for m in masks})


def _mask_sets(tr, parent, args, result):
    tr.counts["score.masks_drawn"] += len(result)


def _mask_set(tr, parent, args, result):
    tr.counts["score.masks_drawn"] += 1


def _reward(tr, parent, args, result):
    tr.counts["tasks.reward_hits"] += int(result > 0)


def _checkpoint(tr, parent, args, result):
    tr.counts["harness.checkpoint_bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from rspo_lab import (cli, denoiser, harness, mdm, objectives, oracle, score,
                          sequences, tasks)

    w = tracer.wrap
    # decode forwards go through the method, scoring forwards through score's import
    w("denoiser.forward", denoiser.DenoiserParams, "logprobs", _forward)
    w("denoiser.forward", score, "denoiser_logprobs", _forward)
    w("denoiser.backward", score, "logprob_sum_grad", _backward)
    w("mdm.decode", mdm, "decode_semi_ar", _decode)
    w("score.elbo", score, "elbo_score", _elbo)
    w("score.grad", score, "elbo_grad")
    w("score.mask_sample", score, "sample_mask_sets", _mask_sets)
    w("score.mask_sample", score, "sample_mask_set", _mask_set)
    for name in ("group_advantages", "rspo_loss", "aw_loss", "rspo_gradient"):
        w("objectives", objectives, name)
    for name in ("gen_arith", "gen_countdown", "gen_sudoku4"):
        w("tasks.gen", tasks, name)
    w("tasks.reward", tasks, "reward", _reward)
    w("sequences.with_masked", sequences.Sequence, "with_masked")
    w("harness.step", harness, "train_step")
    w("harness.adam", harness, "adam_update")
    w("harness.checkpoint", harness, "save_checkpoint", _checkpoint)
    for name in ("exact_elbo_expectation", "kl_regularized_optimum", "kl_proxy",
                 "perturbation_bound_check", "countdown_solvable"):
        w("oracle", oracle, name)
    w("cli.audit", cli, "cmd_audit")


def exact_counts(counts: dict[str, int]) -> dict[str, int]:
    """The counters that must repeat exactly for a given seed and op count."""
    return {k: v for k, v in counts.items() if k != "harness.checkpoint_bytes"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n_ops: int, speed: float,
                      prefix_counts: dict[str, int], n_prefix: int,
                      overhead_ops_per_s: float) -> dict[str, float]:
    """Per-op metrics: self times over the ``n_ops`` traced ops, scaled to
    reference milliseconds by the core's median ``speed`` over them; counts
    over the fixed ``n_prefix``-op prefix so that they repeat exactly."""
    c = prefix_counts
    masks = c.get("score.elbo_masks", 0)

    def per_op(key: str) -> float:
        return c.get(key, 0) / n_prefix

    def ms(*spans: str) -> float:
        return tracer.self_ms(*spans) * speed / n_ops

    values = {
        "denoiser.forward_calls": per_op("denoiser.forward.calls"),
        "denoiser.forward_rows": per_op("denoiser.forward_rows"),
        "denoiser.forward_ms": ms("denoiser.forward"),
        "denoiser.backward_calls": per_op("denoiser.backward.calls"),
        "denoiser.backward_rows": per_op("denoiser.backward_rows"),
        "denoiser.backward_ms": ms("denoiser.backward"),
        "mdm.decode_ms": ms("mdm.decode"),
        "mdm.forwards_per_completion": _ratio(c.get("mdm.decode_forwards", 0),
                                              c.get("mdm.decode.calls", 0)),
        "mdm.tokens_per_forward": _ratio(c.get("mdm.committed_tokens", 0),
                                         c.get("mdm.decode_forwards", 0)),
        "score.elbo_ms": ms("score.elbo"),
        "score.elbo_calls": per_op("score.elbo.calls"),
        "score.grad_ms": ms("score.grad"),
        "score.grad_calls": per_op("score.grad.calls"),
        "score.mask_sample_ms": ms("score.mask_sample"),
        "score.masks_drawn": per_op("score.masks_drawn"),
        "score.elbo_reuse_ratio": _ratio(masks - c.get("score.elbo_distinct_sets", 0),
                                         masks),
        "objectives.ms": ms("objectives"),
        "objectives.calls": per_op("objectives.calls"),
        "tasks.gen_ms": ms("tasks.gen"),
        "tasks.gen_calls": per_op("tasks.gen.calls"),
        "tasks.reward_ms": ms("tasks.reward"),
        "tasks.reward_calls": per_op("tasks.reward.calls"),
        "tasks.reward_hit_ratio": _ratio(c.get("tasks.reward_hits", 0),
                                         c.get("tasks.reward.calls", 0)),
        "sequences.with_masked_calls": per_op("sequences.with_masked.calls"),
        "sequences.with_masked_ms": ms("sequences.with_masked"),
        "harness.step_self_ms": ms("harness.step"),
        "harness.adam_ms": ms("harness.adam"),
        "harness.checkpoint_ms": ms("harness.checkpoint"),
        "harness.checkpoint_bytes": tracer.counts.get("harness.checkpoint_bytes", 0) / n_ops,
        "oracle.ms": ms("oracle"),
        "oracle.calls": per_op("oracle.calls"),
        "cli.audit_self_ms": ms("cli.audit"),
        "trace.overhead_ops_per_s": overhead_ops_per_s,
    }
    return {name: values[name] for name, _ in PER_LAYER}
