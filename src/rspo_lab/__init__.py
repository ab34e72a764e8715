"""Desk-scale laboratory for relative-score policy optimization of masked
diffusion language models: a tiny trainable denoiser, coupled-mask sequence
scoring, feedback objectives with brute-force oracles, verifiable toy
reward tasks, and a reproducible training harness.
"""

from .sequences import MASKED_TOKEN, Sequence
from .denoiser import DenoiserParams, init_params
from .mdm import DecodeConfig, decode, sample_completion_groups
from .score import (
    MaskBatch,
    RelativeScoreBatch,
    batch_mean_offset,
    center_scores,
    coupled_deltas_and_grads,
    elbo_terms,
    sample_mask_sets,
    uncentered_scores,
    var_delta,
)
from .objectives import (
    LossOutput,
    fixed_point_residual,
    group_advantages,
    quad_loss,
    rspo_gradient,
    rspo_loss,
    rspo_weights,
)
from .harness import RunConfig, StepMetrics, adam_update, run_experiment, train_step

__version__ = "0.1.0"

__all__ = [
    "DecodeConfig",
    "DenoiserParams",
    "LossOutput",
    "MASKED_TOKEN",
    "MaskBatch",
    "RelativeScoreBatch",
    "RunConfig",
    "Sequence",
    "StepMetrics",
    "adam_update",
    "batch_mean_offset",
    "center_scores",
    "coupled_deltas_and_grads",
    "decode",
    "elbo_terms",
    "fixed_point_residual",
    "group_advantages",
    "init_params",
    "quad_loss",
    "rspo_gradient",
    "rspo_loss",
    "rspo_weights",
    "run_experiment",
    "sample_completion_groups",
    "sample_mask_sets",
    "train_step",
    "uncentered_scores",
    "var_delta",
]
