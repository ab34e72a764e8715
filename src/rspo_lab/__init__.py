"""Desk-scale laboratory for relative-score policy optimization of masked
diffusion language models: a tiny trainable denoiser, coupled-mask sequence
scoring, feedback objectives with brute-force oracles, verifiable toy
reward tasks, and a reproducible training harness.
"""

from .sequences import MASKED_TOKEN, Sequence
from .denoiser import DenoiserParams, init_params
from .mdm import DecodeConfig, decode
from .score import (
    MaskBatch,
    center_scores,
    coupled_deltas_and_grads,
    elbo_terms,
    sample_mask_sets,
)
from .objectives import (
    group_advantages,
    rspo_loss,
    weighted_gradient,
)
from .harness import RunConfig, StepMetrics, adam_update, run_experiment, train_step

__version__ = "0.1.0"

__all__ = [
    "DecodeConfig",
    "DenoiserParams",
    "MASKED_TOKEN",
    "MaskBatch",
    "RunConfig",
    "Sequence",
    "StepMetrics",
    "adam_update",
    "center_scores",
    "coupled_deltas_and_grads",
    "decode",
    "elbo_terms",
    "group_advantages",
    "init_params",
    "rspo_loss",
    "run_experiment",
    "sample_mask_sets",
    "train_step",
    "weighted_gradient",
]
