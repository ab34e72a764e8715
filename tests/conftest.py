import numpy as np
import pytest

from rspo_lab import tasks
from rspo_lab.denoiser import DenoiserParams, Layout, Rows, forward, init_params
from rspo_lab.harness import RunConfig, init_state
from rspo_lab.sequences import Sequence, left_pad

#: The keys config.json holds for fields no run set, at the values every
#: config.json was written with; only those values load.
RETIRED_KEYS = {"beta1": 0.9, "beta2": 0.99, "adam_eps": 1e-8, "weight_decay": 0.0,
                "debug_checks": False}


def tiny_params(seed: int = 0, vocab_size: int = 4, scale: float = 0.5) -> DenoiserParams:
    """Small model for enumeration and finite-difference tests."""
    return init_params(
        vocab_size,
        window=2,
        hidden=8,
        embed_dim=4,
        n_positions=6,
        seed=seed,
        scale=scale,
    )


def tiny_sequence(rng: np.random.Generator, vocab_size: int = 4,
                  prompt_len: int = 2, completion_len: int = 3) -> Sequence:
    return Sequence(
        prompt=rng.integers(0, vocab_size, size=prompt_len),
        completion=rng.integers(0, vocab_size, size=completion_len),
    )


def stack_of(seqs) -> Sequence:
    """One stack of single completions, their prompts left-padded to one
    width, in the form ``mdm.decode`` returns and scoring takes."""
    return Sequence(left_pad([seq.prompt for seq in seqs]), np.array([seq.completion for seq in seqs]))


def forward_on(params: DenoiserParams, seq: Sequence, where: np.ndarray | None = None):
    """``forward`` on fresh rows of ``seq`` at the True entries of ``where``
    (every position when None)."""
    return forward(params, Rows(Layout(params, seq), where))


def logprob_table(params: DenoiserParams, seq: Sequence) -> np.ndarray:
    """The log-probability table (..., L_c, size) of every completion
    position of ``seq``, one completion or a stack."""
    return forward_on(params, seq)[0].reshape(seq.completion.shape + (-1,))


def default_model(task: str, rng: np.random.Generator, noise: float = 0.05):
    """The reference model of a run of ``task`` at ``RunConfig`` defaults and
    a current model moved off it by Gaussian noise, as after some updates."""
    ref = init_state(RunConfig(task=task)).params
    return ref.replace_theta(ref.theta + noise * rng.standard_normal(ref.n_params)), ref


def task_prompts(task: str, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Token ids of ``n`` generated prompts of ``task`` at the default modulus."""
    modulus = RunConfig().modulus
    return [tasks.encode_text(tasks.TASKS[task].generate(rng, modulus).prompt_text) for _ in range(n)]


def central_diff(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Dense central finite differences of a scalar function of theta."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        grad[i] = (f(tp) - f(tm)) / (2.0 * h)
    return grad


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
