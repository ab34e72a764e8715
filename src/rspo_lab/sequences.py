"""Prompt/completion token sequences.

A Sequence always carries the prompt (never corrupted) and the completion
together with per-position masked flags.  Masked positions keep a sentinel
token value; the flags are the authoritative record of corruption.  A
completion array with leading axes holds a stack of completions of one
length: ``completion[b]`` and ``masked[b]`` are completion ``b``.  The stack
shares a one-dimensional prompt, or has one prompt per completion when the
prompt carries the same leading axes; such prompts are left-padded to one
width with -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Sentinel stored in the token array at masked completion positions.
MASKED_TOKEN = -1


def left_pad(prompts) -> np.ndarray:
    """One row per prompt, each left-padded with -1 to the widest prompt:
    the per-completion prompt layout of a stack."""
    prompts = [np.asarray(p, dtype=np.int64) for p in prompts]
    width = max((p.size for p in prompts), default=0)
    padded = np.full((len(prompts), width), -1, dtype=np.int64)
    for row, p in zip(padded, prompts):
        row[width - p.size:] = p
    return padded


@dataclass
class Sequence:
    """A prompt plus a (possibly corrupted) completion, or a stack of them."""

    prompt: np.ndarray
    completion: np.ndarray
    masked: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.prompt = np.asarray(self.prompt, dtype=np.int64)
        self.completion = np.asarray(self.completion, dtype=np.int64)
        if self.masked is None:
            self.masked = np.zeros(self.completion.shape, dtype=bool)
        else:
            self.masked = np.asarray(self.masked, dtype=bool)
        if self.masked.shape != self.completion.shape:
            raise ValueError("masked flags must match completion length")
        if self.completion.ndim < 1 or self.completion.shape[-1] < 1:
            raise ValueError("completion must have at least one token")
        if self.prompt.ndim != 1 and self.prompt.shape[:-1] != self.completion.shape[:-1]:
            raise ValueError("a prompt with leading axes must match the completion's")

    @property
    def prompt_len(self) -> int:
        """Prompt width, left padding included."""
        return self.prompt.shape[-1]

    @property
    def completion_len(self) -> int:
        return self.completion.shape[-1]

    @property
    def total_len(self) -> int:
        return self.prompt_len + self.completion_len

    def is_clean(self) -> bool:
        return not self.masked.any()

    def copy(self) -> "Sequence":
        return Sequence(self.prompt.copy(), self.completion.copy(), self.masked.copy())

    def with_masked(self, positions) -> "Sequence":
        """Return a copy masked exactly at the given completion positions."""
        out = self.copy()
        out.masked[:] = False
        idx = np.asarray(list(positions), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.completion_len:
                raise ValueError("mask positions outside completion range")
            out.masked[idx] = True
            out.completion[idx] = MASKED_TOKEN
        return out
