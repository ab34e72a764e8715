"""Prompt/completion token sequences.

A Sequence carries the prompt (never corrupted) and the completion.  A
completion position is masked exactly when it holds ``MASKED_TOKEN`` (-1),
the value that also left-pads prompts; ``masked`` is derived from the
tokens.  A completion array with leading axes holds a stack of completions
of one length: ``completion[b]`` is completion ``b``.  The stack shares a
one-dimensional prompt, or has one prompt per completion when the prompt
carries the same leading axes; such prompts are left-padded to one width
with -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Token value of a masked completion position, and of prompt left padding.
MASKED_TOKEN = -1


def _token_ids(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a value that is not an integer, such as
    2.5 or NaN, or a bool array, raises ``ValueError`` naming ``name``
    instead of truncating or reading the bools as 0 and 1."""
    values = np.asarray(values)
    if values.dtype == bool:
        raise ValueError(f"{name} token ids must be integers, got a bool array")
    if values.dtype.kind in "iu":  # already integers: no check, no copy at int64
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN, inf and overflow cast to a mismatch
        ids = values.astype(np.int64)
    if not np.array_equal(ids, values):
        bad = values[ids != values].tolist()[0]
        raise ValueError(f"{name} token ids must be integers, got {bad!r}")
    return ids


def left_pad(prompts) -> np.ndarray:
    """One row per prompt, each left-padded with -1 to the widest prompt:
    the per-completion prompt layout of a stack."""
    prompts = [_token_ids(p, "prompt") for p in prompts]
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

    def __post_init__(self):
        self.prompt = _token_ids(self.prompt, "prompt")
        self.completion = _token_ids(self.completion, "completion")
        if self.completion.ndim < 1 or self.completion.shape[-1] < 1:
            raise ValueError("completion must have at least one token")
        if self.prompt.ndim < 1:
            raise ValueError("prompt must be an array of token ids, not a scalar")
        if self.prompt.ndim != 1 and self.prompt.shape[:-1] != self.completion.shape[:-1]:
            raise ValueError("a prompt with leading axes must match the completion's")
        if min(self.completion.min(initial=0), self.prompt.min(initial=0)) < MASKED_TOKEN:
            raise ValueError(f"token ids must be >= {MASKED_TOKEN}")

    @property
    def masked(self) -> np.ndarray:
        """Read-only flags, True at the completion's masked positions."""
        flags = self.completion == MASKED_TOKEN
        flags.flags.writeable = False
        return flags

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
        return bool(self.completion.min(initial=0) >= 0)

    def copy(self) -> "Sequence":
        return Sequence(self.prompt.copy(), self.completion.copy())

    def with_masked(self, positions) -> "Sequence":
        """Return a copy of a clean sequence masked exactly at the given
        completion positions, in every completion of a stack."""
        if not self.is_clean():
            raise ValueError("with_masked expects a clean sequence")
        idx = np.asarray(list(positions), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.completion_len):
            raise ValueError("mask positions outside completion range")
        out = self.copy()
        out.completion[..., idx] = MASKED_TOKEN
        return out
