"""ELBO-based sequence scoring with coupled masks and detached centering.

Scores are likelihood-oriented throughout: a larger value means the model
assigns higher estimated likelihood to the completion.  Centering subtracts
the micro-batch mean as a constant; gradients of centered scores equal
gradients of raw scores by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# logprob_sum_grad stays importable from score, where the benchmark's tracer wraps it
from .denoiser import (DenoiserParams, backward, denoiser_logprobs, forward,  # noqa: F401
                       logprob_sum_grad)
from .sequences import MASKED_TOKEN, Sequence


@dataclass(frozen=True)
class MaskSample:
    """One Monte Carlo corruption: a noise time and a nonempty position set."""

    t: float
    positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) == 0:
            raise ValueError("mask position set must be nonempty")
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"mask time t={self.t} outside (0, 1]")


@dataclass(frozen=True, eq=False)
class MaskBatch:
    """``k`` Monte Carlo corruptions as arrays: noise times ``t`` (k,) and the
    boolean position sets ``hits`` (k, width), one nonempty row per mask.
    Positions at and past ``width`` are unmasked, so a batch scores any
    completion at least ``width`` long.  It is also a sequence of
    ``MaskSample`` views: ``len``, iteration, an int index gives a row and a
    slice gives a batch."""

    t: np.ndarray
    hits: np.ndarray

    def __post_init__(self):
        if not isinstance(self.hits, np.ndarray) or self.hits.dtype != bool or self.hits.ndim != 2:
            raise ValueError("hits must be a 2-D bool array")
        t = np.asarray(self.t, dtype=np.float64)
        if t.shape != self.hits.shape[:1]:
            raise ValueError(f"t must be 1-D with one time per hits row ({len(self.hits)})")
        if not ((t > 0.0) & (t <= 1.0)).all():
            raise ValueError("t values must lie in (0, 1]")
        if not self.hits.any(axis=1).all():
            raise ValueError("hits rows must each hold a nonempty position set")
        object.__setattr__(self, "t", t)

    @classmethod
    def from_samples(cls, samples) -> "MaskBatch":
        """The batch of hand-written ``MaskSample`` rows, ``width`` one past
        their largest position."""
        samples = list(samples)
        width = max((max(m.positions) + 1 for m in samples), default=0)
        hits = np.zeros((len(samples), width), dtype=bool)
        for row, m in enumerate(samples):
            hits[row, list(m.positions)] = True
        return cls(np.array([m.t for m in samples]), hits)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MaskBatch(self.t[i], self.hits[i])
        return MaskSample(float(self.t[i]), tuple(np.flatnonzero(self.hits[i]).tolist()))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class ElboEstimate:
    value: float
    k: int
    terms: np.ndarray


@dataclass
class RelativeScoreBatch:
    deltas: np.ndarray
    center: float
    centered: np.ndarray


def sample_mask_sets(l_c: int, k: int, rng: np.random.Generator) -> MaskBatch:
    """Draw ``k`` masks: each takes t ~ U(0,1] and an independent Bernoulli(t)
    mask over completion positions, resampling both until the set is
    nonempty.  Each round draws the missing rows' times, then their
    (rows, l_c) Bernoulli matrix, and keeps its nonempty rows in order."""
    if l_c < 1:
        raise ValueError("completion length must be >= 1")
    if k < 1:
        raise ValueError("need k >= 1 mask samples")
    ts: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    kept = 0
    while kept < k:
        t = 1.0 - rng.random(k - kept)
        hits = rng.random((t.size, l_c)) < t[:, None]
        keep = hits.any(axis=1)
        if not keep.all():
            t, hits = t[keep], hits[keep]
        ts.append(t)
        rows.append(hits)
        kept += t.size
    if len(ts) == 1:
        return MaskBatch(ts[0], rows[0])
    return MaskBatch(np.concatenate(ts), np.concatenate(rows))


class _MaskStack:
    """Clean completions sharing a prompt, each corrupted at every distinct
    position set of its masks and stacked so that one denoiser forward at the
    stack's masked positions scores every (completion, distinct set) row
    once.  Stack rows keep first-occurrence order, completion by completion.
    That forward's rows are flat in C order, so each stack row's masked
    positions, and each completion's rows, are contiguous."""

    def __init__(self, group: list[Sequence], masks_per: list[MaskBatch]):
        if not group or len(group) != len(masks_per):
            raise ValueError("need one mask list per completion, and a completion")
        if any(not np.array_equal(seq.prompt, group[0].prompt) for seq in group[1:]):
            raise ValueError("a scored group must share one prompt")
        for seq, masks in zip(group, masks_per):
            if not masks:
                raise ValueError("need at least one mask sample")
            if not isinstance(masks, MaskBatch):
                raise TypeError("masks must be a MaskBatch; see MaskBatch.from_samples")
            if not seq.is_clean():
                raise ValueError("scoring expects a clean sequence")
        self.clean = np.array([seq.completion for seq in group])
        l_c = self.clean.shape[1]
        offsets = [0, *itertools.accumulate(len(masks) for masks in masks_per)]
        hits = np.zeros((offsets[-1], l_c), dtype=bool)
        for masks, a, b in zip(masks_per, offsets, offsets[1:]):
            if masks.hits.shape[1] > l_c:
                raise ValueError("a mask position lies past the completion")
            hits[a:b, :masks.hits.shape[1]] = masks.hits
        # each completion's dict over the raw row bytes numbers its distinct
        # sets in first-occurrence order; unlike np.unique this works at any
        # l_c and imports no numpy.ma
        keys = hits.view(f"V{l_c}").ravel().tolist()
        sets: list[bytes] = []  # per stack row, its hits row
        self.spans: list[range] = []  # per completion, its stack rows
        self.which: list[np.ndarray] = []  # per completion, the stack row of each mask
        for a, b in zip(offsets, offsets[1:]):
            first, index = len(sets), {}
            self.which.append(np.array([index.setdefault(key, first + len(index))
                                        for key in keys[a:b]]))
            sets.extend(index)
            self.spans.append(range(first, len(sets)))
        masked = np.frombuffer(b"".join(sets), dtype=bool).reshape(len(sets), l_c)
        self.sizes = masked.sum(axis=1)
        clean_rows = np.repeat(self.clean, [len(span) for span in self.spans], axis=0)
        self.stack = Sequence(group[0].prompt, np.where(masked, MASKED_TOKEN, clean_rows), masked)
        self.tokens = clean_rows[masked]  # the clean token at each forward row
        self.starts = np.array([0, *itertools.accumulate(self.sizes.tolist())])  # stack row -> forward rows
        self.by_size = []  # per set size s: its stack rows and their (rows, s) forward rows
        for s in set(self.sizes.tolist()):  # np.unique would import numpy.ma, +1.7 MiB
            rows = np.flatnonzero(self.sizes == s)
            self.by_size.append((rows, self.starts[rows, None] + np.arange(s)))

    def logprobs(self, params: DenoiserParams) -> np.ndarray:
        """The denoiser's log-probability rows at the stack's masked positions."""
        return denoiser_logprobs(params, self.stack, self.stack.masked)

    def terms(self, logprobs: np.ndarray) -> list[np.ndarray]:
        """Per completion, the per-mask terms from the log-probability rows
        at the stack's masked positions: the mask-size reweighted
        log-probability sum of the clean tokens."""
        l_c = self.clean.shape[1]
        picked = logprobs[np.arange(len(self.tokens)), self.tokens]
        by_row = np.empty(len(self.sizes))
        for rows, cells in self.by_size:
            # a sum along the contiguous last axis adds each row in the order
            # of that row's own 1-D sum; np.add.reduceat does not
            by_row[rows] = (l_c / cells.shape[1]) * picked[cells].sum(axis=1)
        return [by_row[which] for which in self.which]

    def grad(self, params: DenoiserParams, fwd, c: int, scale: float) -> np.ndarray:
        """Gradient of ``scale`` times completion ``c``'s mean term, by one
        backward through the forward ``fwd`` at the stack's masked
        positions."""
        l_c, span, which = self.clean.shape[1], self.spans[c], self.which[c]
        counts = np.bincount(which - span.start, minlength=len(span))
        sizes = self.sizes[span.start:span.stop]
        weights = np.repeat(scale * counts * (l_c / sizes) / which.size, sizes)
        rows = slice(self.starts[span.start], self.starts[span.stop])
        return backward(params, fwd, rows, self.tokens[rows], weights)

    def deltas(self, cur_logprobs: np.ndarray, params_ref: DenoiserParams | None) -> list[float]:
        """Per completion, the per-token current-reference score difference;
        the reference scores come from one forward over the same stack."""
        l_c = self.clean.shape[1]
        cur = [float(t.mean()) for t in self.terms(cur_logprobs)]
        if params_ref is None:
            return [value / l_c for value in cur]
        ref = [float(t.mean()) for t in self.terms(self.logprobs(params_ref))]
        return [(a - b) / l_c for a, b in zip(cur, ref)]


def elbo_score(params: DenoiserParams, seq: Sequence, masks: MaskBatch) -> ElboEstimate:
    """Monte Carlo sequence score: average over masks of the mask-size
    reweighted sum of denoising log-probabilities at masked positions."""
    stack = _MaskStack([seq], [masks])
    terms = stack.terms(stack.logprobs(params))[0]
    return ElboEstimate(value=float(terms.mean()), k=len(masks), terms=terms)


def elbo_grad(params: DenoiserParams, seq: Sequence, masks: MaskBatch) -> np.ndarray:
    """Gradient w.r.t. theta of the elbo_score value under fixed masks."""
    stack = _MaskStack([seq], [masks])
    return stack.grad(params, forward(params, stack.stack, stack.stack.masked), 0, 1.0)


def coupled_delta(
    params_cur: DenoiserParams,
    params_ref: DenoiserParams | None,
    seq: Sequence,
    masks: MaskBatch,
) -> float:
    """Per-token current-reference score difference under shared masks.

    The same mask draws evaluate both models, so identical parameters give
    exactly zero.  Without a reference (``params_ref`` None) the result is
    the per-token current score.
    """
    stack = _MaskStack([seq], [masks])
    return stack.deltas(stack.logprobs(params_cur), params_ref)[0]


def delta_grad(params_cur: DenoiserParams, seq: Sequence, masks: MaskBatch) -> np.ndarray:
    """Gradient of the coupled score difference; only the current model side
    depends on theta."""
    return elbo_grad(params_cur, seq, masks) / seq.completion_len


def coupled_deltas_and_grads(
    params_cur: DenoiserParams,
    params_ref: DenoiserParams | None,
    group: list[Sequence],
    masks_per: list[MaskBatch],
) -> tuple[list[float], list[np.ndarray]]:
    """``coupled_delta`` and ``delta_grad`` of every completion of a group
    sharing one prompt, completion ``c`` under ``masks_per[c]``: one current
    and one reference forward over the whole group's stack, each at its
    masked positions only, then one backward per completion through the
    current forward."""
    stack = _MaskStack(group, masks_per)
    fwd = forward(params_cur, stack.stack, stack.stack.masked)
    scale = 1.0 / stack.clean.shape[1]
    return (stack.deltas(fwd[0], params_ref),
            [stack.grad(params_cur, fwd, c, scale) for c in range(len(group))])


def center_scores(deltas) -> RelativeScoreBatch:
    """Subtract the detached micro-batch mean.  The center is a constant in
    any gradient computation; centered values sum to zero in the forward
    pass."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size < 2:
        raise ValueError("centering needs a batch of at least 2 scores")
    center = float(deltas.mean())
    return RelativeScoreBatch(deltas=deltas, center=center, centered=deltas - center)


def uncentered_scores(deltas) -> RelativeScoreBatch:
    """Ablation constructor: raw deltas pass through (center fixed at zero)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    return RelativeScoreBatch(deltas=deltas, center=0.0, centered=deltas.copy())


def var_delta(batch: RelativeScoreBatch) -> float:
    """Population variance of the raw deltas; the stability diagnostic."""
    if batch.deltas.size < 2:
        raise ValueError("variance needs at least 2 scores")
    return float(np.var(batch.deltas))


def batch_mean_offset(batch: RelativeScoreBatch) -> float:
    """Mean of the values the loss actually sees.  Near zero with centering
    on; the mean raw delta with centering off."""
    return float(batch.centered.mean())
