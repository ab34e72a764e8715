"""ELBO-based sequence scoring with coupled masks and detached centering.

Scores are likelihood-oriented throughout: a larger value means the model
assigns higher estimated likelihood to the completion.  Centering subtracts
the micro-batch mean as a constant; gradients of centered scores equal
gradients of raw scores by construction.  Scoring takes the stacked
``Sequence`` that ``mdm.decode`` returns as it is.  The step's diagnostics
of a centered batch, the deltas' variance and the mean centered score, are
``harness.StepMetrics`` fields computed where the step records them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import denoiser
from .denoiser import DenoiserParams
from .sequences import MASKED_TOKEN, Sequence


@dataclass(frozen=True, eq=False)
class MaskBatch:
    """``k`` Monte Carlo corruptions as one array: the boolean position sets
    ``hits`` (k, width), one nonempty row per mask."""

    hits: np.ndarray

    def __post_init__(self):
        if not isinstance(self.hits, np.ndarray) or self.hits.dtype != bool or self.hits.ndim != 2:
            raise ValueError("hits must be a 2-D bool array")
        if not self.hits.any(axis=1).all():
            raise ValueError("hits rows must each hold a nonempty position set")

    def __len__(self) -> int:
        return len(self.hits)


def sample_mask_sets(l_c: int, k: int, rng: np.random.Generator, n: int = 1) -> MaskBatch:
    """Draw ``k`` masks for each of ``n`` completions in turn, as one batch
    of n*k rows.  Each mask takes t ~ U(0,1] and an independent Bernoulli(t)
    mask over completion positions, resampling both until the set is
    nonempty; the batch keeps only the sets.  Each round draws the missing
    rows' times, then their (rows, l_c) Bernoulli matrix, and keeps its
    nonempty rows in order; a completion's rounds end before the next one's
    begin.

    ``rng.random`` is split-invariant, so the draws and the state ``rng`` is
    left in equal ``n`` calls of one completion each: the stream is read only
    as far as the rounds known to be due, the remaining first rounds and the
    retry of a round with an empty set.  One nonempty test per parse of
    that stream gives both where the retried round ends and the kept rows.
    ``l_c``, ``k`` and ``n`` are integers, numpy's too, but not bools."""
    for name, value in (("l_c", l_c), ("k", k), ("n", n)):
        # bool is an Integral, so it is rejected by name
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if l_c < 1:
        raise ValueError("completion length must be >= 1")
    if k < 1:
        raise ValueError("need k >= 1 mask samples")
    if n < 1:
        raise ValueError("need n >= 1 completions")
    step = 1 + l_c  # doubles per row: its time, then its Bernoulli draws
    rows = []  # each round's kept position sets
    missing, u = k, rng.random(n * k * step)
    while missing:
        # the stream ahead: a round of `missing` rows, then first rounds of k
        rest = u[missing * step:].reshape(-1, k * step)
        t = 1.0 - np.concatenate([u[:missing], rest[:, :k].ravel()])
        hits = np.concatenate([u[missing:missing * step].reshape(missing, l_c),
                               rest[:, k:].reshape(-1, l_c)]) < t[:, None]
        # keep the rows up to the end of the first round with an empty set
        # (all of them without one); that round is retried next
        nonempty = hits.any(axis=1)
        first = int(nonempty.argmin())  # the first empty set, if any
        # rounds end at missing, missing + k, ...; the first end past `first`
        end = len(t) if nonempty[first] else max(missing, first + k - (first - missing) % k)
        keep = nonempty[:end]
        rows.append(hits[:end][keep])
        missing = end - int(keep.sum())
        u = np.concatenate([u[end * step:], rng.random(missing * step)])
    return MaskBatch(np.concatenate(rows))


class _MaskStack:
    """Clean completions, each corrupted at every distinct position set of
    its masks and stacked so that one denoiser forward at the stack's masked
    positions scores every (completion, distinct set) row once, under its
    completion's prompt row.  Stack rows keep first-occurrence order,
    completion by completion.  That forward's rows are flat in C order, so
    each stack row's masked positions, and each completion's rows, are
    contiguous.  ``seqs`` and ``masks`` are read as ``elbo_terms`` reads them."""

    def __init__(self, seqs: Sequence, masks: MaskBatch):
        if not isinstance(seqs, Sequence):
            raise TypeError("completions must be one Sequence, a stack of completions "
                            "as mdm.decode returns")
        if not isinstance(masks, MaskBatch):
            raise TypeError("masks must be a MaskBatch, as sample_mask_sets returns")
        l_c, hits = seqs.completion_len, masks.hits
        self.clean = seqs.completion.reshape(-1, l_c)
        n = len(self.clean)
        if not n or len(masks) % n:
            raise ValueError(f"need one mask batch that splits evenly among the completions: "
                             f"{len(masks)} for {n} completions")
        if not masks:
            raise ValueError("need at least one mask sample")
        if self.clean.min() < 0:
            raise ValueError("scoring expects a clean sequence")
        if hits.shape[1] != l_c:
            raise ValueError(f"the mask batch is {hits.shape[1]} positions wide, "
                             f"the completions {l_c}")
        k = self.k = len(masks) // n
        # one dict numbers each completion's distinct sets in first-occurrence
        # order, a new key taking the dict's size; unlike np.unique this
        # imports no numpy.ma (+1.7 MiB)
        keys = zip(np.repeat(np.arange(n), k).tolist(),
                   np.ascontiguousarray(hits).view(f"V{l_c}").ravel().tolist())
        row_of = {}  # (completion, set bytes) -> stack row
        self.mask_row = np.array([row_of.setdefault(key, len(row_of)) for key in keys])
        # completion -> stack rows: a completion's rows end after its last, largest one
        self.row_offsets = np.concatenate([[0], self.mask_row.reshape(n, k).max(axis=1) + 1])
        n_rows = np.diff(self.row_offsets)
        masked = np.frombuffer(b"".join([s for _, s in row_of]), dtype=bool).reshape(-1, l_c)
        self.sizes = masked.sum(axis=1)
        clean_rows = np.repeat(self.clean, n_rows, axis=0)
        # a shared prompt, or one per completion under any leading axes, as Layout reads it
        prompt = np.broadcast_to(seqs.prompt, seqs.completion.shape[:-1] + (seqs.prompt_len,))
        prompts = np.repeat(prompt.reshape(n, seqs.prompt_len), n_rows, axis=0)
        self.stack = Sequence(prompts, np.where(masked, MASKED_TOKEN, clean_rows))
        self.tokens = clean_rows[masked]  # the clean token at each forward row
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)])  # stack row -> forward rows
        # per set size s, ascending: its stack rows, ascending, and their (rows, s) forward rows
        by_size = {}
        for row, size in enumerate(self.sizes.tolist()):
            by_size.setdefault(size, []).append(row)
        self.by_size = [(np.array(rows), np.add.outer(self.starts[rows], np.arange(s)))
                        for s, rows in sorted(by_size.items())]

    def rows(self, params: DenoiserParams) -> denoiser.Rows:
        """The feature rows at the stack's masked positions, which the
        forwards of every model of ``params``' architecture share."""
        return denoiser.Rows(denoiser.Layout(params, self.stack), self.stack.masked)

    def terms(self, logprobs: np.ndarray) -> np.ndarray:
        """The (completions, k) per-mask terms, from the log-probability rows
        at the stack's masked positions: each mask's mask-size reweighted
        log-probability sum of the clean tokens."""
        l_c = self.clean.shape[1]
        picked = logprobs[np.arange(len(self.tokens)), self.tokens]
        by_row = np.empty(len(self.sizes))
        for rows, cells in self.by_size:
            # a sum along the contiguous last axis adds each row in the order
            # of that row's own 1-D sum; np.add.reduceat does not
            by_row[rows] = (l_c / cells.shape[1]) * picked[cells].sum(axis=1)
        return by_row[self.mask_row].reshape(-1, self.k)

    def grads(self, params: DenoiserParams, fwd, scale: float) -> list[np.ndarray]:
        """Per completion, the gradient of ``scale`` times its mean term, by
        one backward through the forward ``fwd`` at the stack's masked
        positions, segmented at each completion's rows."""
        l_c = self.clean.shape[1]
        counts = np.bincount(self.mask_row, minlength=len(self.sizes))
        weights = np.repeat(scale * counts * (l_c / self.sizes) / self.k, self.sizes)
        return denoiser.backward(params, fwd, self.tokens, weights, self.starts[self.row_offsets])

    def deltas(self, params_cur: DenoiserParams, params_ref: DenoiserParams | None):
        """Per completion, the per-token current-reference score difference,
        and the current forward.  Both forwards run on one ``rows``: the
        reference forward writes its embeddings into them and is reduced to
        its mean terms, then the current forward writes its own over the same
        block, so the two forwards' activations are never alive together."""
        rows = self.rows(params_cur)
        ref = 0.0 if params_ref is None else self.terms(denoiser.forward(params_ref, rows)[0]).mean(axis=1)
        fwd = denoiser.forward(params_cur, rows)
        return ((self.terms(fwd[0]).mean(axis=1) - ref) / self.clean.shape[1]).tolist(), fwd


def elbo_terms(params: DenoiserParams, seqs: Sequence, masks: MaskBatch) -> np.ndarray:
    """The (n, k) Monte Carlo sequence score terms of ``seqs``, one
    ``Sequence`` of ``n`` completions ``l_c`` long in C order under any
    leading axes, or 1-D for one, under a shared 1-D prompt or left-padded
    ones with the completion's leading axes, and of one
    ``MaskBatch`` of ``n·k`` rows, ``l_c`` wide, row ``c·k + j`` being
    completion ``c``'s mask ``j``: the mask-size reweighted sum of denoising
    log-probabilities at the masked positions.  A row's mean is its
    completion's score estimate.  One forward over the whole stack."""
    stack = _MaskStack(seqs, masks)
    return stack.terms(denoiser.forward(params, stack.rows(params))[0])


def coupled_deltas_and_grads(
    params_cur: DenoiserParams,
    params_ref: DenoiserParams | None,
    seqs: Sequence,
    masks: MaskBatch,
) -> tuple[list[float], list[np.ndarray]]:
    """Per completion of ``seqs`` under its masks, both read as
    ``elbo_terms`` reads them: the per-token current-reference score difference
    (the difference of the mean ``elbo_terms`` of the two models, divided by
    the completion length) and its gradient w.r.t. the current theta.

    The same masks evaluate both models, so identical parameters give
    exactly zero.  Without a reference (``params_ref`` None) the delta is
    the per-token current score.  Only the current side depends on theta.
    One reference and one current forward over the whole stack, each at its
    masked positions only, then one backward through the current forward
    that returns each completion's gradient from its own rows.  A reference
    whose architecture differs from the current model's raises
    ``ValueError`` naming the first such field."""
    if params_ref is not None and (diff := denoiser.architecture_mismatch(params_ref, params_cur)):
        raise ValueError(f"params_ref {diff} in params_cur")
    stack = _MaskStack(seqs, masks)
    deltas, fwd = stack.deltas(params_cur, params_ref)
    return deltas, stack.grads(params_cur, fwd, 1.0 / stack.clean.shape[1])


def center_scores(deltas, centering: bool = True) -> np.ndarray:
    """The deltas minus their detached micro-batch mean, as float64.  The
    center is a constant in any gradient computation; centered values sum to
    zero in the forward pass.  ``centering=False`` is the ablation: the raw
    deltas pass through."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if centering and deltas.size < 2:
        raise ValueError("centering needs a batch of at least 2 scores")
    return deltas - float(deltas.mean()) if centering else deltas
