"""ELBO-based sequence scoring with coupled masks and detached centering.

Scores are likelihood-oriented throughout: a larger value means the model
assigns higher estimated likelihood to the completion.  Centering subtracts
the micro-batch mean as a constant; gradients of centered scores equal
gradients of raw scores by construction.  Scoring takes the stacked
``Sequence`` that ``mdm.decode`` returns as it is.
"""

from __future__ import annotations

import itertools
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


@dataclass
class RelativeScoreBatch:
    deltas: np.ndarray
    center: float
    centered: np.ndarray


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
    that stream gives both where the retried round ends and the kept rows."""
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
        self.k = len(masks) // n
        # a stable sort by (completion, hits row) heads each run of equal
        # masks with its first occurrence; numbering the runs by that mask
        # gives each completion's distinct sets in first-occurrence order.
        # Unlike np.unique this imports no numpy.ma
        owner = np.repeat(np.arange(n), self.k)
        order = np.lexsort((*hits.T, owner))
        runs = hits[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = (np.diff(owner[order]) != 0) | (runs[1:] != runs[:-1]).any(axis=1)
        firsts = order[head]
        number = np.empty(firsts.size, dtype=np.intp)
        number[np.argsort(firsts)] = np.arange(firsts.size)
        self.mask_row = np.empty(order.size, dtype=np.intp)  # the stack row of each mask
        self.mask_row[order] = number[np.cumsum(head) - 1]
        firsts.sort()
        masked = hits[firsts]
        n_rows = np.bincount(owner[firsts], minlength=n)  # stack rows per completion
        self.row_offsets = np.concatenate([[0], np.cumsum(n_rows)])  # completion -> stack rows
        self.sizes = masked.sum(axis=1)
        clean_rows = np.repeat(self.clean, n_rows, axis=0)
        prompts = np.repeat(np.broadcast_to(seqs.prompt, (n, seqs.prompt_len)), n_rows, axis=0)
        self.stack = Sequence(prompts, np.where(masked, MASKED_TOKEN, clean_rows))
        self.tokens = clean_rows[masked]  # the clean token at each forward row
        self.starts = np.array([0, *itertools.accumulate(self.sizes.tolist())])  # stack row -> forward rows
        # per set size s: its stack rows and their (rows, s) forward rows, from
        # one stable sort by size (np.unique would import numpy.ma, +1.7 MiB)
        by_size = np.argsort(self.sizes, kind="stable")
        per_size = np.bincount(self.sizes)
        ends = np.cumsum(per_size).tolist()
        self.by_size = []
        for s in np.flatnonzero(per_size).tolist():
            rows = by_size[ends[s - 1]:ends[s]]
            self.by_size.append((rows, self.starts[rows, None] + np.arange(s)))

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
    ``Sequence`` whose completion is ``(n, l_c)``, or 1-D for one, under a
    shared 1-D prompt or ``(n, P)`` left-padded ones, and of one
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


def center_scores(deltas, centering: bool = True) -> RelativeScoreBatch:
    """Subtract the detached micro-batch mean.  The center is a constant in
    any gradient computation; centered values sum to zero in the forward
    pass.  ``centering=False`` is the ablation: the center is fixed at zero
    and the raw deltas pass through."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if centering and deltas.size < 2:
        raise ValueError("centering needs a batch of at least 2 scores")
    center = float(deltas.mean()) if centering else 0.0
    return RelativeScoreBatch(deltas=deltas, center=center, centered=deltas - center)


def var_delta(batch: RelativeScoreBatch) -> float:
    """Population variance of the raw deltas; the stability diagnostic."""
    if batch.deltas.size < 2:
        raise ValueError("variance needs at least 2 scores")
    return float(np.var(batch.deltas))


def batch_mean_offset(batch: RelativeScoreBatch) -> float:
    """Mean of the values the loss actually sees.  Near zero with centering
    on; the mean raw delta with centering off."""
    return float(batch.centered.mean())
