"""Reference denoiser: a tiny feature model with analytic gradients.

The denoiser predicts a categorical distribution over the vocabulary at every
completion position of a corrupted sequence.  Features at position ``i`` are

* a one-hot of the absolute position (prompt offset included),
* embeddings of the visible (unmasked) tokens in a symmetric window,
* the fraction of masked completion positions.

The feature vector passes through one tanh hidden layer and a linear-softmax
readout.  Everything is small enough that the analytic backward pass can be
checked coordinate-wise against finite differences.

A masked completion position and a prompt's left padding both hold -1, and
the features read either as no token.  This module is the model only; its
checkpoint format lives in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sequences import MASKED_TOKEN, Sequence


ARCHITECTURE = ("vocab_size", "window", "hidden", "embed_dim", "n_positions")


def _section_shapes(vocab_size, window, hidden, embed_dim, n_positions) -> list[tuple[int, ...]]:
    """Shapes of the embed, w1, b1, w2, b2 sections of the flat parameter
    vector, in storage order; w1 is (hidden, feature dimension)."""
    f = n_positions + 2 * window * embed_dim + 1
    return [(vocab_size, embed_dim), (hidden, f), (hidden,), (vocab_size, hidden), (vocab_size,)]


@dataclass
class DenoiserParams:
    """Flat parameter vector plus the architecture metadata that shapes it.
    ``embed``, ``w1``, ``b1``, ``w2``, ``b2`` are views into ``theta``, built
    once; ``replace_theta`` is the way to change the parameters."""

    theta: np.ndarray
    vocab_size: int
    window: int = 3
    hidden: int = 32
    embed_dim: int = 8
    n_positions: int = 32
    seed: int = 0

    def __post_init__(self):
        shapes = _section_shapes(self.vocab_size, self.window, self.hidden,
                                 self.embed_dim, self.n_positions)
        sizes = [math.prod(s) for s in shapes]
        self.feature_dim = shapes[1][1]
        self.n_params = sum(sizes)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.n_params,):
            raise ValueError(
                f"theta has {self.theta.size} entries, metadata implies {self.n_params}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite entries")
        parts = np.split(self.theta, np.cumsum(sizes)[:-1])
        self.embed, self.w1, self.b1, self.w2, self.b2 = (
            part.reshape(shape) for part, shape in zip(parts, shapes)
        )

    def replace_theta(self, theta: np.ndarray) -> "DenoiserParams":
        return replace(self, theta=theta)

    def copy(self) -> "DenoiserParams":
        return self.replace_theta(self.theta.copy())

    def logprobs(self, seq: Sequence, where: np.ndarray | None = None) -> np.ndarray:
        """Per-position log-probability table over the vocab, shape (L_c, size)
        for one completion and (..., L_c, size) for a stack; with ``where``
        (shape of ``seq.completion``), only its True entries, as flat rows
        (n, size) in C order.  Rows exponentiate-and-sum to one; the
        computation is deterministic in its inputs."""
        logprobs = forward(self, seq, where)[0]
        return logprobs.reshape(seq.completion.shape + (-1,)) if where is None else logprobs


def architecture_mismatch(params: DenoiserParams, other: DenoiserParams) -> str | None:
    """The first ``ARCHITECTURE`` field where ``params`` differs from
    ``other``, as ``"<field> <its value> differs from <other's>"``, or None."""
    name = next((f for f in ARCHITECTURE if getattr(params, f) != getattr(other, f)), None)
    return name and f"{name} {getattr(params, name)} differs from {getattr(other, name)}"


def init_params(
    vocab_size: int,
    *,
    window: int = 3,
    hidden: int = 32,
    embed_dim: int = 8,
    n_positions: int = 32,
    seed: int = 0,
    scale: float = 0.05,
) -> DenoiserParams:
    """Uniform init in [-scale, scale]; near-uniform initial policy."""
    shapes = _section_shapes(vocab_size, window, hidden, embed_dim, n_positions)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-scale, scale, size=sum(math.prod(s) for s in shapes))
    return DenoiserParams(theta, vocab_size, window=window, hidden=hidden,
                          embed_dim=embed_dim, n_positions=n_positions, seed=seed)


class Layout:
    """What a stack's features keep across forwards, built once per stack:
    the checks, each row's first completion position ``starts``, the token
    buffer ``padded`` the window gathers from (-1 for masked, padding and
    off-sequence), the gather offsets, the feature width and the embedding
    table with a zero row for ctx -1.  ``prompt`` and ``completion`` are
    views into ``padded``, one row per completion; a token written into
    ``completion`` is what the next forward on the layout reads.

    A completion's absolute positions start after its own prompt tokens, the
    entries >= 0; its -1 left padding reads as outside the sequence, so every
    row gets the features of its unpadded sequence.  A token id at or past
    ``vocab_size`` in either array raises ``ValueError`` naming the array.
    """

    def __init__(self, params: DenoiserParams, seq: Sequence):
        lc, pl, w = seq.completion_len, seq.prompt_len, params.window
        for name, ids in (("prompt", seq.prompt), ("completion", seq.completion)):
            if ids.size and ids.max() >= params.vocab_size:
                raise ValueError(f"{name} token ids must be < vocab_size {params.vocab_size}")
        rows, self.completion_len = seq.completion.size // lc, lc
        prompt = np.broadcast_to(seq.prompt, seq.completion.shape[:-1] + (pl,)).reshape(rows, pl)
        self.starts = starts = (prompt >= 0).sum(axis=1)
        if starts.max() + lc > params.n_positions:
            raise ValueError(
                f"sequence length {starts.max() + lc} exceeds position table {params.n_positions}"
            )
        self.width = seq.total_len + 2 * w
        self.padded = np.full((rows, self.width), -1, dtype=np.int64)
        self.prompt = self.padded[:, w:w + pl]
        self.completion = self.padded[:, w + pl:w + seq.total_len]
        self.prompt[...], self.completion[...] = prompt, seq.completion.reshape(rows, lc)
        # a row's flat offset of position i's neighbours is row start + i + these
        self.offsets = w + pl + np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
        self.table = np.zeros((params.vocab_size + 1, params.embed_dim))
        self.feature_dim = params.feature_dim


class Rows:
    """The model-independent feature rows of a ``Layout`` at the n True
    entries of ``where`` (shape of its completions; every position when
    None), flat in C order: the context index rows ``ctx`` (n, 2*window)
    and ``x`` (n + pad, F), zero rows appended up to a multiple of L_c, the
    layout ``forward``'s gemms read, with the position one-hot and masked
    fraction written and the embedding block left for each forward to fill.

    ``ctx[r, slot]`` is the token whose embedding fills feature slot
    ``slot`` of row ``r`` (neighbour offsets -window..-1, 1..window), or -1
    when that neighbour is outside the sequence or masked.  The backward
    pass routes embedding gradients through the same array.
    """

    def __init__(self, layout: Layout, where: np.ndarray | None = None):
        rows, lc = layout.completion.shape
        b, i = np.nonzero(np.ones((rows, lc), bool) if where is None else where.reshape(rows, lc))
        # flat offsets (row start + position + window offset); cheaper than a 2-D gather
        self.ctx = layout.padded.ravel()[(b * layout.width + i)[:, None] + layout.offsets]
        self.x = x = np.zeros((b.size + -b.size % lc, layout.feature_dim), dtype=np.float64)
        # the position one-hot, written through flat offsets (row start + position)
        x.reshape(-1)[np.arange(b.size) * x.shape[1] + layout.starts[b] + i] = 1.0
        x[:b.size, -1] = ((layout.completion == MASKED_TOKEN).sum(axis=1) / lc)[b]
        self.completion_len, self.table = lc, layout.table


def _features(params: DenoiserParams, seq: Sequence | Layout | Rows,
              where: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``ctx`` of ``Rows`` (built here for a ``Sequence`` or a
    ``Layout``) with ``params``' embeddings written into ``x``'s block."""
    if not isinstance(seq, Rows):
        seq = Rows(seq if isinstance(seq, Layout) else Layout(params, seq), where)
    x, ctx, n, npos = seq.x, seq.ctx, len(seq.ctx), params.n_positions
    seq.table[:-1] = params.embed  # ctx -1 picks the zero row after it
    x[:n, npos:-1] = np.take(seq.table, ctx, axis=0).reshape(n, x.shape[1] - npos - 1)
    return x, ctx


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, exact, from a vocab-major copy: ~3x faster on rows a vocab wide."""
    return np.ascontiguousarray(a.T).max(axis=0).T


def forward(params: DenoiserParams, seq: Sequence | Layout | Rows, where: np.ndarray | None = None):
    """Log-probability rows (n, size) at the True entries of ``where``
    (shape of ``seq.completion``; every position when None), flat in C order
    as ``Rows`` numbers them, and the activations ``backward`` reuses.
    ``seq`` may be the ``Layout`` that several forwards of a stack share, or
    ``Rows`` (``where`` unused) that forwards of models of one architecture
    share; each writes its embeddings over the last one's.

    Both matmuls run as gemms of exactly L_c rows, the shape of one
    completion's forward, over ``x``'s zero-padded rows: a row's bits then
    do not depend on which rows share the call or where the row sits.  The
    bias adds, ``tanh`` and the log-softmax write in place.
    """
    x, ctx = _features(params, seq, where)
    n, lc = len(ctx), seq.completion_len
    h = x.reshape(-1, lc, x.shape[1]) @ params.w1.T
    np.tanh(np.add(h, params.b1, out=h), out=h)
    logits = h @ params.w2.T
    logits = np.add(logits, params.b2, out=logits).reshape(-1, params.vocab_size)[:n]
    h = h.reshape(-1, params.hidden)[:n]
    m = row_max(logits)[:, None]
    e = logits - m
    logits -= m + np.log(np.exp(e, out=e).sum(axis=-1, keepdims=True))
    return logits, (x, ctx, h)


def backward(params: DenoiserParams, fwd, tokens, weights, bounds) -> list[np.ndarray]:
    """Gradients w.r.t. theta of sum_r weights[r] * log p(tokens[r]) over
    the ``forward`` rows r of each segment ``[bounds[s], bounds[s+1])``, one
    flat gradient per segment; ``tokens`` and ``weights`` have one entry per
    forward row.

    The softmax, one-hot and weight terms run once over every row.  Each
    segment then runs its own gemms, ``1 - h**2``, embedding cells and bias
    sums over just its rows, so its gradient's bits equal a call on that
    segment alone, whichever segments share the call."""
    logprobs, (x, ctx, h) = fwd
    v, e = params.vocab_size, params.embed_dim
    dlogits = -np.exp(logprobs)
    dlogits[np.arange(len(dlogits)), tokens] += 1.0
    dlogits *= weights[:, None]
    # one (token, embedding column) cell per slot entry, added in row order;
    # token v, for ctx -1 (masked or outside), collects what no embedding gets
    first_cells = np.where(ctx < 0, v, ctx)[:, :, None] * e
    grads = []
    for a, b in zip(bounds, bounds[1:]):
        dl, hs, xs = dlogits[a:b], h[a:b], x[a:b]
        d_w2 = dl.T @ hs
        da = (dl @ params.w2) * (1.0 - hs ** 2)
        d_w1 = da.T @ xs
        dx = da @ params.w1
        cells = (first_cells[a:b] + np.arange(e)).ravel()
        d_table = np.bincount(cells, dx[:, params.n_positions:-1].ravel(),
                              minlength=(v + 1) * e)
        grads.append(np.concatenate(
            [d_table[:v * e], d_w1.ravel(), da.sum(axis=0), d_w2.ravel(), dl.sum(axis=0)]))
    return grads
