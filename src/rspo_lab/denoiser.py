"""Reference denoiser: a tiny feature model with analytic gradients.

The denoiser predicts a categorical distribution over the vocabulary at every
completion position of a corrupted sequence.  Features at position ``i`` are

* a one-hot of the absolute position (prompt offset included),
* embeddings of the visible (unmasked) tokens in a symmetric window,
* the fraction of masked completion positions.

The feature vector passes through one tanh hidden layer and a linear-softmax
readout.  Everything is small enough that the analytic backward pass can be
checked coordinate-wise against finite differences.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .sequences import Sequence

CHECKPOINT_MAGIC = b"MDMC"
CHECKPOINT_VERSION = 1
# magic, version, vocab_size, window, hidden, embed_dim, n_positions, seed, theta size
CHECKPOINT_HEADER = struct.Struct("<4sIIIIIIQQ")


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
        return denoiser_logprobs(self, seq, where)


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


def _features(params: DenoiserParams, seq: Sequence,
              where: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows ``x`` and context index rows ``ctx`` (n, 2*window) at
    the n True entries of ``where`` (shape of ``seq.completion``; every
    position when None), flat in C order over the leading axes and the
    positions of one completion or of a stack of them.  ``x`` is (n + pad, F),
    zero rows appended up to a multiple of L_c, the layout ``forward``'s
    gemms read.

    ``ctx[r, slot]`` is the token whose embedding fills feature slot
    ``slot`` of row ``r`` (neighbour offsets -window..-1, 1..window), or -1
    when that neighbour is outside the sequence or masked.  The backward
    pass routes embedding gradients through the same array.

    A completion's absolute positions start after its own prompt tokens, the
    entries >= 0; its -1 left padding reads as outside the sequence, so every
    row gets the features of its unpadded sequence.
    """
    lc, pl = seq.completion_len, seq.prompt_len
    w, e = params.window, params.embed_dim
    lead = seq.completion.shape[:-1]
    if where is None:
        where = np.ones(seq.completion.shape, dtype=bool)
    # one row per completion
    rows = seq.completion.size // lc
    prompt = np.broadcast_to(seq.prompt, lead + (pl,)).reshape(rows, pl)
    completion = seq.completion.reshape(rows, lc)
    masked = seq.masked.reshape(rows, lc)
    starts = (prompt >= 0).sum(axis=1)
    if starts.max() + lc > params.n_positions:
        raise ValueError(
            f"sequence length {starts.max() + lc} exceeds position table {params.n_positions}"
        )
    b, i = np.nonzero(where.reshape(rows, lc))
    # every token the window can reach, with -1 for masked and off-sequence
    width = seq.total_len + 2 * w
    padded = np.full((rows, width), -1, dtype=np.int64)
    padded[:, w:w + pl] = prompt
    padded[:, w + pl:w + seq.total_len] = np.where(masked, -1, completion)
    offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    # flat offsets (row start + position + window offset); cheaper than a 2-D gather
    ctx = padded.ravel()[(b * width + w + pl + i)[:, None] + offsets]

    # ctx -1 picks the zero row appended to the embedding table
    table = np.vstack([params.embed, np.zeros((1, e))])
    x = np.zeros((b.size + -b.size % lc, params.feature_dim), dtype=np.float64)
    # the position one-hot, written through flat offsets (row start + position)
    x.reshape(-1)[np.arange(b.size) * params.feature_dim + starts[b] + i] = 1.0
    x[:b.size, params.n_positions:-1] = np.take(table, ctx, axis=0).reshape(b.size, 2 * w * e)
    x[:b.size, -1] = (masked.sum(axis=1) / lc)[b]
    return x, ctx


def forward(params: DenoiserParams, seq: Sequence, where: np.ndarray | None = None):
    """Log-probability rows (n, size) at the True entries of ``where``
    (shape of ``seq.completion``; every position when None), flat in C order
    as ``_features`` numbers them, and the activations ``backward`` reuses.

    Both matmuls run as gemms of exactly L_c rows, the shape of one
    completion's forward, over ``x``'s zero-padded rows: a row's bits then
    do not depend on which rows share the call or where the row sits.
    """
    x, ctx = _features(params, seq, where)
    n, lc = len(ctx), seq.completion_len
    h = np.tanh(x.reshape(-1, lc, x.shape[1]) @ params.w1.T + params.b1)
    logits = (h @ params.w2.T + params.b2).reshape(-1, params.vocab_size)[:n]
    h = h.reshape(-1, params.hidden)[:n]
    m = logits.max(axis=-1, keepdims=True)
    logz = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    return logits - logz, (x, ctx, h)


def backward(params: DenoiserParams, fwd, rows, tokens, weights) -> np.ndarray:
    """Gradient w.r.t. theta of sum_r weights[r] * log p(tokens[r]) at the
    ``forward`` rows ``rows``: a slice, which reads the forward's arrays
    without copying them, or an index array."""
    logprobs, (x, ctx, h) = fwd
    x, ctx, h = x[rows], ctx[rows], h[rows]
    n, v, e = len(x), params.vocab_size, params.embed_dim

    dlogits = -np.exp(logprobs[rows])
    dlogits[np.arange(n), tokens] += 1.0
    dlogits *= weights[:, None]
    d_w2 = dlogits.T @ h
    da = (dlogits @ params.w2) * (1.0 - h ** 2)
    d_w1 = da.T @ x
    dx = da @ params.w1
    # one (token, embedding column) cell per slot entry, added in row order;
    # token v, for ctx -1 (masked or outside), collects what no embedding gets
    cells = (np.where(ctx < 0, v, ctx)[:, :, None] * e + np.arange(e)).ravel()
    d_table = np.bincount(cells, dx[:, params.n_positions:-1].ravel(),
                          minlength=(v + 1) * e)

    return np.concatenate(
        [d_table[:v * e], d_w1.ravel(), da.sum(axis=0), d_w2.ravel(), dlogits.sum(axis=0)]
    )


def denoiser_logprobs(params: DenoiserParams, seq: Sequence,
                      where: np.ndarray | None = None) -> np.ndarray:
    """Per-position log-probability table over the vocab, shape (L_c, size)
    for one completion and (..., L_c, size) for a stack; with ``where``
    (shape of ``seq.completion``), only its True entries, as flat rows
    (n, size) in C order.

    Rows exponentiate-and-sum to one; the computation is deterministic in its
    inputs.
    """
    logprobs = forward(params, seq, where)[0]
    return logprobs.reshape(seq.completion.shape + (-1,)) if where is None else logprobs


def logprob_sum_grad(
    params: DenoiserParams,
    seq: Sequence,
    positions,
    tokens,
) -> np.ndarray:
    """Gradient w.r.t. theta of sum_j log p(tokens[j] | seq) at positions[j]
    of one completion."""
    positions = np.asarray(positions, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if positions.shape != tokens.shape:
        raise ValueError("positions and tokens must align")
    return backward(params, forward(params, seq), positions, tokens,
                    np.ones(positions.size))


def denoiser_logprob_grad(
    params: DenoiserParams,
    seq: Sequence,
    position: int,
    token: int,
) -> np.ndarray:
    """Analytic gradient of log p(token | seq) at one masked position."""
    if not seq.masked[position]:
        raise ValueError(f"position {position} is not masked")
    return logprob_sum_grad(params, seq, [position], [token])


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``: a write that fails midway leaves the previous file untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(path, params: DenoiserParams) -> None:
    """Binary checkpoint: fixed header then little-endian float64 parameters."""
    write_atomic(path, params_to_bytes(params))


def load_params(path) -> DenoiserParams:
    with open(path, "rb") as fh:
        data = fh.read()
    params, end = params_from_bytes(data)
    if end != len(data):
        raise ValueError(f"{len(data) - end} trailing bytes after the params section")
    return params


def params_to_bytes(params: DenoiserParams) -> bytes:
    header = CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        params.vocab_size,
        params.window,
        params.hidden,
        params.embed_dim,
        params.n_positions,
        params.seed,
        params.theta.size,
    )
    return header + params.theta.astype("<f8").tobytes()


def read_section(data: bytes, offset: int, size: int, section: str) -> tuple[bytes, int]:
    """The ``size`` bytes at ``offset`` and their end offset; raises naming
    ``section`` when the data stops short."""
    end = offset + size
    if end > len(data):
        raise ValueError(f"truncated {section}: need {size} bytes, {len(data) - offset} left")
    return data[offset:end], end


def params_from_bytes(data: bytes, offset: int = 0) -> tuple[DenoiserParams, int]:
    """Parse a checkpoint section, returning the params and the end offset."""
    head, start = read_section(data, offset, CHECKPOINT_HEADER.size, "params header")
    magic, version, vocab, window, hidden, embed, npos, seed, count = CHECKPOINT_HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a denoiser checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    raw, end = read_section(data, start, 8 * count, "params theta")
    theta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return DenoiserParams(theta, vocab, window, hidden, embed, npos, seed), end
