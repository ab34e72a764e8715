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

    def logprobs(self, seq: Sequence) -> np.ndarray:
        return denoiser_logprobs(self, seq)


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


def _features(params: DenoiserParams, seq: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Feature array (..., L_c, F) and the context index array ``ctx``
    (..., L_c, 2*window) of one completion or of a stack of them (the leading
    axes of ``seq.completion``).

    ``ctx[..., i, slot]`` is the token whose embedding fills feature slot
    ``slot`` of position ``i`` (neighbour offsets -window..-1, 1..window), or
    -1 when that neighbour is outside the sequence or masked.  The backward
    pass routes embedding gradients through the same array.

    A row's absolute positions start after its own prompt tokens, the
    entries >= 0; its -1 left padding reads as outside the sequence, so every
    row gets the features of its unpadded sequence.
    """
    lc, pl = seq.completion_len, seq.prompt_len
    w, e = params.window, params.embed_dim
    lead = seq.completion.shape[:-1]
    pos = (seq.prompt >= 0).sum(axis=-1, keepdims=True) + np.arange(lc)
    if pos.max() >= params.n_positions:
        raise ValueError(
            f"sequence length {pos.max() + 1} exceeds position table {params.n_positions}"
        )
    # every token the window can reach, with -1 for masked and off-sequence
    padded = np.full(lead + (seq.total_len + 2 * w,), -1, dtype=np.int64)
    padded[..., w:w + pl] = seq.prompt
    padded[..., w + pl:w + seq.total_len] = np.where(seq.masked, -1, seq.completion)
    offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    ctx = padded[..., w + pl + np.arange(lc)[:, None] + offsets]

    # ctx -1 picks the zero row appended to the embedding table
    table = np.vstack([params.embed, np.zeros((1, e))])
    x = np.zeros(lead + (lc, params.feature_dim), dtype=np.float64)
    # the position one-hot, written through flat offsets (row start + position)
    row_starts = np.arange(0, x.size, params.feature_dim).reshape(lead + (lc,))
    x.reshape(-1)[(row_starts + pos).ravel()] = 1.0
    x[..., params.n_positions:-1] = table[ctx].reshape(lead + (lc, 2 * w * e))
    x[..., -1] = seq.masked.sum(axis=-1, keepdims=True) / lc
    return x, ctx


def forward(params: DenoiserParams, seq: Sequence):
    """Log-probability tables (..., L_c, size) of one completion or a stack,
    and the activations ``backward`` reuses.

    A stack runs both matmuls as one gemm per stacked completion, so each
    table is bit-identical to the completion's own forward.
    """
    x, ctx = _features(params, seq)
    h = np.tanh(x @ params.w1.T + params.b1)
    logits = h @ params.w2.T + params.b2
    m = logits.max(axis=-1, keepdims=True)
    logz = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    return logits - logz, (x, ctx, h)


def backward(params: DenoiserParams, fwd, rows, tokens, weights) -> np.ndarray:
    """Gradient w.r.t. theta of sum_r weights[r] * log p(tokens[r]) at the
    ``forward`` rows ``rows``, numbered over the leading axes and positions
    in C order (row ``b * L_c + i`` is position ``i`` of completion ``b``)."""
    logprobs, (x, ctx, h) = fwd
    x = x.reshape(-1, x.shape[-1])[rows]
    ctx = ctx.reshape(-1, ctx.shape[-1])[rows]
    h = h.reshape(-1, h.shape[-1])[rows]

    dlogits = -np.exp(logprobs.reshape(-1, params.vocab_size)[rows])
    dlogits[np.arange(len(rows)), tokens] += 1.0
    dlogits *= weights[:, None]
    d_w2 = dlogits.T @ h
    da = (dlogits @ params.w2) * (1.0 - h ** 2)
    d_w1 = da.T @ x
    dx = da @ params.w1
    d_slots = dx[:, params.n_positions:-1].reshape(len(rows), 2 * params.window,
                                                   params.embed_dim)
    # the row for ctx -1 (masked or outside) collects what no embedding gets
    d_table = np.zeros((params.vocab_size + 1, params.embed_dim))
    np.add.at(d_table, ctx, d_slots)

    return np.concatenate(
        [d_table[:-1].ravel(), d_w1.ravel(), da.sum(axis=0), d_w2.ravel(), dlogits.sum(axis=0)]
    )


def denoiser_logprobs(params: DenoiserParams, seq: Sequence) -> np.ndarray:
    """Per-position log-probability table over the vocab, shape (L_c, size)
    for one completion and (..., L_c, size) for a stack.

    Rows exponentiate-and-sum to one; the computation is deterministic in its
    inputs.
    """
    return forward(params, seq)[0]


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
