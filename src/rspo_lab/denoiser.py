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
import struct
from dataclasses import dataclass, replace

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
    """Feature matrix (L_c, F) and the context index array ``ctx`` (L_c, 2*window).

    ``ctx[i, slot]`` is the token whose embedding fills feature slot ``slot``
    of position ``i`` (neighbour offsets -window..-1, 1..window), or -1 when
    that neighbour is outside the sequence or masked.  The backward pass
    routes embedding gradients through the same array.
    """
    if seq.total_len > params.n_positions:
        raise ValueError(
            f"sequence length {seq.total_len} exceeds position table {params.n_positions}"
        )
    lc, pl = seq.completion_len, seq.prompt_len
    w, e = params.window, params.embed_dim
    # every token the window can reach, with -1 for masked and off-sequence
    padded = np.full(seq.total_len + 2 * w, -1, dtype=np.int64)
    padded[w:w + pl] = seq.prompt
    padded[w + pl:w + seq.total_len] = np.where(seq.masked, -1, seq.completion)
    offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    pos = pl + np.arange(lc)
    ctx = padded[w + pos[:, None] + offsets]

    slots = np.zeros((lc, 2 * w, e), dtype=np.float64)
    seen = ctx >= 0
    slots[seen] = params.embed[ctx[seen]]
    x = np.zeros((lc, params.feature_dim), dtype=np.float64)
    x[np.arange(lc), pos] = 1.0
    x[:, params.n_positions:-1] = slots.reshape(lc, 2 * w * e)
    x[:, -1] = float(seq.masked.sum()) / lc
    return x, ctx


def _forward(params: DenoiserParams, seq: Sequence):
    x, ctx = _features(params, seq)
    a = x @ params.w1.T + params.b1
    h = np.tanh(a)
    logits = h @ params.w2.T + params.b2
    m = logits.max(axis=1, keepdims=True)
    logz = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logprobs = logits - logz
    return logprobs, (x, ctx, h)


def denoiser_logprobs(params: DenoiserParams, seq: Sequence) -> np.ndarray:
    """Per-position log-probability table over the vocab, shape (L_c, size).

    Rows exponentiate-and-sum to one; the computation is deterministic in its
    inputs.
    """
    logprobs, _ = _forward(params, seq)
    return logprobs


def logprob_sum_grad(
    params: DenoiserParams,
    seq: Sequence,
    positions,
    tokens,
) -> np.ndarray:
    """Gradient w.r.t. theta of sum_j log p(tokens[j] | seq) at positions[j]."""
    positions = np.asarray(positions, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if positions.shape != tokens.shape:
        raise ValueError("positions and tokens must align")
    logprobs, (x, ctx, h) = _forward(params, seq)
    x, ctx, h = x[positions], ctx[positions], h[positions]

    dlogits = -np.exp(logprobs[positions])
    dlogits[np.arange(positions.size), tokens] += 1.0
    d_w2 = dlogits.T @ h
    da = (dlogits @ params.w2) * (1.0 - h ** 2)
    d_w1 = da.T @ x
    dx = da @ params.w1
    d_slots = dx[:, params.n_positions:-1].reshape(positions.size, 2 * params.window,
                                                   params.embed_dim)
    d_embed = np.zeros_like(params.embed)
    seen = ctx >= 0
    np.add.at(d_embed, ctx[seen], d_slots[seen])

    return np.concatenate(
        [d_embed.ravel(), d_w1.ravel(), da.sum(axis=0), d_w2.ravel(), dlogits.sum(axis=0)]
    )


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


def save_params(path, params: DenoiserParams) -> None:
    """Binary checkpoint: fixed header then little-endian float64 parameters."""
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


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
