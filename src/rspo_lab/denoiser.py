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

import struct
from dataclasses import dataclass

import numpy as np

from .sequences import Sequence

CHECKPOINT_MAGIC = b"MDMC"
CHECKPOINT_VERSION = 1
# magic, version, vocab_size, window, hidden, embed_dim, n_positions, seed, theta size
CHECKPOINT_HEADER = struct.Struct("<4sIIIIIIQQ")


def _section_sizes(vocab_size, window, hidden, embed_dim, n_positions) -> tuple[int, list[int]]:
    """Feature dimension and the sizes of the embed, w1, b1, w2, b2 sections
    of the flat parameter vector, in storage order."""
    f = n_positions + 2 * window * embed_dim + 1
    return f, [vocab_size * embed_dim, hidden * f, hidden, vocab_size * hidden, vocab_size]


@dataclass
class DenoiserParams:
    """Flat parameter vector plus the architecture metadata that shapes it."""

    theta: np.ndarray
    vocab_size: int
    window: int = 3
    hidden: int = 32
    embed_dim: int = 8
    n_positions: int = 32
    seed: int = 0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.n_params,):
            raise ValueError(
                f"theta has {self.theta.size} entries, metadata implies {self.n_params}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite entries")

    def _sizes(self) -> tuple[int, list[int]]:
        return _section_sizes(self.vocab_size, self.window, self.hidden,
                              self.embed_dim, self.n_positions)

    @property
    def feature_dim(self) -> int:
        return self._sizes()[0]

    @property
    def n_params(self) -> int:
        return sum(self._sizes()[1])

    def _slices(self):
        f, sizes = self._sizes()
        offsets = np.cumsum([0] + sizes)
        return offsets, (self.vocab_size, self.hidden, self.embed_dim, f)

    @property
    def embed(self) -> np.ndarray:
        o, (v, h, e, f) = self._slices()
        return self.theta[o[0]:o[1]].reshape(v, e)

    @property
    def w1(self) -> np.ndarray:
        o, (v, h, e, f) = self._slices()
        return self.theta[o[1]:o[2]].reshape(h, f)

    @property
    def b1(self) -> np.ndarray:
        o, _ = self._slices()
        return self.theta[o[2]:o[3]]

    @property
    def w2(self) -> np.ndarray:
        o, (v, h, e, f) = self._slices()
        return self.theta[o[3]:o[4]].reshape(v, h)

    @property
    def b2(self) -> np.ndarray:
        o, _ = self._slices()
        return self.theta[o[4]:o[5]]

    def replace_theta(self, theta: np.ndarray) -> "DenoiserParams":
        return DenoiserParams(
            theta=np.asarray(theta, dtype=np.float64),
            vocab_size=self.vocab_size,
            window=self.window,
            hidden=self.hidden,
            embed_dim=self.embed_dim,
            n_positions=self.n_positions,
            seed=self.seed,
        )

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
    n = sum(_section_sizes(vocab_size, window, hidden, embed_dim, n_positions)[1])
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-scale, scale, size=n)
    return DenoiserParams(
        theta=theta,
        vocab_size=vocab_size,
        window=window,
        hidden=hidden,
        embed_dim=embed_dim,
        n_positions=n_positions,
        seed=seed,
    )


def _features(params: DenoiserParams, seq: Sequence) -> tuple[np.ndarray, list[list[tuple[int, int]]]]:
    """Feature matrix (L_c, F) and, per position, the (token, slot) pairs
    whose embedding entered the feature vector (needed for the backward pass).
    """
    if seq.total_len > params.n_positions:
        raise ValueError(
            f"sequence length {seq.total_len} exceeds position table {params.n_positions}"
        )
    lc = seq.completion_len
    pl = seq.prompt_len
    w, e = params.window, params.embed_dim
    emb = params.embed
    full = np.concatenate([seq.prompt, seq.completion])
    visible = np.concatenate([np.ones(pl, dtype=bool), ~seq.masked])
    mask_frac = float(seq.masked.sum()) / lc

    offsets = [o for o in range(-w, w + 1) if o != 0]
    x = np.zeros((lc, params.feature_dim), dtype=np.float64)
    used: list[list[tuple[int, int]]] = []
    for i in range(lc):
        pos = pl + i
        x[i, pos] = 1.0
        pairs: list[tuple[int, int]] = []
        for slot, off in enumerate(offsets):
            j = pos + off
            if 0 <= j < seq.total_len and visible[j]:
                tok = int(full[j])
                lo = params.n_positions + slot * e
                x[i, lo:lo + e] = emb[tok]
                pairs.append((tok, slot))
        x[i, -1] = mask_frac
        used.append(pairs)
    return x, used


def _forward(params: DenoiserParams, seq: Sequence):
    x, used = _features(params, seq)
    a = x @ params.w1.T + params.b1
    h = np.tanh(a)
    logits = h @ params.w2.T + params.b2
    m = logits.max(axis=1, keepdims=True)
    logz = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logprobs = logits - logz
    return logprobs, (x, used, h)


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
    logprobs, (x, used, h) = _forward(params, seq)
    probs = np.exp(logprobs)

    v, hd = params.vocab_size, params.hidden
    d_embed = np.zeros_like(params.embed)
    d_w1 = np.zeros_like(params.w1)
    d_b1 = np.zeros_like(params.b1)
    d_w2 = np.zeros_like(params.w2)
    d_b2 = np.zeros_like(params.b2)

    e = params.embed_dim
    for p, tok in zip(positions, tokens):
        dlogits = -probs[p]
        dlogits[tok] += 1.0
        d_b2 += dlogits
        d_w2 += np.outer(dlogits, h[p])
        dh = params.w2.T @ dlogits
        da = dh * (1.0 - h[p] ** 2)
        d_b1 += da
        d_w1 += np.outer(da, x[p])
        dx = params.w1.T @ da
        for tok_w, slot in used[p]:
            lo = params.n_positions + slot * e
            d_embed[tok_w] += dx[lo:lo + e]

    return np.concatenate(
        [d_embed.ravel(), d_w1.ravel(), d_b1.ravel(), d_w2.ravel(), d_b2.ravel()]
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
    params = DenoiserParams(
        theta=np.frombuffer(raw, dtype="<f8").astype(np.float64),
        vocab_size=vocab,
        window=window,
        hidden=hidden,
        embed_dim=embed,
        n_positions=npos,
        seed=seed,
    )
    return params, end
