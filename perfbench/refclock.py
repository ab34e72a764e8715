"""Reference clock: wall time rescaled by the measured speed of the core.

On a shared virtual machine the speed of a core drifts by up to 1.8x over
minutes (neighbours change how fast the host runs it), so wall-clock op times
from two runs a few minutes apart are not comparable.  The benchmark therefore
runs a fixed kernel before every op and scales each op's wall time by
``REFERENCE_KERNEL_S / kernel time`` measured around it.  The result is the
time the op would take on the core at its reference speed.  The kernel does
the same kind of work as the program (small numpy feature/matmul/softmax
passes and a Python sampling loop over a vocabulary of 20) but never calls
it, so a change to the program moves the scaled times and a change in the
machine's speed does not.
"""

from __future__ import annotations

import time

import numpy as np

# Wall seconds of one ``kernel_seconds()`` call on an uncontended core of the machine
# the benchmark was written on (2-vCPU Xeon Sapphire Rapids KVM guest, Python
# 3.11, numpy 2.4, OpenBLAS at 1 thread).  It only sets the scale of the
# reported times; ratios between runs do not depend on it.
REFERENCE_KERNEL_S = 0.0045

_REPS = 30
_VOCAB, _HIDDEN, _POSITIONS, _WINDOW, _EMBED = 20, 32, 32, 3, 8
_FEATURES = _POSITIONS + _WINDOW * _EMBED + 1

_rng = np.random.default_rng(12345)
_EMB = _rng.standard_normal((_VOCAB, _EMBED))
_W1 = _rng.standard_normal((_HIDDEN, _FEATURES))
_W2 = _rng.standard_normal((_VOCAB, _HIDDEN))
_U = _rng.random(64)


def _kernel() -> int:
    acc = 0
    for r in range(_REPS):
        n = 8 + r % 9
        rows = np.arange(n)
        feats = np.zeros((n, _FEATURES))
        feats[rows, (rows + r) % _POSITIONS] = 1.0
        for i in range(n):
            for k in range(_WINDOW):
                lo = _POSITIONS + _EMBED * k
                feats[i, lo:lo + _EMBED] = _EMB[(i + k + r) % _VOCAB]
        logits = np.tanh(feats @ _W1.T) @ _W2.T
        logits -= logits.max(axis=1, keepdims=True)
        logprobs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        cands = []
        for i in range(n):
            cdf = np.cumsum(np.exp(logprobs[i]))
            tok = int(np.searchsorted(cdf, _U[(i + r) % 64], side="right").clip(0, _VOCAB - 1))
            cands.append((i, tok, float(np.exp(logprobs[i, tok]))))
        cands.sort(key=lambda c: (-c[2], c[0]))
        acc += cands[0][1]
    return acc


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two kernel runs into
    reference seconds."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


# The first call pays for lazy numpy set-up; no measurement should.
kernel_seconds()
