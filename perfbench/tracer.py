"""Outside-in span tracer.

The program looks its collaborators up as module or class attributes at call
time (``score.elbo_score``, ``params.logprobs``, ...), so replacing those
attributes with timing wrappers traces every layer boundary without editing
the program.  Wrappers pass arguments and results through untouched, which is
why traced and untraced runs write byte-identical metrics.

Spans nest: a span's self time is its duration minus the time of the spans it
called.  Counters are recorded at the same boundaries by per-target hooks.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Wraps attributes on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span name, seconds spent in children]
        self._undo: list[tuple] = []

    def wrap(self, span: str, owner, attr: str, hook=None) -> None:
        """Make every call of ``owner.attr`` a span named ``span``.

        ``hook(tracer, parent, args, result)`` adds counters after each call;
        ``parent`` is the name of the enclosing span or None.  A target that
        no longer exists is listed in ``missing`` and its span stays at zero.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(label)
            return
        stack, self_s, counts = self._stack, self.self_s, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            counts[span + ".calls"] += 1
            if hook is not None:
                h0 = time.perf_counter()
                hook(self, parent, args, result)
                if stack:  # counting is tracer overhead, not the caller's self time
                    stack[-1][1] += time.perf_counter() - h0
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))
        self.active.append(label)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def snapshot_counts(self) -> dict[str, int]:
        return dict(self.counts)

    def self_ms(self, *spans: str) -> float:
        return 1e3 * sum(self.self_s.get(s, 0.0) for s in spans)
