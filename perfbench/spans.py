"""Span tracing around zonofit's public functions, installed from outside.

``Tracer.install`` rebinds each traced function under every name a caller
resolves at call time: the attribute on its defining module (``solvers.X``
call sites) and every ``from ... import`` copy in the other zonofit modules.
Spans live in memory as (name, start, end, parent) and are written out only
at the end. Nothing is wrapped unless ``install`` is called, so untraced
runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self.active = False  # set by the caller around each timed op
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call while active records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            return result

        return wrapper

    def counting(self, key: str, fn):
        """Wrap ``fn`` to bump a counter per active call, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, module, attr: str, make_wrapper):
        """Rebind ``module.attr`` and every zonofit alias of the same object."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "zonofit" or name.startswith("zonofit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def self_ms(self) -> dict[str, tuple[int, float]]:
        """Per name: (calls, self milliseconds); self = span minus children."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def save(self, path):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )


def self_times(names, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Aggregate spans into (calls, self ms) per name.

    A span's self time is its duration minus the durations of its direct
    children; children lie inside their parent's interval.
    """
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, tuple[int, float]] = {}
    for i, name in enumerate(names):
        calls, ms = out.get(name, (0, 0.0))
        out[name] = (calls + 1, ms + (ends[i] - starts[i] - child[i]) * 1e3)
    return out
