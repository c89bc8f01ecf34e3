"""Spans and counters for the traced run.

Spans are opened only by the benchmark's own code, around calls into the
public functions of each `src/ncorr` module; the span name is the layer
(`states`, `io`, `linalg`, `spectral`, `measures`, `detect`) and the step.
Two things are counted by wrapping names in this process only, while
`installed()` is active, and no file of the package changes:

- `numpy.linalg.eigh`, `eigvalsh` and `svd`: calls and their work, counted
  as n^3 for an n x n eigenproblem and m*n*min(m, n) for an m x n SVD,
  times the batch size;
- `ncorr.io.DensityMatrix`, the validation `parse_state_text` runs, which
  becomes a `linalg.validate` span inside `io.parse`.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import ncorr.io

_LINALG = ("eigh", "eigvalsh", "svd")


def _work(name: str, a) -> int:
    shape = np.shape(a)
    batch = math.prod(shape[:-2])
    m, n = shape[-2], shape[-1]
    return batch * (m * n * min(m, n) if name == "svd" else n**3)


class Tracer:
    """In-memory spans and per-request counters, one request at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, request]
        self.requests: list[dict] = []  # per-request counters
        self._stack: list[int] = []
        self._counts: dict | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, len(self.requests)])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self._counts is not None:
            self._counts[name] += amount

    @contextmanager
    def request(self):
        self._counts = defaultdict(float)
        try:
            yield
        finally:
            self.requests.append(dict(self._counts))
            self._counts = None

    @contextmanager
    def installed(self):
        """Wrap the numpy.linalg solvers and the parser's DensityMatrix while active."""
        originals = {name: getattr(np.linalg, name) for name in _LINALG}
        density_matrix = ncorr.io.DensityMatrix

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                self.count("linalg.eigh_calls")
                self.count("linalg.eigh_work", _work(name, a))
                return fn(a, *args, **kwargs)

            return wrapper

        def validated(*args, **kwargs):
            with self.span("linalg.validate"):
                return density_matrix(*args, **kwargs)

        for name, fn in originals.items():
            setattr(np.linalg, name, counted(name, fn))
        ncorr.io.DensityMatrix = validated
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(np.linalg, name, fn)
            ncorr.io.DensityMatrix = density_matrix

    def self_times(self) -> list[dict]:
        """Per request: span name -> total self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_request = [defaultdict(float) for _ in self.requests]
        for (name, start, end, _, req), children in zip(self.spans, child_time):
            if req < len(per_request):
                per_request[req][name] += (end - start) - children
        return per_request


def median_self_ms(per_request: list[dict], name: str) -> float:
    """Median over requests of a layer's self time, 0 where the layer did not run."""
    return 1000 * statistics.median(r.get(name, 0.0) for r in per_request)
