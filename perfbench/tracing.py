"""Spans around the calls into each layer, recorded from the benchmark only.

A `Tracer` replaces a layer's public function at the module attribute its
caller looks it up by, with a wrapper that records a span (name, layer,
start, end, parent, run id). Spans stay in memory until the run writes them
out. Nothing in the package itself is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    def __init__(self):
        self.run = ""            # run id stamped on the spans opened next
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0, parent,
                    self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span."""
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def count(self, key: str, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def sample(self, key: str, value):
        self.samples.setdefault(key, []).append(value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, around=None):
        """A stand-in for fn that records a span per call. `around(timed,
        *args, **kwargs)` may inspect or adjust a call; it must call `timed`."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        if around is None:
            return timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return around(timed, *args, **kwargs)

        return wrapper

    def install(self, table):
        """table rows: (module looked up by the caller, attribute, layer of
        the callee, around-hook or None). A name that no longer exists is
        recorded as missing and skipped."""
        for module_name, attr, layer, around in table:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr} ({layer})")
                continue
            self._saved.append((module, attr, fn))
            name = f"{layer}.{getattr(fn, '__name__', attr)}"
            setattr(module, attr, self.wrap(fn, name, layer, around))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregates --------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_by_name(self, name: str) -> list[float]:
        own = self_times(self.spans)
        return [own[s.id] for s in self.spans if s.name == name]

    def self_by_layer(self) -> dict[str, float]:
        own = self_times(self.spans)
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
        return out

    def write(self, fh):
        for s in self.spans:
            fh.write(json.dumps(asdict(s)) + "\n")
