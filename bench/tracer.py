"""Spans and counts recorded from outside the program.

The tracer replaces public functions of xpointsim at the place where their
caller looks them up (a module global or a class attribute) with wrappers
that record a span or a count, and puts the originals back afterwards.
Nothing under ``src/`` changes. A target that no longer exists is recorded
as missing instead of failing, so the benchmark keeps running when a later
refactor renames or removes it.

Spans live in memory: ``[name, start, end, parent index]``. Counts are
keyed by ``(name, op kind)``, where the op kind is set by the caller to the
kind of the outermost operation in progress, so work done by a read nested
inside a write is attributed to the write.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Total self time per span name: duration minus covered child intervals."""
    children = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = Counter()
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = covered_length(children.get(index, ()), start, end)
        totals[name] += (end - start) - covered
    return totals


def span_totals(spans):
    """Total duration per span name."""
    totals = Counter()
    for name, start, end, _parent in spans:
        totals[name] += end - start
    return totals


def resolve(target):
    """``"pkg.module:Attr.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op_kind = None
        self._requested = set()
        self._installed = set()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, name, amount=1):
        self.counts[(name, self.op_kind)] += amount

    def total(self, name, kind=any):
        """Count of ``name`` in one op kind, or in all of them."""
        return sum(
            v for (n, k), v in self.counts.items()
            if n == name and (kind is any or k == kind)
        )

    # -- wrapping ----------------------------------------------------------

    @property
    def missing(self):
        """Names none of whose targets exist any more."""
        return self._requested - self._installed

    def wrap(self, target, name, span=False, observe=None):
        """Wrap ``target`` and record it under ``name``; skip it if it is gone.

        Several targets may share a name, for a function that more than one
        module imports. ``observe(result)`` runs after each call, outside
        the span.
        """
        self._requested.add(name)
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            return False
        self._installed.add(name)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(name)
            if not span:
                return original(*args, **kwargs)
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
