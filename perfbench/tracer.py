"""Spans and counts recorded around calls into the program, from outside it.

A :class:`Tracer` replaces module attributes (functions and methods) with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory until :meth:`Tracer.write` puts them in a
JSON-lines file at the end of the run.  Primitive kinds of the autodiff
engine are timed by re-registering each kind through the public
``register_primitive`` with a timing wrapper; those per-kind totals are a
separate dimension and are not spans, so a layer's self time still
includes the primitives it ran.

A target that no longer exists (a later change renamed or removed it), or
whose count hook fails on the call's arguments, is listed in
:attr:`Tracer.missing`; its metrics are reported absent instead of
failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.prim_fwd_s: dict[str, float] = defaultdict(float)
        self.prim_bwd_s: dict[str, float] = defaultdict(float)
        self.prim_calls: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo_attrs: list = []
        self._undo_prims: list = []
        self._register = None

    # --- wrapping ---

    def wrap(self, target: str, span, before=None, after=None) -> None:
        """Wrap ``target`` ("pkg.module.attr" or "pkg.module.Class.attr").

        ``span`` is a span name, a callable returning one from the call's
        arguments, or None for a count-only wrapper.  ``before(args,
        kwargs)`` runs as the call starts; ``after(args, kwargs, result)``
        runs when it returns.
        """
        owner, attr = _resolve_owner(target)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.add(target)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(target, before, args, kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                name = span(args, kwargs) if callable(span) else span
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                tracer._hook(target, after, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo_attrs.append((owner, attr, original))

    def _hook(self, target: str, hook, *args) -> None:
        """Run a count hook; one that fails (the call's signature changed)
        marks its target missing instead of failing the program's call."""
        if target in self.missing:
            return
        try:
            hook(*args)
        except Exception as exc:
            self.missing.add(target)
            print(f"trace hook on {target} failed ({exc!r}); its metrics are left out",
                  file=sys.stderr)

    def time_primitives(self, autodiff) -> None:
        """Re-register every primitive kind with timing wrappers."""
        registry = getattr(autodiff, "_PRIMITIVES", None)
        self._register = getattr(autodiff, "register_primitive", None)
        if registry is None or self._register is None:
            self.missing.add("s2t.autodiff.register_primitive")
            return
        for kind, prim in list(registry.items()):
            self._register(kind, self._timed_forward(kind, prim.forward),
                           self._timed_backward(kind, prim.backward))
            self._undo_prims.append((kind, prim))
            self.prim_calls.setdefault(kind, 0)

    def _timed_forward(self, kind, forward):
        clock, fwd_s, calls = time.perf_counter, self.prim_fwd_s, self.prim_calls

        def timed(*args):
            start = clock()
            out = forward(*args)
            fwd_s[kind] += clock() - start
            calls[kind] += 1
            return out
        return timed

    def _timed_backward(self, kind, backward):
        clock, bwd_s = time.perf_counter, self.prim_bwd_s

        def timed(*args):
            start = clock()
            out = backward(*args)
            bwd_s[kind] += clock() - start
            return out
        return timed

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original in reversed(self._undo_attrs):
            setattr(owner, attr, original)
        for kind, prim in self._undo_prims:
            self._register(kind, prim.forward, prim.backward)
        self._undo_attrs.clear()
        self._undo_prims.clear()

    # --- spans ---

    def span(self, name: str):
        return _Span(self, name)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # --- summaries ---

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (self seconds, call count).  Self time is a
        span's duration minus its direct children's."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of [start, end] covered by top-level spans."""
        covered = 0.0
        cursor = start
        for _, s, e, parent in self.spans:  # top-level spans are in start order
            if parent >= 0:
                continue
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        return covered

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)


def _resolve_owner(target: str):
    """("pkg.module.attr") -> (module, "attr"); also resolves a class
    attribute ("pkg.module.Class.attr").  Returns (None, attr) if the
    module or class is gone."""
    parts = target.split(".")
    attr = parts[-1]
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, attr
        return owner, attr
    return None, attr
