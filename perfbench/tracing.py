"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: :meth:`Recorder.patch`
swaps a public function or method for a wrapper that opens a span around
each call, and :meth:`Recorder.restore` puts the original back.  Nothing
under ``src/`` is edited.

A span is ``(id, name, start, end, parent, thread)`` with ``perf_counter``
times.  ``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so spans written
by a server subprocess share a time base with the benchmark process.

:func:`ledger` turns spans into the per-layer ledger: each layer's *self*
time (its spans minus the part of them its child spans cover), its call
count, the untraced residual of a window and the share of the window that
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections.abc import Callable
from pathlib import Path


class Recorder:
    """Keeps spans and counts in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restores: list[Callable[[], None]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the count ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, func: Callable, args, kwargs, on_result=None):
        """Run ``func`` inside a span named ``name``.

        A call made from inside a span of the same name opens no second
        span, so a layer that re-enters itself is counted once.  After an
        outermost call, ``on_result(result, error)`` runs; ``result`` is
        ``None`` when the call raised ``error``.
        """
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return func(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        result = error = None
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as raised:
            error = raised
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )
            if on_result is not None:
                on_result(result, error)

    def patch(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        on_result: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper.

        ``name`` is the span name, or a callable that derives it from the
        call's arguments (for a method: from ``self``).  Class and static
        methods keep their kind.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind is not None else original
        namer = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.call(namer(*args, **kwargs), func, args, kwargs, on_result)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restores.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._restores:
            self._restores.pop()()

    def dump(self, path: str | Path, **extra: object) -> None:
        """Write spans and counts as one JSON document."""
        payload = {
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                for span_id, name, start, end, parent, thread in self.spans
            ],
            "counts": self.counts,
            **extra,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def as_dicts(recorder: Recorder) -> list[dict]:
    """The recorder's spans as the dicts :meth:`Recorder.dump` writes."""
    keys = ("id", "name", "start", "end", "parent", "thread")
    return [dict(zip(keys, span)) for span in recorder.spans]


def ledger(spans: list[dict], start: float, end: float) -> dict:
    """Per-layer self time and calls over the window ``[start, end]``.

    Spans that start outside the window are dropped; a span that runs
    past ``end`` is cut at ``end``.  Returns ``{"layers": {name:
    {"self_s", "calls"}}, "wall_s", "covered_s", "untraced_s",
    "coverage"}``.  ``covered_s`` is the union of the outermost spans'
    intervals, so concurrent threads are not counted twice; summed self
    times can exceed the wall time when layers run on several threads.
    """
    kept = {
        span["id"]: (span["name"], span["start"], min(span["end"], end), span["parent"])
        for span in spans
        if start <= span["start"] <= end
    }
    child_time: dict[int, float] = {}
    for _name, s, e, parent in kept.values():
        if parent in kept:
            child_time[parent] = child_time.get(parent, 0.0) + (e - s)
    layers: dict[str, dict[str, float]] = {}
    roots: list[tuple[float, float]] = []
    for span_id, (name, s, e, parent) in kept.items():
        row = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += (e - s) - child_time.get(span_id, 0.0)
        row["calls"] += 1
        if parent not in kept:
            roots.append((s, e))
    covered = 0.0
    reach = start
    for s, e in sorted(roots):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    wall = end - start
    return {
        "layers": layers,
        "wall_s": wall,
        "covered_s": covered,
        "untraced_s": wall - covered,
        "coverage": covered / wall if wall > 0 else 0.0,
    }
