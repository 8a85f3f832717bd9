"""Span tracing for the traced run, applied from outside the program.

The program under test carries no benchmark hooks.  :class:`Tracer`
replaces public methods on their classes with wrappers for the length of
a traced phase and puts the originals back afterwards, so a traced run
executes exactly the code an untraced run does, plus the wrappers.

Every wrapped call is a span: name, start, end, the span that called it
and the request it belongs to, named by its root span's id (one flow
batch, one control-plane write or one DNS query).  Aggregates
(inclusive time, self time, calls) cover every span; the raw spans are
kept in memory up to a cap and written out by :meth:`Tracer.dump` when
the run ends.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

__all__ = ["Tracer"]

_MISSING = object()
#: Raw spans kept for the trace file; the aggregates cover every span.
KEEP_SPANS = 50_000


class Tracer:
    def __init__(self) -> None:
        self.inclusive_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.spans: list[tuple[int, int | None, str, int, int, int]] = []
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns, root id] per open span
        self._undo: list[tuple[type, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        inclusive, self_ns, calls, spans = self.inclusive_ns, self.self_ns, self.calls, self.spans
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent, root = (stack[-1][0], stack[-1][2]) if stack else (None, sid)
            frame = [sid, 0, root]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                inclusive[name] += duration
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((sid, parent, name, start, end, root))

        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------------

    def patch(self, cls: type, attr: str, name: str, count_only: bool = False) -> None:
        """Wrap ``cls.attr`` in place until :meth:`restore`.

        ``count_only`` records calls without timing them, for boundaries
        crossed too often for a span (``Policy.matches``).
        """
        raw = cls.__dict__.get(attr, _MISSING)
        if raw is _MISSING:
            raise AttributeError(f"{cls.__name__}.{attr} is not defined on the class itself")
        original = getattr(cls, attr)
        wrapper = (self._counted if count_only else self._timed)(name, original)
        if isinstance(raw, classmethod):
            # ``original`` is already bound to the class.
            wrapper = staticmethod(wrapper)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, raw))

    def patch_all(self, table: dict[str, list[tuple[type, str]]]) -> None:
        for name, targets in table.items():
            for cls, attr in targets:
                self.patch(cls, attr, name)

    def restore(self) -> None:
        while self._undo:
            cls, attr, raw = self._undo.pop()
            setattr(cls, attr, raw)

    # -- results ---------------------------------------------------------------

    def self_share(self, prefixes: tuple[str, ...], top: tuple[str, ...]) -> float:
        """Share of the self time under the ``top`` spans spent in spans
        whose name starts with one of ``prefixes``."""
        total = sum(self.inclusive_ns[name] for name in top)
        if not total:
            return 0.0
        part = sum(ns for name, ns in self.self_ns.items() if name.startswith(prefixes))
        return part / total

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON lines, plus one aggregate line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, parent, name, start, end, request in self.spans:
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start_ns": start,
                     "end_ns": end, "request": request}
                ) + "\n")
            out.write(json.dumps({
                "aggregate": {
                    name: {"calls": self.calls[name], "inclusive_ns": self.inclusive_ns[name],
                           "self_ns": self.self_ns[name]}
                    for name in sorted(self.calls)
                },
                "spans_total": self._next_id,
                "spans_kept": len(self.spans),
            }) + "\n")
