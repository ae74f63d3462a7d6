"""An outside-in span tracer.

The tracer wraps functions of the program from the benchmark's side: it
replaces the attribute *where callers look it up* (a class attribute for
methods, or every module global a function was bound to at import) with
a wrapper that records a span, and puts every original back on
:meth:`Tracer.restore`.  The program's sources are never touched.

Spans are kept in memory — name, start, end, parent span, tag (a request
or tune id) and thread — and written out when the run ends.  Spans nest
per thread: a span's parent is the innermost open span of the same
thread, and its *self* time is its duration minus the durations of its
children (children run strictly inside their parent, one at a time).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "thread")

    def __init__(self, name, start, parent, tag, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- context -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self) -> Optional[str]:
        return getattr(self._local, "tag", None)

    def set_tag(self, tag: Optional[str]) -> Optional[str]:
        """Tag the spans this thread opens from now on; returns the
        previous tag so callers can restore it."""
        previous = self.tag
        self._local.tag = tag
        return previous

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no attribute {attr!r}")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Optional[str]]] = None,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``tag(*args, **kwargs)`` may name the tag the call's spans carry
        (and those of everything it calls).  ``before(*args, **kwargs)``
        runs first and its value is handed to ``after(state, span,
        result, args, kwargs)``, which runs once the call returned.
        """
        original = self._patch(owner, attr, None)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            previous = _MISSING
            if tag is not None:
                previous = tracer.set_tag(tag(*args, **kwargs))
            state = before(*args, **kwargs) if before is not None else None
            stack = tracer._stack()
            span = Span(
                name,
                tracer.clock(),
                stack[-1] if stack else None,
                tracer.tag,
                threading.get_ident(),
            )
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                if previous is not _MISSING:
                    tracer.set_tag(previous)
            if after is not None:
                after(state, span, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def tag_calls(
        self, owner: Any, attr: str, tag: Callable[..., Optional[str]]
    ) -> None:
        """Tag everything ``owner.attr`` calls, without a span of its own."""
        original = self._patch(owner, attr, None)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            previous = tracer.set_tag(tag(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.set_tag(previous)

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self, spans: Optional[List[Span]] = None) -> Dict[Span, float]:
        """Each span's duration minus its children's durations."""
        spans = self.spans if spans is None else spans
        own = {id(span): span.duration for span in spans}
        for span in spans:
            if span.parent is not None and id(span.parent) in own:
                own[id(span.parent)] -= span.duration
        return {span: own[id(span)] for span in spans}

    def totals(self) -> Dict[str, dict]:
        """Per span name: ``calls`` and summed ``self_s`` / ``total_s``."""
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span, self_s in self.self_times().items():
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += span.duration
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": (
                                None
                                if span.parent is None
                                else index.get(id(span.parent))
                            ),
                            "tag": span.tag,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def covered(spans) -> float:
    """Seconds covered by the union of the spans' intervals."""
    total = 0.0
    end = None
    for span in sorted(spans, key=lambda s: s.start):
        if end is None or span.start > end:
            total += span.duration
            end = span.end
        elif span.end > end:
            total += span.end - end
            end = span.end
    return total
