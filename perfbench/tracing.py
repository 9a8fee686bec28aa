"""In-memory spans recorded around calls into ofdmjrc's public functions.

The package has no timing hook of its own yet, so the traced run times
each layer from outside: it swaps a module-level name (for example
``ofdmjrc.montecarlo.extract_peak_observations``) for a wrapper that
records a span and calls the original. The shipped code path runs
unchanged apart from the wrapper call, and every name is restored when
the ``patched`` block exits.

Span times are read from the calling thread's CPU clock, like the
end-to-end timings of in-thread steps, so the host's steal stays out.
"""

from __future__ import annotations

import contextlib
import json
import time


class Span:
    """One call: name, start and end (thread CPU ns), parent span index,
    trial id."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "trial", "error",
                 "result")

    def __init__(self, name, start_ns, parent, trial):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.trial = trial
        self.error = None
        self.result = None

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1e3


class Tracer:
    """Collects spans in memory; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(name, time.thread_time_ns(),
                    stack[-1] if stack else -1, self.trial)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.thread_time_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, keep_result: bool = False):
        """``fn`` with a span around each call; optionally keep its result."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if keep_result:
                span.result = out
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code, such as one CLI command."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def self_us(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.us for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.us
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent, "trial": s.trial,
                    "error": s.error}) + "\n")


def span_name(fn) -> str:
    """``layer.function`` from the function's defining ofdmjrc module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextlib.contextmanager
def patched(module, names, tracer: Tracer, keep=()):
    """Replace ``module.<name>`` with a span-recording wrapper for each name."""
    saved = {n: getattr(module, n) for n in names}
    try:
        for n, fn in saved.items():
            setattr(module, n, tracer.wrap(span_name(fn), fn, n in keep))
        yield
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)
