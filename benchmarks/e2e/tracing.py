"""Span recording from the benchmark's own files.

Nothing under ``src/repro`` knows it is being measured.  A
:class:`Recorder` keeps spans in memory; :class:`Rebinder` swaps each
target function, method or property for a timing wrapper *in every
imported ``repro.*`` namespace* — ``from x import f`` copies a name, so
patching only the defining module would miss most call sites — and puts
every original back on exit.

A layer's time is **self time**: a span's duration minus the part its
direct children cover.  Summed over a traced op, self times can never
exceed the op's wall clock, and the remainder is what the benchmark
reports as unattributed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

__all__ = ["Span", "Recorder", "Target", "Rebinder", "self_times", "chrome_trace"]

_WRAPPED = "__e2e_original__"


@dataclass
class Span:
    """One timed call: ``metric`` is the per-layer metric it feeds."""

    metric: str
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans, same thread
    op: object  # id of the op (or traced window) that caused it
    tid: int
    nbytes: int = 0  # payload size when the target declares one
    extra: object = None  # target-specific fact (see Target.note)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a per-thread open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: object = None
        #: true while the wrappers are installed (set by the Rebinder)
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, metric: str, name: str) -> int:
        stack = self._stack()
        span = Span(
            metric=metric,
            name=name,
            start=0.0,
            end=0.0,
            parent=stack[-1] if stack else None,
            op=self.op,
            tid=threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int) -> Span:
        end = self.clock()
        span = self.spans[index]
        span.end = end
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def span(self, metric: str, name: str | None = None):
        """Context manager for spans the benchmark opens around its own
        calls (``json.dumps`` of a report is not a ``repro`` function)."""
        return _SpanContext(self, metric, name or metric)


class _SpanContext:
    __slots__ = ("_rec", "_metric", "_name", "_index")

    def __init__(self, rec: Recorder, metric: str, name: str):
        self._rec, self._metric, self._name = rec, metric, name

    def __enter__(self) -> "_SpanContext":
        self._index = self._rec.open(self._metric, self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self._rec.close(self._index)
        return False


@dataclass(frozen=True)
class Target:
    """One callable to time.

    ``qualname`` is ``func``, ``Class.method`` or ``Class.prop``
    (properties are wrapped through their getter).  ``nbytes(args,
    kwargs, result)`` sizes the payload for MB/s metrics; ``note`` keeps
    one target-specific fact on the span (a compressed size, a
    dispatcher prediction).  Both run after the span has closed, so
    their own cost lands in the caller's self time, not the callee's.
    """

    metric: str
    module: str
    qualname: str
    nbytes: Callable | None = None
    note: Callable | None = None


def _make_wrapper(rec: Recorder, target: Target, original):
    metric, name = target.metric, f"{target.module}.{target.qualname}"
    sizer, note = target.nbytes, target.note

    def finish(index, args, kwargs, result):
        span = rec.close(index)
        if sizer is not None:
            span.nbytes = int(sizer(args, kwargs, result))
        if note is not None:
            span.extra = note(args, kwargs, result)

    if inspect.isgeneratorfunction(original):
        # a generator does its work inside next(); the consumer's code
        # runs between yields and must not be billed to the producer
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            it = original(*args, **kwargs)
            try:
                while True:
                    index = rec.open(metric, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        rec.close(index)
                        return
                    except BaseException:
                        rec.close(index)
                        raise
                    finish(index, args, kwargs, item)
                    yield item
            finally:
                it.close()

    else:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = rec.open(metric, name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                rec.close(index)
                raise
            finish(index, args, kwargs, result)
            return result

    setattr(wrapper, _WRAPPED, original)
    return wrapper


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Rebinder:
    """Installs and removes the timing wrappers for a list of targets.

    ``install`` may be called repeatedly (the traced pass alternates
    traced and untraced ops): every call rescans the imported ``repro``
    modules, so a module imported lazily since the last install is
    covered too.  ``uninstall`` restores every binding it changed and
    then sweeps once more for wrappers that a late ``from x import f``
    copied while they were installed.
    """

    def __init__(self, recorder: Recorder, targets: list[Target]):
        self.recorder = recorder
        self.targets = targets
        self._wrappers: list[tuple[object, str, object, object]] | None = None
        self._bound: list[tuple[object, str, object]] = []

    def _resolve(self):
        """(holder, attr, original, wrapper) per target, built once;
        ``holder`` is the class for methods and properties, ``None`` for
        module-level functions (those are found by scanning namespaces)."""
        if self._wrappers is None:
            self._wrappers = []
            for target in self.targets:
                module = import_module(target.module)
                owner, _, attr = target.qualname.rpartition(".")
                holder = getattr(module, owner) if owner else None
                raw = vars(holder or module)[attr]
                if isinstance(raw, property):
                    wrapper = property(
                        _make_wrapper(self.recorder, target, raw.fget),
                        raw.fset, raw.fdel, raw.__doc__,
                    )
                else:
                    wrapper = _make_wrapper(self.recorder, target, raw)
                self._wrappers.append((holder, attr, raw, wrapper))
        return self._wrappers

    def install(self) -> None:
        if self._bound:
            return
        functions = {}
        for holder, attr, raw, wrapper in self._resolve():
            if holder is None:
                functions[id(raw)] = (raw, wrapper)
            else:  # class attribute: one binding, on the class
                setattr(holder, attr, wrapper)
                self._bound.append((holder, attr, raw))
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, value))
        self.recorder.active = True

    def uninstall(self) -> None:
        self.recorder.active = False
        for holder, attr, original in reversed(self._bound):
            setattr(holder, attr, original)
        self._bound.clear()
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                original = getattr(value, _WRAPPED, None)
                if original is not None:
                    setattr(mod, attr, original)

    def __enter__(self) -> "Rebinder":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def leftover_wrappers() -> list[str]:
    """Names still bound to a timing wrapper (must be empty after
    ``uninstall``; the self-check asserts it)."""
    left = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, _WRAPPED, None) is not None:
                left.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, member in list(vars(value).items()):
                    fn = member.fget if isinstance(member, property) else member
                    if getattr(fn, _WRAPPED, None) is not None:
                        left.append(f"{mod.__name__}.{attr}.{name}")
    return left


def self_times(spans: list[Span]) -> list[float]:
    """Self time per span: duration minus its direct children's."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def chrome_trace(spans: list[Span], path, process_name: str) -> None:
    """Write the spans as a chrome://tracing / Perfetto JSON file."""
    origin = min((s.start for s in spans), default=0.0)
    tids = {tid: i for i, tid in enumerate(sorted({s.tid for s in spans}))}
    events = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": process_name}}
    ]
    for index, s in enumerate(spans):
        events.append(
            {
                "name": s.name,
                "cat": s.metric,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": tids[s.tid],
                "args": {
                    "id": index,
                    "parent": s.parent,
                    "op": s.op,
                    "bytes": s.nbytes,
                },
            }
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
