"""Outside-in layer tracing for the census benchmark.

The tracer wraps module-level functions and methods of `skewcyc` from the
outside: every module global that is bound to a traced function (the
definition and each alias imported into another module) is replaced by one
wrapper, and `restore` puts every original object back.  Nothing under
`src/` knows it is being traced.

A span is recorded for each call of a traced function: its name, start, end
and the span that caused it.  Spans stay in memory (compact arrays) until
`write_spans` is called.  Self time is computed online: a span's duration
minus the time its traced children took.  Counters are bumped by small
per-function hooks that look only at arguments and results.

`TimedExecutor` wraps a real executor behind the public `executor=`
argument and times every task inside the worker process.
"""

from __future__ import annotations

import inspect
import json
import pickle
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined, its span name, its hooks.

    `owner` is a module or class name inside `skewcyc`; `attr` the attribute
    on it.  `span=False` counts calls without recording a span, so the time
    stays with the caller.  `count(tracer, args, kwargs, result)` runs after
    a call that returned.
    `generator=True` times each resumption of the returned generator, so the
    span covers the caller's iteration and not just the call.
    """

    name: str
    owner: str
    attr: str
    span: bool = True
    generator: bool = False
    count: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        # frames: [span index, accumulated child time]
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start[idx] = _clock()
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        idx, child = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer span stack out of order")
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def covered_s(self, intervals) -> float:
        """Time inside the (start, end) intervals that some traced span covers."""
        total = 0.0
        for i in range(len(self.span_start)):
            if self.span_parent[i] != -1:
                continue
            s, e = self.span_start[i], self.span_end[i]
            if any(start <= s and e <= end for start, end in intervals):
                total += e - s
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.span_name[i]],
                            "parent": self.span_parent[i],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                        }
                    )
                    + "\n"
                )

    # -- wrappers ------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name = target.name

        if target.generator:

            def resume(gen, args, kwargs):
                produced = 0
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        tracer._close(frame)
                    produced += 1
                    yield item
                if target.count is not None:
                    target.count(tracer, args, kwargs, produced)

            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return resume(fn(*args, **kwargs), args, kwargs)

        elif target.span:

            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                frame = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
                if target.count is not None:
                    target.count(tracer, args, kwargs, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                result = fn(*args, **kwargs)
                if target.count is not None:
                    target.count(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every target, including aliases in other skewcyc modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if (key == "skewcyc" or key.startswith("skewcyc.")) and mod is not None
        ]
        try:
            for target in self.targets:
                owner = _resolve(target.owner)
                raw = inspect.getattr_static(owner, target.attr)
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(target, raw.__func__))
                    else:
                        patched = self._wrap(target, raw)
                    self._patch(owner, target.attr, raw, patched)
                    continue
                wrapper = self._wrap(target, raw)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, attr, raw, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner: Any, attr: str, original: Any, patched: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _resolve(dotted: str) -> Any:
    """'skewcyc.store.StoreEntry' -> the class; 'skewcyc.store' -> the module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for part in parts[cut:]:
                obj = getattr(obj, part)
            return obj
    raise LookupError(f"{dotted} is not imported")


# -- executor wrapper --------------------------------------------------


def _timed_task(fn: Callable, arg: Any) -> tuple[Any, float, int]:
    """Run one task in a worker; return the result, its seconds and pickled size."""
    start = _clock()
    result = fn(arg)
    elapsed = _clock() - start
    return result, elapsed, len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


class TimedExecutor:
    """Executor front that times each task inside the worker.

    Offers the one method `census` and `enumerate_coset_preserving` use,
    `map`, with the same contract: every task is submitted at call time and
    results come back in task order.  `wait_s` is the time the caller spent
    blocked on a result; `bytes` the computed pickled size of every task
    argument and result.
    """

    def __init__(self, executor):
        self._executor = executor
        self.tasks = 0
        self.task_sum_s = 0.0
        self.task_max_s = 0.0
        self.wait_s = 0.0
        self.bytes = 0

    def map(self, fn, iterable):
        futures = []
        for arg in iterable:
            self.bytes += len(pickle.dumps((fn, arg), protocol=pickle.HIGHEST_PROTOCOL))
            futures.append(self._executor.submit(_timed_task, fn, arg))
        return self._results(futures)

    def _results(self, futures):
        for fut in futures:
            start = _clock()
            result, elapsed, result_bytes = fut.result()
            self.wait_s += _clock() - start
            self.tasks += 1
            self.task_sum_s += elapsed
            self.task_max_s = max(self.task_max_s, elapsed)
            self.bytes += result_bytes
            yield result
