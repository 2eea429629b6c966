"""In-memory span recorder and outside-in instrumentation of the program.

The traced run wraps public entry points of ``repro`` by module or class
attribute (nothing inside ``src/`` is edited).  Each call becomes a span
with a name, start, end, parent span and operation id; spans nest per
thread, stay in memory, and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: object
    thread: int
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Collects spans; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self):
        return getattr(self._local, "op", None)

    @current_op.setter
    def current_op(self, op) -> None:
        self._local.op = op

    def count(self, name: str, n: int = 1) -> None:
        """Count an event that is too frequent to record as a span."""
        self.counts[name] += n

    def call(self, name: str, fn, args, kwargs, op=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else self.current_op
        span = Span(next(self._ids), name, self.clock(), 0.0,
                    parent.sid if parent is not None else None, op,
                    threading.get_ident())
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.counts[name] += 1
            self.spans.append(span)

    # -- analysis -------------------------------------------------------
    def window(self, start: float, end: float) -> List[Span]:
        """Spans that began inside ``[start, end)``."""
        return [s for s in self.spans if start <= s.start < end]

    @staticmethod
    def self_times(spans: Sequence[Span]) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.self_time
        return dict(out)

    @staticmethod
    def covered(spans: Sequence[Span]) -> float:
        """Total time of the union of root-span intervals, per thread."""
        total = 0.0
        by_thread: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in spans:
            if s.parent is None:
                by_thread[s.thread].append((s.start, s.end))
        for intervals in by_thread.values():
            intervals.sort()
            cur_start, cur_end = intervals[0]
            for a, b in intervals[1:]:
                if a > cur_end:
                    total += cur_end - cur_start
                    cur_start, cur_end = a, b
                else:
                    cur_end = max(cur_end, b)
            total += cur_end - cur_start
        return total

    @staticmethod
    def check_nesting(spans: Sequence[Span]) -> List[str]:
        """Problems with the span tree: a child outside its parent's
        interval, on another thread, or carrying another operation id."""
        by_id = {s.sid: s for s in spans}
        problems = []
        for s in spans:
            if s.parent is None:
                continue
            p = by_id.get(s.parent)
            if p is None:
                problems.append(f"{s.name}#{s.sid}: parent {s.parent} missing")
                continue
            if s.start < p.start or s.end > p.end:
                problems.append(f"{s.name}#{s.sid} escapes {p.name}#{p.sid}")
            if s.thread != p.thread:
                problems.append(f"{s.name}#{s.sid} on another thread than its parent")
            if s.op != p.op:
                problems.append(f"{s.name}#{s.sid} op {s.op!r} != parent op {p.op!r}")
        return problems

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "self": s.self_time,
                }, default=str) + "\n")


#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class.  Other spans inherit their parent's operation id (or
#: the thread's ``current_op``); ``serve.prepare`` takes the request's own
#: ``tag`` argument, so queue waits correlate with submits.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.api", "launch", "core.launch"),
    ("repro.core.api", "compile_kernel", "codegen.compile"),
    ("repro.codegen.program", "CompiledKernel.make_entry", "runtime.bind"),
    ("repro.gpu.device", "Device.launch", "gpu.launch"),
    ("repro.exec.engine", "SerialExecutor.execute", "exec.execute"),
    ("repro.gpu.device", "compose_kernel_cycles", "gpu.cost"),
    ("repro.serve.batch", "compose_kernel_cycles", "gpu.cost"),
    ("repro.jit.engine", "try_run_jit", "jit.try"),
    ("repro.jit.engine", "compile_block", "jit.compile"),
    ("repro.serve.batch", "prepare", "serve.prepare"),
    ("repro.serve.batch", "run_batch", "serve.run_batch"),
    ("repro.serve.batch", "release", "serve.release"),
    ("repro.sanitizer.monitor", "SanitizerMonitor.finalize", "sanitizer.finalize"),
    ("repro.kernels.sparse_matvec", "build_data", "kernels.build"),
    ("repro.kernels.su3", "build_data", "kernels.build"),
    ("repro.kernels.ideal", "build_data", "kernels.build"),
    ("repro.kernels.laplace3d", "build_data", "kernels.build"),
    ("repro.kernels.muram_transpose", "build_data", "kernels.build"),
    ("repro.kernels.muram_interpol", "build_data", "kernels.build"),
)

#: Hooks counted, not timed: one call per simulated lane event.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sanitizer.monitor", "SanitizerMonitor.on_event", "sanitizer.events"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Install and remove the probes; usable as a context manager."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap_span(self, fn, name: str):
        rec = self.recorder
        if name == "serve.prepare":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, args, kwargs, op=kwargs.get("tag"))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, args, kwargs)
        return wrapper

    def _wrap_count(self, fn, name: str):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> "Instrumentation":
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for probes, make in ((PROBES, self._wrap_span),
                             (COUNTED, self._wrap_count)):
            for module, path, name in probes:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
