"""Out-of-tree span tracer for the benchmark's traced runs.

The tracer times the simulator's layers from outside: :meth:`Tracer.install`
replaces the layers' public functions and methods (the table in
:mod:`perfbench.layers`) with thin wrappers, and :meth:`Tracer.uninstall`
puts every original back.  Nothing under ``src/`` is edited.

Each wrapper opens a *span* on a per-thread stack.  When the span closes,
its duration is added to the span name's totals, and to the enclosing
span's child time, so every name accumulates

* ``count`` -- spans closed,
* ``total`` -- inclusive seconds,
* ``self`` -- seconds minus the time covered by direct child spans,
* ``units`` -- a per-name work measure (steps, bytes, hits ...).

A call into a layer whose span is already innermost on the stack is
*re-entrant*: it runs unwrapped and opens no new span, so a layer that
calls its own public methods is timed once.

Per-step spans are folded into their totals as they close, so memory
stays bounded on million-step sweeps.  Spans marked ``logged`` (runs,
sweeps, pool tasks, service requests) are also kept individually as
``(name, start, end, span id, parent id, request id, pid)`` records and
written out when the run ends; spans of one service request share the
spec digest as their request id.

Pool workers inherit the wrappers when they fork.  An at-fork hook gives
each worker a fresh, empty state, every pool task runs inside
:func:`run_pool_task`, and the worker appends its state to its own
``worker-<pid>.jsonl`` file after each task.  :func:`merge_states` folds
those files (and a traced server's file) into the parent's totals.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

_ACTIVE: Optional["Tracer"] = None
"""The installed tracer of this process (inherited by forked workers)."""

WRAPPED_MARK = "__perfbench_original__"
"""Attribute every wrapper carries, naming the function it replaced."""


class _ThreadState:
    __slots__ = ("stack", "totals", "spans")

    def __init__(self) -> None:
        # Frames are lists [layer, child_seconds, span_id].
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Span recorder plus the patch bookkeeping that installs it."""

    def __init__(
        self,
        out_dir: Optional[Path] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)
        self.batch_seq = 0
        """Sequence number of the current ``run_many`` call (pool tasks
        are tagged with it, for the per-batch imbalance figure)."""

    # --- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: Optional[str] = None,
        units: Optional[Callable] = None,
        logged: bool = False,
        request: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper timing ``fn`` as span ``name`` of ``layer``.

        ``units(args, kwargs, result)`` adds to the name's work measure;
        ``request(args, kwargs)`` names the request a logged span
        belongs to.
        """
        layer = layer or name
        tracer = self
        perf = self.clock

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = 0
            parent_id = 0
            if logged:
                span_id = next(tracer._ids)
                for frame in reversed(stack):
                    if frame[2]:
                        parent_id = frame[2]
                        break
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = state.totals.get(name)
                if agg is None:
                    agg = state.totals[name] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if units is not None:
                    agg[3] += units(args, kwargs, result)
                if logged:
                    req = request(args, kwargs) if request is not None else None
                    state.spans.append(
                        (name, start, end, span_id, parent_id, req, os.getpid())
                    )

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__module__ = getattr(fn, "__module__", __name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def call(self, name: str, request, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` as one logged span ``name`` of ``request``
        (benchmark-side spans such as a pool task's body)."""
        wrapped = self.wrap(fn, name, logged=True, request=lambda a, k: request)
        return wrapped(*args, **kwargs)

    # --- state ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every thread's totals merged, plus the logged spans."""
        with self._states_lock:
            states = list(self._states)
        totals: Dict[str, List[float]] = {}
        spans: List[tuple] = []
        for state in states:
            _add_totals(totals, state.totals)
            spans.extend(state.spans)
        return {"totals": totals, "spans": spans}

    def clear(self) -> None:
        """Drop everything recorded so far (all threads)."""
        with self._states_lock:
            for state in self._states:
                state.totals.clear()
                state.spans.clear()

    def _reset_after_fork(self) -> None:
        # A forked worker starts with the parent's stack (the fork
        # happens inside a pool submit) and the parent's totals; both
        # belong to the parent.
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(os.getpid() * 1_000_000)

    def flush(self, label: str) -> None:
        """Append this process's state to ``<label>-<pid>.jsonl`` in the
        trace directory and clear it."""
        if self.out_dir is None:
            return
        snap = self.snapshot()
        self.clear()
        path = self.out_dir / f"{label}-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(snap) + "\n")

    # --- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper``; for a module-level
        function, every ``repro`` module that imported the same object
        by name is patched too."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
            return
        original = getattr(owner, attr)
        for module in _repro_modules():
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap every ``(owner, attr, name, options)`` target."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        for owner, attr, name, options in targets:
            options = dict(options)
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            factory = options.pop("factory", None)
            if factory is not None:
                wrapper = factory(self, original)
            else:
                wrapper = self.wrap(original, name, **options)
            self.patch(owner, attr, wrapper)
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leaked_wrappers() -> List[str]:
    """Names of ``repro`` module attributes and class attributes that
    are still tracer wrappers (empty after a clean uninstall)."""
    leaks = []
    for module in _repro_modules():
        for attr, value in list(module.__dict__.items()):
            if hasattr(value, WRAPPED_MARK):
                leaks.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, inner in value.__dict__.items():
                    if hasattr(inner, WRAPPED_MARK):
                        leaks.append(f"{module.__name__}.{attr}.{member}")
    from concurrent.futures.process import ProcessPoolExecutor

    if hasattr(ProcessPoolExecutor.__dict__["submit"], WRAPPED_MARK):
        leaks.append("ProcessPoolExecutor.submit")
    return leaks


# --- pool tasks -------------------------------------------------------------


def submit_factory(tracer: Tracer, original: Callable) -> Callable:
    """Wrapper for ``ProcessPoolExecutor.submit``.

    Times the submit call, counts the pickled size of what was submitted
    as the span's units (computed after the timer stops), and routes the
    task through :func:`run_pool_task` so the worker times it and
    flushes its spans.
    """

    def routed(pool, fn, /, *args, **kwargs):
        return original(pool, run_pool_task, tracer.batch_seq, fn, *args, **kwargs)

    def payload(args, kwargs, _result):
        return len(pickle.dumps((args[1], args[2:], kwargs)))

    return tracer.wrap(
        routed, "sim.batch.pool_submit", layer="sim.batch.pool", units=payload
    )


def run_many_factory(tracer: Tracer, original: Callable) -> Callable:
    """Wrapper for ``run_many``: a logged ``sim.batch`` span that also
    advances the batch sequence pool tasks are tagged with."""

    def counted(*args, **kwargs):
        tracer.batch_seq += 1
        return original(*args, **kwargs)

    return tracer.wrap(
        counted, "sim.batch", logged=True, request=lambda a, k: tracer.batch_seq
    )


def run_pool_task(batch: int, fn: Callable, *args, **kwargs):
    """Worker-side body of a traced pool task: runs ``fn`` as a logged
    ``sim.batch.pool_task`` span, then appends the worker's state to its
    per-worker file."""
    tracer = _ACTIVE
    if tracer is None:  # pragma: no cover - untraced worker
        return fn(*args, **kwargs)
    try:
        return tracer.call("sim.batch.pool_task", batch, fn, *args, **kwargs)
    finally:
        tracer.flush("worker")


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._reset_after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)


# --- merging and derived figures -----------------------------------------------


def _add_totals(into: Dict[str, List[float]], other: Dict[str, List[float]]) -> None:
    for name, agg in other.items():
        mine = into.get(name)
        if mine is None:
            into[name] = list(agg)
        else:
            for i in range(4):
                mine[i] += agg[i]


def merge_states(states: Iterable[dict]) -> dict:
    """Fold several snapshots (the parent's, each worker file line, a
    traced server's) into one."""
    totals: Dict[str, List[float]] = {}
    spans: List[tuple] = []
    for snap in states:
        _add_totals(totals, snap["totals"])
        spans.extend(tuple(span) for span in snap["spans"])
    return {"totals": totals, "spans": spans}


def read_state_files(directory: Path, pattern: str) -> List[dict]:
    """Every snapshot line of the files matching ``pattern``."""
    states = []
    for path in sorted(Path(directory).glob(pattern)):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                states.append(json.loads(line))
    return states
