"""Spans around the program's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
resolves each target in :data:`TARGETS` by dotted name and replaces it
with a wrapper that records a span — name, start, end, parent span and
request id (the batch or commit index the driver set) — into a per-thread
in-memory buffer.  A target that no longer resolves is listed in
``Tracer.missing`` and its metrics read ``-1``; it never fails the run,
because later changes to the program may delete these functions and may
not edit the benchmark.

A layer's *self* time is its spans' duration minus the part their child
spans cover.  Coroutines interleave on the event loop, so async targets
are recorded as parentless spans and never become parents themselves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

#: Spans written to the Chrome-trace file (all spans feed the metrics).
TRACE_FILE_SPANS = 50_000

_FIELDS = 6  # span id, name id, start ns, end ns, parent span id, request id


def _sized(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


# Counts taken where the work happens: ``count(counters, args, result)``.
def _count_coalesce(counters, args, result):
    counters["data.updates_in"] += _sized(args[0])
    if isinstance(result, dict):  # columnar / grouped: {relation: (keys, pays) | {key: pay}}
        for group in result.values():
            counters["data.updates_out"] += (
                _sized(group[0]) if isinstance(group, tuple) else _sized(group)
            )
    else:
        counters["data.updates_out"] += _sized(result)


def _count_split(counters, args, result):
    sizes = [_sized(sub) for sub in result]
    if sizes and sum(sizes):
        counters["shard.skew_sum"] += max(sizes) * len(sizes) / sum(sizes)
        counters["shard.skew_rounds"] += 1


def _count_round(counters, args, result):
    counters["shard.bytes_out"] += sum(reply.bytes_sent for reply in result)


def _count_delta(counters, args, result):
    counters["viewtree.delta_tuples"] += _sized(result)


def _count_refresh(counters, args, result):
    counters["viewtree.full_refreshes"] = max(
        counters["viewtree.full_refreshes"], args[0].full_refreshes
    )


def _count_put(counters, args, result):
    counters["serve.put_blocked_s"] += result


#: (span name, "module:attribute.path", count callback or None).  Several
#: targets may share a span name (``coalesce`` is imported by name into
#: each module that calls it, so each importing module is patched).  The
#: targets in :data:`ITERATORS` return an iterator: their work happens
#: while the caller drains it, so the span lasts until it is exhausted.
ITERATORS = frozenset({"core.enumerate", "viewtree.enumerate", "shard.enumerate"})
TARGETS = (
    ("core.build", "repro.core.engine:IVMEngine.__init__", None),
    ("core.apply", "repro.core.engine:IVMEngine.apply", None),
    ("core.apply_batch", "repro.core.engine:IVMEngine.apply_batch", None),
    ("core.lookup", "repro.core.engine:IVMEngine.lookup", None),
    ("core.lookup_snapshot", "repro.core.engine:IVMEngine.lookup_snapshot", None),
    ("core.enumerate", "repro.core.engine:IVMEngine.enumerate", None),
    ("core.publish_epoch", "repro.core.engine:IVMEngine.publish_epoch", None),
    ("viewtree.build", "repro.viewtree.engine:ViewTreeEngine.__init__", None),
    ("viewtree.apply", "repro.viewtree.engine:ViewTreeEngine.apply", None),
    ("viewtree.apply_batch", "repro.viewtree.engine:ViewTreeEngine.apply_batch", None),
    ("viewtree.lookup", "repro.viewtree.engine:ViewTreeEngine.lookup", None),
    ("viewtree.enumerate", "repro.viewtree.engine:ViewTreeEngine.enumerate", None),
    ("viewtree.publish_epoch", "repro.viewtree.engine:ViewTreeEngine.publish_epoch", None),
    ("viewtree.snapshot_lookup", "repro.viewtree.engine:ViewTreeEngine.lookup_snapshot", None),
    ("viewtree.kernel_push", "repro.viewtree.codegen:DeltaKernel.push", None),
    ("viewtree.kernel_push_batch", "repro.viewtree.codegen:DeltaKernel.push_batch", None),
    ("viewtree.change_diff", "repro.viewtree.changes:ChangeTracker.on_publish", _count_delta),
    ("viewtree.refresh", "repro.viewtree.changes:MaterializedView.refresh", _count_refresh),
    ("data.coalesce", "repro.viewtree.engine:coalesce_columnar", _count_coalesce),
    ("data.coalesce", "repro.viewtree.engine:coalesce_grouped", _count_coalesce),
    ("shard.coalesce", "repro.shard.engine:coalesce", _count_coalesce),
    ("data.add_delta", "repro.data.relation:Relation.add_delta", None),
    ("shard.build", "repro.shard.engine:ShardedEngine.__init__", None),
    ("shard.apply_batch", "repro.shard.engine:ShardedEngine.apply_batch", None),
    ("shard.lookup", "repro.shard.engine:ShardedEngine.lookup", None),
    ("shard.enumerate", "repro.shard.engine:ShardedEngine.enumerate", None),
    ("shard.split", "repro.shard.router:ShardRouter.split", _count_split),
    ("shard.encode", "repro.shard.engine:encode_batch", None),
    ("shard.spawn", "repro.shard.worker:ShardWorkerPool.__init__", None),
    ("shard.ipc_round", "repro.shard.worker:ShardWorkerPool.round", _count_round),
    ("shard.ipc_call", "repro.shard.worker:ShardWorkerPool.call", None),
    ("serve.put", "repro.serve.batcher:GroupCommitQueue.put", _count_put),
    ("serve.collect", "repro.serve.batcher:GroupCommitQueue.collect", None),
    ("serve.commit_apply", "stacks:EngineProxy.apply_batch", None),
    ("serve.commit_publish", "stacks:EngineProxy.publish_epoch", None),
    ("serve.commit_changes", "stacks:EngineProxy.changes_since", None),
)


class _ThreadState:
    __slots__ = ("buffer", "stack", "next_id", "request", "thread", "mark")

    def __init__(self, thread: int):
        self.buffer = array("q")
        self.stack: list[int] = []
        self.next_id = 0
        self.request = -1
        self.thread = thread
        self.mark = 0  # buffer length when the measured window began


class _TracedSlot:
    """Class-level stand-in for a ``__slots__`` member holding a callable.

    ``DeltaKernel`` keeps its generated ``push``/``push_batch`` functions
    in slots, so there is no method to replace: this descriptor wraps the
    function when the instance stores it.  Instances built before
    :meth:`Tracer.install` keep their bare functions.
    """

    def __init__(self, member, wrap):
        self.member = member
        self.wrap = wrap

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return self.member.__get__(instance, owner)

    def __set__(self, instance, value):
        self.member.__set__(instance, self.wrap(value) if callable(value) else value)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.missing: list[str] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._counters_at_mark: dict[str, float] = {}
        # A forked shard worker inherits the patched classes; it must not
        # record into its copy of the buffers.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.on = False

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def mark(self) -> None:
        """The measured window starts now: what came before is set-up."""
        for state in self._states:
            state.mark = len(state.buffer)
        self._counters_at_mark = dict(self.counters)

    def window_counters(self) -> defaultdict[str, float]:
        """Counters accumulated since :meth:`mark` (a counter never touched reads 0)."""
        return defaultdict(float, {
            name: value - self._counters_at_mark.get(name, 0)
            for name, value in self.counters.items()
        })

    def set_request(self, request: int) -> None:
        """Tag the calling thread's following spans with ``request``."""
        self._state().request = request

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.errors.setdefault(name, 0)
        return self.names.index(name)

    def _wrap(self, name: str, function, count):
        name_id = self._name_id(name)
        errors, counters = self.errors, self.counters

        def close(state, span_id, start, parent):
            state.buffer.extend(
                (span_id, name_id, start, perf_counter_ns(), parent, state.request)
            )

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced(*args, **kwargs):
                if not self.on:
                    return await function(*args, **kwargs)
                state = self._state()
                span_id = state.next_id
                state.next_id += 1
                start = perf_counter_ns()
                try:
                    result = await function(*args, **kwargs)
                except BaseException:
                    errors[name] += 1
                    raise
                finally:
                    close(state, span_id, start, -1)
                if count is not None:
                    count(counters, args, result)
                return result

        elif name in ITERATORS:

            @functools.wraps(function)
            def traced(*args, **kwargs):
                iterator = function(*args, **kwargs)
                return drain(iterator) if self.on else iterator

            def drain(iterator):
                state = self._state()
                span_id = state.next_id
                state.next_id += 1
                stack = state.stack
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                tuples = 0
                start = perf_counter_ns()
                try:
                    for item in iterator:
                        tuples += 1
                        yield item
                finally:
                    stack.remove(span_id)
                    close(state, span_id, start, parent)
                    counters[name + "_tuples"] += tuples

        else:

            @functools.wraps(function)
            def traced(*args, **kwargs):
                if not self.on:
                    return function(*args, **kwargs)
                state = self._state()
                span_id = state.next_id
                state.next_id += 1
                stack = state.stack
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                start = perf_counter_ns()
                try:
                    result = function(*args, **kwargs)
                except BaseException:
                    errors[name] += 1
                    raise
                finally:
                    stack.pop()
                    close(state, span_id, start, parent)
                if count is not None:
                    count(counters, args, result)
                return result

        return traced

    def install(self) -> None:
        """Patch every target that resolves; remember the ones that do not."""
        for name, target, count in TARGETS:
            self._name_id(name)
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                current = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(target)
                print(f"trace: target {target} does not resolve; its metrics read -1",
                      file=sys.stderr)
                continue
            wrap = functools.partial(self._wrap, name, count=count)
            if isinstance(current, types.MemberDescriptorType):
                setattr(owner, attribute, _TracedSlot(current, wrap))
            else:
                setattr(owner, attribute, wrap(current))
        self.on = True

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------

    def _spans(self):
        """Per thread: its state and an ``(n, 6)`` int64 array in span-exit order."""
        for state in self._states:
            yield state, np.frombuffer(state.buffer, dtype=np.int64).reshape(-1, _FIELDS)

    def summary(self, slowdown, setup: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over the measured
        window (or over set-up, before :meth:`mark`), and ``errors`` overall.

        ``slowdown(times)`` is the calibrator's: each span's duration is
        divided by the machine's slowdown at its middle, like every other
        time the benchmark reports; ``raw_s`` is the total left as the
        clock read it.  Names whose every target failed to resolve are
        absent.
        """
        width = len(self.names)
        calls = np.zeros(width)
        total = np.zeros(width)
        raw = np.zeros(width)
        covered = np.zeros(width)
        for state, spans in self._spans():
            rows = state.mark // _FIELDS
            spans = spans[:rows] if setup else spans[rows:]
            ids, names, parents = spans[:, 0], spans[:, 1], spans[:, 4]
            durations = (spans[:, 3] - spans[:, 2]) / slowdown((spans[:, 2] + spans[:, 3]) / 2e9)
            raw += np.bincount(names, weights=spans[:, 3] - spans[:, 2], minlength=width)
            calls += np.bincount(names, minlength=width)
            total += np.bincount(names, weights=durations, minlength=width)
            # A span still open when the run ended has no row: its
            # children count as top-level.
            name_of = np.full(state.next_id + 1, -1, dtype=np.int64)
            name_of[ids] = names
            parent_names = name_of[parents]  # parent -1 reads the spare last slot
            nested = parent_names >= 0
            covered += np.bincount(
                parent_names[nested], weights=durations[nested], minlength=width
            )
        resolved = {name for name, target, _ in TARGETS if target not in self.missing}
        return {
            name: {
                "calls": float(calls[i]),
                "total_s": total[i] / 1e9,
                "raw_s": raw[i] / 1e9,
                "self_s": (total[i] - covered[i]) / 1e9,
                "errors": float(self.errors.get(name, 0)),
            }
            for i, name in enumerate(self.names)
            if name in resolved
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write the first :data:`TRACE_FILE_SPANS` spans as Chrome-trace JSON."""
        events = []
        recorded = 0
        for state, spans in self._spans():
            recorded += len(spans)
            for span_id, name, start, end, parent, request in spans[
                : max(0, TRACE_FILE_SPANS - len(events))
            ].tolist():
                events.append({
                    "name": self.names[name], "ph": "X", "pid": os.getpid(),
                    "tid": state.thread, "ts": start / 1e3, "dur": (end - start) / 1e3,
                    "args": {"span": span_id, "parent": parent, "request": request},
                })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ns",
                 "otherData": {"spans_recorded": recorded, "spans_written": len(events)}},
                handle,
            )
