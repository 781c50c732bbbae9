"""In-memory spans around the public calls into each layer.

The tracer is installed from outside the program: it wraps the retriever's
``search`` and each backend's ``complete`` on the instances, and swaps the
module globals the engine and the policy look up at call time.  Nothing in
``smr`` knows it is being traced.

A span records name, start, end, parent span and query id.  Spans nest per
thread, so a span's self time is its duration minus the durations of its
direct children.  Each layer's self time is the sum over its spans:

- retrieval: ``search``
- llm: ``complete``
- policy: ``decide`` (minus its children), ``render_policy_prompt``, ``parse_decision``
- actions: ``exec_refine`` (minus its search), ``exec_rerank``
- engine: ``run_trajectory`` (minus its children)

Inside a trajectory the self times partition its wall time, which is why
``engine.layer_sum_ratio`` is measured against the untraced pass.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import smr.engine
import smr.policy

LAYER_OF = {
    "search": "retrieval",
    "complete": "llm",
    "decide": "policy",
    "render_policy_prompt": "policy",
    "parse_decision": "policy",
    "exec_refine": "actions",
    "exec_rerank": "actions",
    "run_trajectory": "engine",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "query_id", "child_time", "children", "info")

    def __init__(self, name: str, parent: "Span | None", query_id: str | None):
        self.name = name
        self.parent = parent
        self.query_id = query_id
        self.child_time = 0.0
        self.children: dict[str, float] = {}  # child name -> seconds spent in it
        self.info: dict[str, Any] = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self, query_ids: dict[str, str]):
        self.query_ids = query_ids  # query text -> query id
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Callable[[Span, tuple, Any], None] | None = None,
    ) -> Callable:
        """fn with a span around every call; note(span, args, result) adds info."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if name == "run_trajectory":
                query_id = self.query_ids.get(args[0])
            else:
                query_id = parent.query_id if parent else None
            span = Span(name, parent, query_id)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.info["error"] = True
                raise
            else:
                if note is not None:
                    note(span, args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                    parent.children[name] = parent.children.get(name, 0.0) + span.duration
                self.spans.append(span)

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _note_search(span: Span, _args: tuple, result) -> None:
    span.info["results"] = len(result)
    if span.parent is not None and span.parent.name == "exec_refine":
        span.parent.info["retrieved"] = len(result)


def _note_render(span: Span, _args: tuple, result) -> None:
    system_text, user_text = result
    span.info["chars"] = len(system_text) + len(user_text)


def _note_decide(span: Span, _args: tuple, result) -> None:
    span.info["fallback"] = result.fallback


def _note_refine(span: Span, args: tuple, result) -> None:
    span.info["added"] = len(result.docs) - len(args[0].docs)


def _note_trajectory(span: Span, _args: tuple, result) -> None:
    span.info["steps"] = result.step_count
    span.info["stop_cause"] = result.stop_cause.value


_PATCHES = (
    (smr.engine, "run_trajectory", _note_trajectory),
    (smr.engine, "decide", _note_decide),
    (smr.engine, "exec_refine", _note_refine),
    (smr.engine, "exec_rerank", None),
    (smr.engine, "write_run_file", None),
    (smr.engine, "write_trace_file", None),
    (smr.policy, "render_policy_prompt", _note_render),
    (smr.policy, "parse_decision", None),
)


@contextmanager
def installed(tracer: Tracer, retriever) -> Iterator[Callable]:
    """Trace the engine, policy and retriever; yields a backend-factory wrapper."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _note in _PATCHES]
    for (module, attr, note), (_m, _a, original) in zip(_PATCHES, saved):
        setattr(module, attr, tracer.wrap(attr, original, note))
    retriever.search = tracer.wrap("search", type(retriever).search.__get__(retriever), _note_search)

    def traced_factory(factory: Callable) -> Callable:
        def make(query_id: str):
            backend = factory(query_id)
            backend.complete = tracer.wrap("complete", backend.complete)
            return backend

        return make

    try:
        yield traced_factory
    finally:
        del retriever.search
        for module, attr, original in saved:
            setattr(module, attr, original)


@contextmanager
def stamped(times: list[float]) -> Iterator[None]:
    """The untraced pass: one start/end stamp per trajectory, nothing else."""
    original = smr.engine.run_trajectory

    def run_trajectory(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        times.append(time.perf_counter() - start)
        return result

    smr.engine.run_trajectory = run_trajectory
    try:
        yield
    finally:
        smr.engine.run_trajectory = original
