"""The reasoning loop itself, plus batch execution and record emission.

A trajectory starts from an initial retrieval and repeatedly asks the
policy for one action.  It terminates on exactly one of four causes: the
policy said stop, the policy fell back to stop after repeated malformed
output, an executed action changed nothing (equivalence), or the step cap
was reached.  Every decision is recorded; output files contain no wall
clock, so identical inputs produce byte-identical runs.  The record
shapes themselves live in records.py.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

from .actions import exec_refine, exec_rerank
from .core import (
    Action,
    ReasoningState,
    StopCause,
    Trajectory,
    Transition,
    require_ints,
    state_equivalent,
)
from .llm import ChatBackend
from .policy import PolicyConfig, decide
from .records import emit_run_record, emit_trace
from .retrieval import Retriever


@dataclass(frozen=True)
class EngineConfig:
    k: int = 10
    max_steps: int = 16
    batch_size: int = 8
    max_list_size: int = 100
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def __post_init__(self) -> None:
        require_ints(self, ("k", "max_steps", "batch_size", "max_list_size"))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_list_size < self.k:
            raise ValueError("max_list_size must be >= k")


def run_trajectory(
    query: str,
    retriever: Retriever,
    backend: ChatBackend,
    config: EngineConfig | None = None,
) -> Trajectory:
    """Walk one query from initial retrieval to termination.

    Retriever and transport errors propagate; callers running batches
    capture them per query.
    """
    cfg = config or EngineConfig()
    state = initial = ReasoningState(query=query, docs=retriever.search(query, cfg.k))
    transitions: list[Transition] = []
    stop_cause = StopCause.STEP_CAP
    for _ in range(cfg.max_steps):
        outcome = decide(state, retriever.doc_store, backend, cfg.policy)
        decision = outcome.decision
        if decision.action is Action.STOP:
            post = state
        elif decision.action is Action.REFINE:
            post = exec_refine(state, decision, retriever, cfg.k, cfg.max_list_size)
        else:
            post, _report = exec_rerank(state, decision)
        transitions.append(Transition(decision, post, outcome.output_tokens, outcome.temperature_used))
        if decision.action is Action.STOP:
            stop_cause = StopCause.POLICY_FAILURE_FALLBACK if outcome.fallback else StopCause.POLICY_STOP
            break
        if state_equivalent(post, state):
            stop_cause = StopCause.EQUIVALENCE_STOP
            break
        state = post
    return Trajectory(initial=initial, transitions=tuple(transitions), stop_cause=stop_cause)


@dataclass(frozen=True)
class TrajectoryResult:
    """Outcome of one batch entry: a trajectory, or the error that ended it."""

    query_id: str
    query: str
    trajectory: Trajectory | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if (self.trajectory is None) == (self.error is None):
            raise ValueError("exactly one of trajectory and error must be set")


def run_batch(
    queries: Sequence[tuple[str, str]],
    retriever: Retriever,
    backend_factory: Callable[[str], ChatBackend],
    config: EngineConfig | None = None,
) -> list[TrajectoryResult]:
    """Run (query_id, text) pairs on batch_size workers, preserving input order.

    The calling thread is one of the workers, so batch_size 1 is a plain
    loop and batch_size N starts N - 1 threads.  Each worker pulls the next
    query and creates its backend under one lock, so backends are created
    one per query, in query order, just before that query starts; each is
    released when its query ends.  A failure in one trajectory is captured
    in its result entry and the rest proceed.  Any other exception (a
    factory error, KeyboardInterrupt) stops further pulls; the running
    queries finish, every thread is joined, and the first such exception
    is re-raised.
    """
    cfg = config or EngineConfig()
    results: list[TrajectoryResult | None] = [None] * len(queries)
    # A generator that raises is finished, so a factory error ends all pulls.
    pending = (
        (index, query_id, text, backend_factory(query_id))
        for index, (query_id, text) in enumerate(queries)
    )
    lock = threading.Lock()
    failures: list[BaseException] = []

    def run_next() -> bool:
        # One pull and its query; returning drops the backend before the next pull.
        with lock:
            item = None if failures else next(pending, None)
        if item is None:
            return False
        index, query_id, text, backend = item
        try:
            trajectory = run_trajectory(text, retriever, backend, cfg)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            results[index] = TrajectoryResult(query_id=query_id, query=text, error=error)
        else:
            results[index] = TrajectoryResult(query_id=query_id, query=text, trajectory=trajectory)
        return True

    def stop(exc: BaseException) -> None:
        with lock:
            failures.append(exc)

    def work(done: threading.Event) -> None:
        try:
            while run_next():
                pass
        except BaseException as exc:
            stop(exc)
        finally:
            done.set()

    # Python 3.11 marks a thread stopped when an interrupt breaks its join(),
    # so the caller waits on events it can wait on again, then joins.
    dones = [threading.Event() for _ in range(min(cfg.batch_size, len(queries)) - 1)]
    threads = [threading.Thread(target=work, args=(done,)) for done in dones]
    for thread in threads:
        thread.start()
    work(threading.Event())
    for done in dones:
        while not done.is_set():
            try:
                done.wait()
            except BaseException as exc:  # an interrupt while waiting: stop pulls, keep waiting
                stop(exc)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results  # every slot is filled when no pull was stopped


def write_trace_file(results: Sequence[TrajectoryResult], sink: TextIO) -> None:
    for result in results:
        emit_trace(result, sink)


def write_run_file(results: Sequence[TrajectoryResult], sink: TextIO) -> None:
    for result in results:
        emit_run_record(result, sink)
