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

from concurrent.futures import ThreadPoolExecutor
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
    initial_docs = retriever.search(query, cfg.k)
    state = ReasoningState(query=query, docs=initial_docs, step=0)
    initial = state
    transitions: list[Transition] = []
    while True:
        if state.step >= cfg.max_steps:
            stop_cause = StopCause.STEP_CAP
            break
        outcome = decide(state, retriever.doc_store, backend, cfg.policy)
        decision = outcome.decision
        if decision.action is Action.STOP:
            transitions.append(
                Transition(decision, state, state, outcome.output_tokens, outcome.temperature_used)
            )
            stop_cause = (
                StopCause.POLICY_FAILURE_FALLBACK if outcome.fallback else StopCause.POLICY_STOP
            )
            break
        if decision.action is Action.REFINE:
            post = exec_refine(state, decision, retriever, cfg.k, cfg.max_list_size)
        else:
            post, _report = exec_rerank(state, decision)
        transitions.append(
            Transition(decision, state, post, outcome.output_tokens, outcome.temperature_used)
        )
        if state_equivalent(post, state):
            state = post
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
    """Run (query_id, text) pairs concurrently, preserving input order.

    At most batch_size trajectories are in flight at once.  A failure in
    one trajectory is captured in its result entry and the rest proceed.
    Backends are created one per query, in query order, in the calling
    thread as the queries are submitted, so factories may consume ordered
    resources.  Each backend is released when its query ends.
    """
    cfg = config or EngineConfig()

    def one(query: tuple[str, str], backend: ChatBackend) -> TrajectoryResult:
        query_id, text = query
        try:
            trajectory = run_trajectory(text, retriever, backend, cfg)
        except Exception as exc:
            return TrajectoryResult(query_id=query_id, query=text, error=f"{type(exc).__name__}: {exc}")
        return TrajectoryResult(query_id=query_id, query=text, trajectory=trajectory)

    if not queries:
        return []
    with ThreadPoolExecutor(max_workers=cfg.batch_size) as pool:
        # A generator, so that only each query's work item holds its backend.
        backends = (backend_factory(query_id) for query_id, _text in queries)
        return list(pool.map(one, queries, backends))


def write_trace_file(results: Sequence[TrajectoryResult], sink: TextIO) -> None:
    for result in results:
        emit_trace(result, sink)


def write_run_file(results: Sequence[TrajectoryResult], sink: TextIO) -> None:
    for result in results:
        emit_run_record(result, sink)
