"""Domain types for the reasoning loop.

The loop operates on states pairing the current query text with an ordered
document list.  Each step applies exactly one decision (refine, rerank, or
stop) and records the transition; a trajectory is the full recorded walk
from the initial state to termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Action(str, Enum):
    REFINE = "refine"
    RERANK = "rerank"
    STOP = "stop"


class StopCause(str, Enum):
    POLICY_STOP = "policy-stop"
    EQUIVALENCE_STOP = "equivalence-stop"
    STEP_CAP = "step-cap"
    POLICY_FAILURE_FALLBACK = "policy-failure-fallback"


# Attempt i of a decision runs at temperature i * TEMPERATURE_STEP.
TEMPERATURE_STEP = 0.1


def temperature_for_attempt(attempt: int) -> float:
    # Rounded so that 0.1 * 3 is sent and traced as 0.3, not 0.30000000000000004.
    return round(attempt * TEMPERATURE_STEP, 10)


def require_ints(config: object, names: tuple[str, ...]) -> None:
    """Raise ValueError for the first named attribute that is not an int (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class Document:
    """A retrievable unit: stable id plus raw text."""

    doc_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be a non-empty string")
        if "\n" in self.doc_id or "\r" in self.doc_id:
            raise ValueError(f"doc_id must not contain newlines: {self.doc_id!r}")


@dataclass(frozen=True)
class RankedList:
    """An ordered, duplicate-free sequence of doc_ids."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for doc_id in self.entries:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id in ranked list: {doc_id!r}")
            seen.add(doc_id)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ReasoningState:
    """One point in the loop: the current query and its ranked document list."""

    query: str
    docs: RankedList

    def __post_init__(self) -> None:
        if not self.query:
            raise ValueError("state query must be non-empty")


def state_equivalent(a: ReasoningState, b: ReasoningState) -> bool:
    """True when two states are interchangeable for ranking purposes.

    Queries compare byte-for-byte after trimming surrounding whitespace;
    document lists compare as ordered sequences (order matters, a reordering
    is a real change).
    """
    return a.query.strip() == b.query.strip() and a.docs.entries == b.docs.entries


@dataclass(frozen=True)
class Decision:
    """A single policy output.  Exactly one action's payload is populated."""

    action: Action
    refined_query: str | None = None
    reranked_ids: tuple[str, ...] | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.reranked_ids is not None:
            object.__setattr__(self, "reranked_ids", tuple(self.reranked_ids))
        if self.action is Action.REFINE:
            if not self.refined_query or not self.refined_query.strip():
                raise ValueError("refine decisions need a non-empty refined_query")
            if self.reranked_ids is not None:
                raise ValueError("refine decisions must not carry reranked_ids")
        elif self.action is Action.RERANK:
            if not self.reranked_ids:
                raise ValueError("rerank decisions need a non-empty reranked_ids")
            if self.refined_query is not None:
                raise ValueError("rerank decisions must not carry refined_query")
        elif self.action is Action.STOP:
            if self.refined_query is not None or self.reranked_ids is not None or self.reason is not None:
                raise ValueError("stop decisions carry no payload")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown action: {self.action!r}")

    @classmethod
    def refine(cls, refined_query: str, reason: str | None = None) -> "Decision":
        return cls(Action.REFINE, refined_query=refined_query, reason=reason)

    @classmethod
    def rerank(cls, reranked_ids: tuple[str, ...] | list[str], reason: str | None = None) -> "Decision":
        return cls(Action.RERANK, reranked_ids=tuple(reranked_ids), reason=reason)

    @classmethod
    def stop(cls) -> "Decision":
        return cls(Action.STOP)


@dataclass(frozen=True)
class Transition:
    """One recorded step: the decision taken and the state it led to.

    The state before it is the trajectory's previous post_state, or its
    initial state; a stop leaves that state as it was.  output_tokens counts
    every token the policy generated while choosing, including failed
    attempts that were retried; policy_temperature_used is the temperature
    of its last attempt.
    """

    decision: Decision
    post_state: ReasoningState
    output_tokens: int
    policy_temperature_used: float

    def __post_init__(self) -> None:
        if self.output_tokens < 0:
            raise ValueError("output_tokens must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """A finished walk: initial state, ordered transitions, and why it ended."""

    initial: ReasoningState
    transitions: tuple[Transition, ...]
    stop_cause: StopCause

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions", tuple(self.transitions))
        pre = self.initial
        for i, tr in enumerate(self.transitions):
            if tr.decision.action is Action.STOP:
                if i != len(self.transitions) - 1:
                    raise ValueError("a stop decision may only appear as the final transition")
                if tr.post_state != pre:
                    raise ValueError("stop transitions must not change the state")
            pre = tr.post_state

    @property
    def final_state(self) -> ReasoningState:
        if not self.transitions:
            return self.initial
        return self.transitions[-1].post_state

    @property
    def step_count(self) -> int:
        """Number of state-advancing (non-stop) transitions."""
        return sum(1 for tr in self.transitions if tr.decision.action is not Action.STOP)

    @property
    def total_output_tokens(self) -> int:
        return sum(tr.output_tokens for tr in self.transitions)
