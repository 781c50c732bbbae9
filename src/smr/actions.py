"""State transformations for the three actions.

Refine retrieves with the new query and appends only novel documents to
the tail of the current list; nothing already ranked is ever removed or
moved.  Rerank reorders the current list and nothing else: proposals are
sanitized so the result is always an exact permutation of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Decision, RankedList, ReasoningState
from .retrieval import Retriever


def merge_retrieved(
    current: RankedList,
    newly_retrieved: RankedList,
    max_list_size: int,
) -> RankedList:
    """Append novel retrieved ids to the current list, capped in total size.

    Existing entries keep their positions unconditionally; the cap only
    limits how much of the appended tail survives, dropping the newest
    entries first.
    """
    have = set(current.entries)
    novel = [doc_id for doc_id in newly_retrieved.entries if doc_id not in have]
    room = max(0, max_list_size - len(current.entries))
    return RankedList(entries=current.entries + tuple(novel[:room]))


@dataclass(frozen=True)
class SanitizeReport:
    """What sanitization changed: ids it threw away and ids it restored."""

    dropped_ids: tuple[str, ...]
    reappended_ids: tuple[str, ...]


def sanitize_rerank(current: RankedList, proposed_ids: Sequence[str]) -> tuple[RankedList, SanitizeReport]:
    """Coerce a proposed ordering into an exact permutation of the current list.

    Ids the current list does not contain are dropped (reported once each,
    in first-seen order); duplicate occurrences of valid ids keep only the
    first.  Ids the proposal omitted are re-appended at the end in their
    current-list order.
    """
    members = set(current.entries)
    kept: list[str] = []
    seen: set[str] = set()
    dropped: list[str] = []
    dropped_seen: set[str] = set()
    for doc_id in proposed_ids:
        if doc_id not in members:
            if doc_id not in dropped_seen:
                dropped.append(doc_id)
                dropped_seen.add(doc_id)
            continue
        if doc_id in seen:
            continue
        kept.append(doc_id)
        seen.add(doc_id)
    reappended = [doc_id for doc_id in current.entries if doc_id not in seen]
    ranked = RankedList(entries=tuple(kept) + tuple(reappended))
    return ranked, SanitizeReport(dropped_ids=tuple(dropped), reappended_ids=tuple(reappended))


def exec_refine(
    state: ReasoningState,
    decision: Decision,
    retriever: Retriever,
    k: int,
    max_list_size: int,
) -> ReasoningState:
    """Run retrieval with the refined query and merge results into the state."""
    if decision.refined_query is None:
        raise ValueError("exec_refine requires a refine decision")
    retrieved = retriever.search(decision.refined_query, k)
    merged = merge_retrieved(state.docs, retrieved, max_list_size)
    return ReasoningState(query=decision.refined_query, docs=merged, step=state.step + 1)


def exec_rerank(state: ReasoningState, decision: Decision) -> tuple[ReasoningState, SanitizeReport]:
    """Reorder the state's documents; the query is untouched."""
    if decision.reranked_ids is None:
        raise ValueError("exec_rerank requires a rerank decision")
    ranked, report = sanitize_rerank(state.docs, decision.reranked_ids)
    new_state = ReasoningState(query=state.query, docs=ranked, step=state.step + 1)
    return new_state, report
