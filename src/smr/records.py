"""JSONL input, and the run and trace record shapes with writer beside reader.

Every JSONL file the package reads goes through ``iter_jsonl``, so a bad line
fails as an ``SmrError`` naming file and line.  Readers stream, and do constant
work per line beyond the JSON decode.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .errors import CorpusError, SmrError, TraceFormatError

if TYPE_CHECKING:
    from .engine import TrajectoryResult

_QUERY_ID = frozenset({"query_id"})
_ACTIONS = ("refine", "rerank", "stop")


@contextmanager
def open_input(path: str, kind: str, error: type[SmrError]) -> Iterator[TextIO]:
    """Open a UTF-8 input file for a ``with`` body; failing to open it, or a
    non-UTF-8 byte read in the body, raises ``error`` naming the file (not the
    line: the decoder reads ahead)."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise error(f"{kind} file {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{kind} file {path}: not UTF-8 (byte {exc.object[exc.start]:#04x}: {exc.reason})") from None


def iter_jsonl(lines: Iterable[str], name: str, error: type[SmrError],
               required: frozenset[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line.

    A line that is not a JSON object holding every key in ``required``
    raises ``error("<name>: line <n>: ...")``.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{name}: line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict) or not required <= record.keys():
            raise error(f"{name}: line {lineno}: expected an object with {' and '.join(sorted(required))}")
        yield lineno, record


def query_id_key(value: object, name: str, lineno: int, error: type[SmrError]) -> str:
    """A record's query_id as its key: a JSON string or integer, else ``error``
    naming the file and line.  Integers key as their decimal text."""
    if type(value) is not str and type(value) is not int:
        raise error(f"{name}: line {lineno}: query_id must be a string or an integer")
    return str(value)


def _is_count(value: object) -> bool:
    """A JSON integer >= 0; bools, floats and strings are not counts."""
    return type(value) is int and value >= 0


# One encoder for every run and trace line; json.dumps with these options
# would build a new one per call.
_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def emit_run_record(result: TrajectoryResult, sink: TextIO) -> None:
    """Write one query's final outcome, or the error that ended it, as one JSON line."""
    trajectory = result.trajectory
    if trajectory is None:
        record = {"query_id": result.query_id, "error": result.error}
    else:
        final = trajectory.final_state
        record = {
            "query_id": result.query_id,
            "final_query": final.query,
            "ranked_doc_ids": list(final.docs.entries),
            "stop_cause": trajectory.stop_cause.value,
            "steps": trajectory.step_count,
            "output_tokens": trajectory.total_output_tokens,
        }
    sink.write(_dump(record) + "\n")


def read_run(lines: Iterable[str], name: str) -> list[dict]:
    """Run records as written; error entries pass through unchanged.

    Raises CorpusError naming the line for a query_id that is not a string
    or an integer or that repeats, a record with neither an error nor a
    ranked_doc_ids list, a ranked_doc_ids entry that is not a string or
    repeats, or counts that are not non-negative integers.
    """
    records: list[dict] = []
    seen: set[str] = set()
    for lineno, record in iter_jsonl(lines, name, CorpusError, _QUERY_ID):
        query_id = query_id_key(record["query_id"], name, lineno, CorpusError)
        if query_id in seen:
            raise CorpusError(f"{name}: line {lineno}: repeated query_id {query_id!r}")
        seen.add(query_id)
        if "error" not in record:
            ranked = record.get("ranked_doc_ids")
            if type(ranked) is not list:
                raise CorpusError(f"{name}: line {lineno}: record needs an error or a ranked_doc_ids list")
            if not all(type(doc_id) is str for doc_id in ranked) or len(set(ranked)) != len(ranked):
                raise CorpusError(f"{name}: line {lineno}: ranked_doc_ids must be distinct strings")
            if not _is_count(record.get("steps", 0)) or not _is_count(record.get("output_tokens", 0)):
                raise CorpusError(f"{name}: line {lineno}: steps and output_tokens must be non-negative integers")
        records.append(record)
    return records


def emit_trace(result: TrajectoryResult, sink: TextIO) -> None:
    """Write one query's trace: a line per transition, then a summary line.

    Transition lines carry the post-decision query and document order;
    the final transition also carries the stop cause.  Failed entries
    produce a single error line instead.
    """
    trajectory = result.trajectory
    if trajectory is None:
        sink.write(_dump({"query_id": result.query_id, "error": result.error}) + "\n")
        return
    transitions = trajectory.transitions
    for position, tr in enumerate(transitions, start=1):
        record = {
            "query_id": result.query_id,
            "step": position,
            "action": tr.decision.action.value,
            "query": tr.post_state.query,
            "doc_ids": list(tr.post_state.docs.entries),
            "reason": tr.decision.reason,
            "output_tokens": tr.output_tokens,
            "temperature": tr.policy_temperature_used,
        }
        if position == len(transitions):
            record["stop_cause"] = trajectory.stop_cause.value
        sink.write(_dump(record) + "\n")
    summary = {
        "query_id": result.query_id,
        "steps": trajectory.step_count,
        "output_tokens": trajectory.total_output_tokens,
        "stop_cause": trajectory.stop_cause.value,
    }
    sink.write(_dump(summary) + "\n")


@dataclass
class QueryTrace:
    """One query's transition records, then its summary or error; advancing counts non-stop ones."""

    query_id: str
    transitions: list[dict] = field(default_factory=list)
    advancing: int = 0
    summary: dict | None = None
    error: str | None = None


def iter_traces(lines: Iterable[str], name: str) -> Iterator[QueryTrace]:
    """Each query's records, yielded once its summary or error line ends it.

    Raises TraceFormatError naming the line for a query_id that is not a
    string or an integer, a record of no known shape, a bad action, a step
    that is not the transition's 1-based position in its query, a transition
    after a stop, token or step counts that are not non-negative integers,
    summary counts the transitions disagree with, or a record for a query
    that already ended.
    """
    pending: dict[str, QueryTrace] = {}
    ended: set[str] = set()
    for lineno, record in iter_jsonl(lines, name, TraceFormatError, _QUERY_ID):
        query_id = query_id_key(record["query_id"], name, lineno, TraceFormatError)
        if query_id in ended:
            raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} already ended")
        trace = pending.get(query_id)
        if trace is None:
            trace = pending[query_id] = QueryTrace(query_id)
        if "error" in record:
            trace.error = str(record["error"])
        elif "action" in record:
            action = record["action"]
            if action not in _ACTIONS:
                raise TraceFormatError(f"{name}: line {lineno}: unknown action {action!r}")
            if type(record.get("step")) is not int:
                raise TraceFormatError(f"{name}: line {lineno}: transition needs an integer step")
            if trace.transitions and trace.transitions[-1]["action"] == "stop":
                raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} has a transition after its stop")
            if record["step"] != len(trace.transitions) + 1:
                raise TraceFormatError(
                    f"{name}: line {lineno}: query {query_id!r} step {record['step']} "
                    f"should be {len(trace.transitions) + 1}"
                )
            if not _is_count(record.get("output_tokens")):
                raise TraceFormatError(f"{name}: line {lineno}: transition needs non-negative integer output_tokens")
            trace.transitions.append(record)
            trace.advancing += action != "stop"
            continue
        elif "steps" in record:
            steps = record["steps"]
            if not _is_count(steps) or not _is_count(record.get("output_tokens")):
                raise TraceFormatError(
                    f"{name}: line {lineno}: summary needs non-negative integer steps and output_tokens"
                )
            if steps != trace.advancing:
                raise TraceFormatError(
                    f"{name}: line {lineno}: query {query_id!r} summary says {steps} steps, "
                    f"trace shows {trace.advancing}"
                )
            tokens = sum(tr["output_tokens"] for tr in trace.transitions)
            if record["output_tokens"] != tokens:
                raise TraceFormatError(
                    f"{name}: line {lineno}: query {query_id!r} summary says {record['output_tokens']} "
                    f"output_tokens, trace shows {tokens}"
                )
            trace.summary = record
        else:
            raise TraceFormatError(f"{name}: line {lineno}: expected a transition, a summary or an error")
        ended.add(query_id)
        yield pending.pop(query_id)
    if pending:
        raise TraceFormatError(f"{name}: query {next(iter(pending))!r} has transitions but no summary record")
