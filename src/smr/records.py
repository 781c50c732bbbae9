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

from .core import TEMPERATURE_STEP, Action, StopCause, temperature_for_attempt
from .errors import CorpusError, SmrError, TraceFormatError

if TYPE_CHECKING:
    from .engine import TrajectoryResult

_QUERY_ID = frozenset({"query_id"})
_ACTIONS = tuple(action.value for action in Action)
_STOP_CAUSES = tuple(cause.value for cause in StopCause)
_STOP_CAUSE_LIST = ", ".join(_STOP_CAUSES)
# The stop causes a query's last transition can end in, by whether it is a stop.
_FINAL_CAUSES = {True: ("policy-stop", "policy-failure-fallback"), False: ("equivalence-stop", "step-cap")}
# The temperatures a run can send: the policy's schedule stops at 1.0, attempt 10.
_TEMPERATURES = frozenset(temperature_for_attempt(attempt) for attempt in range(11))


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


def _is_id_list(value: object) -> bool:
    """A JSON list of distinct strings."""
    return type(value) is list and all(type(v) is str for v in value) and len(set(value)) == len(value)


# One encoder for every run, trace and index line; json.dumps with these
# options would build a new one per call.
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
    or an integer or that repeats, an error that is not a string, a record
    with neither an error nor a ranked_doc_ids list, a ranked_doc_ids entry
    that is not a string or repeats, or a success record without the rest
    of the shape emit_run_record writes: a string final_query, a known
    stop_cause, and steps and output_tokens that are non-negative integers.
    """
    records: list[dict] = []
    seen: set[str] = set()
    for lineno, record in iter_jsonl(lines, name, CorpusError, _QUERY_ID):
        query_id = query_id_key(record["query_id"], name, lineno, CorpusError)
        if query_id in seen:
            raise CorpusError(f"{name}: line {lineno}: repeated query_id {query_id!r}")
        seen.add(query_id)
        if type(record.get("error", "")) is not str:
            raise CorpusError(f"{name}: line {lineno}: error must be a string")
        if "error" not in record:
            ranked = record.get("ranked_doc_ids")
            if type(ranked) is not list:
                raise CorpusError(f"{name}: line {lineno}: record needs an error or a ranked_doc_ids list")
            if not _is_id_list(ranked):
                raise CorpusError(f"{name}: line {lineno}: ranked_doc_ids must be distinct strings")
            if type(record.get("final_query")) is not str:
                raise CorpusError(f"{name}: line {lineno}: record needs a string final_query")
            if record.get("stop_cause") not in _STOP_CAUSES:
                raise CorpusError(f"{name}: line {lineno}: record needs a stop_cause, one of {_STOP_CAUSE_LIST}")
            if not _is_count(record.get("steps")) or not _is_count(record.get("output_tokens")):
                raise CorpusError(f"{name}: line {lineno}: record needs non-negative integer steps and output_tokens")
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
    """One query's transition records, then its summary or error."""

    query_id: str
    transitions: list[dict] = field(default_factory=list)
    summary: dict | None = None
    error: str | None = None


def iter_traces(lines: Iterable[str], name: str) -> Iterator[QueryTrace]:
    """Each query's records, yielded once its summary or error line ends it.

    Raises TraceFormatError naming the line for a query_id that is not a
    string or an integer, an error that is not a string, a record of no
    known shape, a bad action, a step that is not the transition's 1-based
    position in its query, a transition after one with a stop_cause, a stop
    whose query or doc_ids differ from the transition before it,
    output_tokens that are not a non-negative integer, other transition
    fields not of the types emit_trace writes, a stop with a reason, a
    temperature no attempt is sent at, a stop_cause the transition's
    action cannot end in (a stop must end in one), a summary that is not the
    one emit_trace writes for the transitions before it, which must end in
    one with a stop_cause, an error for a query that has transitions, or a
    record for a query that already ended.
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
            if type(record["error"]) is not str:
                raise TraceFormatError(f"{name}: line {lineno}: error must be a string")
            if trace.transitions:
                raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} has an error after transitions")
            trace.error = record["error"]
        elif "action" in record:
            action, step, position = record["action"], record.get("step"), len(trace.transitions) + 1
            if action not in _ACTIONS:
                raise TraceFormatError(f"{name}: line {lineno}: unknown action {action!r}")
            if not (type(step) is int and step == position):
                raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} step {step!r} should be {position}")
            if trace.transitions and "stop_cause" in trace.transitions[-1]:
                raise TraceFormatError(
                    f"{name}: line {lineno}: query {query_id!r} has a transition after its final one"
                )
            if not _is_count(record.get("output_tokens")):
                raise TraceFormatError(f"{name}: line {lineno}: transition needs non-negative integer output_tokens")
            if type(record.get("query")) is not str or not record["query"]:
                raise TraceFormatError(f"{name}: line {lineno}: transition needs a non-empty string query")
            if not _is_id_list(record.get("doc_ids")):
                raise TraceFormatError(f"{name}: line {lineno}: transition needs doc_ids, a list of distinct strings")
            pre = trace.transitions[-1] if trace.transitions else record  # the first has no pre-state here
            if action == "stop" and (record["query"], record["doc_ids"]) != (pre["query"], pre["doc_ids"]):
                raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} stop changes the state")
            if "reason" not in record or not (record["reason"] is None or type(record["reason"]) is str):
                raise TraceFormatError(f"{name}: line {lineno}: transition needs a reason, a string or null")
            if action == "stop" and record["reason"] is not None:
                raise TraceFormatError(f"{name}: line {lineno}: query {query_id!r} stop has a reason")
            temperature = record.get("temperature")
            if type(temperature) is not float or temperature not in _TEMPERATURES:
                raise TraceFormatError(f"{name}: line {lineno}: transition needs a temperature, "
                                       f"a float multiple of {TEMPERATURE_STEP} in [0, 1]")
            cause, ends = record.get("stop_cause"), _FINAL_CAUSES[action == "stop"]
            if (action == "stop" or "stop_cause" in record) and cause not in ends:
                raise TraceFormatError(f"{name}: line {lineno}: a {action} ends in {' or '.join(ends)}, not {cause!r}")
            trace.transitions.append(record)
            continue
        elif "steps" in record:
            if not trace.transitions or "stop_cause" not in trace.transitions[-1]:
                raise TraceFormatError(
                    f"{name}: line {lineno}: query {query_id!r} summary comes before its final transition"
                )
            last = trace.transitions[-1]
            # emit_trace's summary, from the transitions.  Only the last can be
            # a stop; the others advanced the state.
            derived = {
                "steps": len(trace.transitions) - (last["action"] == "stop"),
                "output_tokens": sum(tr["output_tokens"] for tr in trace.transitions),
                "stop_cause": last["stop_cause"],
            }
            for key, value in derived.items():
                # Compared as JSON text, so true and 1.0 are not 1.
                said, shown = _dump(record.get(key)), _dump(value)
                if said != shown:
                    raise TraceFormatError(
                        f"{name}: line {lineno}: query {query_id!r} summary says {said} {key}, trace shows {shown}"
                    )
            trace.summary = record
        else:
            raise TraceFormatError(f"{name}: line {lineno}: expected a transition, a summary or an error")
        ended.add(query_id)
        yield pending.pop(query_id)
    if pending:
        raise TraceFormatError(f"{name}: query {next(iter(pending))!r} has transitions but no summary record")
