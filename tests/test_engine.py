from __future__ import annotations

import gc
import io
import json
import signal
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr.core import Action, Document, RankedList, StopCause, state_equivalent
from smr.engine import (
    EngineConfig,
    TrajectoryResult,
    emit_trace,
    run_batch,
    run_trajectory,
    write_run_file,
    write_trace_file,
)
from smr.errors import ConfigError
from smr.llm import ChatRequest, ChatResponse, ScriptedBackend, count_fallback_tokens
from smr.policy import PolicyConfig
from smr.records import iter_traces

from conftest import refine_json, rerank_json, stop_json
from oracles import reference_trajectory

QUERY = "what is an LLM"


class TestEngineConfig:
    def test_defaults_are_canonical(self):
        cfg = EngineConfig()
        assert cfg.k == 10
        assert cfg.max_steps == 16
        assert cfg.batch_size == 8
        assert cfg.max_list_size == 100
        assert cfg.policy == PolicyConfig()

    def test_cap_must_cover_k(self):
        with pytest.raises(ValueError):
            EngineConfig(k=10, max_list_size=5)


class TestRunTrajectory:
    def test_immediate_policy_stop(self, toy_retriever):
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend([stop_json()]))
        assert trajectory.stop_cause is StopCause.POLICY_STOP
        assert len(trajectory.transitions) == 1
        assert trajectory.transitions[0].decision.action is Action.STOP
        assert trajectory.step_count == 0
        assert trajectory.final_state == trajectory.initial

    def test_initial_state_comes_from_retrieval(self, toy_retriever):
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend([stop_json()]))
        assert trajectory.initial.query == QUERY
        assert list(trajectory.initial.docs.entries) == ["d1"]

    def test_always_novel_refine_hits_step_cap(self, toy_retriever):
        steps = [refine_json(f"pasta recipes number {i}") for i in range(20)]
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend(steps))
        assert trajectory.stop_cause is StopCause.STEP_CAP
        assert len(trajectory.transitions) == 16
        assert trajectory.step_count == 16
        assert all(tr.decision.action is Action.REFINE for tr in trajectory.transitions)

    def test_step_cap_respects_override(self, toy_retriever):
        steps = [refine_json(f"q {i}") for i in range(10)]
        cfg = EngineConfig(max_steps=3)
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend(steps), cfg)
        assert trajectory.stop_cause is StopCause.STEP_CAP
        assert trajectory.step_count == 3

    def test_identity_rerank_triggers_equivalence_stop(self, toy_retriever):
        backend = ScriptedBackend([rerank_json(["d1"])])
        trajectory = run_trajectory(QUERY, toy_retriever, backend)
        assert trajectory.stop_cause is StopCause.EQUIVALENCE_STOP
        assert len(trajectory.transitions) == 1
        assert trajectory.transitions[0].decision.action is Action.RERANK

    def test_noop_refine_triggers_equivalence_stop(self, toy_retriever):
        # Same query modulo padding, same retrieval: the state cannot move.
        backend = ScriptedBackend([refine_json("  " + QUERY + " ")])
        trajectory = run_trajectory(QUERY, toy_retriever, backend)
        assert trajectory.stop_cause is StopCause.EQUIVALENCE_STOP
        assert len(trajectory.transitions) == 1
        assert trajectory.step_count == 1

    def test_real_rerank_then_stop(self, toy_retriever):
        backend = ScriptedBackend(
            [
                refine_json("LLM large language model definition"),
                rerank_json(["d3", "d1", "d4"]),
                stop_json(),
            ]
        )
        trajectory = run_trajectory(QUERY, toy_retriever, backend)
        assert trajectory.stop_cause is StopCause.POLICY_STOP
        assert [tr.decision.action for tr in trajectory.transitions] == [
            Action.REFINE,
            Action.RERANK,
            Action.STOP,
        ]
        assert trajectory.final_state.docs.entries[0] == "d3"

    def test_policy_failure_fallback(self, toy_retriever):
        backend = ScriptedBackend(["garbage"] * 6)
        trajectory = run_trajectory(QUERY, toy_retriever, backend)
        assert trajectory.stop_cause is StopCause.POLICY_FAILURE_FALLBACK
        assert len(trajectory.transitions) == 1
        assert trajectory.transitions[0].output_tokens == 6
        assert trajectory.transitions[0].policy_temperature_used == pytest.approx(0.5)

    def test_tokens_accumulate_across_transitions(self, toy_retriever):
        steps = [
            "not json at all",  # failed attempt: 4 tokens
            refine_json("LLM large language model definition"),
            stop_json(),
        ]
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend(steps))
        refine_tokens = 4 + count_fallback_tokens(steps[1])
        stop_tokens = count_fallback_tokens(steps[2])
        assert trajectory.transitions[0].output_tokens == refine_tokens
        assert trajectory.total_output_tokens == refine_tokens + stop_tokens

    def test_consecutive_advancing_states_never_equivalent_except_final(self, toy_retriever):
        steps = [
            refine_json("LLM large language model definition"),
            rerank_json(["d3", "d1", "d4"]),
            rerank_json(["d3", "d1", "d4"]),  # identity now: equivalence stop
        ]
        trajectory = run_trajectory(QUERY, toy_retriever, ScriptedBackend(steps))
        assert trajectory.stop_cause is StopCause.EQUIVALENCE_STOP
        pre = trajectory.initial
        for i, tr in enumerate(trajectory.transitions):
            is_final = i == len(trajectory.transitions) - 1
            assert state_equivalent(pre, tr.post_state) == is_final
            pre = tr.post_state

    def test_script_exhaustion_propagates(self, toy_retriever):
        with pytest.raises(Exception, match="exhausted"):
            run_trajectory(QUERY, toy_retriever, ScriptedBackend([]))


class TestRunBatch:
    def test_order_preserved(self, toy_retriever):
        queries = [(f"q{i}", QUERY) for i in range(12)]
        results = run_batch(queries, toy_retriever, lambda qid: ScriptedBackend([stop_json()]))
        assert [r.query_id for r in results] == [f"q{i}" for i in range(12)]
        assert all(r.trajectory is not None for r in results)

    def test_failures_captured_per_entry(self, toy_retriever):
        scripts = {"good": [stop_json()], "bad": []}
        queries = [("good", QUERY), ("bad", QUERY), ("good2", QUERY)]

        def factory(query_id):
            return ScriptedBackend(scripts.get(query_id, [stop_json()]))

        results = run_batch(queries, toy_retriever, factory)
        assert results[0].error is None
        assert results[1].error is not None and "exhausted" in results[1].error
        assert results[2].error is None

    def test_concurrency_bounded_by_batch_size(self, toy_retriever):
        lock = threading.Lock()
        state = {"active": 0, "peak": 0}

        class SlowStopBackend:
            def complete(self, request: ChatRequest) -> ChatResponse:
                with lock:
                    state["active"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                time.sleep(0.02)
                with lock:
                    state["active"] -= 1
                return ChatResponse(text=stop_json(), output_tokens=1)

        queries = [(f"q{i}", QUERY) for i in range(24)]
        cfg = EngineConfig(batch_size=8)
        results = run_batch(queries, toy_retriever, lambda qid: SlowStopBackend(), cfg)
        assert len(results) == 24
        assert state["peak"] <= 8

    def test_empty_batch(self, toy_retriever):
        assert run_batch([], toy_retriever, lambda qid: ScriptedBackend([])) == []

    def test_factory_receives_query_ids_in_order(self, toy_retriever):
        seen: list[str] = []

        def factory(query_id):
            seen.append(query_id)
            return ScriptedBackend([stop_json()])

        run_batch([("a", QUERY), ("b", QUERY)], toy_retriever, factory)
        assert seen == ["a", "b"]

    def test_finished_query_backend_released_before_next_query_starts(self, toy_retriever):
        refs: dict[str, weakref.ref] = {}
        alive_earlier: dict[str, list[str]] = {}

        class ProbeBackend(ScriptedBackend):
            def __init__(self, query_id: str):
                super().__init__([stop_json()])
                self.query_id = query_id

            def complete(self, request: ChatRequest) -> ChatResponse:
                if not self.calls:
                    gc.collect()
                    order = list(refs)
                    earlier = order[: order.index(self.query_id)]
                    alive_earlier[self.query_id] = [qid for qid in earlier if refs[qid]() is not None]
                return super().complete(request)

        def factory(query_id):
            backend = ProbeBackend(query_id)
            refs[query_id] = weakref.ref(backend)
            return backend

        queries = [(f"q{i}", QUERY) for i in range(4)]
        results = run_batch(queries, toy_retriever, factory, EngineConfig(batch_size=1))
        assert all(r.trajectory is not None for r in results)
        assert alive_earlier == {qid: [] for qid, _ in queries}

    def test_batch_size_one_runs_in_calling_thread(self, toy_retriever):
        threads_before = threading.active_count()
        seen: dict[str, tuple[int, int]] = {}

        class ThreadProbeBackend(ScriptedBackend):
            def __init__(self, query_id: str):
                super().__init__([stop_json()])
                self.query_id = query_id

            def complete(self, request: ChatRequest) -> ChatResponse:
                seen[self.query_id] = (threading.get_ident(), threading.active_count())
                return super().complete(request)

        queries = [(f"q{i}", QUERY) for i in range(5)]
        results = run_batch(queries, toy_retriever, ThreadProbeBackend, EngineConfig(batch_size=1))
        assert all(r.trajectory is not None for r in results)
        assert seen == {qid: (threading.get_ident(), threads_before) for qid, _ in queries}
        assert threading.active_count() == threads_before

    def test_batch_size_trajectories_run_at_once(self, toy_retriever):
        batch_size = 4
        barrier = threading.Barrier(batch_size, timeout=10)

        class BarrierBackend:
            def complete(self, request: ChatRequest) -> ChatResponse:
                barrier.wait()  # breaks, and the query fails, unless batch_size queries overlap
                return ChatResponse(text=stop_json(), output_tokens=1)

        queries = [(f"q{i}", QUERY) for i in range(2 * batch_size)]
        cfg = EngineConfig(batch_size=batch_size)
        results = run_batch(queries, toy_retriever, lambda qid: BarrierBackend(), cfg)
        assert [r.error for r in results] == [None] * len(queries)

    def test_backend_created_just_before_its_query(self, toy_retriever):
        created: list[str] = []
        created_at_first_call: dict[str, int] = {}

        class CountingBackend(ScriptedBackend):
            def __init__(self, query_id: str):
                super().__init__([stop_json()])
                self.query_id = query_id
                created.append(query_id)

            def complete(self, request: ChatRequest) -> ChatResponse:
                created_at_first_call.setdefault(self.query_id, len(created))
                return super().complete(request)

        queries = [(f"q{i}", QUERY) for i in range(6)]
        run_batch(queries, toy_retriever, CountingBackend, EngineConfig(batch_size=1))
        assert created_at_first_call == {f"q{i}": i + 1 for i in range(6)}

    def test_workers_pull_each_query_once_under_frequent_switches(self, toy_retriever):
        events: list[tuple[str, str]] = []

        def factory(query_id):
            events.append(("enter", query_id))
            time.sleep(0)  # lets another worker run; it must not enter the factory meanwhile
            events.append(("leave", query_id))
            return ScriptedBackend([stop_json()])

        queries = [(f"q{i}", f"{QUERY} {i}") for i in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_batch(queries, toy_retriever, factory, EngineConfig(batch_size=8))
        finally:
            sys.setswitchinterval(interval)
        assert events == [(event, qid) for qid, _ in queries for event in ("enter", "leave")]
        assert [(r.query_id, r.query, r.error) for r in results] == [(q, t, None) for q, t in queries]

    def test_factory_error_stops_the_batch(self, toy_retriever):
        calls: list[str] = []

        def factory(query_id):
            calls.append(query_id)
            if query_id == "q2":
                raise ConfigError("no script for q2")
            return ScriptedBackend([stop_json()])

        queries = [(f"q{i}", QUERY) for i in range(12)]
        with pytest.raises(ConfigError, match="no script for q2"):
            run_batch(queries, toy_retriever, factory, EngineConfig(batch_size=4))
        assert calls == ["q0", "q1", "q2"]

    def test_interrupt_lets_running_queries_end_and_starts_none(self, toy_retriever):
        threads_before = threading.active_count()
        events: list[str] = []
        interrupted = threading.Event()

        class InterruptingBackend:
            def __init__(self, query_id: str):
                self.query_id = query_id
                events.append(f"start {query_id}")

            def complete(self, request: ChatRequest) -> ChatResponse:
                if self.query_id == "q1":
                    interrupted.set()
                    raise KeyboardInterrupt
                if self.query_id == "q0":
                    assert interrupted.wait(timeout=10)
                    time.sleep(0.05)  # q1's worker records the interrupt meanwhile
                events.append(f"end {self.query_id}")
                return ChatResponse(text=stop_json(), output_tokens=1)

        queries = [(f"q{i}", QUERY) for i in range(8)]
        with pytest.raises(KeyboardInterrupt):
            run_batch(queries, toy_retriever, InterruptingBackend, EngineConfig(batch_size=2))
        assert events == ["start q0", "start q1", "end q0"]
        assert threading.active_count() == threads_before

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_interrupt_while_joining_waits_for_the_running_query(self, toy_retriever):
        threads_before = threading.active_count()
        worker_started = threading.Event()
        interrupted = threading.Event()
        ended: list[str] = []

        def main_thread_waits_in_run_batch() -> bool:
            """Whether the main thread is in an Event.wait that run_batch itself called."""
            frame = sys._current_frames().get(threading.main_thread().ident)
            while frame is not None and frame.f_back is not None:
                if frame.f_code is threading.Event.wait.__code__ and frame.f_back.f_code is run_batch.__code__:
                    return True
                frame = frame.f_back
            return False

        def on_interrupt(signum, frame):
            interrupted.set()
            raise KeyboardInterrupt

        class Backend:
            def complete(self, request: ChatRequest) -> ChatResponse:
                if threading.current_thread() is threading.main_thread():
                    assert worker_started.wait(timeout=10)
                else:
                    worker_started.set()
                    deadline = time.monotonic() + 10
                    while not main_thread_waits_in_run_batch():  # the caller ends its own query first
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    assert interrupted.wait(timeout=10)
                    ended.append("worker")
                return ChatResponse(text=stop_json(), output_tokens=1)

        previous = signal.signal(signal.SIGINT, on_interrupt)
        try:
            queries = [("q0", QUERY), ("q1", QUERY)]
            with pytest.raises(KeyboardInterrupt):
                run_batch(queries, toy_retriever, lambda qid: Backend(), EngineConfig(batch_size=2))
        finally:
            signal.signal(signal.SIGINT, previous)
        assert ended == ["worker"]
        assert threading.active_count() == threads_before


def run_toy_batch(toy_retriever, scripts: dict[str, list[str]], queries=None):
    queries = queries or [(qid, QUERY) for qid in scripts]
    return run_batch(queries, toy_retriever, lambda qid: ScriptedBackend(scripts[qid]))


class TestEmission:
    def trajectory_result(self, toy_retriever) -> TrajectoryResult:
        scripts = {
            "q1": [
                refine_json("LLM large language model definition", reason="expand\nacronym"),
                rerank_json(["d3", "d1", "d4"]),
                stop_json(),
            ]
        }
        return run_toy_batch(toy_retriever, scripts)[0]

    def test_trace_line_count_and_shape(self, toy_retriever):
        result = self.trajectory_result(toy_retriever)
        sink = io.StringIO()
        emit_trace(result, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 4  # three transitions plus a summary
        records = [json.loads(line) for line in lines]
        assert [r.get("action") for r in records[:3]] == ["refine", "rerank", "stop"]
        assert [r["step"] for r in records[:3]] == [1, 2, 3]
        assert all(r["query_id"] == "q1" for r in records)

    def test_multiline_reason_stays_on_one_line(self, toy_retriever):
        result = self.trajectory_result(toy_retriever)
        sink = io.StringIO()
        emit_trace(result, sink)
        refine_record = json.loads(sink.getvalue().splitlines()[0])
        assert refine_record["reason"] == "expand\nacronym"

    def test_stop_cause_on_final_transition_and_summary(self, toy_retriever):
        result = self.trajectory_result(toy_retriever)
        sink = io.StringIO()
        emit_trace(result, sink)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert "stop_cause" not in records[0]
        assert records[2]["stop_cause"] == "policy-stop"
        summary = records[3]
        assert summary == {
            "query_id": "q1",
            "steps": 2,
            "output_tokens": result.trajectory.total_output_tokens,
            "stop_cause": "policy-stop",
        }

    def test_run_record_fields(self, toy_retriever):
        result = self.trajectory_result(toy_retriever)
        sink = io.StringIO()
        write_run_file([result], sink)
        record = json.loads(sink.getvalue())
        assert record == {
            "query_id": "q1",
            "final_query": "LLM large language model definition",
            "ranked_doc_ids": ["d3", "d1", "d4"],
            "stop_cause": "policy-stop",
            "steps": 2,
            "output_tokens": result.trajectory.total_output_tokens,
        }

    def test_error_entries_written_as_error_lines(self, toy_retriever):
        results = run_toy_batch(toy_retriever, {"oops": []})
        run_sink, trace_sink = io.StringIO(), io.StringIO()
        write_run_file(results, run_sink)
        write_trace_file(results, trace_sink)
        assert "error" in json.loads(run_sink.getvalue())
        assert "error" in json.loads(trace_sink.getvalue())

    def test_trace_replay_reconstructs_run_ranking(self, toy_retriever):
        result = self.trajectory_result(toy_retriever)
        run_sink, trace_sink = io.StringIO(), io.StringIO()
        write_run_file([result], run_sink)
        write_trace_file([result], trace_sink)
        run_record = json.loads(run_sink.getvalue())
        transitions = [
            json.loads(line)
            for line in trace_sink.getvalue().splitlines()
            if "action" in json.loads(line)
        ]
        assert transitions[-1]["doc_ids"] == run_record["ranked_doc_ids"]

    def test_emission_is_deterministic(self, toy_retriever):
        def produce() -> str:
            scripts = {
                "q1": [refine_json("LLM large language model definition"), stop_json()],
                "q2": [stop_json()],
            }
            results = run_toy_batch(toy_retriever, scripts, [("q1", QUERY), ("q2", QUERY)])
            run_sink, trace_sink = io.StringIO(), io.StringIO()
            write_run_file(results, run_sink)
            write_trace_file(results, trace_sink)
            return run_sink.getvalue() + "\0" + trace_sink.getvalue()

        assert produce() == produce()

    def test_trace_temperature_records_escalation(self, toy_retriever):
        scripts = {"q1": ["junk", "junk", stop_json()]}
        result = run_toy_batch(toy_retriever, scripts)[0]
        sink = io.StringIO()
        emit_trace(result, sink)
        stop_record = json.loads(sink.getvalue().splitlines()[0])
        assert stop_record["temperature"] == pytest.approx(0.2)
        assert stop_record["output_tokens"] == 2 + count_fallback_tokens(stop_json())


# Replies that fail to parse, like the bench's malformed decisions.
MALFORMED_REPLIES = (
    "I would refine the query first.",
    '{"action": "refine query."}',
    '{"action": "re-rank", "reranked": []}',
    '{"action": "refine query", "refined_query": ',
    "",
)
WORDS = ("LLM", "large", "language", "model", "chess", "pasta", "zebra")
DOC_IDS = ("d1", "d2", "d3", "d4", "d5", "d6", "zz")
reasons = st.none() | st.sampled_from(("widen", "two\nlines", "Zoë's pick", ""))
valid_replies = st.one_of(
    st.builds(refine_json, st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join), reasons),
    # Unknown ids (zz) and repeats are dropped or re-appended by sanitize.
    st.builds(rerank_json, st.lists(st.sampled_from(DOC_IDS), min_size=1, max_size=8), reasons),
    st.just(stop_json()),
)
# Malformed replies come in runs, so a decision often spends every attempt
# up to max_attempts and reaches the top temperature or the fallback stop.
malformed_runs = st.lists(st.sampled_from(MALFORMED_REPLIES), min_size=1, max_size=4)
reply_scripts = st.lists(st.one_of(valid_replies.map(lambda reply: [reply]), malformed_runs), max_size=8).map(
    lambda runs: [reply for run in runs for reply in run]
)


@settings(max_examples=150, deadline=None)
@given(
    query=st.sampled_from(("what is an LLM", "garlic pasta", "zebra")),
    script=reply_scripts,
    max_steps=st.integers(min_value=1, max_value=4),
    max_attempts=st.integers(min_value=1, max_value=4),
)
def test_trace_reader_reads_back_what_the_engine_writes(toy_retriever, query, script, max_steps, max_attempts):
    """Whatever the replies, emit_trace's output loads through iter_traces
    with the trajectory's actions, step count, token total and stop cause.

    A trailing stop reply keeps the script from running out.
    """
    config = EngineConfig(k=3, max_steps=max_steps, max_list_size=5, policy=PolicyConfig(max_attempts=max_attempts))
    trajectory = run_trajectory(query, toy_retriever, ScriptedBackend([*script, stop_json()]), config)
    sink = io.StringIO()
    emit_trace(TrajectoryResult("q1", query, trajectory=trajectory), sink)
    [trace] = iter_traces(sink.getvalue().splitlines(), "trace")
    assert [r["action"] for r in trace.transitions] == [t.decision.action.value for t in trajectory.transitions]
    assert trace.summary == {
        "query_id": "q1",
        "steps": trajectory.step_count,
        "output_tokens": trajectory.total_output_tokens,
        "stop_cause": trajectory.stop_cause.value,
    }


class TableRetriever:
    """A retriever that looks each query text up in a table of ranked ids; an
    unlisted text retrieves nothing."""

    def __init__(self, table: dict[str, list[str]]):
        self.table = table
        self.doc_store = {doc_id: Document(doc_id, f"text of {doc_id}") for doc_id in TABLE_IDS}

    def search(self, query: str, k: int) -> RankedList:
        return RankedList(tuple(self.table.get(query, ())[:k]))


# Refine texts repeat the start queries, padded too, so that a refine can
# leave the state as it was.
START_QUERIES = ("what is an LLM", "garlic pasta", "zebra")
REFINE_TEXTS = (*START_QUERIES, " zebra ", "large language model", "chess", "LLM")
TABLE_IDS = tuple(f"d{i}" for i in range(1, 9))
tables = st.dictionaries(
    st.sampled_from(REFINE_TEXTS), st.lists(st.sampled_from(TABLE_IDS), unique=True, max_size=6)
)
# Abstract replies, as reference_trajectory reads them.  Rerank ids include
# unknown ones (zz, and d7 and d8 on the toy corpus), repeats and omissions.
abstract_replies = st.one_of(
    st.tuples(st.just("refine"), st.sampled_from(REFINE_TEXTS), reasons),
    st.tuples(st.just("rerank"), st.lists(st.sampled_from((*TABLE_IDS, "zz")), min_size=1, max_size=8), reasons),
    st.just(("stop",)),
)
malformed_abstract_runs = malformed_runs.map(lambda run: [("malformed", text) for text in run])
abstract_scripts = st.lists(
    st.one_of(abstract_replies.map(lambda reply: [reply]), malformed_abstract_runs), max_size=8
).map(lambda runs: [reply for run in runs for reply in run] + [("stop",)])


def render_reply(reply: tuple) -> str:
    if reply[0] == "refine":
        return refine_json(reply[1], reply[2])
    if reply[0] == "rerank":
        return rerank_json(reply[1], reply[2])
    return stop_json() if reply[0] == "stop" else reply[1]


def walk_reference(query, retriever, script, config: EngineConfig) -> dict:
    """reference_trajectory for the engine's retriever, script and config."""
    return reference_trajectory(
        query,
        lambda text, k: retriever.search(text, k).entries,
        [(reply, count_fallback_tokens(render_reply(reply))) for reply in script],
        k=config.k,
        max_list_size=config.max_list_size,
        max_steps=config.max_steps,
        max_attempts=config.policy.max_attempts,
    )


def walked(trajectory, backend: ScriptedBackend) -> dict:
    """A trajectory, and the temperatures its backend was sent, in reference_trajectory's shape."""

    def state(s):
        return (s.query, list(s.docs.entries))

    return {
        "initial": state(trajectory.initial),
        "transitions": [
            (
                (tr.decision.action.value, tr.decision.refined_query, tr.decision.reranked_ids, tr.decision.reason),
                state(tr.post_state),
                tr.output_tokens,
                tr.policy_temperature_used,
            )
            for tr in trajectory.transitions
        ],
        "stop_cause": trajectory.stop_cause.value,
        "temperatures": [call.temperature for call in backend.calls],
    }


@st.composite
def engine_configs(draw) -> EngineConfig:
    k = draw(st.integers(min_value=1, max_value=4))
    return EngineConfig(
        k=k,
        max_steps=draw(st.integers(min_value=1, max_value=5)),
        max_list_size=draw(st.integers(min_value=k, max_value=k + 4)),
        batch_size=draw(st.integers(min_value=1, max_value=4)),
        policy=PolicyConfig(max_attempts=draw(st.integers(min_value=1, max_value=4))),
    )


@settings(max_examples=300, deadline=None)
@given(
    query=st.sampled_from(START_QUERIES),
    table=st.none() | tables,
    script=abstract_scripts,
    config=engine_configs(),
)
def test_trajectory_matches_the_reference_loop(toy_retriever, query, table, script, config):
    """run_trajectory walks as reference_trajectory does: every Trajectory
    field and every temperature sent, on the toy BM25 corpus (no table) and
    on a table-driven retriever.  The script ends in a stop, so it cannot
    run out."""
    retriever = toy_retriever if table is None else TableRetriever(table)
    backend = ScriptedBackend([render_reply(reply) for reply in script])
    trajectory = run_trajectory(query, retriever, backend, config)
    assert walked(trajectory, backend) == walk_reference(query, retriever, script, config)


@settings(max_examples=40, deadline=None)
@given(
    table=st.none() | tables,
    scripts=st.lists(st.tuples(st.sampled_from(START_QUERIES), abstract_scripts), min_size=1, max_size=5),
    config=engine_configs(),
)
def test_batch_matches_a_loop_of_the_reference(toy_retriever, table, scripts, config):
    """run_batch at batch_size 1-4 gives, query by query, what a plain loop of
    reference_trajectory gives."""
    retriever = toy_retriever if table is None else TableRetriever(table)
    backends = {
        f"q{i}": ScriptedBackend([render_reply(reply) for reply in script]) for i, (_, script) in enumerate(scripts)
    }
    queries = [(f"q{i}", query) for i, (query, _) in enumerate(scripts)]
    results = run_batch(queries, retriever, backends.__getitem__, config)
    assert [walked(r.trajectory, backends[r.query_id]) for r in results] == [
        walk_reference(query, retriever, script, config) for query, script in scripts
    ]
