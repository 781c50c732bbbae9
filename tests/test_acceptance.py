"""Acceptance suite: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.  The last check talks to a live chat-completions endpoint and
only runs when SMR_SMOKE_CONFIG names a run config for one.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time

import pytest

from smr.cli import RunPlan, load_queries, main
from smr.core import Action, Document, RankedList, ReasoningState, StopCause
from smr.actions import sanitize_rerank
from smr.engine import EngineConfig, run_batch, run_trajectory, write_trace_file
from smr.evalx import analyze_traces, load_qrels, map_at_k, ndcg_at_k, recall_at_k
from smr.llm import ScriptedBackend, count_fallback_tokens
from smr.policy import PolicyConfig, decide
from smr.retrieval import Bm25Retriever, build_index

from conftest import DATA_DIR, refine_json, rerank_json, stop_json
from oracles import (
    bm25_score,
    oracle_bm25_ranking,
    oracle_map,
    oracle_merge,
    oracle_ndcg,
    oracle_recall,
    oracle_sanitize,
    oracle_tokenize,
)
from test_cli import build_workspace


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_01_metrics_match_oracles():
    rng = random.Random(1001)
    start = time.perf_counter()
    pairs = ((ndcg_at_k, oracle_ndcg), (map_at_k, oracle_map), (recall_at_k, oracle_recall))
    for _ in range(1000):
        n_docs = rng.randint(1, 50)
        ids = [f"d{i}" for i in range(n_docs)]
        judged = rng.sample(ids, rng.randint(0, n_docs))
        rels = {doc_id: rng.randint(0, 3) for doc_id in judged}
        ranking = rng.sample(ids, rng.randint(0, n_docs))
        for mine, reference in pairs:
            assert abs(mine(ranking, rels, 10) - reference(ranking, rels, 10)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(1, f"3000 metric values within 1e-9 of brute-force oracles in {elapsed:.2f}s")


def test_criterion_02_sanitizer_yields_exact_permutations():
    rng = random.Random(1002)
    pool = [f"d{i}" for i in range(40)]
    foreign_pool = [f"x{i}" for i in range(10)]
    start = time.perf_counter()
    for _ in range(10_000):
        current_ids = rng.sample(pool, rng.randint(0, 12))
        current = RankedList(entries=tuple(current_ids))
        if rng.random() < 0.1:
            proposed: list[str] = []  # total omission
        else:
            choices = current_ids + rng.sample(foreign_pool, rng.randint(0, 4))
            length = rng.randint(0, 16) if choices else 0
            proposed = [rng.choice(choices) for _ in range(length)]
        result, report = sanitize_rerank(current, proposed)
        assert sorted(result.entries) == sorted(current_ids)
        assert list(result.entries) == oracle_sanitize(current_ids, proposed)
        assert set(report.dropped_ids).isdisjoint(current_ids)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    current = RankedList(entries=("d1", "d2", "d3"))
    result, report = sanitize_rerank(current, ["d2", "d9", "d1"])
    assert result.entries == ("d2", "d1", "d3")
    assert report.dropped_ids == ("d9",)
    assert report.reappended_ids == ("d3",)
    clean, empty_report = sanitize_rerank(RankedList(("d1", "d2")), ["d2", "d1"])
    assert clean.entries == ("d2", "d1")
    assert empty_report.dropped_ids == () and empty_report.reappended_ids == ()
    restored, full_report = sanitize_rerank(RankedList(("d1", "d2")), [])
    assert restored.entries == ("d1", "d2")
    assert full_report.reappended_ids == ("d1", "d2")
    announce(2, f"10000 random pairs sanitized to exact permutations in {elapsed:.2f}s")


def test_criterion_03_every_trajectory_terminates(toy_retriever):
    rng = random.Random(1003)
    queries = [
        "what is an LLM",
        "large language model",
        "al dente pasta",
        "door hinge",
        "nothing matches this zzz",
    ]
    refine_pool = [
        "LLM large language model definition",
        "training corpora for models",
        "pasta sauce simmering",
        "creaky door hinge oil",
        "chess opening trap",
        "what is an LLM",
    ]
    doc_pool = [f"d{i}" for i in range(1, 7)] + ["zz9", "xx8"]
    junk_pool = ["not json", '{"action": "dance"}', "{oops", ""]

    for _ in range(10_000):
        max_steps = rng.randint(1, 6)
        policy = PolicyConfig(max_attempts=rng.choice([2, 6]))
        cfg = EngineConfig(max_steps=max_steps, k=rng.randint(1, 4), policy=policy)
        steps: list[str] = []
        for _ in range(rng.randint(0, 10)):
            roll = rng.random()
            if roll < 0.35:
                steps.append(refine_json(rng.choice(refine_pool)))
            elif roll < 0.60:
                ids = [rng.choice(doc_pool) for _ in range(rng.randint(1, 5))]
                steps.append(rerank_json(ids))
            elif roll < 0.80:
                steps.append(stop_json())
            else:
                steps.append(rng.choice(junk_pool))
        # enough stops that the script can never run dry mid-trajectory
        steps += [stop_json()] * ((max_steps + 1) * policy.max_attempts)
        trajectory = run_trajectory(rng.choice(queries), toy_retriever, ScriptedBackend(steps), cfg)
        assert isinstance(trajectory.stop_cause, StopCause)
        assert len(trajectory.transitions) <= max_steps
        assert trajectory.step_count <= max_steps

    novel = [refine_json(f"unique topic {i}") for i in range(20)] + [stop_json()] * 8
    capped = run_trajectory(
        "what is an LLM", toy_retriever, ScriptedBackend(novel), EngineConfig(max_steps=16)
    )
    assert len(capped.transitions) == 16
    assert all(tr.decision.action is Action.REFINE for tr in capped.transitions)
    assert capped.stop_cause is StopCause.STEP_CAP
    announce(3, "10000 fuzzed trajectories terminated; step cap fired at exactly 16")


def test_criterion_04_equivalence_stop(toy_retriever):
    initial = toy_retriever.search("large language model", 10)
    assert len(initial) >= 2  # identity permutation must be a real reorder candidate
    identity = run_trajectory(
        "large language model", toy_retriever, ScriptedBackend([rerank_json(list(initial.entries))])
    )
    assert identity.stop_cause is StopCause.EQUIVALENCE_STOP
    assert len(identity.transitions) == 1

    noop = run_trajectory(
        "what is an LLM", toy_retriever, ScriptedBackend([refine_json("  what is an LLM ")])
    )
    assert noop.stop_cause is StopCause.EQUIVALENCE_STOP
    assert len(noop.transitions) == 1
    announce(4, "identity rerank and no-op refine both halt after one transition")


def test_criterion_05_temperature_escalation(toy_retriever):
    state = ReasoningState(query="what is an LLM", docs=toy_retriever.search("what is an LLM", 10))
    schedule = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    for malformed in range(6):
        steps = [f"malformed reply number {i}" for i in range(malformed)]
        steps.append(refine_json("LLM large language model definition"))
        outcome = decide(state, toy_retriever.doc_store, ScriptedBackend(steps))
        assert outcome.temperature_used == schedule[malformed]  # exact, not approximate
        assert outcome.output_tokens == sum(count_fallback_tokens(s) for s in steps)
        assert outcome.fallback is False
        assert outcome.decision.action is Action.REFINE

    exhausted = decide(state, toy_retriever.doc_store, ScriptedBackend(["junk"] * 6))
    assert exhausted.fallback is True
    assert exhausted.decision.action is Action.STOP
    assert exhausted.temperature_used == 0.5
    assert exhausted.output_tokens == 6
    announce(5, "temperature_used == 0.1*m (to 10 places) for m in 0..5; exhaustion falls back to stop")


def test_criterion_06_bm25_hand_evaluation():
    retriever = Bm25Retriever(build_index(
        [Document("d1", "a b"), Document("d2", "a a c"), Document("d3", "d")]
    ))
    # written out in full: N=3, df(a)=2, avg length (2+3+1)/3 = 2
    idf_a = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
    expected_d1 = idf_a * (1 * 2.2) / (1 + 1.2 * (1 - 0.75 + 0.75 * 2 / 2))
    expected_d2 = idf_a * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2))
    assert abs(bm25_score(retriever, ["a"], "d1") - expected_d1) <= 1e-9
    assert abs(bm25_score(retriever, ["a"], "d2") - expected_d2) <= 1e-9
    assert bm25_score(retriever, ["a"], "d3") == 0.0

    ranked = retriever.search("a", 10)
    assert ranked.entries == ("d2", "d1")  # d3 scores zero and is excluded

    tie_retriever = Bm25Retriever(build_index([Document(x, "same words here") for x in ("zz", "aa", "mm")]))
    assert tie_retriever.search("same", 3).entries == ("aa", "mm", "zz")
    announce(6, "desk-corpus scores match the hand-evaluated formula within 1e-9")


def test_criterion_07_toy_corpus_end_to_end(toy_corpus, toy_retriever):
    start = time.perf_counter()
    script = json.loads((DATA_DIR / "script.json").read_text(encoding="utf-8"))["q1"]
    refined = json.loads(script[0])["refined_query"]
    proposal = json.loads(script[1])["reranked"]
    rels = load_qrels(str(DATA_DIR / "qrels.txt"))["q1"]
    query = "what is an LLM"

    # expected outcome derived entirely from the reference implementations
    doc_tokens = {doc.doc_id: oracle_tokenize(doc.text) for doc in toy_corpus}
    initial = oracle_bm25_ranking(doc_tokens, oracle_tokenize(query), 10)
    after_refine = oracle_bm25_ranking(doc_tokens, oracle_tokenize(refined), 10)
    merged = oracle_merge(initial, after_refine, 100)
    expected_final = oracle_sanitize(merged, proposal)

    # the acronym query misses the expanded-phrase documents entirely
    assert "d3" not in initial and "d4" not in initial

    trajectory = run_trajectory(query, toy_retriever, ScriptedBackend(script))
    assert list(trajectory.final_state.docs.entries) == expected_final

    ndcg_initial = oracle_ndcg(initial, rels, 10)
    ndcg_final = ndcg_at_k(trajectory.final_state.docs.entries, rels, 10)
    assert ndcg_initial < ndcg_final
    assert ndcg_final == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(
        7,
        f"refine+rerank lifted nDCG@10 {ndcg_initial:.3f} -> 1.000 "
        f"with the oracle-predicted ranking in {elapsed:.3f}s",
    )


def test_criterion_08_trace_analytics(toy_retriever):
    scripts = {
        "qa": [refine_json("alpha topic"), stop_json()],
        "qb": [
            refine_json("LLM large language model definition"),
            rerank_json(["d4"]),
            refine_json("door hinge creaks"),
            stop_json(),
        ],
        "qc": [rerank_json(["d4"]), rerank_json(["d3"]), rerank_json(["d4"]), stop_json()],
        "qd": [refine_json(f"filler query {i}") for i in range(6)] + [stop_json()],
    }
    queries = [
        ("qa", "what is an LLM"),
        ("qb", "what is an LLM"),
        ("qc", "large language model"),
        ("qd", "al dente pasta"),
    ]
    results = run_batch(queries, toy_retriever, lambda qid: ScriptedBackend(scripts[qid]))
    sink = io.StringIO()
    write_trace_file(results, sink)
    analytics = analyze_traces(sink.getvalue().splitlines())

    assert {qid: info["steps"] for qid, info in analytics.per_query.items()} == {
        "qa": 1,
        "qb": 3,
        "qc": 3,
        "qd": 6,
    }
    assert analytics.step_depth_cumulative == [4, 3, 3, 1, 1, 1]
    assert analytics.action_histogram == {"refine": 9, "rerank": 4}
    announce(8, "depths {1,3,3,6} gave cumulative [4,3,3,1,1,1] and an exact histogram")


def test_criterion_09_byte_identical_reruns(tmp_path):
    config = build_workspace(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    run_path = tmp_path / "out" / "run.jsonl"
    trace_path = tmp_path / "out" / "trace.jsonl"
    first = (run_path.read_bytes(), trace_path.read_bytes())
    assert main(["run", "--config", str(config)]) == 0
    second = (run_path.read_bytes(), trace_path.read_bytes())
    assert first == second
    announce(9, "second run reproduced run and trace files byte for byte")


SMOKE_ENV = "SMR_SMOKE_CONFIG"


@pytest.mark.skipif(SMOKE_ENV not in os.environ, reason=f"{SMOKE_ENV} not set; live smoke is opt-in")
def test_criterion_10_live_endpoint_smoke():
    plan = RunPlan(os.environ[SMOKE_ENV])
    plan.preflight()
    queries = load_queries(plan.queries_path)[:3]
    assert queries
    results = run_batch(queries, plan.build_retriever(), plan.build_backend_factory(), plan.engine)
    assert len(results) == len(queries)
    total_tokens = 0
    for result in results:
        assert result.error is None, f"{result.query_id}: {result.error}"
        trajectory = result.trajectory
        assert isinstance(trajectory.stop_cause, StopCause)
        assert len(trajectory.transitions) <= plan.engine.max_steps
        assert all(tr.output_tokens >= 0 for tr in trajectory.transitions)
        total_tokens += trajectory.total_output_tokens
    assert total_tokens > 0
    announce(10, f"{len(results)} live queries completed with {total_tokens} output tokens")
