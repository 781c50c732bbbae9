"""Output checks for a benchmark run.  None of this is timed.

- Every query ends in the stop cause its plan was built for, and the run
  file, the trace file and the plan agree on the counts per cause.
- A seeded sample of initial retrievals equals the brute-force oracles in
  ``tests/oracles.py``.  The BM25 oracle recomputes document frequencies for
  every scored document, so at full size it is affordable only on rare-term
  queries; the smoke size samples both classes.
- The run file and the trace's semantic fields hash to the digest pinned for
  this workload, size and seed in ``pins.json``.  Only ``query_id``,
  ``step``, ``action``, ``query``, ``doc_ids``, ``output_tokens`` and
  ``stop_cause`` are hashed, so new trace fields do not trip the check.
- The run file scores against the qrels with ``smr eval``'s report builder.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

from smr.evalx import analyze_traces, build_report, load_qrels, load_run_records

from workloads import STOP_CAUSES, Inputs, embed_text

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
TRACE_FIELDS = ("query_id", "step", "action", "query", "doc_ids", "output_tokens", "stop_cause")


def digests(run_bytes: bytes, trace_bytes: bytes) -> dict[str, str]:
    semantic = []
    for line in trace_bytes.decode("utf-8").splitlines():
        record = json.loads(line)
        semantic.append({key: record[key] for key in TRACE_FIELDS if key in record})
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()
    return {
        "run": hashlib.sha256(run_bytes).hexdigest(),
        "trace": hashlib.sha256(canonical).hexdigest(),
    }


def pin_key(inputs: Inputs, size: str) -> str:
    return f"{inputs.workload.name}/{size}/{inputs.seed}"


def load_pins() -> dict[str, dict[str, str]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def save_pin(key: str, digest: dict[str, str]) -> None:
    pins = load_pins()
    pins[key] = digest
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _oracle_sample(inputs: Inputs, results, oracles, size: str) -> tuple[list[str], list[str]]:
    """(sampled query ids, ids whose initial retrieval differs from the oracle)."""
    w = inputs.workload
    rng = random.Random(inputs.seed)
    by_class = {cls: [r for r in results if inputs.query_class[r.query_id] == cls] for cls in ("common", "rare")}
    if w.retriever == "bm25":
        classes = ("rare",) if size == "full" else ("common", "rare")
        sample = [r for cls in classes for r in rng.sample(by_class[cls], 3 if size == "full" else 2)]
        with open(inputs.corpus_path, encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh]
        doc_tokens = {d["doc_id"]: oracles.oracle_tokenize(d["text"]) for d in docs}

        def expected(text: str) -> list[str]:
            return oracles.oracle_bm25_ranking(doc_tokens, oracles.oracle_tokenize(text), w.k)

    else:
        sample = rng.sample(results, 2 if size == "full" else 4)
        with open(inputs.embeddings_path, encoding="utf-8") as fh:
            vectors = {r["doc_id"]: r["vector"] for r in map(json.loads, fh)}

        def expected(text: str) -> list[str]:
            return oracles.oracle_dense_ranking(vectors, embed_text(inputs.seed, w.dim, text).tolist(), w.k)

    wrong = [
        r.query_id
        for r in sample
        if r.trajectory is None or list(r.trajectory.initial.docs.entries) != expected(r.query)
    ]
    return [r.query_id for r in sample], wrong


def check_outputs(inputs: Inputs, results, run_path: Path, trace_bytes: bytes, oracles, size: str):
    """(failed query ids, global problems, facts) for one pass's outputs."""
    failed = {
        r.query_id
        for r in results
        if r.error is not None or r.trajectory.stop_cause.value != inputs.expected_stop[r.query_id]
    }
    problems: list[str] = []

    records = load_run_records(str(run_path))
    expected_counts = Counter(inputs.expected_stop.values())
    run_counts = Counter(rec.get("stop_cause") for rec in records if "error" not in rec)
    traced = analyze_traces(io.StringIO(trace_bytes.decode("utf-8")), name="trace")
    trace_counts = Counter(info["stop_cause"] for info in traced.per_query.values())
    for cause in STOP_CAUSES:
        if not (expected_counts[cause] == run_counts[cause] == trace_counts[cause]):
            problems.append(
                f"{cause}: plan {expected_counts[cause]}, run file {run_counts[cause]}, trace {trace_counts[cause]}"
            )

    report = build_report(records, load_qrels(str(inputs.qrels_path)))
    if len(report.per_query) + len(report.excluded_queries) != len(results) or report.failed_queries:
        problems.append("run file does not score against its qrels")

    sampled, wrong = _oracle_sample(inputs, results, oracles, size)
    failed.update(wrong)

    facts = {
        "stop_counts": {cause: run_counts[cause] for cause in STOP_CAUSES},
        "oracle_sampled": sampled,
        "oracle_mismatches": wrong,
    }
    return failed, problems, facts
