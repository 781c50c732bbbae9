"""Command-line interface: index, run, eval, inspect.

Run configuration lives in a single JSON file; relative paths inside it
resolve against the config file's directory so a config can travel with
its data.  Secrets never appear in config files: the API key is read from
the environment variable the config names (SMR_API_KEY by default).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .engine import EngineConfig, run_batch, write_run_file, write_trace_file
from .errors import ConfigError, SmrError, TraceFormatError
from .evalx import METRIC_KEYS, analyze_traces, build_report, load_qrels, load_run_records
from .llm import ChatBackend, ChatRequest, HttpBackend, HttpEmbedder, ScriptedBackend
from .policy import PolicyConfig, load_policy_prompt
from .retrieval import (
    Bm25Retriever,
    DenseRetriever,
    Retriever,
    build_index,
    load_corpus,
    load_dense_store,
    load_index,
    save_index,
)
from .records import iter_jsonl, iter_traces, open_input, query_id_key

DEFAULT_API_KEY_ENV = "SMR_API_KEY"


def _config_str(block: dict, key: str, where: str, base: Path | None = None) -> str:
    """block[key], which must be a string; given a base, a path resolved against it."""
    value = block.get(key)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string")
    if base is None:
        return value
    path = Path(value)
    return str(path if path.is_absolute() else base / path)


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def load_queries(path: str) -> list[tuple[str, str]]:
    """Read queries as JSONL {query_id, text} records."""
    queries: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open_input(path, "queries", ConfigError) as fh:
        for lineno, record in iter_jsonl(fh, path, ConfigError, frozenset({"query_id", "text"})):
            query_id = query_id_key(record["query_id"], path, lineno, ConfigError)
            text = record["text"]
            if not isinstance(text, str) or not text.strip():
                raise ConfigError(f"{path}: line {lineno}: text must be a non-empty string")
            if query_id in seen:
                raise ConfigError(f"{path}: line {lineno}: duplicate query_id {query_id!r}")
            seen.add(query_id)
            queries.append((query_id, text))
    if not queries:
        raise ConfigError(f"{path}: queries file is empty")
    return queries


def _build(cls: type, block: dict, where: str) -> Any:
    """cls(**block), with unknown keys and invalid values raised as ConfigError."""
    _check_keys(block, {f.name for f in dataclasses.fields(cls)}, where)
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require_env(var: str) -> str:
    value = os.environ.get(var)
    if not value:
        raise ConfigError(f"environment variable {var} is not set")
    return value


class RunPlan:
    """Everything cmd_run needs, validated up front."""

    def __init__(self, config_path: str):
        with open_input(config_path, "config", ConfigError) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_path}: invalid JSON ({exc.msg})") from None
        try:
            self._parse(raw, Path(config_path).resolve().parent)
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from None

    def _parse(self, raw: Any, base: Path) -> None:
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(raw, {"retriever", "llm", "engine", "paths"}, "config")
        for section in ("retriever", "llm", "paths"):
            if section not in raw or not isinstance(raw[section], dict):
                raise ConfigError(f"config needs a {section!r} object")

        paths = raw["paths"]
        _check_keys(paths, {"queries", "run", "trace"}, "paths")
        self.queries_path = _config_str(paths, "queries", "paths", base)
        self.run_path = _config_str(paths, "run", "paths", base)
        self.trace_path = _config_str(paths, "trace", "paths", base)
        # Every file the run reads or writes, by config key, outputs first.
        files = {"paths.run": self.run_path, "paths.trace": self.trace_path, "paths.queries": self.queries_path}

        engine = raw.get("engine", {})
        if not isinstance(engine, dict) or not isinstance(engine.get("policy", {}), dict):
            raise ConfigError("engine and engine.policy must be objects")
        policy = dict(engine.get("policy", {}))
        if policy.get("prompt_path") is not None:
            policy["prompt_path"] = _config_str(policy, "prompt_path", "engine.policy", base)
            files["engine.policy.prompt_path"] = policy["prompt_path"]
        policy_config = _build(PolicyConfig, policy, "engine.policy")
        load_policy_prompt(policy_config.prompt_path)  # a missing prompt file fails here, before any query
        self.engine = _build(EngineConfig, {**engine, "policy": policy_config}, "engine")

        retriever = raw["retriever"]
        modes = [key for key in ("bm25_index", "dense_store") if key in retriever]
        if len(modes) != 1:
            raise ConfigError("retriever needs exactly one of bm25_index or dense_store")
        self.retriever_mode = modes[0]
        if self.retriever_mode == "bm25_index":
            _check_keys(retriever, {"bm25_index"}, "retriever")
            self.index_path = _config_str(retriever, "bm25_index", "retriever", base)
            files["retriever.bm25_index"] = self.index_path
        else:
            _check_keys(
                retriever,
                {"dense_store", "corpus", "embed_endpoint", "embed_model", "api_key_env"},
                "retriever",
            )
            self.dense_store_path = _config_str(retriever, "dense_store", "retriever", base)
            self.dense_corpus_path = _config_str(retriever, "corpus", "retriever", base)
            files["retriever.dense_store"] = self.dense_store_path
            files["retriever.corpus"] = self.dense_corpus_path
            self.embed_endpoint = _config_str(retriever, "embed_endpoint", "retriever")
            self.embed_model = _config_str(retriever, "embed_model", "retriever")
            self.embed_api_key_env = (
                _config_str(retriever, "api_key_env", "retriever") if "api_key_env" in retriever else None
            )

        llm_block = raw["llm"]
        llm_modes = [key for key in ("endpoint", "script") if key in llm_block]
        if len(llm_modes) != 1:
            raise ConfigError("llm needs exactly one of endpoint or script")
        self.llm_mode = llm_modes[0]
        if self.llm_mode == "endpoint":
            _check_keys(llm_block, {"endpoint", "model", "api_key_env"}, "llm")
            self.endpoint = _config_str(llm_block, "endpoint", "llm")
            self.model = _config_str(llm_block, "model", "llm")
            self.api_key_env = (
                _config_str(llm_block, "api_key_env", "llm") if "api_key_env" in llm_block else DEFAULT_API_KEY_ENV
            )
        else:
            _check_keys(llm_block, {"script"}, "llm")
            self.script_path = _config_str(llm_block, "script", "llm", base)
            files["llm.script"] = self.script_path

        resolved = {key: Path(path).resolve() for key, path in files.items()}
        for output in ("paths.run", "paths.trace"):
            for key, path in resolved.items():
                if key != output and path == resolved[output]:
                    raise ConfigError(f"{output} and {key} name the same file: {path}")

    def build_backend_factory(self) -> Callable[[str], ChatBackend]:
        if self.llm_mode == "endpoint":
            key = _require_env(self.api_key_env)
            endpoint, model = self.endpoint, self.model
            return lambda _query_id: HttpBackend(endpoint, model, api_key=key)
        with open_input(self.script_path, "script", ConfigError) as fh:
            try:
                script = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{self.script_path}: invalid JSON ({exc.msg})") from None

        def check_steps(steps: Any, where: str) -> list[str]:
            if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
                raise ConfigError(f"{self.script_path}: {where} must be a list of strings")
            return steps

        if not isinstance(script, dict):
            raise ConfigError(f"{self.script_path}: script must be a JSON object")
        table = {qid: check_steps(steps, f"entry {qid!r}") for qid, steps in script.items()}

        def factory(query_id: str) -> ChatBackend:
            if query_id in table:
                return ScriptedBackend(table[query_id])
            if "*" in table:
                return ScriptedBackend(table["*"])
            raise ConfigError(f"{self.script_path}: no script for query {query_id!r} and no '*' default")

        return factory

    def preflight(self) -> None:
        """One cheap endpoint call to fail fast before any query runs."""
        if self.llm_mode != "endpoint":
            return
        backend = HttpBackend(self.endpoint, self.model, api_key=_require_env(self.api_key_env))
        backend.complete(ChatRequest(system_text="", user_text="ping", temperature=0.0, max_output_tokens=1))

    def build_retriever(self) -> Retriever:
        if self.retriever_mode == "bm25_index":
            return Bm25Retriever(load_index(self.index_path))
        store = load_dense_store(self.dense_store_path)
        corpus = load_corpus(self.dense_corpus_path)
        doc_store = {doc.doc_id: doc for doc in corpus}
        api_key = _require_env(self.embed_api_key_env) if self.embed_api_key_env else None
        embedder = HttpEmbedder(self.embed_endpoint, self.embed_model, api_key=api_key)
        return DenseRetriever(store, doc_store, embedder)


def cmd_index(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_index(index, args.out)
    print(f"indexed {index.doc_count} documents -> {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    plan = RunPlan(args.config)
    # Fail fast on a dead endpoint before any query is consumed.
    plan.preflight()
    factory = plan.build_backend_factory()
    retriever = plan.build_retriever()
    queries = load_queries(plan.queries_path)

    results = run_batch(queries, retriever, factory, plan.engine)

    Path(plan.run_path).parent.mkdir(parents=True, exist_ok=True)
    Path(plan.trace_path).parent.mkdir(parents=True, exist_ok=True)
    with open(plan.run_path, "w", encoding="utf-8", newline="\n") as fh:
        write_run_file(results, fh)
    with open(plan.trace_path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace_file(results, fh)

    total_tokens = 0
    failures = 0
    for result in results:
        trajectory = result.trajectory
        if trajectory is None:
            failures += 1
            print(f"{result.query_id}\tfailed\t{result.error}")
            continue
        total_tokens += trajectory.total_output_tokens
        print(
            f"{result.query_id}\t{trajectory.stop_cause.value}"
            f"\tsteps={trajectory.step_count}\ttokens={trajectory.total_output_tokens}"
        )
    print(f"ran {len(results)} queries ({failures} failed), total output tokens {total_tokens}")
    print(f"run -> {plan.run_path}")
    print(f"trace -> {plan.trace_path}")
    return 1 if failures == len(results) and results else 0


def cmd_eval(args: argparse.Namespace) -> int:
    records = load_run_records(args.run)
    qrels = load_qrels(args.qrels)
    analytics = None
    if args.trace:
        with open_input(args.trace, "trace", TraceFormatError) as fh:
            analytics = analyze_traces(fh, name=args.trace)
    report = build_report(records, qrels, analytics=analytics)

    evaluated = len(report.per_query)
    print(
        f"queries evaluated: {evaluated}"
        f"  excluded: {len(report.excluded_queries)}  failed: {len(report.failed_queries)}"
    )
    if report.excluded_queries:
        print(f"excluded (no relevant judgments): {', '.join(report.excluded_queries)}")
    for metric, key in METRIC_KEYS.items():
        value = report.aggregate.get(key)
        print(f"{metric:<12} {value:.6f}" if value is not None else f"{metric:<12} n/a")
    if evaluated:
        print(f"mean steps   {report.aggregate['steps']:.3f}")
        print(f"mean tokens  {report.aggregate['output_tokens']:.1f}")
    print(f"total output tokens: {report.total_output_tokens}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")
        print(f"report -> {args.out}")
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
        print(f"csv -> {args.csv}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    found = None
    available: list[str] = []
    with open_input(args.trace, "trace", TraceFormatError) as fh:
        for trace in iter_traces(fh, args.trace):
            available.append(trace.query_id)
            if trace.query_id == args.query_id:
                found = trace
    if found is None:
        listed = ", ".join(available) or "(none)"
        print(f"query id {args.query_id!r} not found in {args.trace}; available: {listed}", file=sys.stderr)
        return 1
    if found.error is not None:
        print(f"query {args.query_id}: failed: {found.error}")
        return 0
    summary = found.summary
    assert summary is not None
    print(f"query {args.query_id}: {summary['steps']} steps, stop cause: {summary.get('stop_cause')}")
    for record in found.transitions:
        print(
            f"\nstep {record['step']}  {record['action']}"
            f"  temperature={record.get('temperature')}  output_tokens={record.get('output_tokens')}"
        )
        print(f"  query: {record.get('query')}")
        doc_ids = record.get("doc_ids")
        docs = ", ".join(map(str, doc_ids)) if isinstance(doc_ids, list) else ""
        print(f"  docs:  {docs or '(empty)'}")
        if record.get("reason"):
            print(f"  reason: {record['reason']}")
    print(f"\ntotal output tokens: {summary['output_tokens']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smr",
        description="Iterative retrieval: refine queries, rerank results, stop when stable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a BM25 index from a JSONL corpus")
    p_index.add_argument("--corpus", required=True, help="JSONL corpus of {doc_id, text}")
    p_index.add_argument("--out", required=True, help="where to write the index")
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="run the reasoning loop over a query set")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a run file against judgments")
    p_eval.add_argument("--run", required=True, help="run file from `smr run`")
    p_eval.add_argument("--qrels", required=True, help="judgments: query_id 0 doc_id grade")
    p_eval.add_argument("--out", default=None, help="write the full report JSON here")
    p_eval.add_argument("--trace", default=None, help="trace file; adds action analytics to the report")
    p_eval.add_argument("--csv", default=None, help="write per-query rows as CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="pretty-print one query's trace")
    p_inspect.add_argument("--trace", required=True, help="trace file from `smr run`")
    p_inspect.add_argument("--query-id", required=True, help="which query to show")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
