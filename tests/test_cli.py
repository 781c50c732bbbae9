from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

import smr.cli
import smr.engine
from smr.cli import RunPlan, load_queries, main
from smr.errors import ConfigError
from smr.retrieval import build_index, load_corpus, save_index

from conftest import DATA_DIR, refine_json, rerank_json, stop_json

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

DENSE_BLOCK = {
    "dense_store": "store.jsonl",
    "corpus": "corpus.jsonl",
    "embed_endpoint": "http://127.0.0.1:9/v1/embeddings",
    "embed_model": "m",
}

TOY_SCRIPT = {
    "q1": [
        refine_json("LLM large language model definition"),
        rerank_json(["d3", "d1", "d4"]),
        stop_json(),
    ]
}


def build_workspace(
    tmp_path: Path,
    script=None,
    llm_block: dict | None = None,
    engine_block: dict | None = None,
    queries: list[dict] | None = None,
) -> Path:
    """Lay out an index file (a copy of the corpus), queries, script, and a
    config using relative paths."""
    shutil.copy(DATA_DIR / "corpus.jsonl", tmp_path / "index.json")
    queries = queries if queries is not None else [{"query_id": "q1", "text": "what is an LLM"}]
    with open(tmp_path / "queries.jsonl", "w", encoding="utf-8") as fh:
        for record in queries:
            fh.write(json.dumps(record) + "\n")
    config: dict = {
        "retriever": {"bm25_index": "index.json"},
        "llm": llm_block or {"script": "script.json"},
        "paths": {"queries": "queries.jsonl", "run": "out/run.jsonl", "trace": "out/trace.jsonl"},
    }
    if engine_block is not None:
        config["engine"] = engine_block
    if llm_block is None:
        (tmp_path / "script.json").write_text(
            json.dumps(script if script is not None else TOY_SCRIPT), encoding="utf-8"
        )
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return tmp_path / "config.json"


class TestIndexCommand:
    """`smr index` is gone: `smr run` reads the corpus file it took."""

    def test_is_an_unknown_command(self, tmp_path, capsys, monkeypatch):
        shutil.copy(DATA_DIR / "corpus.jsonl", tmp_path / "corpus.jsonl")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "--corpus", "corpus.jsonl", "--out", "index.json"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: smr [-h] {run,eval,inspect} ...\n")
        assert "invalid choice: 'index'" in err
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_missing_corpus_named(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        config.write_text(
            json.dumps({**json.loads(config.read_text()), "retriever": DENSE_BLOCK}), encoding="utf-8"
        )
        (tmp_path / "store.jsonl").write_text('{"doc_id": "d1", "vector": [1, 0]}\n', encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: corpus file not found: {tmp_path / 'corpus.jsonl'}\n"
        assert not (tmp_path / "out").exists()


class TestLoadQueries:
    def test_jsonl_mode(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"query_id": "a", "text": "one"}\n{"query_id": "b", "text": "two"}\n')
        assert load_queries(str(path)) == [("a", "one"), ("b", "two")]

    @pytest.mark.parametrize(
        "text",
        ['{"query_id": "a", "text": "one"\n{"query_id": "b", "text": "two"}\n', "first query\n\nsecond query\n"],
        ids=["broken-first-line", "plain-text"],
    )
    def test_only_jsonl_is_read(self, tmp_path, text):
        path = tmp_path / "queries.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 1: invalid JSON"):
            load_queries(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"query_id": "a", "text": "one"}\n{"query_id": "a", "text": "two"}\n')
        with pytest.raises(ConfigError, match="duplicate query_id"):
            load_queries(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ConfigError, match="empty"):
            load_queries(str(path))

    def test_blank_text_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"query_id": "a", "text": "  "}\n')
        with pytest.raises(ConfigError, match="non-empty"):
            load_queries(str(path))

    @pytest.mark.parametrize(
        "raw_id, loaded_id",
        [("null", None), ("1.5", None), ("true", None), ('["x"]', None), ('"q1"', "q1"), ("7", "7")],
    )
    def test_query_id_must_be_string_or_integer(self, tmp_path, raw_id, loaded_id):
        path = tmp_path / "queries.jsonl"
        path.write_text(f'{{"query_id": {raw_id}, "text": "one"}}\n')
        if loaded_id is None:
            with pytest.raises(ConfigError) as excinfo:
                load_queries(str(path))
            assert str(excinfo.value) == f"{path}: line 1: query_id must be a string or an integer"
        else:
            assert load_queries(str(path)) == [(loaded_id, "one")]


class TestRunPlan:
    def test_script_lacking_a_query_fails_when_made(self, tmp_path):
        queries = [{"query_id": "q1", "text": "what is an LLM"}, {"query_id": "q2", "text": "pasta cooking"}]
        config = build_workspace(tmp_path, queries=queries)
        with pytest.raises(ConfigError) as caught:
            RunPlan(str(config))
        assert str(caught.value) == f"{tmp_path / 'script.json'}: no script for query 'q2'"

    def test_queries_read_when_made(self, tmp_path):
        plan = RunPlan(str(build_workspace(tmp_path)))
        assert plan.queries == load_queries(plan.queries_path) == [("q1", "what is an LLM")]

    def test_unset_api_key_fails_when_made(self, tmp_path, endpoint, monkeypatch):
        monkeypatch.delenv("SMR_API_KEY", raising=False)
        config = build_workspace(tmp_path, llm_block={"endpoint": endpoint.url, "model": "test-model"})
        with pytest.raises(ConfigError, match="^environment variable SMR_API_KEY is not set$"):
            RunPlan(str(config))
        assert endpoint.received == []

    def test_unset_embed_key_fails_before_the_store_loads(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SMR_TEST_EMBED_KEY", raising=False)
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw["retriever"] = {**DENSE_BLOCK, "api_key_env": "SMR_TEST_EMBED_KEY"}  # store.jsonl does not exist
        config.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="^environment variable SMR_TEST_EMBED_KEY is not set$"):
            RunPlan(str(config))


class TestRunCommand:
    def test_scripted_toy_run(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        rc = main(["run", "--config", str(config)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "q1\tpolicy-stop\tsteps=2" in stdout
        assert "ran 1 queries (0 failed)" in stdout
        record = json.loads((tmp_path / "out" / "run.jsonl").read_text())
        assert record["ranked_doc_ids"] == ["d3", "d1", "d4"]
        assert record["stop_cause"] == "policy-stop"
        assert record["steps"] == 2

    def test_interrupt_exits_130_with_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(smr.cli, "run_batch", interrupted)
        config = build_workspace(tmp_path)
        assert main(["run", "--config", str(config)]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert not (tmp_path / "out" / "run.jsonl").exists()

    def test_trace_file_written(self, tmp_path):
        config = build_workspace(tmp_path)
        main(["run", "--config", str(config)])
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["action"] == "refine"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = build_workspace(tmp_path)
        main(["run", "--config", str(config)])
        first = (
            (tmp_path / "out" / "run.jsonl").read_bytes(),
            (tmp_path / "out" / "trace.jsonl").read_bytes(),
        )
        main(["run", "--config", str(config)])
        second = (
            (tmp_path / "out" / "run.jsonl").read_bytes(),
            (tmp_path / "out" / "trace.jsonl").read_bytes(),
        )
        assert first == second

    def test_broken_queries_line_fails_before_any_output(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"query_id": "q1", "text": "what is an LLM"\n{"query_id": "q2", "text": "pasta"}\n')
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {queries}: line 1: invalid JSON")
        assert not (tmp_path / "out").exists()

    def test_list_script_rejected(self, tmp_path, capsys):
        config = build_workspace(tmp_path, script=[stop_json()])
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'script.json'}: script must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--max-steps", "--k", "--batch-size"])
    def test_engine_settings_come_only_from_config(self, tmp_path, capsys, flag):
        config = build_workspace(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(config), flag, "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "blocks, output, clash",
        [
            ({"paths": {"queries": "queries.jsonl", "run": "out/a.jsonl", "trace": "out/./a.jsonl"}},
             "paths.run", "paths.trace"),
            ({"paths": {"queries": "queries.jsonl", "run": "q/../queries.jsonl", "trace": "t.jsonl"}},
             "paths.run", "paths.queries"),
            ({"paths": {"queries": "queries.jsonl", "run": "r.jsonl", "trace": "index.json"}},
             "paths.trace", "retriever.bm25_index"),
            ({"paths": {"queries": "queries.jsonl", "run": "script.json", "trace": "t.jsonl"}},
             "paths.run", "llm.script"),
            ({"paths": {"queries": "queries.jsonl", "run": "store.jsonl", "trace": "t.jsonl"},
              "retriever": DENSE_BLOCK},
             "paths.run", "retriever.dense_store"),
            ({"paths": {"queries": "queries.jsonl", "run": "r.jsonl", "trace": "corpus.jsonl"},
              "retriever": DENSE_BLOCK},
             "paths.trace", "retriever.corpus"),
        ],
        ids=["run-trace", "run-queries", "trace-index", "run-script", "run-store", "trace-corpus"],
    )
    def test_output_path_clash_rejected_before_any_output(self, tmp_path, capsys, blocks, output, clash):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw.update(blocks)
        config.write_text(json.dumps(raw))
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(config)]) == 1
        target = (tmp_path / raw["paths"][output.removeprefix("paths.")]).resolve()
        assert capsys.readouterr().err == f"error: {config}: {output} and {clash} name the same file: {target}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_output_symlinked_to_input_rejected(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trace.jsonl").symlink_to(tmp_path / "queries.jsonl")
        assert main(["run", "--config", str(config)]) == 1
        queries = (tmp_path / "queries.jsonl").resolve()
        assert capsys.readouterr().err == f"error: {config}: paths.trace and paths.queries name the same file: {queries}\n"
        assert not (tmp_path / "out" / "run.jsonl").exists()

    def test_star_is_an_ordinary_script_key(self, tmp_path, capsys):
        queries = [
            {"query_id": "q1", "text": "what is an LLM"},
            {"query_id": "q2", "text": "pasta cooking"},
        ]
        config = build_workspace(tmp_path, script={"*": [stop_json()]}, queries=queries)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'script.json'}: no script for query 'q1'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_script_entry_is_config_error(self, tmp_path, capsys):
        config = build_workspace(tmp_path, script={"other": [stop_json()]})
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'script.json'}: no script for query 'q1'\n"

    def test_script_lacking_a_query_fails_before_any_query_runs(self, tmp_path, capsys, monkeypatch):
        queries = [
            {"query_id": "q1", "text": "what is an LLM"},
            {"query_id": "q2", "text": "pasta cooking"},
        ]
        config = build_workspace(tmp_path, queries=queries, engine_block={"batch_size": 1})
        calls = []
        run_trajectory = smr.engine.run_trajectory
        monkeypatch.setattr(
            smr.engine, "run_trajectory", lambda *args: calls.append(args[0]) or run_trajectory(*args)
        )
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'script.json'}: no script for query 'q2'\n"
        assert not (tmp_path / "out").exists()
        assert calls == []

    def test_exhausted_script_fails_query_not_command(self, tmp_path, capsys):
        queries = [
            {"query_id": "q1", "text": "what is an LLM"},
            {"query_id": "q2", "text": "pasta cooking"},
        ]
        script = {"q1": [], "q2": [stop_json()]}
        config = build_workspace(tmp_path, script=script, queries=queries)
        rc = main(["run", "--config", str(config)])
        assert rc == 0  # one query survived
        stdout = capsys.readouterr().out
        assert "q1\tfailed\tScriptExhaustedError" in stdout
        assert "ran 2 queries (1 failed)" in stdout
        lines = (tmp_path / "out" / "run.jsonl").read_text().splitlines()
        assert "error" in json.loads(lines[0])
        assert json.loads(lines[1])["stop_cause"] == "policy-stop"

    def test_every_query_failing_returns_nonzero(self, tmp_path):
        config = build_workspace(tmp_path, script={"q1": []})
        assert main(["run", "--config", str(config)]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw["extra"] = True
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_two_retriever_modes_rejected(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw["retriever"]["dense_store"] = "store.jsonl"
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_dense_mode_requires_embedding_fields(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw["retriever"] = {"dense_store": "store.jsonl"}
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 1
        assert "retriever.corpus" in capsys.readouterr().err

    def test_huge_integer_in_embeddings_is_a_corpus_error(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw["retriever"] = DENSE_BLOCK
        config.write_text(json.dumps(raw))
        shutil.copy(DATA_DIR / "corpus.jsonl", tmp_path / "corpus.jsonl")
        store = tmp_path / "store.jsonl"
        store.write_text('{"doc_id": "a", "vector": [1' + "0" * 400 + ", 0]}\n")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {store}: line 1: vector must be a non-empty list of numbers\n"

    def test_unknown_engine_key_rejected(self, tmp_path, capsys):
        config = build_workspace(tmp_path, engine_block={"step_limit": 4})
        assert main(["run", "--config", str(config)]) == 1
        assert "engine: unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, blocks",
        [
            ("retriever.bm25_index", {"retriever": {"bm25_index": 7}}),
            ("retriever.dense_store", {"retriever": {**DENSE_BLOCK, "dense_store": 7}}),
            ("retriever.api_key_env", {"retriever": {**DENSE_BLOCK, "api_key_env": 7}}),
            ("llm.script", {"llm": {"script": 7}}),
            ("llm.api_key_env", {"llm": {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "api_key_env": 7}}),
            ("retriever.corpus", {"retriever": {**DENSE_BLOCK, "corpus": 7}}),
            ("paths.queries", {"paths": {"queries": 7, "run": "run.jsonl", "trace": "trace.jsonl"}}),
        ],
    )
    def test_non_string_config_value_named(self, tmp_path, capsys, key, blocks):
        config = build_workspace(tmp_path)
        raw = json.loads(config.read_text())
        raw.update(blocks)
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {key} must be a string\n"

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("engine", "k", 2.5),
            ("engine", "max_steps", True),
            ("engine", "batch_size", 2.0),
            ("engine", "max_list_size", 100.0),
            ("engine.policy", "max_attempts", 2.0),
        ],
    )
    def test_non_integer_count_rejected_before_any_query(self, tmp_path, capsys, where, key, value):
        block = {key: value} if where == "engine" else {"policy": {key: value}}
        config = build_workspace(tmp_path, engine_block=block)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {where}: {key} must be an integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("base_temperature", 0.0),
            ("temperature_increment", 0.1),
            ("doc_snippet_chars", 2000),
            ("max_output_tokens", 1024),
            ("prompt_path", None),
        ],
    )
    def test_fixed_policy_setting_rejected_before_any_output(self, tmp_path, capsys, key, value):
        config = build_workspace(tmp_path, engine_block={"policy": {key: value}})
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: engine.policy: unknown keys ['{key}']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing, kind", [("queries.jsonl", "queries"), ("index.json", "corpus")])
    def test_missing_input_file_named(self, tmp_path, capsys, missing, kind):
        config = build_workspace(tmp_path)
        (tmp_path / missing).unlink()
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {kind} file not found: {tmp_path / missing}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"doc_id": "d1", "text": "fine"}\nnot json\n', "line 2: invalid JSON (Expecting value)"),
            ('{"doc_id": "d1", "text": "a"}\n{"doc_id": "d1", "text": "b"}\n', "line 2: duplicate doc_id 'd1'"),
            ("\n", "corpus file contains no documents"),
        ],
        ids=["malformed-line", "duplicate-doc-id", "empty-file"],
    )
    def test_bad_corpus_line_named_before_any_output(self, tmp_path, capsys, text, message):
        config = build_workspace(tmp_path)
        corpus = tmp_path / "index.json"
        corpus.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {corpus}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_old_format_index_is_one_line_error(self, tmp_path, capsys):
        config = build_workspace(tmp_path)
        index = tmp_path / "index.json"
        docs = [{"doc_id": "d1", "text": "apple"}]
        index.write_text(json.dumps({"format": "smr-index-v1", "docs": docs}) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {index}: line 1: expected an object with doc_id and text\n"
        assert not (tmp_path / "out").exists()


class TestRunEndpointMode:
    def endpoint_config(self, tmp_path, endpoint) -> Path:
        return build_workspace(
            tmp_path, llm_block={"endpoint": endpoint.url, "model": "test-model"}
        )

    def test_end_to_end_over_http(self, tmp_path, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SMR_API_KEY", "secret-key")
        config = build_workspace(
            tmp_path, llm_block={"endpoint": endpoint.url, "model": "test-model"}, engine_block={"batch_size": 1}
        )
        rc = main(["run", "--config", str(config)])
        assert rc == 0
        record = json.loads((tmp_path / "out" / "run.jsonl").read_text())
        assert record["stop_cause"] == "policy-stop"
        # Preflight ping plus one decision call.
        assert len(endpoint.received) == 2
        assert endpoint.received[0]["max_tokens"] == 1
        assert endpoint.received[0]["model"] == "test-model"
        assert endpoint.received[1]["max_tokens"] == 1024

    def test_missing_api_key_names_variable(self, tmp_path, endpoint, monkeypatch, capsys):
        monkeypatch.delenv("SMR_API_KEY", raising=False)
        config = self.endpoint_config(tmp_path, endpoint)
        assert main(["run", "--config", str(config)]) == 1
        assert "SMR_API_KEY" in capsys.readouterr().err
        assert endpoint.received == []

    def test_prompt_path_fails_before_the_ping(self, tmp_path, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SMR_API_KEY", "secret-key")
        config = build_workspace(
            tmp_path,
            llm_block={"endpoint": endpoint.url, "model": "test-model"},
            engine_block={"policy": {"prompt_path": "prompt.txt"}},
        )
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: engine.policy: unknown keys ['prompt_path']\n"
        assert endpoint.received == []
        assert not (tmp_path / "out").exists()

    def test_broken_queries_line_fails_before_any_endpoint_call(self, tmp_path, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SMR_API_KEY", "secret-key")
        config = self.endpoint_config(tmp_path, endpoint)
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"query_id": "q1", "text": "what is an LLM"\n')
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {queries}: line 1: invalid JSON")
        assert endpoint.received == []
        assert not (tmp_path / "out").exists()

    def test_preflight_failure_stops_before_any_output(self, tmp_path, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SMR_API_KEY", "secret-key")
        endpoint.push({"error": "bad key"}, status=401)
        config = self.endpoint_config(tmp_path, endpoint)
        assert main(["run", "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.jsonl").exists()
        assert len(endpoint.received) == 1  # nothing past the ping


def completed_run(tmp_path) -> Path:
    config = build_workspace(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    return tmp_path / "out"


class TestEvalCommand:
    def test_perfect_toy_scores(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        capsys.readouterr()
        rc = main(["eval", "--run", str(out / "run.jsonl"), "--qrels", str(DATA_DIR / "qrels.txt")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "queries evaluated: 1" in stdout
        for metric in ("ndcg@10", "map@10", "recall@10"):
            assert f"{metric:<12} 1.000000" in stdout

    def test_metrics_flag_is_gone(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        capsys.readouterr()
        argv = ["eval", "--run", str(out / "run.jsonl"), "--qrels", str(DATA_DIR / "qrels.txt")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--metrics", "ndcg@10"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --metrics" in capsys.readouterr().err

    def test_csv_flag_is_gone(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        capsys.readouterr()
        argv = ["eval", "--run", str(out / "run.jsonl"), "--qrels", str(DATA_DIR / "qrels.txt")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--csv", str(tmp_path / "rows.csv")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_report_output(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "eval",
                "--run",
                str(out / "run.jsonl"),
                "--qrels",
                str(DATA_DIR / "qrels.txt"),
                "--trace",
                str(out / "trace.jsonl"),
                "--out",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["ndcg10"] == pytest.approx(1.0)
        assert report["action_histogram"] == {"refine": 1, "rerank": 1}
        assert report["step_depth_cumulative"] == [1, 1]
        assert report["per_query"]["q1"]["ndcg10"] == pytest.approx(1.0)

    def test_excluded_query_reported(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("other 0 d1 1\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--run", str(out / "run.jsonl"), "--qrels", str(qrels)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "excluded: 1" in stdout
        assert "excluded (no relevant judgments): q1" in stdout
        assert "ndcg@10      n/a" in stdout

    @pytest.mark.parametrize("flag, kind", [("--run", "run"), ("--qrels", "qrels"), ("--trace", "trace")])
    def test_missing_input_file_named(self, tmp_path, capsys, flag, kind):
        out = completed_run(tmp_path)
        absent = tmp_path / "absent.jsonl"
        capsys.readouterr()
        # A repeated flag overrides the earlier one.
        rc = main(["eval", "--run", str(out / "run.jsonl"), "--qrels", str(DATA_DIR / "qrels.txt"), flag, str(absent)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {kind} file not found: {absent}\n"

    @pytest.mark.parametrize(
        "output, clash",
        [("--out", "--run"), ("--out", "--qrels"), ("--out", "--trace")],
    )
    def test_output_naming_another_file_rejected_before_any_read(self, tmp_path, capsys, output, clash):
        out = completed_run(tmp_path)
        shutil.copy(DATA_DIR / "qrels.txt", tmp_path / "qrels.txt")
        files = {
            "--run": out / "run.jsonl", "--qrels": tmp_path / "qrels.txt", "--trace": out / "trace.jsonl",
            "--out": tmp_path / "report.json",
        }
        target = files[clash]
        files[output] = target.parent / "sub" / ".." / target.name
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        capsys.readouterr()
        assert main(["eval", *(arg for flag, path in files.items() for arg in (flag, str(path)))]) == 1
        assert capsys.readouterr().err == f"error: {output} and {clash} name the same file: {target.resolve()}\n"
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


STOP_TRANSITION = {
    "query_id": "q1", "step": 1, "action": "stop", "query": "q", "doc_ids": ["d1", "d2"],
    "reason": None, "output_tokens": 0, "temperature": 0.0, "stop_cause": "policy-stop",
}
STOP_SUMMARY = {"query_id": "q1", "steps": 0, "output_tokens": 0, "stop_cause": "policy-stop"}


class TestInspectCommand:
    def test_pretty_prints_trajectory(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        capsys.readouterr()
        rc = main(["inspect", "--trace", str(out / "trace.jsonl"), "--query-id", "q1"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "query q1: 2 steps, stop cause: policy-stop" in stdout
        assert "step 1  refine" in stdout
        assert "step 2  rerank" in stdout
        assert "step 3  stop" in stdout
        assert "docs:  d3, d1, d4" in stdout
        assert "total output tokens:" in stdout

    def test_unknown_query_lists_available(self, tmp_path, capsys):
        out = completed_run(tmp_path)
        rc = main(["inspect", "--trace", str(out / "trace.jsonl"), "--query-id", "zz"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'zz' not found" in err
        assert "available: q1" in err

    def test_failed_query_shown_as_failure(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"query_id": "x", "error": "boom"}) + "\n", encoding="utf-8")
        rc = main(["inspect", "--trace", str(trace), "--query-id", "x"])
        assert rc == 0
        assert "query x: failed: boom" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "records, lineno",
        [
            ([STOP_TRANSITION, STOP_SUMMARY, "not json"], 3),
            ([{"query_id": "q1", "action": "stop"}], 1),
            ([{"query_id": "q1", "output_tokens": 1, "stop_cause": "policy-stop"}], 1),
            ([{"query_id": "q1", "steps": 0, "output_tokens": 0, "stop_cause": "bogus"}], 1),
            ([{**STOP_TRANSITION, "query": 7, "doc_ids": "d1,d2", "temperature": "hot"}, STOP_SUMMARY], 1),
            ([{**STOP_TRANSITION, "query": 7}, STOP_SUMMARY], 1),
            ([{**STOP_TRANSITION, "doc_ids": "d1,d2"}, STOP_SUMMARY], 1),
            ([{**STOP_TRANSITION, "temperature": "hot"}, STOP_SUMMARY], 1),
            ([{**STOP_TRANSITION, "reason": 3}, STOP_SUMMARY], 1),
            ([STOP_TRANSITION, {**STOP_SUMMARY, "stop_cause": "step-cap"}], 2),
            ([{"query_id": "q1", "error": None}], 1),
        ],
        ids=[
            "invalid-json",
            "transition-without-step",
            "summary-without-steps",
            "bare-summary",
            "mistyped-transition",
            "non-string-query",
            "doc-ids-not-a-list",
            "string-temperature",
            "non-string-reason",
            "summary-cause-disagrees",
            "null-error",
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, records, lineno):
        trace = tmp_path / "trace.jsonl"
        lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["inspect", "--trace", str(trace), "--query-id", "q1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {trace}: line {lineno}: ")

    def test_missing_trace_named(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["inspect", "--trace", str(trace), "--query-id", "q1"]) == 1
        assert capsys.readouterr().err == f"error: trace file not found: {trace}\n"


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "kind, name, command",
        [
            ("corpus", "corpus.jsonl", ["run", "--config", "dense.json"]),
            ("queries", "queries.jsonl", ["run", "--config", "config.json"]),
            ("corpus", "index.json", ["run", "--config", "config.json"]),
            ("config", "config.json", ["run", "--config", "config.json"]),
            ("script", "script.json", ["run", "--config", "config.json"]),
            ("qrels", "qrels.txt", ["eval", "--run", "out/run.jsonl", "--qrels", "qrels.txt"]),
            ("run", "out/run.jsonl", ["eval", "--run", "out/run.jsonl", "--qrels", "qrels.txt"]),
            ("trace", "out/trace.jsonl", ["inspect", "--trace", "out/trace.jsonl", "--query-id", "q1"]),
        ],
    )
    def test_file_named_without_traceback(self, tmp_path, capsys, monkeypatch, kind, name, command):
        config = build_workspace(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        shutil.copy(DATA_DIR / "corpus.jsonl", tmp_path / "corpus.jsonl")
        (tmp_path / "store.jsonl").write_text('{"doc_id": "d1", "vector": [1, 0]}\n', encoding="utf-8")
        (tmp_path / "dense.json").write_text(
            json.dumps({**json.loads(config.read_text()), "retriever": DENSE_BLOCK}), encoding="utf-8"
        )
        shutil.copy(DATA_DIR / "qrels.txt", tmp_path / "qrels.txt")
        target = tmp_path / name
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2] + b"\xe9" + data[len(data) // 2 :])
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(command) == 1
        err = capsys.readouterr().err
        path = target if kind in ("corpus", "queries", "script") else name
        assert err == f"error: {kind} file {path}: not UTF-8 (byte 0xe9: invalid continuation byte)\n"


class TestToyGolden:
    def test_index_and_run_reproduce_golden_outputs(self, tmp_path):
        # The BM25 set-up the benchmark runs: build_index and save_index, then smr run on the saved file.
        toy = tmp_path / "toy"
        shutil.copytree(DATA_DIR, toy, ignore=shutil.ignore_patterns("out"))
        save_index(build_index(load_corpus(str(toy / "corpus.jsonl"))), str(toy / "index.json"))
        config = json.loads((toy / "run_config.json").read_text(encoding="utf-8"))
        config["retriever"]["bm25_index"] = "index.json"
        (toy / "run_config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(toy / "run_config.json")]) == 0
        for name in ("run.jsonl", "trace.jsonl"):
            assert (toy / "out" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    def test_corpus_file_serves_as_index(self, tmp_path):
        toy = tmp_path / "toy"
        shutil.copytree(DATA_DIR, toy, ignore=shutil.ignore_patterns("out"))
        config = json.loads((toy / "run_config.json").read_text(encoding="utf-8"))
        assert config["retriever"]["bm25_index"] == "corpus.jsonl"
        assert main(["run", "--config", str(toy / "run_config.json")]) == 0
        out = toy / "out"
        assert main([
            "eval", "--run", str(out / "run.jsonl"), "--qrels", str(toy / "qrels.txt"),
            "--trace", str(out / "trace.jsonl"), "--out", str(out / "report.json"),
        ]) == 0
        for name in ("run.jsonl", "trace.jsonl", "report.json"):
            assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
