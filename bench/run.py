"""Benchmark for `smr run`: end-to-end cost per workload, plus a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bm25-scripted --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run generates its inputs from ``--seed`` (see ``workloads.py``), sets
the retriever up the way a user gets there, runs the query set through
``run_batch`` and writes the run and trace files, as ``smr run`` does, in
passes until ``--seconds`` is used up (at least one pass, after an untimed
warm-up on a tenth of the queries), then checks the
outputs (see ``checks.py``).  All queries run in one process as a closed
loop with ``batch_size`` 2: at most two trajectories, and two connections,
are in flight.

``--trace 0`` reports the end-to-end metrics.  Set-up runs three to nine
times and reports the median; the query phase carries one start/end stamp per
trajectory and no other instrumentation.  ``--trace 1`` sets up once under
the tracer, then alternates untraced and traced passes over the same
queries and reports the per-layer metrics.  Both passes must write
byte-identical files.  Per-layer metrics that a workload never exercises
(BM25 index steps on ``dense-long``, loopback connection counts on the
scripted workloads) read 0.

Workloads, metrics and what each layer metric should move are described in
``README.md`` next to this file; why each workload was chosen is recorded in
BENCHMARK.json.  The corpora are smaller than a first plan (20k BM25 docs,
10k dense vectors): with three set-ups per run, 20k docs make one run take
over a minute, and every run of every workload has to fit the time the full
benchmark is given.

The last line of output is the result object; the line before it is a
detail object with the machine, sample counts and check results.  Exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_MIN times, and while it has used less than
# SETUP_BUDGET_S, at most SETUP_MAX times: short set-ups get more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 6.0
# Untimed warm-up before the first timed pass: this share of the queries
# through run_batch, outputs discarded.  Without it the first pass after
# set-up runs about 10% slower than the ones after it.
WARMUP_SHARE = 0.1
# engine.layer_sum_ratio: traced layer self times over untraced trajectory
# time.  Run-to-run drift of the host's speed alone moves it by about 10%.
LAYER_SUM_TOLERANCE = (0.8, 1.25)


def _load_program():
    """Put the checkout's own package first on the path; return tests/oracles.py."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracles.py"
    if not (src / "smr" / "__init__.py").is_file() or not oracle_path.is_file():
        raise SystemExit(f"error: no src/smr or tests/oracles.py under {ROOT}")
    sys.path.insert(0, str(src))
    import smr

    if Path(smr.__file__).resolve().parent != (src / "smr").resolve():
        raise SystemExit(f"error: imported smr from {smr.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("smr_bench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    Query latencies on the BM25 workloads are bimodal (rare-term queries are
    two orders of magnitude faster), so the plain sample median falls in the
    sparse gap between the modes and jumps from run to run; weighting the
    order statistics around the quantile keeps the estimate steady.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return 0.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 16
    grid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    weights = np.exp(log_density - log_density.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def blas_threads() -> int | None:
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


class Stub:
    """The loopback LLM stub as a child process; closed by closing its stdin."""

    def __init__(self, table: Path, latency_s: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), "--table", str(table),
             "--latency-ms", str(latency_s * 1000.0)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("loopback stub did not start")
        self.base = f"http://127.0.0.1:{port}"

    def stats(self) -> dict[str, int]:
        import requests

        return requests.get(f"{self.base}/stats", timeout=10).json()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(inputs, plan, call):
    """Corpus files on disk to a retriever ready for the first query.

    BM25 is ``smr index`` (load_corpus, build_index, save_index) and then
    ``smr run``'s load_index.  Dense is load_dense_store, load_corpus and
    DenseRetriever with the in-process embedder.
    """
    from smr.retrieval import (
        Bm25Retriever,
        DenseRetriever,
        build_index,
        load_corpus,
        load_dense_store,
        load_index,
        save_index,
    )
    from workloads import embed_text

    w = inputs.workload
    if w.retriever == "bm25":
        corpus = call("load_corpus", load_corpus, str(inputs.corpus_path))
        index = call("build_index", build_index, corpus)
        call("save_index", save_index, index, plan.index_path)
        del corpus, index
        return Bm25Retriever(call("load_index", load_index, plan.index_path))
    store = call("load_dense_store", load_dense_store, plan.dense_store_path, plan.embed_endpoint)
    corpus = call("load_corpus", load_corpus, plan.dense_corpus_path)
    embed = functools.partial(embed_text, inputs.seed, w.dim)
    return call("dense_retriever", DenseRetriever, store, {d.doc_id: d for d in corpus}, embed)


def _plain_call(_name, fn, *args):
    return fn(*args)


def query_pass(queries, retriever, factory, cfg, plan, call=_plain_call):
    """run_batch, then the run and trace files; returns (results, seconds, run, trace)."""
    import smr.engine

    start = time.perf_counter()
    results = call("run_batch", smr.engine.run_batch, queries, retriever, factory, cfg)
    with open(plan.run_path, "w", encoding="utf-8", newline="\n") as fh:
        smr.engine.write_run_file(results, fh)
    with open(plan.trace_path, "w", encoding="utf-8", newline="\n") as fh:
        smr.engine.write_trace_file(results, fh)
    elapsed = time.perf_counter() - start
    return results, elapsed, Path(plan.run_path).read_bytes(), Path(plan.trace_path).read_bytes()


def layer_metrics(tracer, setup_tracer, inputs, plan, untraced_times, pass_times, traced_times,
                  stub_delta, trace_mb) -> dict[str, float]:
    from tracer import LAYER_OF
    from workloads import STOP_CAUSES

    w = inputs.workload
    trajectories = tracer.named("run_trajectory")
    n_traj = len(trajectories)
    traj_time = sum(s.duration for s in trajectories)
    layer_self = Counter()
    for span in tracer.spans:
        if span.name in LAYER_OF:
            layer_self[LAYER_OF[span.name]] += span.self_time
    share = {layer: layer_self[layer] / traj_time for layer in ("retrieval", "llm", "policy", "actions", "engine")}

    def ms(spans):
        return [s.duration * 1000.0 for s in spans]

    searches = tracer.named("search")
    by_class = {cls: [s for s in searches if inputs.query_class.get(s.query_id) == cls] for cls in ("common", "rare")}
    completes = tracer.named("complete")
    decides = tracer.named("decide")
    parses = tracer.named("parse_decision")
    renders = tracer.named("render_policy_prompt")
    refines = tracer.named("exec_refine")
    reranks = tracer.named("exec_rerank")
    latency_ms = w.latency_s * 1000.0
    setup = {s.name: s.duration for s in setup_tracer.spans}
    retrieved = sum(s.info.get("retrieved", 0) for s in refines)
    stops = Counter(s.info.get("stop_cause") for s in trajectories)
    writes = [
        a.duration + b.duration
        for a, b in zip(tracer.named("write_run_file"), tracer.named("write_trace_file"))
    ]
    layer_sum = sum(layer_self.values()) / n_traj
    untraced_mean = _mean(untraced_times)
    metrics = {
        "retrieval.search_ms_p50": quantile(ms(searches), 0.5),
        "retrieval.search_ms_p50.common": quantile(ms(by_class["common"]), 0.5),
        "retrieval.search_ms_p95.common": quantile(ms(by_class["common"]), 0.95),
        "retrieval.search_ms_p50.rare": quantile(ms(by_class["rare"]), 0.5),
        "retrieval.search_share": share["retrieval"],
        "retrieval.searches_per_query": len(searches) / n_traj,
        "retrieval.results_per_search": _mean([s.info.get("results", 0) for s in searches]),
        "retrieval.build_index_s": setup.get("build_index", 0.0),
        "retrieval.save_index_s": setup.get("save_index", 0.0),
        "retrieval.load_index_s": setup.get("load_index", 0.0),
        "retrieval.index_mb": (
            Path(plan.index_path).stat().st_size / 1e6 if w.retriever == "bm25" else 0.0
        ),
        "retrieval.load_dense_store_s": setup.get("load_dense_store", 0.0),
        "retrieval.load_corpus_s": setup.get("load_corpus", 0.0),
        "llm.calls_per_query": len(completes) / n_traj,
        "llm.call_ms_p50": quantile(ms(completes), 0.5),
        "llm.call_ms_p95": quantile(ms(completes), 0.95),
        "llm.share": share["llm"],
        "llm.overhead_ms_p50": quantile([t - latency_ms for t in ms(completes)], 0.5),
        "llm.connections_per_request": (
            stub_delta["connections"] / stub_delta["requests"] if stub_delta else 0.0
        ),
        "llm.requests_per_call": stub_delta["requests"] / len(completes) if stub_delta else 0.0,
        "policy.share": share["policy"],
        "policy.render_ms_p50": quantile(ms(renders), 0.5),
        "policy.prompt_kchars_mean": _mean([s.info["chars"] / 1000.0 for s in renders]),
        "policy.parse_ms_p50": quantile(ms(parses), 0.5),
        "policy.self_ms_p50": quantile(
            [(s.duration - s.children.get("complete", 0.0)) * 1000.0 for s in decides], 0.5
        ),
        "policy.attempts_per_decision": len(completes) / len(decides),
        "policy.parse_ok_ratio": sum(1 for s in parses if "error" not in s.info) / len(parses),
        "policy.fallback_ratio": sum(1 for s in decides if s.info.get("fallback")) / len(decides),
        "actions.share": share["actions"],
        "actions.refine_self_ms_p50": quantile([s.self_time * 1000.0 for s in refines], 0.5),
        "actions.rerank_ms_p50": quantile(ms(reranks), 0.5),
        "actions.novel_per_refine": sum(s.info["added"] for s in refines) / retrieved if retrieved else 0.0,
        "engine.self_share": share["engine"],
        "engine.steps_per_query": _mean([s.info["steps"] for s in trajectories]),
        "engine.write_ms": _median([t * 1000.0 for t in writes]),
        "engine.trace_mb": trace_mb,
        "engine.layer_sum_ratio": layer_sum / untraced_mean,
        "trace.overhead_frac": _median(traced_times) / _median(pass_times) - 1.0,
    }
    for cause in STOP_CAUSES:
        metrics[f"engine.stop.{cause}"] = stops[cause] / n_traj
    return metrics


def run_workload(args, oracles) -> tuple[dict, dict, int]:
    import smr.engine
    from smr.cli import RunPlan, load_queries

    import checks
    import tracer as tracing
    from workloads import STUB_KEY_ENV, WORKLOADS, sized, write_inputs, write_run_config

    w = sized(WORKLOADS[args.workload], args.size)
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stub = None
    try:
        inputs = write_inputs(w, args.seed, work)
        if w.backend == "http":
            stub = Stub(inputs.stub_table_path, w.latency_s)
            os.environ.setdefault(STUB_KEY_ENV, "loopback")
        write_run_config(inputs, f"{stub.base}/v1/chat/completions" if stub else None)
        plan = RunPlan(str(inputs.config_path))
        factory = plan.build_backend_factory()
        queries = load_queries(plan.queries_path)
        Path(plan.run_path).parent.mkdir(parents=True, exist_ok=True)
        texts = {text: qid for qid, text in queries}

        setup_tracer = tracing.Tracer(texts)
        setup_times: list[float] = []
        while not setup_times or (
            not args.trace
            and len(setup_times) < SETUP_MAX
            and (len(setup_times) < SETUP_MIN or sum(setup_times) < SETUP_BUDGET_S)
        ):
            retriever = None
            gc.collect()
            start = time.perf_counter()
            retriever = set_up(inputs, plan, setup_tracer.call if args.trace else _plain_call)
            setup_times.append(time.perf_counter() - start)

        untraced_times: list[list[float]] = []  # per pass, one entry per trajectory
        pass_times: list[float] = []
        traced_times: list[float] = []
        outputs: list[tuple[bytes, bytes]] = []
        tracer = tracing.Tracer(texts)
        stub_delta = None
        first_results = None
        warmup = queries[: max(plan.engine.batch_size, round(len(queries) * WARMUP_SHARE))]
        smr.engine.run_batch(warmup, retriever, factory, plan.engine)
        begin = time.perf_counter()
        while True:
            untraced_times.append([])
            with tracing.stamped(untraced_times[-1]):
                results, elapsed, run_bytes, trace_bytes = query_pass(queries, retriever, factory, plan.engine, plan)
            pass_times.append(elapsed)
            outputs.append((run_bytes, trace_bytes))
            first_results = first_results or results
            if args.trace:
                before = stub.stats() if stub else None
                with tracing.installed(tracer, retriever) as wrap_factory:
                    _r, elapsed, run_bytes, trace_bytes = query_pass(
                        queries, retriever, wrap_factory(factory), plan.engine, plan, tracer.call
                    )
                if stub:
                    after = stub.stats()
                    delta = {key: after[key] - before[key] for key in after}
                    stub_delta = {key: (stub_delta or {}).get(key, 0) + value for key, value in delta.items()}
                traced_times.append(elapsed)
                outputs.append((run_bytes, trace_bytes))
            used = time.perf_counter() - begin
            if used + used / len(pass_times) / 2 > args.seconds:
                break

        failed, problems, facts = checks.check_outputs(
            inputs, first_results, Path(plan.run_path), outputs[0][1], oracles, args.size
        )
        if any(out != outputs[0] for out in outputs):
            problems.append("passes wrote different run or trace files")
        digest = checks.digests(*outputs[0])
        key = checks.pin_key(inputs, args.size)
        pinned = checks.load_pins().get(key)
        if args.pin:
            checks.save_pin(key, digest)
        elif pinned is not None and pinned != digest:
            problems.append(f"digest differs from the one pinned for {key}")

        n = len(queries)
        passes = len(pass_times)
        tokens = sum(r.trajectory.total_output_tokens for r in first_results if r.trajectory)
        per_pass = {
            "qps": [n / t for t in pass_times],
            "query_ms_p50": [quantile(times, 0.5) * 1000.0 for times in untraced_times],
            "query_ms_p95": [quantile(times, 0.95) * 1000.0 for times in untraced_times],
        }
        if args.trace:
            metrics = layer_metrics(
                tracer, setup_tracer, inputs, plan, sum(untraced_times, []), pass_times, traced_times,
                stub_delta, len(outputs[0][1]) / 1e6,
            )
        else:
            # Each timing is a median over passes, so one pass hit by a slow
            # spell of the host does not move it.
            metrics = {
                "setup_s": _median(setup_times),
                "qps": _median(per_pass["qps"]),
                "query_ms_p50": _median(per_pass["query_ms_p50"]),
                "query_ms_p95": _median(per_pass["query_ms_p95"]),
                "output_tokens_per_query": tokens / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        attempted = n * passes
        n_failed = attempted if problems else len(failed) * passes
        detail = {
            "workload": w.name,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "machine": machine(),
            "corpus_docs": w.docs,
            "queries": n,
            "passes": passes,
            "traced_passes": len(traced_times),
            "query_ms_samples": sum(map(len, untraced_times)),
            "setup_runs": len(setup_times),
            "per_pass": {name: [round(v, 4) for v in values] for name, values in per_pass.items()},
            "failed_frac": n_failed / attempted,
            "failed_queries": sorted(failed),
            "problems": problems,
            "digest": digest,
            "digest_pinned": pinned is not None or args.pin,
            **facts,
        }
        if args.trace:
            shares = {k: metrics[k] for k in ("retrieval.search_share", "llm.share", "policy.share",
                                              "actions.share", "engine.self_share")}
            lo, hi = LAYER_SUM_TOLERANCE
            detail["design"] = {
                "largest_share": max(shares, key=shares.get),
                "layer_sum_tolerance": [lo, hi],
                "layer_sum_within_tolerance": lo <= metrics["engine.layer_sum_ratio"] <= hi,
            }
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
        result = {
            "correct": not problems and not failed,
            "attempted": attempted,
            "failed": n_failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        return detail, result, 0 if result["correct"] else 1
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark `smr run` on one seeded workload.")
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all"),
        help="all: every workload in turn, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="query-phase budget; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for the smoke test")
    parser.add_argument("--pin", action="store_true", help="record this run's output digest in pins.json")
    parser.add_argument("--out", default=None, help="also write detail and result to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.out:
            parser.error("--out takes a single workload")
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size] + (["--pin"] if args.pin else [])
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
            for name in WORKLOADS
        )

    oracles = _load_program()
    detail, result, code = run_workload(args, oracles)
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name:<34} {entry['value']:.6g} {entry['unit']}")
    print(
        f"{args.workload}  {detail['query_ms_samples']} trajectories timed over {detail['passes']} passes,"
        f" {detail['setup_runs']} set-ups, failed_frac {detail['failed_frac']:.4g}"
        f" ({result['failed']}/{result['attempted']}), problems: {detail['problems'] or 'none'}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
