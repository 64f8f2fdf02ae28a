"""Model-layer throughput: factorized cell-gather vs per-query evaluation.

Two measurements, written to ``BENCH_model.json``:

- ``candidate_scoring``: steady-state candidates-scored/sec on one
  document's claim spaces (the EM-iteration shape) — the per-query path
  (``QueryEngine.evaluate`` over materialized queries +
  ``EvaluationOutcome.from_results``) vs the factorized path
  (``QueryEngine.evaluate_space`` + ``EvaluationOutcome.from_value_ids``);
- ``end_to_end``: corpus claims/sec through the full pipeline
  (``run_corpus``), per path, cold and warm disk cube-cache.

Verdict equality between the two paths is asserted unconditionally; the
>= 3x warm-cache speedup gate applies when NumPy is available and the run
is large enough to be meaningful (``BENCH_MODEL_CASES`` >= 12, the
default). ``BENCH_MODEL_CASES`` trims the corpus for smoke runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.core.config import AggCheckerConfig
from repro.corpus.generator import generate_corpus
from repro.db.gather import numpy_available
from repro.harness import run_corpus
from repro.harness.reporting import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_model.json"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _verdict_signature(run) -> list[list[tuple]]:
    return [
        [
            (v.status.value, str(v.top_query), v.top_result)
            for v in result.report.verdicts
        ]
        for result in run.results
    ]


def _bench_candidate_scoring(corpus, repeats: int = 3) -> dict:
    """Steady-state scoring throughput on one document's spaces."""
    from repro.core.checker import AggChecker
    from repro.matching.matcher import keyword_match
    from repro.model.candidates import build_candidates
    from repro.model.probability import EvaluationOutcome
    from repro.db.engine import QueryEngine

    case = corpus.cases[0]
    checker = AggChecker(case.database, AggCheckerConfig(), case.data_dictionary)
    scores = keyword_match(
        case.claims,
        checker.index,
        checker.config.context,
        predicate_hits=checker.config.predicate_hits,
        column_hits=checker.config.column_hits,
    )
    spaces = [build_candidates(c, scores[c]) for c in case.claims]
    n_candidates = sum(len(space) for space in spaces)

    engine = QueryEngine(case.database)
    # Warm the cube cache so both paths measure answering, not execution.
    for space in spaces:
        engine.evaluate_space(space)

    started = time.perf_counter()
    for _ in range(repeats):
        for space in spaces:
            results = engine.evaluate_space(space)
            EvaluationOutcome.from_value_ids(space, results)
    space_seconds = (time.perf_counter() - started) / repeats

    per_query = [dict(engine.evaluate(space.queries)) for space in spaces]
    started = time.perf_counter()
    for _ in range(repeats):
        for space, known in zip(spaces, per_query):
            known = dict(engine.evaluate(space.queries))
            EvaluationOutcome.from_results(space, known)
    query_seconds = (time.perf_counter() - started) / repeats

    # The two paths must agree candidate for candidate.
    for space, known in zip(spaces, per_query):
        results = engine.evaluate_space(space)
        for position, query in enumerate(space.queries):
            assert results.value_at(position) == known[query], (position, query)

    return {
        "claims": len(spaces),
        "candidates": n_candidates,
        "per_query_candidates_per_sec": round(n_candidates / max(query_seconds, 1e-9)),
        "space_candidates_per_sec": round(n_candidates / max(space_seconds, 1e-9)),
        "speedup": round(query_seconds / max(space_seconds, 1e-9), 2),
    }


def test_model_throughput(capsys):
    cases = _env_int("BENCH_MODEL_CASES", 12)
    corpus = generate_corpus()
    cases = min(cases, len(corpus.cases))

    scoring = _bench_candidate_scoring(corpus)

    plans = [
        ("per_query", AggCheckerConfig().with_em(space_eval=False)),
        ("space", AggCheckerConfig()),
    ]
    results: dict[str, dict] = {}
    signatures = {}
    rows = []
    for name, base_config in plans:
        with tempfile.TemporaryDirectory(prefix=f"bench_model_{name}_") as cache_dir:
            config = replace(base_config, cache_dir=cache_dir)
            for phase in ("cold", "warm"):
                started = time.perf_counter()
                run = run_corpus(corpus, config, limit=cases)
                seconds = time.perf_counter() - started
                key = f"{name}_{phase}"
                signatures[key] = _verdict_signature(run)
                n_claims = run.metrics.n_claims
                results[key] = {
                    "seconds": round(seconds, 3),
                    "claims": n_claims,
                    "claims_per_sec": round(n_claims / max(seconds, 1e-9), 2),
                    "cube_queries": run.engine_stats.cube_queries,
                    "disk_cache_hit_rate": round(
                        run.engine_stats.disk_hit_rate(), 4
                    ),
                    "gathered_candidates": run.engine_stats.gathered_candidates,
                }
                rows.append(
                    [
                        key,
                        f"{seconds:.2f}s",
                        f"{results[key]['claims_per_sec']:.1f}",
                        run.engine_stats.cube_queries,
                        f"{run.engine_stats.disk_hit_rate():.0%}",
                    ]
                )

    # Both paths, both cache phases: identical verdicts, unconditionally.
    reference = signatures["per_query_cold"]
    for key, signature in signatures.items():
        assert signature == reference, f"{key} changed verdicts"

    warm_speedup = results["space_warm"]["claims_per_sec"] / max(
        results["per_query_warm"]["claims_per_sec"], 1e-9
    )
    payload = {
        "benchmark": "factorized space evaluation vs per-query path",
        "cases": cases,
        "numpy": numpy_available(),
        "verdicts_identical": True,
        "candidate_scoring": scoring,
        "end_to_end": results,
        "warm_cache_speedup": round(warm_speedup, 2),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    table = format_table(
        "Model evaluation throughput",
        ["Run", "Wall", "Claims/s", "Cubes", "Disk hits"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)
        print(
            f"candidate scoring: per-query "
            f"{scoring['per_query_candidates_per_sec']}/s vs space "
            f"{scoring['space_candidates_per_sec']}/s (x{scoring['speedup']})"
        )
        print(f"warm-cache end-to-end speedup: x{warm_speedup:.2f}")
        print(f"written: {OUTPUT}")

    # The acceptance gate: factorized evaluation must deliver >= 3x
    # warm-cache claims/sec. Vectorized kernels need NumPy; tiny smoke
    # runs are too noisy to gate.
    if numpy_available() and cases >= 12:
        assert warm_speedup >= 3.0, payload
