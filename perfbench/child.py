"""Workload bodies that run inside the program's own process.

The launcher imports this module after any tracing is installed. Each
body loads the inputs the benchmark generated, sets up (the parent times
process launch to the ``READY`` line), verifies, and writes
``result.json`` into the work directory:

- ``window_s``: verification wall time of each pass (after set-up), and
  ``window_at``: its ``(start, end)`` on the system-wide monotonic clock;
- ``verdicts``: document key -> one verdict hash per claim (see
  :func:`verdict_hash`), ``errors``: document key -> error text;
- ``doc_done_at``: per document, ``(due, out)`` on that clock: every
  document of a pass is due when the pass starts, and out when the call
  that verifies it returns;
- ``peak_rss_mb``: peak RSS of this process and of its waited-for workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import sys
import time

READY = "perfbench-ready"


def verdict_hash(status: str, top_query_sql, top_result) -> str:
    """``value:typed`` hashes of ``(status, top_query, top_result)``.

    ``top_query_sql`` is the rendered SQL (None when there is no
    candidate). The *value* hash compares results as Python does
    (``158535 == 158535.0``); the *typed* hash also keeps ``int`` and
    ``float`` apart, as the service's JSON payloads do. Both go through
    JSON, which round-trips floats exactly, so NDJSON payloads hash the
    same as in-process verdicts.
    """
    number = isinstance(top_result, (int, float)) and not isinstance(
        top_result, bool
    )
    value = float(top_result) if number else top_result
    return f"{_digest([status, top_query_sql, value])}:" + _digest(
        [status, top_query_sql, top_result]
    )


def _digest(parts: list) -> str:
    body = json.dumps(parts, default=repr)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def report_hashes(report) -> list[str]:
    from repro.db.sql import render_sql

    return [
        verdict_hash(
            verdict.status.value,
            render_sql(verdict.top_query) if verdict.top_query else None,
            verdict.top_result,
        )
        for verdict in report.verdicts
    ]


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _ready() -> None:
    print(READY, flush=True)


def _new_result() -> dict:
    return {"window_s": [], "window_at": [], "verdicts": {}, "errors": {},
            "doc_done_at": []}


def _close_window(result: dict, started: float) -> None:
    ended = time.perf_counter()
    result["window_s"].append(ended - started)
    result["window_at"].append((started, ended))


def _write(work: str, result: dict) -> None:
    result["peak_rss_mb"] = peak_rss_mb()
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as out:
        json.dump(result, out)


def _load(work: str, name: str):
    with open(os.path.join(work, name), "rb") as handle:
        return pickle.load(handle)


def run_corpus(work: str, passes: int, setup_only: bool) -> None:
    """``CheckerPool.run`` over every case, checkers built in set-up."""
    from repro.harness.runner import CheckerPool

    corpus = _load(work, "corpus.pickle")

    def build() -> CheckerPool:
        pool = CheckerPool()
        for case in corpus.cases:
            pool.checker_for(case)
        return pool

    pool = build()
    _ready()
    if setup_only:
        return
    result = _new_result()
    for ordinal in range(passes):
        if ordinal:
            pool = build()  # fresh caches: every pass does the same work
        started = time.perf_counter()
        for index, case in enumerate(corpus.cases):
            key = f"{ordinal}:{index}"
            try:
                report = pool.run(case).report
            except Exception as error:  # counted as failed claims
                result["errors"][key] = f"{type(error).__name__}: {error}"
                continue
            result["verdicts"][key] = report_hashes(report)
            result["doc_done_at"].append((started, time.perf_counter()))
        _close_window(result, started)
    _write(work, result)


def run_corpus_parallel(work: str, passes: int, setup_only: bool) -> None:
    """``run_corpus(..., workers=2)``; workers build their own checkers."""
    from repro.harness.runner import run_corpus

    corpus = _load(work, "corpus.pickle")
    _ready()
    if setup_only:
        return
    result = _new_result()
    for ordinal in range(passes):
        started = time.perf_counter()
        run = run_corpus(corpus, workers=2)
        _close_window(result, started)
        by_case = {
            case_result.case.case_id: case_result for case_result in run.results
        }
        for index, case in enumerate(corpus.cases):
            key = f"{ordinal}:{index}"
            case_result = by_case.get(case.case_id)
            if case_result is None:
                result["errors"][key] = run.quarantined.get(
                    index, "no result"
                )
                continue
            result["verdicts"][key] = report_hashes(case_result.report)
            # run_corpus hands every verdict back when it returns.
            result["doc_done_at"].append(result["window_at"][-1])
    _write(work, result)


def run_sqlite(work: str, passes: int, setup_only: bool) -> None:
    """Out-of-core ``check``: each relation stays in its SQLite file."""
    from repro.core.checker import AggChecker
    from repro.core.config import AggCheckerConfig
    from repro.db.adapters import load_sqlite_database
    from repro.db.engine import EngineConfig

    documents = _load(work, "documents.pickle")
    config = AggCheckerConfig(engine=EngineConfig(backend="sqlite"))

    def build() -> list:
        return [
            AggChecker(load_sqlite_database(path), config)
            for path in sorted_paths(work)
        ]

    checkers = build()
    _ready()
    if setup_only:
        return
    result = _new_result()
    for ordinal in range(passes):
        if ordinal:
            for checker in checkers:
                checker.engine.close()
            checkers = build()
        started = time.perf_counter()
        for index, (checker, (document, claims)) in enumerate(
            zip(checkers, documents)
        ):
            key = f"{ordinal}:{index}"
            try:
                report = checker.check_claims(document, claims)
            except Exception as error:
                result["errors"][key] = f"{type(error).__name__}: {error}"
                continue
            result["verdicts"][key] = report_hashes(report)
            result["doc_done_at"].append((started, time.perf_counter()))
        _close_window(result, started)
    _write(work, result)


def sorted_paths(work: str) -> list[str]:
    """The benchmark's SQLite files, one per document, in document order."""
    directory = os.path.join(work, "sqlite")
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".sqlite")
    ]


def run_serve(work: str, argv: list[str]) -> None:
    """``python -m repro serve ...`` in this process (for tracing)."""
    import runpy

    sys.argv = ["repro", "serve", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        if exit_.code not in (0, None):
            raise
    finally:
        _write(work, {})


BODIES = {
    "corpus": run_corpus,
    "corpus-parallel": run_corpus_parallel,
    "sqlite-pushdown": run_sqlite,
}
