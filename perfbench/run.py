#!/usr/bin/env python3
"""The repository's end-to-end benchmark: document in, verdicts out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every workload runs the program in fresh
child processes (``perfbench/launcher.py``), checks every claim's
``(status, top_query, top_result)`` against a reference computed with the
row executor on the same loaded relations (outside every timed window),
and prints one JSON object as its last line of standard output. The
first line records the seed, CPU count, Python and NumPy versions, the
workload's reason for being here and the sample counts behind each
percentile; ``failed:`` lines name every claim that missed.

Workloads. Every workload verifies articles of the repository's labelled
corpus, in corpus order; ``--seed`` permutes relation rows and picks the
serve revisions (see ``workloads.py``):

- ``corpus``: ``CheckerPool.run`` over the 53 articles, sequentially;
  checkers are built during set-up. Small relations that fit every
  cache, so model-layer and cell-gather work shows.
- ``corpus-parallel``: the same inputs through ``run_corpus(workers=2)``;
  workers build their checkers inside the window. The only workload where
  ``harness/parallel.py`` does the work.
- ``sqlite-pushdown``: the first 18 articles with every relation scaled
  to 500 rows, each in its own SQLite file, loaded with
  ``load_sqlite_database`` and checked with
  ``EngineConfig(backend="sqlite")``. Relations never enter Python: time
  goes to set-up (per-column ``distinct_values`` scans) and pushed-down
  ``execute_cube``.
- ``serve``: ``python -m repro serve --port 0 --audit-rate 0`` with an
  open-loop generator posting at a fixed rate: the first 36 articles
  fresh, and two one-number revisions of each, which the incremental
  memo mostly answers. Audit is off because the default sampling is
  unseeded and made runs unsteady. Its window is set by the schedule,
  not ``--seconds``.

A batch workload makes ``ceil(--seconds / PASS_SECONDS)`` passes over its
documents, each on freshly built checkers.

End-to-end metrics (``--trace 0``; medians where a run has several):

- ``claims_per_s``: claims with a verdict per second of verification
  wall time after set-up (``serve``: first due time to last summary);
- ``setup_s``: process launch to ready for the first item, the median of
  :data:`SETUP_SAMPLES` launches (``serve``: to the listening line);
- ``peak_rss_mb``: peak RSS of the program process and its workers;
- ``verified_ratio``: claims whose verdict matches the reference by
  value, over claims attempted (refused, failed or missing claims count
  as misses). A result equal in value but not in type (``158535.0``
  against ``158535``) is listed on a ``type-only:`` line, not counted;
- ``latency_p50_s``, ``latency_p90_s``: per-document latency, from the
  time the document was due until its verdicts were out. ``serve``: due
  by the open-loop schedule, out at its summary event. Batch workloads:
  every document of a pass is due when the pass starts and out when the
  call that verifies it returns (``run_corpus`` returns all at once).

Per-layer metrics (``--trace 1``) come from spans recorded around the
program's public functions by ``launcher.py`` and are listed in
:data:`PER_LAYER`; each stage's ``_s`` is its self time (children
excluded) summed over the run. A traced run also repeats the workload
untraced to report ``bench.trace_overhead``. Metrics whose wrap target no
longer exists, or that the workload never reaches, are reported as 0 and
named on an ``absent:`` line with the reason.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

#: Why each workload is in the benchmark, from the benchmark's manifest.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _manifest:
    WHY = {entry["name"]: entry["why"] for entry in json.load(_manifest)["workloads"]}

#: Launches per run whose set-up time is measured (median reported):
#: more where a launch takes a fraction of a second (set-up builds no
#: checkers there), whose median of three spread by 13% over ten seeds.
SETUP_SAMPLES = {"corpus": 3, "corpus-parallel": 7, "sqlite-pushdown": 3,
                 "serve": 7}
#: Length of one verification pass on a 2-CPU x86 machine. A run makes
#: ``ceil(--seconds / this)`` passes, so the work done depends only on
#: ``--seconds``, never on how fast the program is.
PASS_SECONDS = {"corpus": 12.0, "corpus-parallel": 10.0, "sqlite-pushdown": 6.0}
#: serve: submissions per second, about half the capacity measured on a
#: 2-CPU machine for this mix (fresh documents 2.8-3.0/s, revisions
#: 14-15/s, one fresh to two revisions: 6.3 submissions/s; at 60% the
#: p50 and p90 latencies swung by a fifth between runs). A period holds
#: one fresh document and its two revisions' slots, and
#: :data:`SLOT_SHARES` places them in it: the fresh document first, the
#: revisions after the typical fresh document has finished. Spaced
#: evenly, every other revision landed on a running fresh document, the
#: median (a revision) sat between the two cases and moved by a fifth
#: from run to run; fresh documents that run long still meet revisions.
#: Sending every fresh document first and then every revision (5 or 8
#: per second) did not steady the median either: its IQR over five
#: seeds was 36-40% of it.
SERVE_RATE = 3.4
SLOT_SHARES = (0.0, 0.6, 0.8)
SERVE_CONNECTIONS = 2
SERVE_ARGS = ("--port", "0", "--audit-rate", "0")
#: Upper bounds on waits for a child process, in seconds.
READY_TIMEOUT = 60.0
RUN_TIMEOUT = 150.0


class BenchmarkError(Exception):
    """The program failed in a way that leaves no result to report."""


# -- program processes --------------------------------------------------------


class Program:
    """One program process started through the launcher.

    Every started process is tracked in :data:`LIVE` until it has exited,
    so :func:`main` can stop whatever an error or a signal left running.
    """

    def __init__(self, work: str, role: str, *, trace=False, passes=1,
                 setup_only=False, serve_args=()):
        command = [
            sys.executable, os.path.join(HERE, "launcher.py"),
            "--role", role, "--work", work, "--passes", str(passes),
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        if serve_args:
            command += ["--", *serve_args]
        self.lines: queue.Queue = queue.Queue()
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        LIVE.add(self)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_for(self, pattern: str, timeout: float = READY_TIMEOUT):
        """``(match, seconds since launch)`` of the first matching line."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.stop()
                raise BenchmarkError(f"no {pattern!r} line within {timeout}s")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self.stop()
                raise BenchmarkError(
                    f"program exited ({self.process.returncode}) before "
                    f"printing {pattern!r}"
                )
            match = re.search(pattern, line)
            if match:
                return match, time.perf_counter() - self.started

    def finish(self, timeout: float = RUN_TIMEOUT) -> None:
        """Wait for a clean exit; raise if it fails or hangs."""
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchmarkError(f"program did not finish within {timeout}s")
        self._reader.join(timeout=5)
        LIVE.discard(self)
        if code != 0:
            raise BenchmarkError(f"program exited with code {code}")

    def interrupt(self) -> None:
        """Ask a server to drain and exit (Ctrl-C)."""
        self.process.send_signal(signal.SIGINT)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        LIVE.discard(self)


#: Program processes started and not yet waited for.
LIVE: set[Program] = set()


def _read_result(work: str) -> dict:
    with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _setup_sample(work: str, role: str, sampler) -> float:
    """Launch-to-ready seconds of one program process that then exits,
    scaled to the reference host speed over that interval."""
    if role == "serve":
        program = Program(work, role, serve_args=SERVE_ARGS)
        _, seconds = program.wait_for(r"listening on http://")
        program.interrupt()
    else:
        program = Program(work, role, setup_only=True)
        _, seconds = program.wait_for(r"^perfbench-ready$")
    program.finish()
    return seconds / sampler.slowdown(program.started, program.started + seconds)


# -- batch workloads ------------------------------------------------------------


def _batch_run(work: str, role: str, passes: int, trace: bool, sampler):
    """``(result, scaled set-up seconds)`` of one measured program run;
    the result gains ``slowdown``, the host's over its windows."""
    program = Program(work, role, passes=passes, trace=trace)
    _, ready = program.wait_for(r"^perfbench-ready$")
    program.finish()
    result = _read_result(work)
    result["slowdown"] = statistics.mean(
        sampler.slowdown(start, end) for start, end in result["window_at"]
    )
    setup = ready / sampler.slowdown(program.started, program.started + ready)
    return result, setup


def compare(got: list[str], expected: list[str]) -> tuple[list[int], list[int]]:
    """``(wrong, type_only)`` claim indexes of one document.

    ``wrong`` claims have a different value hash or are missing (or
    extra); ``type_only`` claims match by value but not by type, such as
    a result of ``158535.0`` where the reference has ``158535``.
    """
    wrong, type_only = [], []
    for index in range(max(len(got), len(expected))):
        if index >= len(got) or index >= len(expected):
            wrong.append(index)
            continue
        value, typed = got[index].split(":")
        want_value, want_typed = expected[index].split(":")
        if value != want_value:
            wrong.append(index)
        elif typed != want_typed:
            type_only.append(index)
    return wrong, type_only


class Tally:
    """Claims attempted, failed, verified and type-only, with notes."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.verified = self.type_only = 0
        self.notes: list[str] = []

    def document(self, label: str, got, expected: list[str], error=None) -> None:
        self.attempted += len(expected)
        if got is None:
            self.failed += len(expected)
            self.notes.append(f"failed: {label}: {error or 'no verdicts'}")
            return
        self.verified += len(got)
        wrong, type_only = compare(got, expected)
        self.failed += len(wrong)
        self.type_only += len(type_only)
        if wrong:
            self.notes.append(f"failed: {label}: claims {wrong} differ")
        if type_only:
            self.notes.append(
                f"type-only: {label}: claims {type_only} match by value only")


def _check_batch(tally: Tally, result: dict, reference: dict, passes: int):
    for ordinal in range(passes):
        for index, expected in reference.items():
            key = f"{ordinal}:{index}"
            tally.document(f"doc {key}", result["verdicts"].get(key), expected,
                           result["errors"].get(key))


def run_batch(workload: str, work: str, args, sampler) -> dict:
    import workloads

    role = workload
    if workload == "sqlite-pushdown":
        n_docs = workloads.write_sqlite(work, args.seed)
    else:
        n_docs = workloads.write_corpus(work, args.seed)
    passes = max(1, math.ceil(args.seconds / PASS_SECONDS[workload]))
    outcome = {"info": {"documents": n_docs, "passes": passes}}

    if args.trace:
        untraced, _ = _batch_run(work, role, passes, False, sampler)
        traced, _ = _batch_run(work, role, passes, True, sampler)
        results = [untraced, traced]
    else:
        setups = [_setup_sample(work, role, sampler)
                  for _ in range(SETUP_SAMPLES[workload] - 1)]
        measured, ready = _batch_run(work, role, passes, False, sampler)
        setups.append(ready)
        results = [measured]
        outcome["setup_samples"] = setups

    if workload == "sqlite-pushdown":
        reference = workloads.sqlite_reference(work, n_docs)
    else:
        reference = workloads.corpus_reference(work, n_docs)

    tally = Tally()
    for result in results:
        _check_batch(tally, result, reference, passes)
    outcome["tally"] = tally
    last = results[-1]
    outcome["window_s"] = sum(last["window_s"])
    outcome["verified"] = tally.verified // len(results)
    outcome["timed_latencies"] = [out - due for due, out in last["doc_done_at"]]
    outcome["latencies"] = _scaled(sampler, last["doc_done_at"])
    outcome["peak_rss_mb"] = last["peak_rss_mb"]
    outcome["slowdown"] = outcome["info"]["host_slowdown"] = last["slowdown"]
    if args.trace:
        outcome["untraced_window_s"] = (
            sum(results[0]["window_s"]) / results[0]["slowdown"])
    return outcome


# -- serve ------------------------------------------------------------------


def _serve_once(work: str, schedule: list[dict], trace: bool, sampler) -> dict:
    from loadgen import run_open_loop

    program = Program(work, "serve", trace=trace, serve_args=SERVE_ARGS)
    match, ready = program.wait_for(r"listening on http://([\d.]+):(\d+)")
    host, port = match.group(1), int(match.group(2))
    bodies = [{"csv": entry["csv"], "article": entry["article"]}
              for entry in schedule]
    period = len(SLOT_SHARES) / SERVE_RATE
    offsets = [(entry["period"] + SLOT_SHARES[entry["slot"]]) * period
               for entry in schedule]
    try:
        requests = run_open_loop(host, port, bodies, offsets,
                                 SERVE_CONNECTIONS)
    finally:
        program.interrupt()
        program.finish()
    setup = ready / sampler.slowdown(program.started, program.started + ready)
    return {"requests": requests, "ready": setup,
            "peak_rss_mb": _read_result(work)["peak_rss_mb"]}


def _check_serve(tally: Tally, requests: list[dict], reference: list[list[str]]):
    from child import verdict_hash

    for position, (request, expected) in enumerate(zip(requests, reference)):
        label = f"submission {position}"
        if request["status"] != 200 or request["done"] is None:
            tally.document(label, None, expected,
                           f"status {request['status']} {request['errors'][:1]}")
            continue
        got = [
            verdict_hash(claim["status"], claim["top_query"], claim["top_result"])
            for claim in (request["claims"].get(index)
                          for index in range(len(expected)))
            if claim is not None
        ]
        if len(got) < len(expected) or request["errors"]:
            tally.document(label, None, expected,
                           f"{len(got)} of {len(expected)} claims answered, "
                           f"errors {request['errors'][:1]}")
            continue
        tally.document(label, got, expected)


def run_serve(work: str, args, sampler) -> dict:
    from stats import open_loop_latencies
    import workloads

    schedule = workloads.write_serve(work, args.seed)
    outcome = {"info": {"submissions": len(schedule), "rate_per_s": SERVE_RATE,
                        "slot_shares": SLOT_SHARES}}
    runs = []
    if args.trace:
        runs.append(_serve_once(work, schedule, False, sampler))
        runs.append(_serve_once(work, schedule, True, sampler))
    else:
        setups = [_setup_sample(work, "serve", sampler)
                  for _ in range(SETUP_SAMPLES["serve"] - 1)]
        runs.append(_serve_once(work, schedule, False, sampler))
        setups.append(runs[-1]["ready"])
        outcome["setup_samples"] = setups
    reference = workloads.serve_reference(work, schedule)
    tally = Tally()
    for run in runs:
        _check_serve(tally, run["requests"], reference)
    outcome["tally"] = tally
    last = runs[-1]
    requests = last["requests"]
    latencies, lags = open_loop_latencies(requests)
    done = [r["done"] for r in requests if r["done"] is not None]
    outcome["timed_latencies"] = latencies
    latencies = _scaled(sampler, [(r["due"], r["done"]) for r in requests
                                  if r["done"] is not None])
    # An open loop's throughput is set by its schedule, not by how fast
    # the host runs: only its latencies are scaled.
    outcome.update(verified=tally.verified // len(runs), latencies=latencies,
                   lags=lags, peak_rss_mb=last["peak_rss_mb"], slowdown=1.0)
    outcome["window_s"] = max(done) - requests[0]["due"]
    if args.trace:
        outcome["untraced_latencies"] = _scaled(
            sampler, [(r["due"], r["done"]) for r in runs[0]["requests"]
                      if r["done"] is not None])
    return outcome


# -- metrics ------------------------------------------------------------------


def _scaled(sampler, intervals) -> list[float]:
    """Latencies of ``(due, out)`` intervals, each scaled to the reference
    host speed over its own interval."""
    return [(out - due) / sampler.slowdown(due, out) for due, out in intervals]

END_TO_END = {
    "claims_per_s": "claims/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "verified_ratio": "ratio",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}


def end_to_end(outcome: dict) -> tuple[dict, dict]:
    """``(metrics, as timed)``. Timings in ``metrics`` are scaled to the
    reference host speed (see :mod:`hostspeed`): throughput over its
    window, each latency and set-up sample over its own interval."""
    from stats import percentile

    tally = outcome["tally"]
    timed = {
        "claims_per_s": outcome["verified"] / outcome["window_s"],
        "peak_rss_mb": outcome["peak_rss_mb"],
        "verified_ratio": 1 - tally.failed / tally.attempted,
        "latency_p50_s": percentile(outcome["timed_latencies"], 50),
        "latency_p90_s": percentile(outcome["timed_latencies"], 90),
    }
    metrics = {
        **timed,
        "claims_per_s": timed["claims_per_s"] * outcome["slowdown"],
        "setup_s": statistics.median(outcome["setup_samples"]),
        "latency_p50_s": percentile(outcome["latencies"], 50),
        "latency_p90_s": percentile(outcome["latencies"], 90),
    }
    return metrics, timed


#: Per-layer metric -> unit. Stage times are summed self times.
PER_LAYER = {
    "fragments.extract_s": "s",
    "fragments.index_s": "s",
    "db.distinct_values_s": "s",
    "matching.match_s": "s",
    "model.candidates_s": "s",
    "model.distribution_s": "s",
    "model.outcome_s": "s",
    "nlp.rounds_to_calls": "count",
    "evalexec.refine_self_s": "s",
    "model.em_self_s": "s",
    "db.evaluate_spaces_self_s": "s",
    "db.cube_exec_s.columnar": "s",
    "db.cube_exec_s.sqlite": "s",
    "db.cube_queries": "count",
    "db.rows_scanned": "count",
    "db.pushdown_queries": "count",
    "db.rows_materialized": "count",
    "db.cache_hit_ratio": "ratio",
    "core.check_s": "s",
    "core.verdict_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.worker_busy_max_s": "s",
    "harness.worker_busy_mean_s": "s",
    "service.admit_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p90_s": "s",
    "service.exec_s": "s",
    "service.lease_to_ack_p50_s": "s",
    "service.incremental_hit_ratio": "ratio",
    "service.jobs_retried": "count",
    "bench.generator_lag_p90_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.stage_coverage": "ratio",
}

#: Span name behind each self-time metric (absent when its target is).
_SELF_TIMES = {
    "fragments.extract_s": "fragments.extract",
    "fragments.index_s": "fragments.index",
    "db.distinct_values_s": "db.distinct_values",
    "matching.match_s": "matching.match",
    "model.candidates_s": "model.candidates",
    "model.distribution_s": "model.distribution",
    "model.outcome_s": "model.outcome",
    "evalexec.refine_self_s": "evalexec.refine",
    "model.em_self_s": "model.em",
    "db.evaluate_spaces_self_s": "db.evaluate_spaces",
    "core.verdict_s": "core.verdict",
}
_TOTAL_TIMES = {
    "core.check_s": "core.check",
    "service.admit_s": "service.admit",
    "service.exec_s": "service.exec",
}
#: Spans that frame a document rather than a stage: their self time is
#: time no stage accounts for, so it is left out of the stage coverage.
_FRAMES = frozenset({
    "harness.case", "harness.run_corpus", "core.check", "service.admit",
    "service.exec", "service.submit", "service.lease", "service.ack",
})


def per_layer(workload: str, outcome: dict, summary) -> tuple[dict, dict]:
    """``(metrics, absent reasons)`` from a traced run's summary; the
    sample counts behind its percentiles go into ``outcome["info"]``."""
    from stats import percentile

    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for metric, span in {**_SELF_TIMES, **_TOTAL_TIMES}.items():
        source = summary.self_s if metric in _SELF_TIMES else summary.total_s
        values[metric] = source.get(span, 0.0)
        if span not in summary.calls:
            absent[metric] = summary.absent.get(
                span, "not exercised by this workload")
    for adapter in ("columnar", "sqlite"):
        metric, span = f"db.cube_exec_s.{adapter}", f"db.cube_exec.{adapter}"
        values[metric] = summary.self_s.get(span, 0.0)
        if span not in summary.calls:
            absent[metric] = summary.absent.get(
                "db.cube_exec", f"no {adapter} cube executed")
    counts = summary.counts
    values["nlp.rounds_to_calls"] = counts.get("nlp.rounds_to", 0)
    for field in ("cube_queries", "rows_scanned", "pushdown_queries",
                  "rows_materialized"):
        values[f"db.{field}"] = counts.get(f"db.{field}", 0)
    values["db.cache_hit_ratio"] = _ratio(counts, "db.cache_get")
    values["service.incremental_hit_ratio"] = _ratio(
        counts, "service.incremental_get")
    values["service.jobs_retried"] = counts.get("service.jobs_retried", 0)
    for metric, span in (("db.cache_hit_ratio", "db.cache_get"),
                         ("service.incremental_hit_ratio",
                          "service.incremental_get")):
        if f"{span}.calls" not in counts:
            absent[metric] = summary.absent.get(span, "no lookups")

    # Busy seconds per worker process (the parent runs no cases there).
    workers = (summary.by_pid.get("harness.case", {})
               if workload == "corpus-parallel" else {})
    if workers:
        values["harness.worker_busy_max_s"] = max(workers.values())
        values["harness.worker_busy_mean_s"] = statistics.mean(workers.values())
        values["harness.parallel_efficiency"] = sum(workers.values()) / (
            2 * outcome["window_s"])
    else:
        for metric in ("harness.worker_busy_max_s", "harness.worker_busy_mean_s",
                       "harness.parallel_efficiency"):
            values[metric] = 0.0
            absent[metric] = "no worker processes in this workload"

    waits, lease_to_ack = _queue_times(summary.marks)
    outcome["info"]["queue_wait_samples"] = len(waits)
    outcome["info"]["lease_to_ack_samples"] = len(lease_to_ack)
    values["service.queue_wait_p50_s"] = percentile(waits, 50) if waits else 0.0
    values["service.queue_wait_p90_s"] = percentile(waits, 90) if waits else 0.0
    values["service.lease_to_ack_p50_s"] = (
        percentile(lease_to_ack, 50) if lease_to_ack else 0.0)
    if not waits:
        for metric in ("service.queue_wait_p50_s", "service.queue_wait_p90_s",
                       "service.lease_to_ack_p50_s"):
            absent[metric] = "no queued groups in this workload"

    lags = outcome.get("lags")
    outcome["info"]["generator_lag_samples"] = len(lags or ())
    values["bench.generator_lag_p90_s"] = percentile(lags, 90) if lags else 0.0
    if not lags:
        absent["bench.generator_lag_p90_s"] = "no open-loop generator"
    if workload == "serve":
        values["bench.trace_overhead"] = statistics.mean(
            outcome["latencies"]) / statistics.mean(outcome["untraced_latencies"])
        wall = summary.total_s.get("service.exec", 0.0)
    else:
        values["bench.trace_overhead"] = (
            outcome["window_s"] / outcome["slowdown"]
            / outcome["untraced_window_s"])
        wall = (sum(workers.values()) if workers else outcome["window_s"])
    stages = sum(seconds for name, seconds in summary.in_documents_s.items()
                 if name not in _FRAMES)
    values["bench.stage_coverage"] = stages / wall if wall else 0.0
    return values, absent


def _ratio(counts: dict, name: str) -> float:
    calls = counts.get(f"{name}.calls", 0)
    return counts.get(f"{name}.hits", 0) / calls if calls else 0.0


def _queue_times(marks) -> tuple[list[float], list[float]]:
    """Per-group submit-to-lease and lease-to-last-ack seconds."""
    submitted: dict[str, float] = {}
    leased: dict[str, float] = {}
    group_of: dict[str, str] = {}
    acked: dict[str, float] = {}
    for kind, key, at in marks:
        if kind == "submit":
            submitted[key] = min(at, submitted.get(key, at))
        elif kind == "lease":
            leased[key] = min(at, leased.get(key, at))
        elif kind == "job":
            job, group = key.split(" ")
            group_of[job] = group
        elif kind == "ack":
            group = group_of.get(key)
            if group is not None:
                acked[group] = max(at, acked.get(group, at))
    waits = [leased[g] - submitted[g] for g in leased if g in submitted]
    spans = [acked[g] - leased[g] for g in acked if g in leased]
    return waits, spans


# -- entry point ------------------------------------------------------------


def environment(args) -> dict:
    import numpy

    return {
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from hostspeed import HostSampler

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    # A terminated benchmark still stops its program processes (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        with HostSampler() as sampler:
            if args.workload == "serve":
                outcome = run_serve(work, args, sampler)
            else:
                outcome = run_batch(args.workload, work, args, sampler)
        if args.trace:
            import spans

            summary = spans.load(work)
            metrics, absent = per_layer(args.workload, outcome, summary)
            units = PER_LAYER
        else:
            metrics, timed = end_to_end(outcome)
            absent = {}
            outcome["info"]["as_timed"] = timed
            units = END_TO_END
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for program in list(LIVE):
            program.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's work directory is still there

    from stats import samples_beyond, supported

    n = len(outcome["latencies"])
    tally = outcome["tally"]
    print(json.dumps({
        "workload": args.workload, "why": WHY[args.workload],
        **environment(args), **outcome["info"],
        "latency_samples": n,
        "latency_p90_samples_beyond": samples_beyond(n, 90),
        "latency_p90_supported": supported(n, 90),
        "failed_ratio": tally.failed / tally.attempted,
        "type_only_claims": tally.type_only,
        "setup_samples": outcome.get("setup_samples"),
    }))
    for note in tally.notes:
        print(note)
    for name, reason in sorted(absent.items()):
        print(f"absent: {name}: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
