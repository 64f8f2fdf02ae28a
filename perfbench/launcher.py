"""Start one program process of the benchmark, optionally traced.

    python perfbench/launcher.py --role ROLE --work DIR [--trace]
        [--passes N] [--setup-only] [-- SERVE-ARGS...]

``--role serve`` runs ``python -m repro serve SERVE-ARGS`` in this
process; the other roles run a body of :mod:`child`. With ``--trace`` the
wrap points in :data:`TARGETS` are installed before the program starts,
and spans land in ``DIR/trace-<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Target, Tracer  # noqa: E402

#: Every wrap point of the traced run, at the name its caller looks up.
TARGETS = (
    Target("fragments.extract", "repro.core.checker", "extract_fragments"),
    Target("fragments.index", "repro.fragments.indexer", "FragmentIndex.__init__"),
    Target("fragments.index", "repro.fragments.indexer", "FragmentIndex.compiled"),
    Target("db.distinct_values", "repro.db.schema", "Table.distinct_values"),
    Target("matching.match", "repro.core.checker", "keyword_match_batch"),
    Target("matching.match", "repro.core.checker", "keyword_match"),
    Target("model.candidates", "repro.core.checker", "build_candidates"),
    Target("model.em", "repro.core.checker", "query_and_learn"),
    Target("evalexec.refine", "repro.model.em", "refine_by_eval_space"),
    Target("evalexec.refine", "repro.model.em", "refine_by_eval"),
    Target("model.distribution", "repro.model.em", "compute_distribution"),
    Target("model.outcome", "repro.model.probability",
           "EvaluationOutcome.from_value_ids"),
    Target("model.outcome", "repro.model.probability",
           "EvaluationOutcome.from_results"),
    Target("nlp.rounds_to", "repro.model.probability", "rounds_to", "count"),
    Target("nlp.rounds_to", "repro.core.verdict", "rounds_to", "count"),
    Target("db.evaluate_spaces", "repro.db.engine", "QueryEngine.evaluate_spaces"),
    Target("db.cache_get", "repro.db.cache", "ResultCache.get", hits=True),
    Target("db.cube_exec", "repro.db.adapters.memory",
           "ColumnarAdapter.execute_cube", span_per="name"),
    Target("db.cube_exec", "repro.db.adapters.sqlite",
           "SqliteAdapter.execute_cube", span_per="name"),
    Target("core.check", "repro.core.checker", "AggChecker.check_claims"),
    Target("core.verdict", "repro.core.checker", "make_verdict"),
    Target("harness.case", "repro.harness.runner", "CheckerPool.run"),
    Target("harness.run_corpus", "repro.harness.runner", "run_corpus"),
    Target("service.admit", "repro.service.aio", "QueueService.admit"),
    Target("service.exec", "repro.service.workers", "GroupExecutor.run"),
    Target("service.incremental_get", "repro.service.incremental",
           "IncrementalCache.get", hits=True),
    Target("service.submit", "repro.service.queue",
           "DurableJobQueue.submit_group"),
    Target("service.lease", "repro.service.queue", "DurableJobQueue.lease_group"),
    Target("service.ack", "repro.service.queue", "DurableJobQueue.ack"),
)

#: EngineStats counters summed from each document's report.
ENGINE_COUNTERS = (
    "cube_queries", "rows_scanned", "pushdown_queries", "rows_materialized",
)


def _engine_counters(tracer: Tracer, args, report) -> None:
    stats = report.engine_stats
    for field in ENGINE_COUNTERS:
        if hasattr(stats, field):
            tracer.count(f"db.{field}", getattr(stats, field))


def _submitted(tracer: Tracer, args, admitted) -> None:
    for job, _ in admitted:
        tracer.mark("submit", job.group)


def _leased(tracer: Tracer, args, jobs) -> None:
    for job in jobs:
        tracer.mark("lease", job.group)
        tracer.mark("job", f"{job.id} {job.group}")
        if job.attempts > 1:
            tracer.count("service.jobs_retried")


def _acked(tracer: Tracer, args, accepted) -> None:
    if accepted and len(args) > 1:
        tracer.mark("ack", args[1])


HOOKS = {
    "core.check": _engine_counters,
    "service.submit": _submitted,
    "service.lease": _leased,
    "service.ack": _acked,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("serve_args", nargs="*")
    args = parser.parse_args()
    # A process started in the background inherits SIGINT ignored, and
    # Python then never raises KeyboardInterrupt; the benchmark stops the
    # server with SIGINT (its graceful drain), so make it deliverable.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.trace:
        Tracer(args.work).install(TARGETS, HOOKS)
    import child

    if args.role == "serve":
        child.run_serve(args.work, args.serve_args)
    else:
        child.BODIES[args.role](args.work, args.passes, args.setup_only)


if __name__ == "__main__":
    main()
