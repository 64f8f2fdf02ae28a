"""Span self times and the tracer's handling of missing wrap targets."""

import os
import sys
import types

# The benchmark's modules are plain files next to run.py, not a package.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans
from spans import Target, Tracer, self_times, summarize


def span(name, span_id, parent, start, end, pid=1):
    return [name, span_id, parent, span_id if parent is None else "t", start, end, pid]


def test_nested_children_are_subtracted_once_per_level():
    recorded = [
        span("doc", "a", None, 0.0, 10.0),
        span("stage", "b", "a", 2.0, 5.0),
        span("inner", "c", "b", 3.0, 4.0),
    ]
    own = self_times(recorded)
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_overlapping_children_cover_their_union():
    # Two workers' spans under one parent overlap in [4, 6].
    recorded = [
        span("run", "a", None, 0.0, 10.0),
        span("case", "b", "a", 1.0, 6.0, pid=2),
        span("case", "c", "a", 4.0, 8.0, pid=3),
    ]
    assert self_times(recorded)["a"] == 3.0


def test_children_are_clipped_to_the_parent_interval():
    recorded = [
        span("run", "a", None, 0.0, 10.0),
        span("late", "b", "a", 8.0, 12.0),
    ]
    assert self_times(recorded)["a"] == 8.0


def test_summary_separates_set_up_from_document_work():
    recorded = [
        span("fragments.extract", "s", None, 0.0, 2.0),
        span("core.check", "d", None, 3.0, 10.0),
        span("model.em", "e", "d", 4.0, 9.0),
        span("db.evaluate_spaces", "f", "e", 5.0, 8.0),
    ]
    summary = summarize(recorded)
    assert summary.self_s["fragments.extract"] == 2.0
    assert summary.in_documents_s == {"model.em": 2.0, "db.evaluate_spaces": 3.0}
    assert summary.calls["core.check"] == 1


def test_missing_targets_are_absent_not_errors(tmp_path, monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.present = lambda value: value * 2
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    tracer = Tracer(str(tmp_path))
    tracer.install([
        Target("gone.module", "perfbench_no_such_module", "f"),
        Target("gone.function", module.__name__, "renamed_away"),
        Target("gone.method", module.__name__, "Missing.method"),
        Target("kept", module.__name__, "present"),
    ])
    assert set(tracer.absent) == {"gone.module", "gone.function", "gone.method"}
    assert module.present(21) == 42
    tracer.flush()
    summary = spans.load(str(tmp_path))
    assert summary.calls == {"kept": 1}
    assert "gone.function" in summary.absent


def test_counted_targets_record_calls_without_spans(tmp_path, monkeypatch):
    module = types.ModuleType("perfbench_fake_counted")
    module.rounds = lambda: True
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    tracer = Tracer(str(tmp_path))
    tracer.install([Target("nlp.rounds_to", module.__name__, "rounds", "count")])
    for _ in range(5):
        module.rounds()
    tracer.flush()
    summary = spans.load(str(tmp_path))
    assert summary.counts == {"nlp.rounds_to": 5}
    assert summary.calls == {}
