"""The percentile rule, open-loop latency accounting and verdict comparison."""

import os
import sys

# The benchmark's modules are plain files next to run.py, not a package.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest

from child import verdict_hash
from run import compare
from stats import open_loop_latencies, percentile, samples_beyond, supported


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(108, 90) == 11  # the serve workload's submissions
    assert supported(108, 90)
    assert samples_beyond(53, 90) == 6  # the corpus workloads' documents
    assert not supported(53, 90)
    assert supported(53, 75)
    assert not supported(12, 50)


def test_latency_counts_from_the_due_time():
    requests = [
        {"due": 0.0, "sent": 0.0, "done": 0.5},
        # The generator fell 2 s behind: the wait is charged to this request.
        {"due": 1.0, "sent": 3.0, "done": 3.5},
        # Refused: no latency, but its lag still counts.
        {"due": 2.0, "sent": 3.5, "done": None},
    ]
    latencies, lags = open_loop_latencies(requests)
    assert latencies == [0.5, 2.5]
    assert lags == [0.0, 2.0, 1.5]


def test_results_equal_by_value_differ_only_by_type():
    sql = "SELECT Max(Salary) FROM t"
    as_int = verdict_hash("verified", sql, 158535)
    as_float = verdict_hash("verified", sql, 158535.0)
    other = verdict_hash("verified", sql, 158536)
    assert as_int != as_float
    assert compare([as_float], [as_int]) == ([], [0])
    assert compare([other], [as_int]) == ([0], [])
    # A missing claim is wrong, not skipped.
    assert compare([as_int], [as_int, as_int]) == ([1], [])


def test_manifest_lists_what_the_benchmark_prints():
    import json
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert set(run.WHY) == set(run.PASS_SECONDS) | {"serve"}


def test_host_slowdown_is_the_mean_slice_time_over_the_window():
    from hostspeed import REFERENCE_SLICE_SECONDS, HostSampler

    sampler = HostSampler()  # not started: samples are set by hand
    fast, slow = REFERENCE_SLICE_SECONDS, 2 * REFERENCE_SLICE_SECONDS
    sampler.samples = [(float(at), slow if at % 2 == 0 else fast)
                       for at in range(6)]
    # Half the slices slow: work took 1.5 times as long as at reference.
    assert sampler.slowdown(-1.0, 10.0) == pytest.approx(1.5)
    # Two of the five slices in the window ran at half speed.
    assert sampler.slowdown(0.5, 5.5) == pytest.approx(1.4)
    # A short window widens until it holds enough slices (the same five).
    assert sampler.slowdown(2.7, 2.8) == pytest.approx(1.4)
    assert HostSampler().slowdown(0.0, 1.0) == 1.0
