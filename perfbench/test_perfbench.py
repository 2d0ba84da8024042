"""Tests of the benchmark's own logic:  python3 -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kegcn import metrics, tasks  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, want", [(5, None), (19, None), (20, 50.0), (39, 50.0),
                                     (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
                                     (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert run.tail_percentile(n) == want


def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0],
             ["c", 6.0, 7.0, 2]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_epoch_self_times_and_unattributed_account_for_each_epoch():
    tr = tracing.Tracer()
    tr.spans = [
        ["tasks.train", 0.0, 2.5, -1],
        ["propagation.forward", 0.1, 0.6, 0],
        ["autodiff.op.gather.fwd", 0.2, 0.4, 1],
        ["autodiff.backward", 0.6, 0.9, 0],
        ["tasks.adam", 1.2, 1.8, 0],
        ["trace.bookkeeping", 1.8, 1.9, 0],
    ]
    rows = tracing.epoch_rows(tr, [0.0, 1.0, 2.0], peaks=[])
    assert rows[0]["propagation.epoch_self_ms"] == pytest.approx(300.0)
    assert rows[0]["autodiff.epoch_self_ms"] == pytest.approx(500.0)
    assert rows[0]["unattributed_frac"] == pytest.approx(0.2)
    assert rows[1]["tasks.epoch_self_ms"] == pytest.approx(600.0)
    assert rows[1]["unattributed_frac"] == pytest.approx(0.4)
    for row in rows:
        selfs = sum(row.get(f"{m}.epoch_self_ms", 0.0) for m in tracing.MODULES)
        assert selfs + row["unattributed_frac"] * row["epoch_ms"] == pytest.approx(row["epoch_ms"])


def _aligned_states(seed=0, n=40, d=6):
    rng = np.random.default_rng(seed)
    h1 = rng.normal(size=(n, d))
    h2 = h1[::-1] + 0.3 * rng.normal(size=(n, d))
    pairs = np.array([(i, n - 1 - i) for i in range(n)])
    return h1, h2, pairs


def test_rank_check_accepts_evaluation_ranks_and_rejects_a_wrong_one():
    h1, h2, pairs = _aligned_states()
    ranks = metrics.ranks_from_distance_matrix(tasks.l1_cdist(h1[pairs[:, 0]], h2), pairs[:, 1])
    sample = workloads.rank_sample(len(pairs))
    assert workloads.rank_problems(h1, h2, pairs, 0, ranks, sample) == []
    wrong = ranks.copy()
    wrong[sample[3]] += 1
    problems = workloads.rank_problems(h1, h2, pairs, 0, wrong, sample)
    assert len(problems) == 1 and f"pair {sample[3]}" in problems[0]


def test_alignment_check_uses_the_ranks_evaluation_computed():
    h1, h2, pairs = _aligned_states(seed=1)
    s1, s2 = tasks.EmbeddingState(h1), tasks.EmbeddingState(h2)
    with workloads.capture_ranks() as ranks:
        report = tasks.evaluate_alignment(s1, s2, pairs)
    assert workloads.alignment_problems(s1, s2, pairs, report, ranks) == []
    ranks[1] = ranks[1].copy()
    ranks[1][0] += 5
    assert workloads.alignment_problems(s1, s2, pairs, report, ranks)


def test_training_check_flags_nonfinite_flat_and_low_quality_runs():
    assert workloads.training_problems([3.0, 1.0], 0.9, 0.5) == []
    assert workloads.training_problems([3.0, math.nan], 0.9, 0.5)
    assert workloads.training_problems([1.0, 1.0], 0.9, 0.5)
    assert workloads.training_problems([3.0, 1.0], 0.4, 0.5)


def test_size_check_rejects_a_shrunken_workload():
    w = workloads.WORKLOADS["classify-300"]
    good = workloads.expected_sizes(w)
    workloads.check_sizes(w, good, "test")
    shrunk = dict(good, graphs=[(300, 3, 1499)])
    with pytest.raises(workloads.InputSizeError):
        workloads.check_sizes(w, shrunk, "test")


def test_benchmark_json_names_match_what_the_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    tr = tracing.Tracer()
    traced = tracing.per_layer_metrics(tr, [0.0, 1.0], [], [1000.0], workloads.LAYERS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(traced)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in SPEC["per_layer"])
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    job = workloads.Job(0.1, [float(i) for i in range(21)], [0.5], [2.0, 1.0], 0.9, {})
    gated, info, _ = run.end_to_end(workloads.WORKLOADS["classify-300"], [0.1], [job])
    assert e2e == list(gated)
    assert all(m["unit"] == gated[m["name"]][1] for m in SPEC["end_to_end"])
    assert {"epoch_ms_p50", "epoch_ms_tail", "quality", "failed_frac"} <= set(info)
