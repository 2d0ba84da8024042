"""Acceptance gate: ten checks with pinned tolerances and wall-clock budgets.

Each check records one `criterion N: PASS/FAIL` line through the `verdict`
fixture; conftest reprints the collected lines after the run.  The alignment
and classification checks drive the installed CLI on TSV datasets written to
a session temp directory, so argument parsing, data loading, training,
evaluation, and report writing are all covered in one pass.  Determinism is
checked by rerunning every CLI command and comparing reports byte for byte.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kegcn
from kegcn import synthetic
from kegcn.checks import (
    END_TO_END_TASKS,
    end_to_end_gradient_fd,
    reduction_discrepancy,
    scorer_gradient_fd,
)
from kegcn.metrics import accuracy, hits_at_k, mrr
from helpers import ndcg_at_k, precision_at_k, read_report
from kegcn.numerics import (
    circular_correlation,
    complex_elementwise_product,
    hamilton_product,
    seeded,
    softmax_row,
)
from kegcn.propagation import REDUCTION_MODES
from kegcn.scorers import SCORERS, make_scorer
from kegcn.tasks import TrainConfig, train_alignment, zero_shot_relation_alignment

# Generator seeds for the pinned alignment instances.  Hub-signature graphs
# make every entity structurally identifiable; the seed fixes the instance
# so reruns are reproducible.
ALIGN_CASES = {"transe": 122, "quate": 19}

WN_ENV = "KEGCN_WN_DIR"


# The CLI subprocesses import the same kegcn as this process, also when it
# comes from a source checkout put on sys.path by pytest's `pythonpath`.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(kegcn.__file__)))


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kegcn.cli", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _timed_run(args, directory):
    report = directory / "report.tsv"
    start = time.monotonic()
    _run_cli(args + ["--report", str(report)])
    seconds = time.monotonic() - start
    return {
        "args": args,
        "dir": directory,
        "bytes": report.read_bytes(),
        "seconds": seconds,
        "metrics": read_report(str(report)),
    }


@pytest.fixture(scope="session")
def gate_runs(tmp_path_factory):
    """Datasets plus one timed CLI run per training configuration."""
    base = tmp_path_factory.mktemp("gate")
    runs = {}
    for scorer, gen_seed in ALIGN_CASES.items():
        d = base / scorer
        d.mkdir()
        g1, g2, ent_pairs, rel_pairs = synthetic.hub_signature_pair(
            200, 5, 1000, seed=gen_seed
        )
        seeds = synthetic.alignment_split(ent_pairs, 0.3, seed=0)
        synthetic.write_graph_tsv(d / "g1.tsv", g1)
        synthetic.write_graph_tsv(d / "g2.tsv", g2)
        synthetic.write_pairs_tsv(d / "train.tsv", seeds.train)
        synthetic.write_pairs_tsv(d / "test.tsv", seeds.test)
        synthetic.write_pairs_tsv(d / "rel_test.tsv", rel_pairs)
        args = [
            "train-align",
            "--graph1", str(d / "g1.tsv"),
            "--graph2", str(d / "g2.tsv"),
            "--train", str(d / "train.tsv"),
            "--test", str(d / "test.tsv"),
            "--rel-test", str(d / "rel_test.tsv"),
            "--scorer", scorer,
            "--dim", "64",
            "--epochs", "300",
            "--seed", "0",
            "--quiet",
        ]
        runs[scorer] = _timed_run(args, d)

    d = base / "classify"
    d.mkdir()
    graph, labels = synthetic.block_classification(300, 3, 1500, noise=0.1, seed=0)
    split = synthetic.classification_split(
        labels, 3, train_fraction=0.1, valid_fraction=0.0, seed=0
    )
    synthetic.write_graph_tsv(d / "g.tsv", graph)
    synthetic.write_labels_tsv(d / "train.tsv", labels, split.train)
    synthetic.write_labels_tsv(d / "test.tsv", labels, split.test)
    args = [
        "train-classify",
        "--graph1", str(d / "g.tsv"),
        "--train", str(d / "train.tsv"),
        "--test", str(d / "test.tsv"),
        "--epochs", "300",
        "--seed", "0",
        "--quiet",
    ]
    runs["classify"] = _timed_run(args, d)
    return runs


def test_criterion_1_scorer_gradients(verdict):
    """Scorer gradients as training computes them (`messages` on a one-row
    tape) vs central differences of the score: 6 scorers, 3 gradients each,
    100 random points, floored relative error <= 1e-6 (the 1e-2 floor holds
    near-zero gradients to 1e-8 absolute)."""
    start = time.monotonic()
    errs = {k: scorer_gradient_fd(k, n_points=100) for k in sorted(SCORERS)}
    seconds = time.monotonic() - start
    worst = max(errs.values())
    ok = worst <= 1e-6 and seconds < 30.0
    assert verdict(
        1, ok, f"scorer gradient FD worst {worst:.2e} (tol 1e-6), "
        f"{seconds:.1f}s (budget 30s)"
    )


def test_criterion_2_end_to_end_gradients(verdict):
    """Whole-model training gradients vs finite differences on a 10-entity,
    3-relation, 2-layer instance: alignment loss and both classification
    losses for every scorer, error <= 1e-4."""
    start = time.monotonic()
    errs = {
        (task, kind): end_to_end_gradient_fd(task, kind)
        for task in END_TO_END_TASKS
        for kind in sorted(SCORERS)
    }
    seconds = time.monotonic() - start
    worst = max(errs.values())
    ok = worst <= 1e-4 and seconds < 120.0
    assert verdict(
        2, ok, f"end-to-end gradient FD worst {worst:.2e} over "
        f"{len(errs)} task/scorer pairs (tol 1e-4), {seconds:.1f}s (budget 120s)"
    )


def test_criterion_3_reduction_equivalence(verdict):
    """Eager per-entity layers of the five reduction modes vs the batched
    tape forward: 20 entities, 4 relations, 3 layers, 5 seeds each, max
    absolute discrepancy <= 1e-9."""
    start = time.monotonic()
    worst = max(
        reduction_discrepancy(mode, seed)
        for mode in REDUCTION_MODES
        for seed in range(5)
    )
    seconds = time.monotonic() - start
    ok = worst <= 1e-9 and seconds < 30.0
    assert verdict(
        3, ok, f"reduction discrepancy worst {worst:.2e} over "
        f"{len(REDUCTION_MODES)} modes x 5 seeds (tol 1e-9), "
        f"{seconds:.1f}s (budget 30s)"
    )


def test_criterion_4_algebra(verdict):
    """Quaternion norm multiplicativity and the i*j=k table, rotation-scorer
    global-phase invariance <= 1e-10, circular-correlation delta identity,
    and softmax rows summing to 1 +/- 1e-12."""
    start = time.monotonic()
    rng = seeded(0)

    worst_norm = 0.0
    for _ in range(100):
        p = rng.normal(size=(4,))
        q = rng.normal(size=(4,))
        pq = hamilton_product(p, q)
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(pq) - np.linalg.norm(p) * np.linalg.norm(q)),
        )

    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    one = np.array([1.0, 0.0, 0.0, 0.0])
    table_ok = (
        np.array_equal(hamilton_product(i, j), k)
        and np.array_equal(hamilton_product(j, k), i)
        and np.array_equal(hamilton_product(k, i), j)
        and np.array_equal(hamilton_product(i, i), -one)
    )

    scorer = make_scorer("rotate", 8)
    worst_phase = 0.0
    for _ in range(20):
        u = rng.normal(size=scorer.entity_width)
        r = rng.normal(size=scorer.relation_width)
        v = rng.normal(size=scorer.entity_width)
        base = scorer.score(u, r, v)
        phi = 2.0 * np.pi * float(rng.random())
        rot = np.tile([[np.cos(phi), np.sin(phi)]], (scorer.dim, 1))
        # the kernel takes (2, d) component planes; the scorer interleaved pairs
        u2 = complex_elementwise_product(u.reshape(-1, 2).T, rot.T).T.reshape(-1)
        v2 = complex_elementwise_product(v.reshape(-1, 2).T, rot.T).T.reshape(-1)
        worst_phase = max(worst_phase, abs(scorer.score(u2, r, v2) - base))

    delta = np.zeros(16)
    delta[0] = 1.0
    x = rng.normal(size=(16,))
    delta_err = float(np.max(np.abs(circular_correlation(delta, x) - x)))

    rows = softmax_row(rng.normal(size=(50, 7)))
    row_err = float(np.max(np.abs(np.sum(rows, axis=-1) - 1.0)))

    seconds = time.monotonic() - start
    ok = (
        worst_norm <= 1e-12
        and table_ok
        and worst_phase <= 1e-10
        and delta_err <= 1e-12
        and row_err <= 1e-12
        and seconds < 10.0
    )
    assert verdict(
        4, ok, f"|pq|-|p||q| {worst_norm:.1e}, unit table {'ok' if table_ok else 'BAD'}, "
        f"phase invariance {worst_phase:.1e} (tol 1e-10), delta identity "
        f"{delta_err:.1e}, softmax rows {row_err:.1e} (tol 1e-12), "
        f"{seconds:.1f}s (budget 10s)"
    )


def test_criterion_5_metric_oracles(verdict):
    """Hand-computed ranking metric values: MRR of ranks [1,2,4] equals 7/12
    +/- 1e-10, a worked NDCG@5 case equals 0.91972 +/- 1e-4, and hits,
    accuracy, and precision@k hand cases are exact."""
    start = time.monotonic()
    mrr_err = abs(mrr([1, 2, 4]) - 7.0 / 12.0)

    # truth {a, b}; ranking [a, x, b, y, z]
    row = [0.9, 0.8, 0.7, 0.6, 0.5]
    ndcg_err = abs(ndcg_at_k(row, {0, 2}, 5) - 0.91972)

    exact_ok = (
        hits_at_k([1, 3, 1, 10], 1) == 0.5
        and hits_at_k([1, 3, 1, 10], 3) == 0.75
        and accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
        and precision_at_k(row, {0, 1, 2}, 3) == 1.0
        and precision_at_k(row, {1}, 5) == 0.2
    )
    seconds = time.monotonic() - start
    ok = mrr_err <= 1e-10 and ndcg_err <= 1e-4 and exact_ok and seconds < 5.0
    assert verdict(
        5, ok, f"mrr err {mrr_err:.1e} (tol 1e-10), ndcg err {ndcg_err:.1e} "
        f"(tol 1e-4), exact cases {'ok' if exact_ok else 'BAD'}, "
        f"{seconds:.1f}s (budget 5s)"
    )


def test_criterion_6_synthetic_alignment(verdict, gate_runs):
    """Isomorphic 200-entity, 5-relation, ~1000-triple graph pairs with 30%
    training seeds, width 64, 300 epochs: test entity hits@1 >= 0.90 for the
    translation and quaternion scorers through the CLI."""
    h_t = float(gate_runs["transe"]["metrics"]["hits1"])
    h_q = float(gate_runs["quate"]["metrics"]["hits1"])
    seconds = gate_runs["transe"]["seconds"] + gate_runs["quate"]["seconds"]
    # hits@1 averages two direction ratios of small integer counts, so a
    # value equal to the floor can land one float ulp below it
    floor = 0.90 - 1e-9
    ok = h_t >= floor and h_q >= floor and seconds < 600.0
    assert verdict(
        6, ok, f"test hits@1 transe {h_t:.4f}, quate {h_q:.4f} (floor 0.90), "
        f"{seconds:.0f}s (budget 600s)"
    )


def test_criterion_7_relation_update_advantage(verdict):
    """Zero-shot relation alignment on the criterion-6 task: gradient-message
    relation updates must strictly beat the subtraction-composition baseline
    trained with identical seeds in at least 4 of 5 runs.

    At this scale both modes saturate relation MRR at 1.0 (5 relations with
    ~200 edges each over-determine the matching), so a strict win is not
    observed; the check is kept at full strength rather than loosened."""
    start = time.monotonic()
    g1, g2, ent_pairs, rel_pairs = synthetic.hub_signature_pair(
        200, 5, 1000, seed=ALIGN_CASES["transe"]
    )
    seeds = synthetic.alignment_split(ent_pairs, 0.3, seed=0)
    wins = 0
    rows = []
    for s in range(5):
        score = {}
        for mode in ("kegcn", "compgcn-sub"):
            cfg = TrainConfig(scorer="transe", mode=mode, dim=64, epochs=300, seed=s)
            res = train_alignment(g1, g2, seeds, cfg)
            score[mode] = zero_shot_relation_alignment(
                res.state1, res.state2, rel_pairs
            )["mrr"]
        wins += score["kegcn"] > score["compgcn-sub"]
        rows.append(f"s{s} {score['kegcn']:.3f}/{score['compgcn-sub']:.3f}")
    seconds = time.monotonic() - start
    ok = wins >= 4 and seconds < 1200.0
    assert verdict(
        7, ok, f"relation MRR kegcn/compgcn-sub per seed: {'  '.join(rows)}; "
        f"strict wins {wins}/5 (need >=4), {seconds:.0f}s (budget 1200s)"
    )


def test_criterion_8_synthetic_classification(verdict, gate_runs):
    """Directed stochastic-block graph, 300 entities, 3 classes, 10% labeled:
    test accuracy >= 0.95 within 300 epochs at the classify defaults
    (width 32, 4 layers, alpha 0.3) through the CLI."""
    acc = float(gate_runs["classify"]["metrics"]["accuracy"])
    seconds = gate_runs["classify"]["seconds"]
    ok = acc >= 0.95 and seconds < 300.0
    assert verdict(
        8, ok, f"test accuracy {acc:.4f} (floor 0.95), {seconds:.0f}s (budget 300s)"
    )


def test_criterion_9_deterministic_reports(verdict, gate_runs):
    """Rerunning every training CLI command with the same seed must produce
    byte-identical report files."""
    mismatched = []
    for name, run in gate_runs.items():
        second = run["dir"] / "rerun.tsv"
        _run_cli(run["args"] + ["--report", str(second)])
        if second.read_bytes() != run["bytes"]:
            mismatched.append(name)
    ok = not mismatched
    detail = (
        "all rerun reports byte-identical"
        if ok
        else f"reports differ on rerun: {', '.join(mismatched)}"
    )
    assert verdict(9, ok, detail)


def test_criterion_10_wordnet_classification(verdict, tmp_path):
    """Optional large-graph check: classification on a hypernym graph laid
    out as graph.tsv plus train/valid/test label TSVs under $KEGCN_WN_DIR,
    test accuracy >= 0.50 at the classify defaults.  Skips when the dataset
    is absent."""
    root = os.environ.get(WN_ENV, "")
    needed = ("graph.tsv", "train.tsv", "valid.tsv", "test.tsv")
    if not root or not all(os.path.exists(os.path.join(root, f)) for f in needed):
        verdict(10, True, f"dataset files absent (set {WN_ENV} to run)", status="SKIP")
        pytest.skip("large classification dataset not present")
    args = [
        "train-classify",
        "--graph1", os.path.join(root, "graph.tsv"),
        "--train", os.path.join(root, "train.tsv"),
        "--valid", os.path.join(root, "valid.tsv"),
        "--test", os.path.join(root, "test.tsv"),
        "--seed", "0",
        "--quiet",
    ]
    run = _timed_run(args, tmp_path)
    acc = float(run["metrics"]["accuracy"])
    ok = acc >= 0.50 and run["seconds"] < 7200.0
    assert verdict(
        10, ok, f"test accuracy {acc:.4f} (floor 0.50), "
        f"{run['seconds']:.0f}s (budget 7200s)"
    )
