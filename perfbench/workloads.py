"""Workload table, input generation, one training job, and its checks.

A job is what one `kegcn train-align` / `train-classify` user does: load
the TSV bundle through `kegcn.io`, train for the workload's fixed epoch
count, then evaluate on the test split.  Everything goes through the
package's public API; `src/kegcn` is never modified.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kegcn import io as kio
from kegcn import metrics, numerics, propagation, synthetic, tasks
# Bound at import time, before tracing patches the `tasks` module: the
# training loop's own validation calls go through the patched names and
# show up as `tasks.valid`, while the final evaluation below is timed by
# the benchmark as `tasks.eval`.
from kegcn.tasks import evaluate_alignment, evaluate_classification


@dataclass(frozen=True)
class Workload:
    name: str
    task: str            # "align" or "classify"
    base_seed: int       # generator seed for --seed 0
    entities: int
    relations: int       # relation count; for classify also the class count
    triples: int
    dim: int
    epochs: int
    quality_floor: float
    job_seconds: float   # one job's wall time on the reference host, fast state
    scorer: str = "transe"
    train_fraction: float = 0.3
    valid_fraction: float = 0.0


WORKLOADS = {
    w.name: w for w in (
        # why each workload was chosen: BENCHMARK.json and perfbench/README.md
        Workload(
            name="align-quate-200", task="align", base_seed=19,
            entities=200, relations=5, triples=1000, scorer="quate", dim=64,
            epochs=40, quality_floor=0.4, job_seconds=10.0),
        Workload(
            name="classify-300", task="classify", base_seed=0,
            entities=300, relations=3, triples=1500, dim=32, epochs=200,
            quality_floor=0.7, job_seconds=5.0, train_fraction=0.1, valid_fraction=0.1),
    )
}

LAYERS = 4
RANK_SAMPLE = 16          # test pairs whose ranks are recomputed by the oracle
SETUP_REPS = 10           # timed bundle loads per batch, one batch per job
REPLAYS = 20              # extra final-forward + evaluation passes per job


class InputSizeError(RuntimeError):
    """Generated or loaded inputs differ from the workload's stated sizes."""


def train_config(w: Workload, seed: int) -> tasks.TrainConfig:
    # patience above the epoch count: every run trains exactly `epochs`
    return tasks.TrainConfig(scorer=w.scorer, dim=w.dim, layers=LAYERS,
                             epochs=w.epochs, patience=w.epochs + 1, seed=seed)


def expected_sizes(w: Workload) -> dict:
    n_train = int(round(w.train_fraction * w.entities))
    n_valid = int(round(w.valid_fraction * w.entities))
    graphs = 2 if w.task == "align" else 1
    return {
        "graphs": [(w.entities, w.relations, w.triples)] * graphs,
        "splits": (n_train, n_valid, w.entities - n_train - n_valid),
    }


def bundle_sizes(graphs, splits) -> dict:
    return {
        "graphs": [(g.num_entities, g.num_relations, g.num_triples) for g in graphs],
        "splits": tuple(len(s) for s in splits),
    }


def check_sizes(w: Workload, got: dict, where: str) -> None:
    want = expected_sizes(w)
    if got != want:
        raise InputSizeError(f"{w.name}: {where} sizes {got} differ from stated {want}")


def write_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Generate the workload's instance for `seed` and write it as TSV.
    Returns the `io.load_*_bundle` values dict."""
    d = Path(directory)
    values = {"graph1": str(d / "g1.tsv"), "train": str(d / "train.tsv"),
              "valid": str(d / "valid.tsv"), "test": str(d / "test.tsv")}
    if w.task == "align":
        g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(
            w.entities, w.relations, w.triples, seed=w.base_seed + seed)
        seeds = synthetic.alignment_split(ent_pairs, w.train_fraction, seed=seed,
                                          valid_fraction=w.valid_fraction)
        check_sizes(w, bundle_sizes([g1, g2], [seeds.train, seeds.valid, seeds.test]),
                    "generated")
        values["graph2"] = str(d / "g2.tsv")
        synthetic.write_graph_tsv(values["graph1"], g1)
        synthetic.write_graph_tsv(values["graph2"], g2)
        for split in ("train", "valid", "test"):
            synthetic.write_pairs_tsv(values[split], getattr(seeds, split))
    else:
        g, labels = synthetic.block_classification(
            w.entities, w.relations, w.triples, noise=0.1, seed=w.base_seed + seed)
        ls = synthetic.classification_split(labels, w.relations, w.train_fraction,
                                            w.valid_fraction, seed=seed)
        check_sizes(w, bundle_sizes([g], [ls.train, ls.valid, ls.test]), "generated")
        synthetic.write_graph_tsv(values["graph1"], g)
        for split in ("train", "valid", "test"):
            synthetic.write_labels_tsv(values[split], labels, getattr(ls, split))
    return values


def load_bundle(w: Workload, values: dict):
    if w.task == "align":
        return kio.load_alignment_bundle(values)
    return kio.load_classification_bundle(values)


def loaded_sizes(w: Workload, bundle) -> dict:
    s = bundle.seeds if w.task == "align" else bundle.label_set
    return bundle_sizes(bundle.graphs, [s.train, s.valid, s.test])


# ---------------- correctness ----------------


def rank_problems(h_src: np.ndarray, h_dst: np.ndarray, pairs: np.ndarray,
                  src_col: int, ranks, sample) -> list:
    """Recompute the ranks of the sampled pairs with plain NumPy L1 and the
    `metrics.rank_of_truth` oracle; report every disagreement with `ranks`."""
    out = []
    for q in sample:
        src, truth = int(pairs[q, src_col]), int(pairs[q, 1 - src_col])
        dist = np.abs(h_dst - h_src[src]).sum(axis=1)
        want = metrics.rank_of_truth(list(enumerate(dist.tolist())), truth)
        if int(ranks[q]) != want:
            out.append(f"direction {src_col} pair {q}: rank {int(ranks[q])}, oracle {want}")
    return out


def rank_sample(n: int) -> list:
    return sorted(set(np.linspace(0, n - 1, min(RANK_SAMPLE, n)).astype(int).tolist()))


def training_problems(losses, quality: float, floor: float) -> list:
    out = []
    if not losses or not all(math.isfinite(x) for x in losses):
        out.append("non-finite or missing epoch loss")
    elif not losses[-1] < losses[0]:
        out.append(f"last loss {losses[-1]!r} not below first {losses[0]!r}")
    if not quality >= floor:
        out.append(f"quality {quality!r} below floor {floor}")
    return out


@contextmanager
def capture_ranks():
    """Record every rank vector `metrics.ranks_from_distance_matrix` returns."""
    captured = []
    inner = metrics.ranks_from_distance_matrix

    def recording(dist, truths):
        r = inner(dist, truths)
        captured.append(r)
        return r

    metrics.ranks_from_distance_matrix = recording
    try:
        yield captured
    finally:
        metrics.ranks_from_distance_matrix = inner


def alignment_problems(state1, state2, pairs, report, ranks) -> list:
    """Check evaluation's own ranks against the oracle on a fixed sample."""
    if len(ranks) != 2:
        return [f"expected 2 rank vectors from evaluation, got {len(ranks)}"]
    pairs = np.asarray(pairs, dtype=np.int64)
    fwd, bwd = ranks
    problems = []
    if 0.5 * (metrics.hits_at_k(fwd, 10) + metrics.hits_at_k(bwd, 10)) != report["hits10"]:
        problems.append("captured ranks do not reproduce the reported hits@10")
    sample = rank_sample(len(pairs))
    problems += rank_problems(state1.entity, state2.entity, pairs, 0, fwd, sample)
    problems += rank_problems(state2.entity, state1.entity, pairs, 1, bwd, sample)
    return problems


def classification_problems(scores, label_set, ids, report) -> list:
    pred = np.argmax(scores[np.asarray(ids, dtype=np.int64)], axis=1)
    truth = np.array([label_set.labels[e][0] for e in ids])
    if float(np.mean(pred == truth)) != report["accuracy"]:
        return ["accuracy disagrees with a plain NumPy argmax recount"]
    return []


# ---------------- one job ----------------


@dataclass
class Job:
    setup_s: float
    bounds: list          # train start, then each progress-callback time
    eval_s: list
    losses: list
    quality: float
    report: dict
    problems: list = field(default_factory=list)

    @property
    def epoch_ms(self) -> list:
        return [1000.0 * b for b in np.diff(self.bounds)]


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def run_job(w: Workload, values: dict, seed: int, tracer=None, on_epoch=None) -> Job:
    """Load, train for the fixed epochs, evaluate, check.  `tracer` (if
    given) receives the benchmark's own spans; `on_epoch` runs at every
    progress callback, after its timestamp is taken."""
    t0 = time.perf_counter()
    with _span(tracer, "io.load"):
        bundle = load_bundle(w, values)
    setup_s = time.perf_counter() - t0
    check_sizes(w, loaded_sizes(w, bundle), "loaded")
    cfg = train_config(w, seed)
    align = w.task == "align"
    stamps = []

    def progress(epoch, loss, metric):
        stamps.append(time.perf_counter())
        if on_epoch is not None:
            on_epoch()

    t_train = time.perf_counter()
    with _span(tracer, "tasks.train"):
        if align:
            res = tasks.train_alignment(*bundle.graphs, bundle.seeds, cfg, progress=progress)
            outputs = (res.state1, res.state2)
        else:
            res = tasks.train_classification(bundle.graphs[0], bundle.label_set, cfg,
                                             progress=progress)
            outputs = res.scores
    mc = cfg.model_config(out_dim=None if align else bundle.label_set.num_classes)
    scorer = propagation.config_scorer(mc)

    # evaluate() returns its end time, taken before the checks run
    if align:
        test = bundle.seeds.test

        def evaluate(states):
            with _span(tracer, "tasks.eval"), capture_ranks() as ranks:
                report = evaluate_alignment(*states, test)
            t_end = time.perf_counter()
            return report, t_end, alignment_problems(*states, test, report, ranks)

        def final_forward():
            return tuple(propagation.model_forward(g, init, res.params, mode=mc.mode,
                                                   scorer=scorer)
                         for g, init in zip(bundle.graphs, (res.init1, res.init2)))
    else:
        ls = bundle.label_set
        test = ls.test

        def evaluate(scores):
            with _span(tracer, "tasks.eval"):
                report = evaluate_classification(scores, ls, test)
            t_end = time.perf_counter()
            return report, t_end, classification_problems(scores, ls, test, report)

        def final_forward():
            logits = propagation.model_forward(bundle.graphs[0], res.init, res.params,
                                               mode=mc.mode, scorer=scorer).entity
            return numerics.softmax_row(logits)

    report, t_end, problems = evaluate(outputs)
    eval_s = [t_end - stamps[-1]]
    # Replays of the final forward + evaluation give eval_s more samples.
    for _ in range(REPLAYS):
        t = time.perf_counter()
        with _span(tracer, "tasks.final_forward"):
            outputs = final_forward()
        again, t_end, more = evaluate(outputs)
        eval_s.append(t_end - t)
        if again != report:
            problems.append(f"evaluation replay gave {again}, first pass {report}")
        problems += more

    quality = report["hits10"] if align else report["accuracy"]
    problems += training_problems(res.losses, quality, w.quality_floor)
    return Job(setup_s, [t_train] + stamps, eval_s, list(res.losses), quality, report, problems)


def setup_samples(w: Workload, values: dict, tracer=None) -> list:
    """SETUP_REPS timed loads of the TSV bundle (median taken by the caller)."""
    out = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        with _span(tracer, "io.load"):
            bundle = load_bundle(w, values)
        out.append(time.perf_counter() - t)
        check_sizes(w, loaded_sizes(w, bundle), "loaded")
    return out
