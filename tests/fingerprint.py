"""Hashes of what training, the loaders and the CLI compute, to show that
a change keeps them bit for bit.

    python tests/fingerprint.py            # everything, a few minutes
    python tests/fingerprint.py --no-cli   # the training and loader records only
    python tests/fingerprint.py --against saved.txt

Each line is a name and the sha256 of the bytes it stands for.  The
package comes from the `src` directory next to this file's directory, so
each checkout hashes its own.  Save a run of one checkout and run the
other with `--against` that file: after its own lines it prints, to
stderr, each name whose hash differs from the saved one or that the file
lacks, and exits 1 if there is any.  Saved names this run does not make
(the CLI ones under `--no-cli`) are not compared.

Training records: for kegcn with each of the six scorers and for the
five reduction modes, on alignment (`hub_signature_pair(40, 3, 150,
seed=1)`) and classification (`block_classification(60, 3, 200,
seed=3)`), dim 8, 3 layers, alpha 0.3, 4 epochs; and for kegcn with
alpha None (set on the `ModelConfig`) in 2 layers for alignment and 1 for
classification, where deeper unnormalized stacks saturate the loss.
Hashed are the losses, every epoch's leaf gradients as `Adam.step`
receives them, the weights and tables after every step, and the final
states (`model_forward` over the restored best tables, final relation
included).

Loaders: for the data files of each of the three gate runs (below), for
a copy of the first run's files with every id a string, and for copies
of the first and last runs' files with integer ids but CRLF line ends, a
comment line and a padded token, what `kegcn.io` reads: each graph's
index columns and vocabulary names, then the bundle's seed pairs or
labels.  Clean integer files take the loaders' bulk path, the copies
their general one.

CLI: for each of the three gate runs (`train-align` transe and quate
with `--rel-test`, `train-classify`; the instances of
`tests/test_acceptance.py`, 300 epochs) the bytes of its report, of the
checkpoint it writes and of the report of `kegcn eval` on that
checkpoint; and the stdout of `verify-reductions` and `gradcheck
--scorer all`.

Not collected by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from kegcn import io as kio, synthetic, tasks  # noqa: E402
from kegcn.propagation import REDUCTION_MODES, model_forward  # noqa: E402

SCORER_KINDS = ("transe", "distmult", "transh", "transd", "rotate", "quate")


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def training_record(task: str, mode: str, scorer: str, alpha) -> dict:
    """Hashes of one dim-8, 4-epoch run; alpha None is set on the
    ModelConfig, since TrainConfig takes a number."""
    layers = 3 if alpha is not None else 2 if task == "alignment" else 1
    cfg = tasks.TrainConfig(mode=mode, scorer=scorer, dim=8, layers=layers, epochs=4,
                            lr=0.05, alpha=0.3 if alpha is None else alpha)
    grads, steps = [], []
    step, model_config = tasks.Adam.step, tasks.TrainConfig.model_config

    def recording_step(self, params, g):
        grads.extend(g[k].copy() for k in sorted(g))
        step(self, params, g)
        steps.extend(params[k].copy() for k in sorted(params))

    def config(self, out_dim=None):
        mc = model_config(self, out_dim)
        mc.alpha = alpha
        return mc

    tasks.Adam.step = recording_step
    tasks.TrainConfig.model_config = config
    try:
        if task == "alignment":
            g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
            seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
            res = tasks.train_alignment(g1, g2, seeds, cfg)
            runs = [(g1, res.init1), (g2, res.init2)]
        else:
            g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
            label_set = synthetic.classification_split(labels, 3, seed=3)
            res = tasks.train_classification(g, label_set, cfg)
            runs = [(g, res.init)]
        scorer_obj = tasks.config_scorer(cfg.model_config(
            None if task == "alignment" else label_set.num_classes))
        finals = [model_forward(g, st, res.params, mode=mode, scorer=scorer_obj)
                  for g, st in runs]
    finally:
        tasks.Adam.step, tasks.TrainConfig.model_config = step, model_config
    return {
        "losses": digest([np.array(res.losses)]),
        "grads": digest(grads),
        "steps": digest(steps),
        "final": digest([a for st in finals for a in (st.entity, st.relation)
                         if a is not None]),
    }


def training_cases():
    for task in ("alignment", "classification"):
        for scorer in SCORER_KINDS:
            for alpha in (0.3, None):
                yield task, "kegcn", scorer, alpha
        for mode in REDUCTION_MODES:
            yield task, mode, "transe", 0.3


def cli(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "kegcn.cli", *args], cwd=cwd, env=env,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.decode())
    return proc


def gate_records(name: str, train_args: list, data_args: list, cwd: str):
    """The report of one gate run, the checkpoint it writes, and the report
    of `kegcn eval` on that checkpoint over the same data files."""
    cli([*train_args, "--quiet", "--report", "report.tsv", "--checkpoint", "model.ckpt"], cwd)
    cli(["eval", "--checkpoint", "model.ckpt", *data_args, "--report", "eval.tsv"], cwd)
    for what, path in (("report", "report.tsv"), ("checkpoint", "model.ckpt"),
                       ("eval report", "eval.tsv")):
        with open(os.path.join(cwd, path), "rb") as fh:
            yield f"cli {name} {what}", hashlib.sha256(fh.read()).hexdigest()


def write_alignment_data(tmp: str, n: int, r: int, edges: int, seed: int) -> list:
    """Write `hub_signature_pair(n, r, edges, seed=seed)` with a 30% train
    split into tmp (graph1, graph2, train, test, and the relation pairs as
    rel-test) and return the data flags `kegcn eval` takes."""
    g1, g2, ent_pairs, rel_pairs = synthetic.hub_signature_pair(n, r, edges, seed=seed)
    seeds = synthetic.alignment_split(ent_pairs, 0.3, seed=0)
    for name, g in (("graph1", g1), ("graph2", g2)):
        synthetic.write_graph_tsv(os.path.join(tmp, f"{name}.tsv"), g)
    for name, pairs in (("train", seeds.train), ("test", seeds.test), ("rel-test", rel_pairs)):
        synthetic.write_pairs_tsv(os.path.join(tmp, f"{name}.tsv"), pairs)
    return [x for name in ("graph1", "graph2", "train", "test")
            for x in (f"--{name}", f"{name}.tsv")]


def gate_runs(tmp: str):
    """Write the data of each gate run (the instances of
    `tests/test_acceptance.py`) into tmp and yield its name, its training
    command without a seed, and the data flags `kegcn eval` takes.  The
    files hold one run's data at a time: the next run's replace them."""
    for scorer, gen_seed in (("transe", 122), ("quate", 19)):
        data = write_alignment_data(tmp, 200, 5, 1000, gen_seed)
        yield (f"train-align {scorer}",
               ["train-align", *data, "--rel-test", "rel-test.tsv", "--scorer", scorer,
                "--dim", "64", "--epochs", "300"], data)

    graph, labels = synthetic.block_classification(300, 3, 1500, noise=0.1, seed=0)
    split = synthetic.classification_split(labels, 3, train_fraction=0.1,
                                           valid_fraction=0.0, seed=0)
    synthetic.write_graph_tsv(os.path.join(tmp, "g.tsv"), graph)
    synthetic.write_labels_tsv(os.path.join(tmp, "train.tsv"), labels, split.train)
    synthetic.write_labels_tsv(os.path.join(tmp, "test.tsv"), labels, split.test)
    data = ["--graph1", "g.tsv", "--train", "train.tsv", "--test", "test.tsv"]
    yield "train-classify", ["train-classify", *data, "--epochs", "300"], data


def loaded(values: dict) -> str:
    """sha256 of what the loaders read from one bundle's files (values as
    `io.load_*_bundle` takes them)."""
    h = hashlib.sha256()
    for key in ("graph1", "graph2"):
        if key in values:
            g, ent, rel = kio.load_graph(values[key])
            h.update(digest([g.heads, g.rels, g.tails]).encode())
            h.update(repr((ent.int_mode, ent.names(), rel.int_mode, rel.names())).encode())
    if "graph2" in values:
        s = kio.load_alignment_bundle(values).seeds
        h.update(repr((s.train, s.valid, s.test)).encode())
    else:
        ls = kio.load_classification_bundle(values).label_set
        h.update(repr((ls.labels, ls.num_classes, ls.multi_label, ls.train, ls.valid,
                       ls.test)).encode())
    return h.hexdigest()


def string_ids(values: dict) -> dict:
    """A copy of a bundle's files in which every id is a string: each
    token gets an `x` in front."""
    out = {}
    for key, path in values.items():
        out[key] = f"{path}.str"
        with open(path, encoding="utf-8") as src, open(out[key], "w", encoding="utf-8") as dst:
            dst.writelines("\t".join("x" + t for t in line.rstrip("\n").split("\t")) + "\n"
                           for line in src)
    return out


def unclean_ints(values: dict) -> dict:
    """A copy of a bundle's files that keeps their integer ids but leaves
    the bulk path: CRLF line ends, a comment line first, and the first
    token padded."""
    out = {}
    for key, path in values.items():
        out[key] = f"{path}.crlf"
        with open(path, "rb") as src, open(out[key], "wb") as dst:
            dst.write(b"# copy\r\n " + src.read().replace(b"\n", b"\r\n"))
    return out


def loader_records():
    with tempfile.TemporaryDirectory() as tmp:
        for name, _, data_args in gate_runs(tmp):
            values = {flag[2:]: os.path.join(tmp, path)
                      for flag, path in zip(data_args[::2], data_args[1::2])}
            yield f"load {name}", loaded(values)
            if name == "train-align transe":
                yield f"load {name} string ids", loaded(string_ids(values))
            if name in ("train-align transe", "train-classify"):
                yield f"load {name} unclean ints", loaded(unclean_ints(values))


def cli_records():
    with tempfile.TemporaryDirectory() as tmp:
        for name, train_args, data_args in gate_runs(tmp):
            yield from gate_records(name, [*train_args, "--seed", "0"], data_args, tmp)
        for args in (["verify-reductions"], ["gradcheck", "--scorer", "all"]):
            out = cli(args, tmp).stdout
            yield f"cli {' '.join(args)} stdout", hashlib.sha256(out).hexdigest()


def records(cli_too: bool):
    for task, mode, scorer, alpha in training_cases():
        for what, h in training_record(task, mode, scorer, alpha).items():
            yield f"{task} {mode} {scorer} alpha={alpha} {what}", h
    yield from loader_records()
    if cli_too:
        yield from cli_records()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Hash what training and the CLI compute.")
    parser.add_argument("--no-cli", action="store_true",
                        help="the training and loader records only")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved run: print the names that differ and exit 1 if any do")
    args = parser.parse_args(argv)
    got = {}
    for name, h in records(not args.no_cli):
        print(f"{name} {h}", flush=True)
        got[name] = h
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = dict(line.rstrip("\n").rsplit(" ", 1) for line in fh if line.strip())
    differ = [name for name, h in got.items() if saved.get(name) != h]
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(differ)} of {len(got)} lines differ from {args.against}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
