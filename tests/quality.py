"""A seed ledger: the test metrics of the three gate runs and of the
relation instance at training seeds 0-4, to judge a change that moves
numbers.

    python tests/quality.py                          # print the ledger
    python tests/quality.py --json QUALITY.json      # and write it
    python tests/quality.py --against QUALITY.json   # and the deltas

The gate runs are those of `tests/test_acceptance.py` (`train-align`
transe and quate with `--rel-test`, `train-classify`; 300 epochs, the
CLI defaults otherwise).  The relation runs train `hub_signature_pair(300,
30, 1500, seed=122)` with a 30% split, dim 64 and 300 epochs, with
`--rel-test`, for `kegcn` transe, `kegcn` quate and `compgcn-sub`: an
instance on which relation MRR does not saturate, unlike criterion 7's.
Each run goes through `kegcn.cli` in this process with `--seed` 0 to 4.
Per run the ledger holds the report's test metrics (relation MRR and
hits@1 among them for the alignment runs), the last epoch's training
loss, and the number of epochs in which every gradient `Adam.step`
received was zero.  Training is deterministic, so a rerun writes the
same file bit for bit.  The printed lines add each run's training time
(`fit`, in seconds), which the file leaves out for that reason.
`--against` prints, per config, the median over seeds of each value,
then per run the deltas.  The package comes from the `src` directory
next to this file's directory, so each checkout measures its own.

Not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

import fingerprint  # puts this checkout's src first on sys.path
from kegcn import cli, tasks

SEEDS = range(5)


def relation_runs(tmp: str):
    """Write the relation instance into tmp and yield each config's name
    and its training command without a seed."""
    data = fingerprint.write_alignment_data(tmp, 300, 30, 1500, 122)
    for name, flags in (("kegcn transe", ["--scorer", "transe"]),
                        ("kegcn quate", ["--scorer", "quate"]),
                        ("compgcn-sub", ["--mode", "compgcn-sub"])):
        yield f"relation {name}", ["train-align", *data, "--rel-test", "rel-test.tsv", *flags,
                                   "--dim", "64", "--epochs", "300"]


def train_once(train_args: list, seed: int) -> dict:
    """One CLI training run: its report's metrics, final loss,
    all-zero-gradient epoch count and training seconds."""
    rec = {"zero_grad_epochs": 0}
    fit, step = tasks.fit, tasks.Adam.step

    def recording_fit(*args, **kwargs):
        t0 = time.perf_counter()
        out = fit(*args, **kwargs)
        rec["train_seconds"] = time.perf_counter() - t0
        rec["final_loss"] = out[-1][-1]
        return out

    def recording_step(self, params, grads):
        rec["zero_grad_epochs"] += not any(g.any() for g in grads.values())
        step(self, params, grads)

    tasks.fit, tasks.Adam.step = recording_fit, recording_step
    try:
        code = cli.main([*train_args, "--seed", str(seed), "--quiet",
                         "--report", "report.tsv"])
    finally:
        tasks.fit, tasks.Adam.step = fit, step
    if code != 0:
        raise SystemExit(f"{' '.join(train_args)} --seed {seed} exited {code}")
    with open("report.tsv", encoding="utf-8") as fh:
        metrics = dict(line.rstrip("\n").split("\t") for line in fh if line.strip())
    del metrics["seed"]
    return {"metrics": {k: float(v) for k, v in metrics.items()}, **rec}


def ledger() -> list:
    runs, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            # lazily: each run's files replace the previous run's
            for name, train_args, *_ in itertools.chain(fingerprint.gate_runs(tmp),
                                                        relation_runs(tmp)):
                runs += [{"run": name, "seed": seed, **train_once(train_args, seed)}
                         for seed in SEEDS]
        finally:
            os.chdir(cwd)
    return runs


def values(r: dict) -> dict:
    """A run's test metrics, final loss and zero-gradient epoch count."""
    return {**r["metrics"], "final_loss": r["final_loss"],
            "zero_grad_epochs": r["zero_grad_epochs"]}


def describe(r: dict) -> str:
    return f"{r['run']} seed {r['seed']}  " + "  ".join(
        f"{k} {v:.6g}" for k, v in {**values(r), "train_s": r["train_seconds"]}.items())


def change(key: str, saved: float, now: float) -> str:
    return f"{key} {saved:.6g} -> {now:.6g} ({now - saved:+.4g})"


def medians(runs: list, saved: list) -> list:
    """One line per config of this run: each value's median over seeds as
    `saved -> now (now - saved)`, nan where the saved ledger lacks it."""
    out = []
    for name in dict.fromkeys(r["run"] for r in runs):
        now, old = ([values(r) for r in rs if r["run"] == name] for rs in (runs, saved))
        out.append(f"{name} median  " + "  ".join(
            change(k, statistics.median(v[k] for v in old) if old else float("nan"),
                   statistics.median(v[k] for v in now)) for k in now[0]))
    return out


def deltas(runs: list, saved: list) -> list:
    """One line per run of both: each value as `saved -> now (now - saved)`."""
    old = {(r["run"], r["seed"]): r for r in saved}
    out = []
    for r in runs:
        s = old.get((r["run"], r["seed"]))
        if s is None:
            out.append(f"{r['run']} seed {r['seed']}  not in the saved ledger")
            continue
        before = values(s)
        out.append(f"{r['run']} seed {r['seed']}  " + "  ".join(
            change(k, before.get(k, float("nan")), v) for k, v in values(r).items()))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="Test metrics of the gate runs and the relation instance over seeds.")
    parser.add_argument("--json", metavar="FILE", help="write the ledger to FILE")
    parser.add_argument("--against", metavar="FILE", help="a saved ledger: print each "
                        "config's medians and each run's deltas against it")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = json.load(fh)
    runs = ledger()
    for r in runs:
        print(describe(r))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([{k: v for k, v in r.items() if k != "train_seconds"} for r in runs],
                      fh, indent=1)
            fh.write("\n")
    if saved is not None:
        print(f"against {args.against}:")
        for line in medians(runs, saved) + deltas(runs, saved):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
