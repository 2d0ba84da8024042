"""A seed ledger: the test metrics of the three gate runs at training
seeds 0-4, to judge a change that moves numbers.

    python tests/quality.py                          # print the ledger
    python tests/quality.py --json QUALITY.json      # and write it
    python tests/quality.py --against QUALITY.json   # and the per-seed deltas

The gate runs are those of `tests/test_acceptance.py` (`train-align`
transe and quate with `--rel-test`, `train-classify`; 300 epochs, the
CLI defaults otherwise), each run in this process through `kegcn.cli`
with `--seed` 0 to 4.  Per run the ledger holds the report's test
metrics, the last epoch's training loss, and the number of epochs in
which every gradient `Adam.step` received was zero.  Training is
deterministic, so a rerun writes the same file bit for bit.  The package
comes from the `src` directory next to this file's directory, so each
checkout measures its own.

Not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import fingerprint  # puts this checkout's src first on sys.path
from kegcn import cli, tasks

SEEDS = range(5)


def train_once(train_args: list, seed: int) -> dict:
    """One CLI training run: its report's metrics, final loss and
    all-zero-gradient epoch count."""
    rec = {"zero_grad_epochs": 0}
    fit, step = tasks.fit, tasks.Adam.step

    def recording_fit(*args, **kwargs):
        out = fit(*args, **kwargs)
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
            for name, train_args, _ in fingerprint.gate_runs(tmp):
                runs += [{"run": name, "seed": seed, **train_once(train_args, seed)}
                         for seed in SEEDS]
        finally:
            os.chdir(cwd)
    return runs


def describe(r: dict) -> str:
    values = {**r["metrics"], "final_loss": r["final_loss"],
              "zero_grad_epochs": r["zero_grad_epochs"]}
    return f"{r['run']} seed {r['seed']}  " + "  ".join(f"{k} {v:.6g}"
                                                       for k, v in values.items())


def deltas(runs: list, saved: list) -> list:
    """One line per run of both: each value as `saved -> now (now - saved)`."""
    old = {(r["run"], r["seed"]): r for r in saved}
    out = []
    for r in runs:
        s = old.get((r["run"], r["seed"]))
        if s is None:
            out.append(f"{r['run']} seed {r['seed']}  not in the saved ledger")
            continue
        pairs = [(k, s["metrics"].get(k, float("nan")), v) for k, v in r["metrics"].items()]
        pairs += [(k, s[k], r[k]) for k in ("final_loss", "zero_grad_epochs")]
        out.append(f"{r['run']} seed {r['seed']}  " + "  ".join(
            f"{k} {a:.6g} -> {b:.6g} ({b - a:+.4g})" for k, a, b in pairs))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Test metrics of the gate runs over seeds.")
    parser.add_argument("--json", metavar="FILE", help="write the ledger to FILE")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved ledger: print each run's deltas against it")
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
            json.dump(runs, fh, indent=1)
            fh.write("\n")
    if saved is not None:
        print(f"against {args.against}:")
        for d in deltas(runs, saved):
            print(d)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
