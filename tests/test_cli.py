"""End-to-end tests of the command-line interface."""

import argparse
import os
import resource
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import kegcn
from helpers import read_report
from kegcn import cli
from kegcn import io as io_mod
from kegcn.graph import build_graph
from kegcn.numerics import RandomSource
from kegcn.propagation import init_params, init_state
from kegcn.tasks import TrainConfig


def write_ring_dataset(tmp_path, n=14, r=2, prefix="g1"):
    lines = []
    for i in range(n):
        lines.append(f"{i}\t{i % r}\t{(i + 1) % n}")
        lines.append(f"{i}\t{(i + 1) % r}\t{(i + 5) % n}")
    p = tmp_path / f"{prefix}.tsv"
    p.write_text("\n".join(lines) + "\n")
    return p


def write_pairs(tmp_path, name, pairs):
    p = tmp_path / name
    p.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    return p


def test_no_arguments_usage(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_verify_reductions_cli(capsys):
    assert cli.main(["verify-reductions", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for mode in ("compgcn-sub", "compgcn-mult", "compgcn-corr", "rgcn", "wgcn"):
        assert mode in out
    assert "PASS" in out


def test_gradcheck_cli(capsys):
    assert cli.main(["gradcheck", "--scorer", "transe", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "transe" in out and "PASS" in out


def test_metrics_report_cli(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_text("1\n2\n4\n")
    report = tmp_path / "metrics.tsv"
    assert cli.main(["metrics-report", "--ranks", str(ranks),
                     "--report", str(report)]) == 0
    got = read_report(str(report))
    assert abs(float(got["mrr"]) - 7.0 / 12.0) <= 1e-10
    assert float(got["hits1"]) == pytest.approx(1.0 / 3.0)


def test_metrics_report_bad_rank(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_text("1\nx\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_train_align_cli_and_determinism(tmp_path, capsys):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    test = write_pairs(tmp_path, "test.tsv", [(i, i) for i in range(9, 14)])
    report = tmp_path / "report.tsv"
    ckpt = tmp_path / "model.ckpt"
    argv = ["train-align", "--graph1", str(g1), "--graph2", str(g2),
            "--train", str(train), "--test", str(test),
            "--dim", "4", "--layers", "2", "--epochs", "6", "--seed", "3",
            "--report", str(report), "--checkpoint", str(ckpt), "--quiet"]
    assert cli.main(argv) == 0
    first = report.read_bytes()
    got = read_report(str(report))
    assert set(got) >= {"mrr", "hits1", "hits10", "seed"}
    assert got["seed"] == "3"
    assert ckpt.exists()

    assert cli.main(argv) == 0
    assert report.read_bytes() == first

    ev_report = tmp_path / "eval.tsv"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--graph1", str(g1),
                     "--graph2", str(g2), "--test", str(test),
                     "--report", str(ev_report)]) == 0
    ev = read_report(str(ev_report))
    assert ev["mrr"] == got["mrr"]


def test_train_align_empty_training_set(tmp_path, capsys):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [])
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--epochs", "2", "--quiet"]) == 1
    assert "empty training set" in capsys.readouterr().err


def test_train_align_unknown_rel_test_relation_is_named_a_relation(tmp_path, capsys):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    rel_test = write_pairs(tmp_path, "rp.tsv", [(0, 7)])
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--rel-test", str(rel_test),
                     "--dim", "4", "--layers", "2", "--epochs", "2", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{rel_test} line 1: unknown relation '7'" in err


def test_train_align_empty_rel_test_names_the_file(tmp_path, capsys):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    rel_test = tmp_path / "rel.tsv"
    rel_test.write_text("# no pairs here\n")
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--rel-test", str(rel_test),
                     "--dim", "4", "--layers", "2", "--epochs", "2", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{rel_test}: no relation pairs" in err


def test_train_align_missing_graph(tmp_path, capsys):
    assert cli.main(["train-align", "--graph1", str(tmp_path / "none.tsv"),
                     "--graph2", str(tmp_path / "none.tsv"), "--quiet"]) == 1
    assert "error" in capsys.readouterr().err


def test_train_classify_cli_and_eval(tmp_path, capsys):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = tmp_path / "train_labels.tsv"
    train.write_text("".join(f"{i}\t{i % 2}\n" for i in range(8)))
    test = tmp_path / "test_labels.tsv"
    test.write_text("".join(f"{i}\t{i % 2}\n" for i in range(8, 12)))
    report = tmp_path / "report.tsv"
    ckpt = tmp_path / "model.ckpt"
    argv = ["train-classify", "--graph1", str(g), "--train", str(train),
            "--test", str(test), "--dim", "4", "--layers", "2",
            "--epochs", "8", "--seed", "1", "--report", str(report),
            "--checkpoint", str(ckpt), "--quiet"]
    assert cli.main(argv) == 0
    got = read_report(str(report))
    assert "accuracy" in got and got["seed"] == "1"
    assert 0.0 <= float(got["accuracy"]) <= 1.0

    ev_report = tmp_path / "eval.tsv"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--graph1", str(g),
                     "--train", str(train), "--test", str(test),
                     "--report", str(ev_report)]) == 0
    assert read_report(str(ev_report))["accuracy"] == got["accuracy"]


def test_train_classify_multirun_reports_spread(tmp_path):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = tmp_path / "train_labels.tsv"
    train.write_text("".join(f"{i}\t{i % 2}\n" for i in range(8)))
    report = tmp_path / "report.tsv"
    assert cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                     "--dim", "4", "--layers", "2", "--epochs", "4",
                     "--runs", "2", "--report", str(report), "--quiet"]) == 0
    got = read_report(str(report))
    assert "accuracy_std" in got


def test_train_classify_diverged_run_exits_1(tmp_path, capsys):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = tmp_path / "train_labels.tsv"
    train.write_text("".join(f"{i}\t{i % 2}\n" for i in range(8)))
    report = tmp_path / "report.tsv"
    with np.errstate(all="ignore"):
        code = cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                         "--dim", "4", "--layers", "2", "--epochs", "6",
                         "--lr", "1e300", "--report", str(report), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch" in err
    assert not report.exists()


def test_undecodable_input_names_file_and_line(tmp_path, capsys):
    g = tmp_path / "g.tsv"
    g.write_bytes(b"0\t0\t1\n\xff\t0\t2\n")
    train = tmp_path / "train_labels.tsv"
    train.write_text("0\t0\n")
    assert cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{g} line 2" in err


def test_eval_rejects_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1
    assert "magic" in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(0, 0)])

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "train_alignment", boom)
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--quiet"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_config_file_drives_training(tmp_path):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    report = tmp_path / "report.tsv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"graph1 = {g1}\ngraph2 = {g2}\ntrain = {train}\n"
        f"dim = 4\nlayers = 2\nepochs = 3\nreport = {report}\n")
    assert cli.main(["train-align", "--config", str(cfg), "--quiet"]) == 0
    assert report.exists()


def _flags(command):
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [s for a in subs.choices[command]._actions for s in a.option_strings]


TRAIN_FLAGS = ["-h", "--help", "--config", "--graph1", "--graph2", "--train", "--valid",
               "--test", "--rel-test", "--report", "--checkpoint", "--mode", "--scorer",
               "--dim", "--layers", "--lr", "--alpha", "--gamma", "--negatives",
               "--epochs", "--patience", "--seed", "--runs", "--quiet"]


def test_cli_surface_flag_names_and_order():
    assert _flags("train-align") == TRAIN_FLAGS
    assert _flags("train-classify") == TRAIN_FLAGS
    assert _flags("eval") == ["-h", "--help", "--checkpoint", "--graph1", "--graph2",
                              "--train", "--valid", "--test", "--report"]


def test_every_train_config_field_round_trips(tmp_path):
    want = TrainConfig(mode="wgcn", scorer="rotate", dim=6, layers=3, lr=0.02, alpha=0.4,
                       gamma=2.5, negatives=7, epochs=11, patience=13, seed=17)
    items = [(f.name, getattr(want, f.name)) for f in fields(TrainConfig)]
    # every value differs from its default, so a dropped key shows
    assert all(v != f.default for f, (_, v) in zip(fields(TrainConfig), items))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in items))
    from_file = io_mod.parse_config(str(cfg), {"task": "classify"})
    args = cli.build_parser().parse_args(
        ["train-classify"] + [s for k, v in items for s in (f"--{k}", str(v))])
    from_flags = io_mod.parse_config(None, {**cli._overrides(args), "task": "classify"})
    mc = want.model_config(out_dim=2)
    rng = RandomSource(0)
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    ckpt = tmp_path / "m.ckpt"
    io_mod.save_checkpoint(str(ckpt), io_mod.pack_model(
        from_flags, init_params(mc, 2, rng), {"g": init_state(mc, g, rng)}, None))
    unpacked = io_mod.unpack_model(io_mod.load_checkpoint(str(ckpt)))[0]
    for values in (from_file, from_flags, unpacked):
        assert io_mod.train_config(values) == want
        assert all(type(values[k]) is type(v) for k, v in items)


@pytest.mark.parametrize("argv, option", [
    (["verify-reductions", "--runs", "0"], "--runs"),
    (["gradcheck", "--scorer", "transe", "--points", "0"], "--points"),
])
def test_count_option_below_one_exits_1(argv, option, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and option in err


@pytest.mark.parametrize("command", ["train-align", "train-classify"])
def test_train_runs_below_one_exits_1(tmp_path, capsys, command):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    assert cli.main([command, "--graph1", str(g), "--graph2", str(g), "--train", str(train),
                     "--dim", "4", "--layers", "2", "--epochs", "2", "--runs", "0",
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runs" in err


@pytest.mark.parametrize("mode", ["kegcn", "rgcn", "wgcn"])
def test_eval_rejects_graph_with_relation_beyond_checkpoint(tmp_path, capsys, mode):
    g = write_ring_dataset(tmp_path, r=3, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                     "--mode", mode, "--dim", "8", "--layers", "2", "--epochs", "2",
                     "--checkpoint", str(ckpt), "--quiet"]) == 0
    capsys.readouterr()
    wider = tmp_path / "wider.tsv"
    wider.write_text(g.read_text() + "0\t3\t1\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--graph1", str(wider),
                     "--train", str(train)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cover" in err and "3 relations" in err


@pytest.mark.parametrize("command", ["train-align", "train-classify"])
@pytest.mark.parametrize("key, value", [("epochs", 0), ("epochs", -3), ("patience", -1)])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_epochs_below_one_or_negative_patience_exits_1(tmp_path, capsys, command,
                                                             key, value, via):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    options = {"graph1": g, "graph2": g, "train": train, "dim": 4, "layers": 2,
               "epochs": 2, key: value}
    if via == "flag":
        argv = [s for k, v in options.items() for s in (f"--{k}", str(v))]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        argv = ["--config", str(cfg)]
    assert cli.main([command, *argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_integer_id_exits_1_without_allocating_for_it(tmp_path):
    # Runs under a 1 GiB address-space cap, so a loader that sizes anything
    # by the implied entity count fails fast instead of exhausting memory.
    g = tmp_path / "g.tsv"
    g.write_text("0\t0\t1\n1\t0\t99999999999999\n")
    train = tmp_path / "train_labels.tsv"
    train.write_text("0\t0\n")
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(kegcn.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kegcn.cli", "train-classify", "--graph1", str(g),
         "--train", str(train), "--dim", "4", "--layers", "1", "--epochs", "1", "--quiet"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and f"{g} line 2" in proc.stderr


@pytest.mark.parametrize("bad", ["graph", "labels"])
def test_overlong_integer_id_exits_1_naming_file_and_line(tmp_path, capsys, bad):
    overlong = "9" * 5000
    g = tmp_path / "g.tsv"
    g.write_text("0\t0\t1\n" + (f"1\t0\t{overlong}\n" if bad == "graph" else "1\t0\t2\n"))
    train = tmp_path / "train_labels.tsv"
    train.write_text("0\t0\n" + (f"{overlong}\t1\n" if bad == "labels" else "1\t1\n"))
    argv = ["train-classify", "--graph1", str(g), "--train", str(train), "--dim", "4",
            "--layers", "1", "--epochs", "1", "--quiet"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    path = g if bad == "graph" else train
    assert err.startswith("error:") and f"{path} line 2: integer id of 5000 digits" in err
