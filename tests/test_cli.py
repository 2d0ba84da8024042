"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import os
import resource
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kegcn
from helpers import read_report
from kegcn import cli
from kegcn import io as io_mod
from kegcn import synthetic
from kegcn.graph import build_graph
from kegcn.numerics import seeded
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
    assert "scorer transe    message fd error " in out


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


@pytest.mark.parametrize("bad", ["1_0", "+2", "٣", "-1", "1" * 19, "0x1", "1.0"])
def test_metrics_report_reads_ranks_by_the_loaders_integer_rule(tmp_path, capsys, bad):
    # int() alone reads "1_0", "+2" and an Arabic-Indic 3 as ranks 10, 2 and 3
    ranks = tmp_path / "ranks.txt"
    ranks.write_text(f"1\n {bad}\n", encoding="utf-8")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 1
    assert capsys.readouterr().err == f"error: {ranks} line 2: expected an integer rank\n"


def test_metrics_report_takes_padded_ranks_of_up_to_18_digits(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_text(" 1\t\n007\n" + "9" * 18 + "\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 0
    assert f"{'hits1':16s} {1 / 3!r}\n" in capsys.readouterr().out


def test_metrics_report_undecodable_rank_file_names_file_and_line(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_bytes(b"1\r\n# ok\r\n2\r\n\xff\r\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {ranks} line 4: byte 0xff")


def test_metrics_report_rank_zero_names_file_and_line(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_text("1\n0\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 1
    assert capsys.readouterr().err == f"error: {ranks} line 2: ranks are 1-based\n"


def test_metrics_report_rank_file_without_ranks_names_the_file(tmp_path, capsys):
    ranks = tmp_path / "ranks.txt"
    ranks.write_text("# none\n\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 1
    assert capsys.readouterr().err == f"error: {ranks}: no ranks\n"


def test_metrics_report_runtime_counts_reading_the_rank_file(tmp_path, capsys, monkeypatch):
    now = [100.0]
    read = io_mod.data_lines

    def slow_read(path):
        now[0] += 2.5
        return read(path)

    monkeypatch.setattr(cli, "time", argparse.Namespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(io_mod, "data_lines", slow_read)
    ranks = tmp_path / "ranks.txt"
    ranks.write_text("1\n2\n4\n")
    assert cli.main(["metrics-report", "--ranks", str(ranks)]) == 0
    assert "runtime_seconds  2.50\n" in capsys.readouterr().out


@pytest.mark.parametrize("text, lineno", [
    (b"dim = 4\nla\xffyers = 2\n", 2),       # not UTF-8
    (b"# run\n\ndim = 4\rlayers = 2 = 3\r", 4),   # not an integer
    (b"dim = 4\r\nfoo = 3\r\n", 2),           # unknown key
    (b"dim = 4\nscorer = nope\n", 2),          # not a choice
    (b"dim = 4\nruns = 0\n", 2),               # no run
])
def test_config_file_error_names_file_and_line(tmp_path, capsys, text, lineno):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    assert cli.main(["train-align", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} line {lineno}: "), err


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


@pytest.mark.parametrize("mode", ["rgcn", "wgcn"])
def test_train_align_rel_test_without_relation_embeddings_exits_1_before_training(
        tmp_path, capsys, monkeypatch, mode):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the mode")

    monkeypatch.setattr(cli, "train_alignment", no_training)
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    rel_test = write_pairs(tmp_path, "rp.tsv", [(0, 0), (1, 1)])
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--rel-test", str(rel_test), "--mode", mode,
                     "--dim", "4", "--layers", "2", "--epochs", "2", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: relation alignment needs a mode with relation embeddings")
    assert mode in err


def test_train_align_reads_the_rel_test_file_once_for_all_runs(tmp_path, capsys, monkeypatch):
    loads = []
    load = io_mod.load_alignments

    def counting_load(path, vocab1, vocab2, what="entity"):
        loads.append(what)
        return load(path, vocab1, vocab2, what=what)

    monkeypatch.setattr(io_mod, "load_alignments", counting_load)
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    rel_test = write_pairs(tmp_path, "rp.tsv", [(0, 0), (1, 1)])
    report = tmp_path / "report.tsv"
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--rel-test", str(rel_test), "--runs", "3",
                     "--dim", "4", "--layers", "2", "--epochs", "2",
                     "--report", str(report), "--quiet"]) == 0
    assert loads.count("relation") == 1
    assert "relation_mrr_std" in read_report(str(report))


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


def _classify_data(tmp_path):
    """The --graph1 and --train flags of a small classification dataset."""
    g = write_ring_dataset(tmp_path, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    return ["--graph1", str(g), "--train", str(train)]


@pytest.mark.parametrize("flag, value", [("--graph2", "g.tsv"), ("--rel-test", "/nonexistent.tsv"),
                                         ("--gamma", "2.0"), ("--negatives", "3")])
def test_train_classify_offers_no_alignment_flag(tmp_path, capsys, flag, value):
    # these used to be accepted and ignored, the rel-test file unopened
    assert cli.main(["train-classify", *_classify_data(tmp_path), "--dim", "4",
                     "--layers", "1", "--epochs", "1", flag, value, "--quiet"]) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("graph2", "g.tsv"), ("rel_test", "/nonexistent.tsv"),
                                        ("gamma", "2.0"), ("negatives", "3")])
def test_classify_config_setting_an_alignment_key_exits_1_naming_file_line_and_key(
        tmp_path, capsys, key, value):
    _, g, _, train = _classify_data(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph1 = {g}\ntrain = {train}\n# {key}\n{key} = {value}\n"
                   "dim = 4\nlayers = 1\nepochs = 1\n")
    assert cli.main(["train-classify", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} line 4: config key '{key}'"), err


@pytest.mark.parametrize("command, task", [("train-align", "classify"),
                                           ("train-classify", "align"),
                                           ("train-classify", "classify")])
def test_config_setting_task_exits_1_naming_file_and_line(tmp_path, capsys, command, task):
    # the subcommand sets the task; a file's task key used to be ignored
    g1, g2 = (write_ring_dataset(tmp_path, prefix=p) for p in ("g1", "g2"))
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    graph2 = f"graph2 = {g2}\n" if command == "train-align" else ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph1 = {g1}\n{graph2}train = {train}\ntask = {task}\n"
                   "dim = 4\nlayers = 1\nepochs = 1\n")
    line = 4 if graph2 else 3
    assert cli.main([command, "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} line {line}: config key 'task'"), err


def test_eval_graph2_on_a_classification_checkpoint_exits_1_naming_the_flag(tmp_path, capsys):
    data = _classify_data(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train-classify", *data, "--dim", "4", "--layers", "1", "--epochs", "1",
                     "--checkpoint", str(ckpt), "--quiet"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), *data, "--graph2", "g.tsv"]) == 1
    assert capsys.readouterr().err.startswith("error: --graph2: "), "graph2 accepted"


def test_eval_with_no_seed_pairs_to_evaluate_exits_1(tmp_path, capsys):
    # train and eval share one evaluation step: test, else valid, else
    # train, and none of them empty
    g1, g2, train, _ = _write_hub_pair(tmp_path)
    data = ["--graph1", str(g1), "--graph2", str(g2)]
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train-align", *data, "--train", str(train), "--dim", "8", "--layers",
                     "1", "--epochs", "1", "--checkpoint", str(ckpt), "--quiet"]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert cli.main(["eval", "--checkpoint", str(ckpt), *data, "--train", str(empty)]) == 1
    assert capsys.readouterr().err == "error: no seed pairs to evaluate\n"


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
    code = cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                     "--dim", "4", "--layers", "2", "--epochs", "6",
                     "--lr", "1e300", "--report", str(report), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch" in err
    assert not report.exists()


def test_diverged_run_records_no_warning_and_prints_one_error_line(tmp_path, capsys):
    # the overflow that diverges the run is reported once, as the error,
    # not first as NumPy warnings naming package source lines
    g = tmp_path / "g.tsv"
    g.write_text("0\t0\t1\n1\t0\t2\n2\t0\t0\n")
    write_pairs(tmp_path, "tr.tsv", [(0, 0)])
    write_pairs(tmp_path, "te.tsv", [(1, 1), (2, 2)])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(["train-align", "--graph1", str(g), "--graph2", str(g),
                         "--train", str(tmp_path / "tr.tsv"), "--test", str(tmp_path / "te.tsv"),
                         "--epochs", "2", "--lr", "1e308"])
    assert code == 1 and seen == []
    assert capsys.readouterr().err == \
        "error: training diverged: loss is nan at epoch 1; try a lower lr\n"


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


@pytest.mark.parametrize("name", [b"a\xff:1", b"a:2xq", b"a:99999999999999999999"])
def test_eval_corrupt_section_header_exits_1_naming_the_file(tmp_path, capsys, name):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(io_mod.MAGIC + struct.pack("<II", 1, len(name)) + name
                    + struct.pack("<Qd", 1, 1.5))
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("old, new", [(b"param/layer0.w_rel", b"param/layer0.w_reX"),
                                      (b"config/mode", b"config/modX")])
def test_eval_damaged_model_checkpoint_exits_1_naming_the_file(tmp_path, capsys, old, new):
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--dim", "4", "--layers", "2", "--epochs", "2",
                     "--checkpoint", str(ckpt), "--quiet"]) == 0
    capsys.readouterr()
    raw = ckpt.read_bytes()
    assert raw.count(old) == 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw.replace(old, new))
    assert cli.main(["eval", "--checkpoint", str(bad), "--graph1", str(g1),
                     "--graph2", str(g2), "--test", str(train)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def train_align_checkpoint(tmp_path, capsys=None):
    """A 2-layer train-align checkpoint on ring graphs, and the eval
    arguments that read it back (the checkpoint path comes last)."""
    g1 = write_ring_dataset(tmp_path, prefix="g1")
    g2 = write_ring_dataset(tmp_path, prefix="g2")
    train = write_pairs(tmp_path, "train.tsv", [(i, i) for i in range(9)])
    ckpt = tmp_path / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                         "--train", str(train), "--dim", "4", "--layers", "2", "--epochs", "2",
                         "--checkpoint", str(ckpt), "--quiet"]) == 0
    return ckpt, ["eval", "--graph1", str(g1), "--graph2", str(g2), "--test", str(train),
                  "--checkpoint"]


@pytest.mark.parametrize("name, value", [("config/dim", np.inf), ("config/layers", np.inf),
                                         ("config/dim", np.nan), ("table/g1.entity", np.nan),
                                         ("param/layer0.w", np.inf)])
def test_eval_non_finite_checkpoint_value_exits_1_naming_file_and_section(
        tmp_path, capsys, name, value):
    ckpt, args = train_align_checkpoint(tmp_path)
    cp = io_mod.load_checkpoint(str(ckpt))
    cp.sections[name] = cp.sections[name].copy()
    cp.sections[name].flat[0] = value
    bad = tmp_path / "bad.ckpt"
    io_mod.save_checkpoint(str(bad), cp)
    assert cli.main(args + [str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and name in err, err


def test_eval_checkpoint_whose_model_overflows_exits_1_naming_the_file(tmp_path, capsys):
    # finite weights can still drive the forward pass to inf or NaN
    ckpt, args = train_align_checkpoint(tmp_path)
    cp = io_mod.load_checkpoint(str(ckpt))
    for name in ("param/layer0.w0", "table/g1.entity"):
        cp.sections[name] = np.full_like(cp.sections[name], 1e300)
    bad = tmp_path / "bad.ckpt"
    io_mod.save_checkpoint(str(bad), cp)
    assert cli.main(args + [str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: the model's output on g1 is not finite\n"


_FLOAT_BYTES = st.sampled_from([struct.pack("<d", x) for x in
                                (np.nan, np.inf, -np.inf, 1e300, -1.0, 0.5, 2.5, 1e18)])


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_eval_of_an_overwritten_checkpoint_evaluates_or_exits_1_naming_the_file(
        tmp_path_factory, data):
    # one change to the file: 1-8 drawn bytes anywhere, a whole float (NaN,
    # an infinity, a huge or a non-integral value) at a payload slot, one
    # section reshaped to the same element count, or a drawn config/dim
    tmp = tmp_path_factory.mktemp("eval")
    ckpt, args = train_align_checkpoint(tmp)
    bad = tmp / "bad.ckpt"
    edit = data.draw(st.sampled_from(["bytes", "float", "reshape", "dim"]))
    if edit in ("bytes", "float"):
        raw = bytearray(ckpt.read_bytes())
        if edit == "bytes":
            patch = data.draw(st.binary(min_size=1, max_size=8))
            at = data.draw(st.integers(0, len(raw) - len(patch)))
        else:
            patch = data.draw(_FLOAT_BYTES)
            at = len(raw) - 8 * data.draw(st.integers(1, (len(raw) - 8) // 8))
        raw[at:at + len(patch)] = patch
        bad.write_bytes(bytes(raw))
        what = (at, bytes(patch))
    else:
        cp = io_mod.load_checkpoint(str(ckpt))
        if edit == "reshape":
            name = data.draw(st.sampled_from(sorted(cp.sections)))
            size = cp.sections[name].size
            rows = data.draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0]))
            cp.sections[name] = cp.sections[name].reshape(rows, size // rows)
            what = (name, cp.sections[name].shape)
        else:
            what = data.draw(st.integers(1, 64))
            cp.sections["config/dim"] = np.array([float(what)])
        io_mod.save_checkpoint(str(bad), cp)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args + [str(bad)])
    assert code == 0 or (code == 1 and err.getvalue().startswith(f"error: {bad}: ")), \
        (code, edit, what, err.getvalue())


def hub_align_checkpoint(tmp_path, mode="kegcn", scorer="transe"):
    """A train-align checkpoint of hub_signature_pair(40, 3, 150, seed=1)
    with a 30% train split, dim 8, 2 layers and 3 epochs, and the eval
    arguments that read it back (the checkpoint path comes last)."""
    g1, g2, pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(pairs, 0.3)
    paths = {name: str(tmp_path / f"{name}.tsv") for name in ("g1", "g2", "train", "test")}
    synthetic.write_graph_tsv(paths["g1"], g1)
    synthetic.write_graph_tsv(paths["g2"], g2)
    synthetic.write_pairs_tsv(paths["train"], seeds.train)
    synthetic.write_pairs_tsv(paths["test"], seeds.test)
    data = ["--graph1", paths["g1"], "--graph2", paths["g2"], "--train", paths["train"],
            "--test", paths["test"]]
    ckpt = tmp_path / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train-align", *data, "--mode", mode, "--scorer", scorer, "--dim", "8",
                         "--layers", "2", "--epochs", "3", "--checkpoint", str(ckpt),
                         "--quiet"]) == 0
    return ckpt, ["eval", *data, "--checkpoint"]


@pytest.mark.parametrize("key, value", [("scorer", "distmult"), ("mode", "compgcn-sub"),
                                        ("alpha", 5.0)])
def test_eval_of_a_config_value_edited_in_the_file_exits_1_naming_the_file(
        tmp_path, capsys, key, value):
    # each edit leaves a model of the same layout, which evaluated and exited
    # 0 before the container had a checksum
    ckpt, args = hub_align_checkpoint(tmp_path)
    raw = bytearray(ckpt.read_bytes())
    name = f"config/{key}:1".encode()
    assert raw.count(name) == 1
    at = raw.index(name) + len(name) + 8
    stored = value if key == "alpha" else io_mod._CHOICES[key].index(value)
    raw[at:at + 8] = struct.pack("<d", float(stored))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    assert cli.main(args + [str(bad)]) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: checksum mismatch, changed since it was written\n"


def eval_with_section(tmp_path, ckpt, args, name, change):
    """Exit code and stderr of `kegcn eval` on a copy of the checkpoint
    whose section `name` is change(its array, or None if it has none), or
    is gone when change is None, and the copy's path."""
    cp = io_mod.load_checkpoint(str(ckpt))
    old = cp.sections.pop(name, None)
    if change is not None:
        cp.sections[name] = change(old)
    bad = tmp_path / "bad.ckpt"
    io_mod.save_checkpoint(str(bad), cp)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args + [str(bad)])
    return code, err.getvalue(), bad


@pytest.mark.parametrize("scorer", ["transe", "quate", "rotate", "transd", "transh"])
@pytest.mark.parametrize("dim", [16, 4])
def test_eval_config_dim_that_disagrees_with_the_weights_exits_1_naming_the_section(
        tmp_path, scorer, dim):
    ckpt, args = hub_align_checkpoint(tmp_path, scorer=scorer)
    code, err, bad = eval_with_section(tmp_path, ckpt, args, "config/dim",
                                       lambda a: np.array([float(dim)]))
    assert code == 1 and err.startswith(f"error: {bad}: "), err
    assert "'param/layer0.w'" in err and "8x8" in err, err


@pytest.mark.parametrize("mode, name, shape", [
    ("kegcn", "param/layer0.w", (4, 16)),
    ("wgcn", "param/layer0.rel_scale", (1, 3)),
    ("rgcn", "param/layer0.w_per_rel", (3, 64)),
    ("kegcn", "table/g1.entity", (8, 40)),
])
def test_eval_section_reshaped_to_the_same_count_exits_1_naming_file_and_section(
        tmp_path, mode, name, shape):
    ckpt, args = hub_align_checkpoint(tmp_path, mode=mode)
    code, err, bad = eval_with_section(tmp_path, ckpt, args, name, lambda a: a.reshape(shape))
    assert code == 1 and err.startswith(f"error: {bad}: "), err
    assert repr(name) in err and "x".join(map(str, shape)) in err, err


@pytest.mark.parametrize("shape", [(0,), (2,)])
def test_eval_config_section_not_of_one_value_exits_1_naming_file_and_section(tmp_path, shape):
    ckpt, args = hub_align_checkpoint(tmp_path)
    code, err, bad = eval_with_section(tmp_path, ckpt, args, "config/dim",
                                       lambda a: np.full(shape, 8.0))
    assert code == 1 and err.startswith(f"error: {bad}: ") and "'config/dim'" in err, err


@pytest.mark.parametrize("scorer, name, value, says", [
    ("transe", "config/dim", None, "checkpoint lacks section 'config/dim'"),
    ("transe", "config/scorer", 6.0, "checkpoint section 'config/scorer' out of range"),
    ("transe", "config/mode", -1.0, "checkpoint section 'config/mode' out of range"),
    ("transe", "config/lr", 0.0,
     "checkpoint config: learning rate lr must be positive and finite, got 0.0"),
    ("quate", "config/dim", 6.0,
     "checkpoint config: dim 6 is not a multiple of 4 required by scorer 'quate'"),
    ("transe", "table/g3.entity", 0.0, "unexpected section 'table/g3.entity'"),
])
def test_eval_checkpoint_its_config_or_model_cannot_hold_exits_1_naming_the_file(
        tmp_path, scorer, name, value, says):
    # each copy passes its checksum: the config and model checks must catch it
    ckpt, args = hub_align_checkpoint(tmp_path, scorer=scorer)
    change = None if value is None else (lambda _: np.array([value]))
    code, err, bad = eval_with_section(tmp_path, ckpt, args, name, change)
    assert code == 1 and err == f"error: {bad}: {says}\n", err
    assert not list(tmp_path.glob(".tmp-*"))


def test_eval_huge_config_layers_exits_1_at_once(tmp_path):
    # nothing may be sized by the stored layer count before it is checked
    ckpt, args = hub_align_checkpoint(tmp_path)
    cp = io_mod.load_checkpoint(str(ckpt))
    cp.sections["config/layers"] = np.array([1e18])
    bad = tmp_path / "bad.ckpt"
    io_mod.save_checkpoint(str(bad), cp)
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(kegcn.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "kegcn.cli"] + args + [str(bad)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 1 and proc.stderr.startswith(f"error: {bad}: "), proc.stderr
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args + [str(bad)]) == 1
    assert time.monotonic() - start < 1.0


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
ALIGN_FLAGS = ("--graph2", "--rel-test", "--gamma", "--negatives")


def test_cli_surface_flag_names_and_order():
    assert _flags("train-align") == TRAIN_FLAGS
    assert _flags("train-classify") == [f for f in TRAIN_FLAGS if f not in ALIGN_FLAGS]
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
    from_file = io_mod.parse_config(str(cfg), {"task": "align"})
    args = cli.build_parser().parse_args(
        ["train-align"] + [s for k, v in items for s in (f"--{k}", str(v))])
    from_flags = io_mod.parse_config(None, {**cli._overrides(args), "task": "align"})
    mc = want.model_config()
    rng = seeded(0)
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    ckpt = tmp_path / "m.ckpt"
    io_mod.save_checkpoint(str(ckpt), io_mod.pack_model(
        from_flags, init_params(mc, 2, rng),
        {name: init_state(mc, g, rng) for name in ("g1", "g2")}, None))
    unpacked = io_mod.unpack_config(io_mod.load_checkpoint(str(ckpt)))[0]
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
    graph2 = ["--graph2", str(g)] if command == "train-align" else []
    assert cli.main([command, "--graph1", str(g), *graph2, "--train", str(train),
                     "--dim", "4", "--layers", "2", "--epochs", "2", "--runs", "0",
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config key 'runs': need at least 1 run, got 0\n"


@pytest.mark.parametrize("mode", ["kegcn", "rgcn", "wgcn"])
def test_eval_rejects_graph_with_relation_beyond_checkpoint(tmp_path, capsys, mode):
    # the relation tables and per-relation weights must match the eval
    # graph's relation count exactly, more relations or fewer
    g = write_ring_dataset(tmp_path, r=3, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train-classify", "--graph1", str(g), "--train", str(train),
                     "--mode", mode, "--dim", "8", "--layers", "2", "--epochs", "2",
                     "--checkpoint", str(ckpt), "--quiet"]) == 0
    capsys.readouterr()
    section = {"kegcn": "table/g.relation", "rgcn": "param/layer0.w_per_rel",
               "wgcn": "param/layer0.rel_scale"}[mode]
    wider = tmp_path / "wider.tsv"
    wider.write_text(g.read_text() + "0\t3\t1\n")
    narrower = write_ring_dataset(tmp_path, r=2, prefix="narrower")
    for graph, count in ((wider, 4), (narrower, 2)):
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--graph1", str(graph),
                         "--train", str(train)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: section {section!r} has shape 3x"), err
        assert f"has {count}x" in err, err


@pytest.mark.parametrize("command", ["train-align", "train-classify"])
def test_train_without_graph1_exits_1_naming_the_key(tmp_path, capsys, command):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    extra = ["--graph2", str(g)] if command == "train-align" else []
    assert cli.main([command, *extra, "--train", str(train), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: config key 'graph1' is required for this task\n"


@pytest.mark.parametrize("command", ["train-align", "train-classify"])
@pytest.mark.parametrize("key, value", [("epochs", 0), ("epochs", -3), ("patience", -1),
                                        ("layers", 0), ("dim", 0), ("seed", -1),
                                        ("seed", 2 ** 53 + 1)])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_epochs_below_one_or_negative_patience_exits_1(tmp_path, capsys, command,
                                                             key, value, via):
    g = write_ring_dataset(tmp_path, prefix="g")
    train = write_pairs(tmp_path, "train.tsv", [(i, i % 2) for i in range(8)])
    options = {"graph1": g, **({"graph2": g} if command == "train-align" else {}),
               "train": train, "dim": 4, "layers": 2, "epochs": 2, key: value}
    if via == "flag":
        argv = [s for k, v in options.items() for s in (f"--{k}", str(v))]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        argv = ["--config", str(cfg)]
    assert cli.main([command, *argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be" in err, err


def _write_hub_pair(tmp_path):
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    paths = []
    for name, g in (("g1.tsv", g1), ("g2.tsv", g2)):
        path = tmp_path / name
        path.write_text("".join(f"{h}\t{r}\t{t}\n"
                                for h, r, t in zip(g.heads, g.rels, g.tails)))
        paths.append(path)
    seeds = synthetic.alignment_split(ent_pairs)
    return (*paths, write_pairs(tmp_path, "train.tsv", seeds.train),
            write_pairs(tmp_path, "test.tsv", seeds.test))


@pytest.mark.parametrize("key, value", [("lr", "-1"), ("lr", "0"), ("lr", "nan"),
                                        ("lr", "inf"), ("gamma", "nan"), ("alpha", "nan"),
                                        ("negatives", "0")])
def test_bad_learning_rate_or_nonfinite_gamma_alpha_exits_1_naming_it(tmp_path, capsys,
                                                                     key, value):
    # gradient ascent (lr -1) or no step (lr 0) used to train and report
    # ordinary metrics; non-finite values ended as "training diverged"
    g1, g2, train, test = _write_hub_pair(tmp_path)
    assert cli.main(["train-align", "--graph1", str(g1), "--graph2", str(g2),
                     "--train", str(train), "--test", str(test), "--dim", "8",
                     "--layers", "2", "--epochs", "5", f"--{key}", value, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be" in err and "diverged" not in err


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
