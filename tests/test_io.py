"""Tests for dataset parsing, config handling, checkpoints, and reports."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import load_triples, read_report
from kegcn import io as kio
from kegcn.io import (
    Checkpoint,
    CheckpointError,
    ConfigError,
    MAGIC,
    DataError,
    Vocabulary,
    atomic_write_bytes,
    load_alignments,
    load_checkpoint,
    load_graph,
    load_labels,
    pack_model,
    parse_config,
    save_checkpoint,
    train_config,
    unpack_config,
    unpack_model,
    write_report,
)
from kegcn.graph import build_graph
from kegcn.numerics import seeded
from kegcn.propagation import ModelConfig, init_params, init_state


def test_load_triples_integer_ids(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t0\t1\n")
    triples, ent, rel = load_triples(str(p))
    assert triples == [(0, 0, 1)]
    assert ent.size == 2 and rel.size == 1
    assert ent.int_mode


def test_load_triples_interns_strings_first_seen(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tr\tb\nb\tr\ta\n")
    triples, ent, rel = load_triples(str(p))
    assert triples == [(0, 0, 1), (1, 0, 0)]
    assert ent.names() == ["a", "b"]
    assert rel.names() == ["r"]


def test_load_triples_malformed_line_number(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0,0,1\n")
    with pytest.raises(DataError, match="line 1"):
        load_triples(str(p))


def test_load_triples_undecodable_byte_line_number(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_bytes(b"0\t0\t1\n\xff\t0\t2\n")
    with pytest.raises(DataError, match=r"g\.tsv line 2: .*0xff"):
        load_triples(str(p))
    # line breaks count as in text mode: \r\n and a lone \r end a line too
    p.write_bytes(b"# a\r\n0\t0\t1\r1\t0\t2\n1\t\xc3\t0\n")
    with pytest.raises(DataError, match="line 4"):
        load_triples(str(p))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"0\t0\n1\xfe\t1\n")
    vocab = Vocabulary(True)
    vocab.intern("1")
    with pytest.raises(DataError, match=r"pairs\.tsv line 2"):
        load_alignments(str(pairs), vocab, vocab)


def test_load_triples_comments_and_blanks(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# header\n\n0\t0\t1\n")
    triples, _, _ = load_triples(str(p))
    assert triples == [(0, 0, 1)]


def test_load_triples_mixed_modes_rejected(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t0\t1\na\tr\tb\n")
    with pytest.raises(DataError, match="line 2.*mixed"):
        load_triples(str(p))
    p.write_text("a\tr\tb\n1\t2\t3\n")
    with pytest.raises(DataError, match="line 2.*mixed"):
        load_triples(str(p))


@pytest.mark.parametrize("line", ["1\t0\t99999999999999", "1\t99999999999999\t0",
                                  "6\t0\t1"])
def test_load_triples_rejects_ids_beyond_what_the_file_names(tmp_path, line):
    # two lines hold six id tokens, so no id may reach 6
    p = tmp_path / "g.tsv"
    p.write_text(f"0\t0\t1\n{line}\n")
    with pytest.raises(DataError, match=r"g\.tsv line 2: .*id"):
        load_triples(str(p))


OVERLONG_ID = "9" * 5000   # past the digit limit of Python's int()


@pytest.mark.parametrize("line", [f"1\t0\t{OVERLONG_ID}", f"1\t{OVERLONG_ID}\t0",
                                  f"{OVERLONG_ID}\t0\t1"], ids=["tail", "relation", "head"])
def test_load_triples_names_the_line_of_an_overlong_integer_id(tmp_path, line):
    p = tmp_path / "g.tsv"
    p.write_text(f"0\t0\t1\n{line}\n")
    with pytest.raises(DataError, match=r"g\.tsv line 2: integer id of 5000 digits"):
        load_triples(str(p))


def test_load_labels_and_alignments_name_the_line_of_an_overlong_integer_id(tmp_path):
    gv = Vocabulary(True)
    gv.intern("1")
    p = tmp_path / "labels.tsv"
    p.write_text(f"0\t0\n{OVERLONG_ID}\t0\n")
    with pytest.raises(DataError, match=r"labels\.tsv line 2: integer id of 5000 digits"):
        load_labels(str(p), gv, Vocabulary())
    p.write_text(f"0\t0\n1\t{OVERLONG_ID}\n")
    with pytest.raises(DataError, match=r"labels\.tsv line 2: integer id of 5000 digits"):
        load_labels(str(p), gv, Vocabulary())
    p = tmp_path / "pairs.tsv"
    p.write_text(f"{OVERLONG_ID}\t0\n")
    with pytest.raises(DataError, match=r"pairs\.tsv line 1: integer id of 5000 digits"):
        load_alignments(str(p), gv, gv)


@pytest.mark.parametrize("token,want", [
    ("0", 0), ("007", 7), ("9" * 18, 10 ** 18 - 1), ("1" * 19, None), (OVERLONG_ID, None),
    ("", None), (" 1", None), ("1 ", None), ("+2", None), ("-1", None), ("1_0", None),
    ("\u0663", None), ("0x1", None), ("1.0", None)])
def test_int_token_is_the_loaders_integer_id_rule(token, want):
    # the bulk path's byte checks must agree: see tests/test_tsv_loaders.py
    assert kio.int_token(token) == want


def test_load_triples_admits_globally_numbered_second_graph(tmp_path):
    # DBP15K-style numbering: the second graph's ids continue after the
    # first graph's, so a graph of n entities names ids n..2n-1
    n = 40
    g1 = tmp_path / "g1.tsv"
    g1.write_text("".join(f"{i}\t0\t{(i + 1) % n}\n" for i in range(n)))
    g2 = tmp_path / "g2.tsv"
    g2.write_text("".join(f"{n + i}\t1\t{n + (i + 1) % n}\n" for i in range(n)))
    _, ent1, _ = load_triples(str(g1))
    triples, ent2, rel2 = load_triples(str(g2))
    assert ent1.size == n and ent2.size == 2 * n and rel2.size == 2
    assert load_graph(str(g2))[0].num_triples == n
    g2.write_text("0\t0\t1\n1\t0\t5\n")
    assert load_triples(str(g2))[1].size == 6


def test_load_alignments_and_unknown_entity(tmp_path):
    g = tmp_path / "g.tsv"
    g.write_text("a\tr\tb\n")
    _, ent, _ = load_triples(str(g))
    al = tmp_path / "seeds.tsv"
    al.write_text("a\tb\n")
    assert load_alignments(str(al), ent, ent) == [(0, 1)]
    al.write_text("a\tmissing\n")
    with pytest.raises(DataError, match="line 1.*unknown entity 'missing'"):
        load_alignments(str(al), ent, ent)


def test_load_alignments_names_an_unknown_relation(tmp_path):
    g = tmp_path / "g.tsv"
    g.write_text("a\tr\tb\n")
    _, _, rel = load_triples(str(g))
    pairs = tmp_path / "rp.tsv"
    pairs.write_text("r\tzz\n")
    with pytest.raises(DataError, match="rp.tsv line 1: unknown relation 'zz'"):
        load_alignments(str(pairs), rel, rel, what="relation")


def test_load_alignments_empty_file(tmp_path):
    g = tmp_path / "s.tsv"
    g.write_text("# nothing\n")
    assert load_alignments(str(g), Vocabulary(True), Vocabulary(True)) == []


def test_load_labels_multi_and_duplicates(tmp_path):
    gv = Vocabulary(False)
    gv.intern("e")
    gv.intern("f")
    cv = Vocabulary()
    p = tmp_path / "labels.tsv"
    p.write_text("e\tc1,c2\nf\tc1\n")
    labels, multi = load_labels(str(p), gv, cv)
    assert labels == {0: (0, 1), 1: (0,)}
    assert multi and cv.size == 2
    p.write_text("e\tc1\ne\tc2\n")
    with pytest.raises(DataError, match="line 2.*duplicate"):
        load_labels(str(p), gv, Vocabulary())


def test_load_labels_unknown_entity(tmp_path):
    gv = Vocabulary(True)
    gv.intern("0")
    p = tmp_path / "labels.tsv"
    p.write_text("7\t0\n")
    with pytest.raises(DataError, match="line 1.*unknown entity"):
        load_labels(str(p), gv, Vocabulary())


def test_parse_config_defaults_per_task():
    assert parse_config(None, {"task": "align"})["dim"] == 200
    assert parse_config(None, {"task": "classify"})["dim"] == 32
    values = parse_config(None, {})
    assert values["lr"] == 0.01 and values["layers"] == 4
    assert values["alpha"] == 0.3 and values["gamma"] == 3.0
    assert values["negatives"] == 5 and values["patience"] == 50


def test_parse_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# experiment\nalpha = 0.3\ndim = 16\n")
    values = parse_config(str(p), {"dim": "24"})
    assert values["alpha"] == 0.3
    assert values["dim"] == 24


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="'dim'"):
        parse_config(None, {"dim": "abc"})
    with pytest.raises(ConfigError, match="unknown config key 'dims'"):
        parse_config(None, {"dims": "3"})
    p = tmp_path / "bad.cfg"
    p.write_text("dim 16\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(str(p))
    with pytest.raises(ConfigError, match="'scorer'"):
        parse_config(None, {"scorer": "nope"})


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = seeded(0)
    cp = Checkpoint({"b": rng.normal(size=(3, 2)), "a": rng.normal(size=5),
                     "c/x": np.array([1.5])})
    p1 = tmp_path / "m1.ckpt"
    p2 = tmp_path / "m2.ckpt"
    save_checkpoint(str(p1), cp)
    loaded = load_checkpoint(str(p1))
    assert sorted(loaded.sections) == ["a", "b", "c/x"]
    for k in cp.sections:
        assert np.array_equal(np.atleast_1d(cp.sections[k]), loaded.sections[k])
    save_checkpoint(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_ends_in_a_crc32_checksum_that_loading_checks(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), Checkpoint({"a": np.arange(4.0)}))
    raw = p.read_bytes()
    assert struct.unpack_from("<I", raw, 4) == (2,)
    body, trailer = raw[:-30], raw[-30:]
    assert trailer == (struct.pack("<I", 10) + b"checksum:1" + struct.pack("<Q", 1)
                       + struct.pack("<d", float(zlib.crc32(body))))
    assert list(load_checkpoint(str(p)).sections) == ["a"]
    def flip(i):   # one bit of byte i
        return raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]

    for bad in (body, flip(len(raw) - 1), flip(12)):   # the checksum, a section name
        p.write_bytes(bad)
        with pytest.raises(CheckpointError, match=f"^{p}: checksum mismatch"):
            load_checkpoint(str(p))
    # version 1 has no checksum: the same sections load unchecked
    p.write_bytes(raw[:4] + struct.pack("<I", 1) + body[8:])
    assert list(load_checkpoint(str(p)).sections) == ["a"]


def test_saving_a_section_named_checksum_raises_and_writes_no_file(tmp_path):
    # the name is the trailer's: such a file would fail to load
    p = tmp_path / "m.ckpt"
    with pytest.raises(CheckpointError, match=f"^{p}: section name 'checksum' is reserved"):
        save_checkpoint(str(p), Checkpoint({"a": np.arange(2.0), "checksum": np.array([1.0])}))
    assert list(tmp_path.iterdir()) == []


def test_a_section_repeated_under_a_good_checksum_names_the_file_and_section(tmp_path):
    blob = (MAGIC + struct.pack("<I", 2) + kio._section("a", np.arange(2.0))
            + kio._section("a", np.arange(3.0)))
    p = tmp_path / "m.ckpt"
    p.write_bytes(blob + kio._section("checksum", kio._checksum(blob)))
    with pytest.raises(CheckpointError, match=f"^{p}: duplicate section 'a'$"):
        load_checkpoint(str(p))


def test_a_write_whose_replace_fails_leaves_no_temp_file(tmp_path):
    # the target is a directory, so the final rename fails after the write
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_bytes(str(target), b"data")
    with pytest.raises(OSError):
        save_checkpoint(str(target), Checkpoint({"a": np.arange(2.0)}))
    with pytest.raises(OSError):
        write_report(str(target), {"mrr": 0.5})
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), Checkpoint({"a": np.arange(4.0)}))
    raw = bytearray(p.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(bad))
    bad.write_bytes(bytes(raw[:-8]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(bad))
    raw[4] = 9
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(bad))


def one_section_checkpoint(name: bytes, count: int = 1) -> bytes:
    """A checkpoint holding one section of `count` elements whose stored
    name, shape text included, is `name`."""
    return (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<Q", count) + struct.pack(f"<{count}d", *[1.5] * count))


@pytest.mark.parametrize("name, count", [
    (b"a\xff:1", 1), (b"a:2xq", 1), (b"a:99999999999999999999", 1), (b"a:+1", 1),
    (b"a:1_0", 1), (b"a: 1", 1), (b"a:1x", 1), (b"a:-1x-1", 1), (b"a:" + b"1x" * 70 + b"1", 1),
    (b"a:0x999999999999999999x999999999999999999", 0)])
def test_corrupt_section_header_names_the_file(tmp_path, name, count):
    p = tmp_path / "m.ckpt"
    p.write_bytes(one_section_checkpoint(name, count))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(p))
    assert str(err.value).startswith(f"{p}: ")


def test_checkpoint_section_names_may_be_any_utf8(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(one_section_checkpoint("é:1x1".encode("utf-8")))
    assert load_checkpoint(str(p)).sections["é"].tolist() == [[1.5]]


def model_checkpoint_bytes(tmp_path) -> bytes:
    values = parse_config(None, {"task": "align", "dim": "4", "layers": "2",
                                 "scorer": "transd", "mode": "kegcn"})
    cfg = ModelConfig(mode="kegcn", scorer_kind="transd", dim=4, layers=2)
    rng = seeded(3)
    params = init_params(cfg, 2, rng)
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    tables = {"g1": init_state(cfg, g, rng), "g2": init_state(cfg, g, rng)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), pack_model(values, params, tables, 0.5))
    return path.read_bytes()


def loads_or_names_the_file(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load_checkpoint(str(path))
    except CheckpointError as err:
        assert str(err).startswith(f"{path}: "), str(err)


def test_every_truncated_model_checkpoint_loads_or_names_the_file(tmp_path):
    data = model_checkpoint_bytes(tmp_path)
    path = tmp_path / "cut.ckpt"
    for n in range(len(data)):
        loads_or_names_the_file(path, data[:n])


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_model_checkpoint_with_one_byte_overwritten_loads_or_names_the_file(
        tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("ckpt")
    raw = bytearray(model_checkpoint_bytes(tmp))
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    loads_or_names_the_file(tmp / "bad.ckpt", bytes(raw))


@pytest.mark.parametrize("old, new", [(b"param/layer0.w_rel", b"param/layer0.w_reX"),
                                      (b"param/layer1.w0", b"param/layer7.w0")])
def test_unpack_model_rejects_a_param_section_it_does_not_know(tmp_path, old, new):
    # a damaged weight name must not load as a model that lacks the weight;
    # renamed after loading, since the checksum rejects the damaged file
    raw = model_checkpoint_bytes(tmp_path)
    assert raw.count(old) == 1
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(str(path))
    path.write_bytes(raw)
    cp = load_checkpoint(str(path))
    cp.sections[new.decode()] = cp.sections.pop(old.decode())
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    with pytest.raises(CheckpointError, match=f"lacks section '{old.decode()}'"):
        unpack_model(cp, unpack_config(cp)[0], {"g1": g, "g2": g})


@pytest.mark.parametrize("name, value", [("config/dim", np.inf), ("config/layers", np.inf),
                                         ("config/dim", np.nan), ("config/layers", 2.5),
                                         ("config/scorer", np.nan), ("config/lr", -np.inf),
                                         ("table/g1.entity", np.nan), ("param/layer0.w", np.inf),
                                         ("param/layer1.w_rel", np.nan)])
def test_unpack_model_rejects_a_non_finite_or_non_integral_value(tmp_path, name, value):
    path = tmp_path / "model.ckpt"
    path.write_bytes(model_checkpoint_bytes(tmp_path))
    cp = load_checkpoint(str(path))
    cp.sections[name] = cp.sections[name].copy()
    cp.sections[name].flat[-1] = value
    with pytest.raises(CheckpointError, match=name):
        unpack_config(cp)


def test_unpack_model_reads_a_nan_best_valid_as_none(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(model_checkpoint_bytes(tmp_path))
    cp = load_checkpoint(str(path))
    assert unpack_config(cp)[1] == 0.5
    cp.sections["best_valid"] = np.array([np.nan])
    assert unpack_config(cp)[1] is None


def test_model_pack_unpack_roundtrip(tmp_path):
    values = parse_config(None, {"task": "classify", "dim": "4", "layers": "2",
                                 "scorer": "rotate"})
    cfg = ModelConfig(mode=values["mode"], scorer_kind=values["scorer"],
                      dim=values["dim"], layers=values["layers"],
                      alpha=values["alpha"], out_dim=3)
    rng = seeded(1)
    params = init_params(cfg, 2, rng)
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    tables = {"g": init_state(cfg, g, rng)}
    cp = pack_model(values, params, tables, 0.75)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), cp)
    cp = load_checkpoint(str(path))
    got_values, best = unpack_config(cp)
    got_params, got_tables = unpack_model(cp, got_values, {"g": g}, 3)
    assert got_values["task"] == "classify" and got_values["scorer"] == "rotate"
    assert got_values["dim"] == 4 and got_values["layers"] == 2
    assert best == 0.75
    for want, got in zip(params, got_params):
        assert np.array_equal(want.w, got.w)
        assert np.array_equal(want.w0, got.w0)
        assert np.array_equal(want.w_rel, got.w_rel)
        assert got.alpha == values["alpha"]
    assert len(got_params) == len(params)
    assert np.array_equal(tables["g"].entity, got_tables["g"].entity)
    assert np.array_equal(tables["g"].relation, got_tables["g"].relation)
    assert train_config(got_values).scorer == "rotate"


def test_pack_model_no_validation_metric():
    values = parse_config(None, {"task": "align", "dim": "4", "layers": "1"})
    cfg = ModelConfig(dim=4, layers=1)
    rng = seeded(2)
    params = init_params(cfg, 1, rng)
    g = build_graph([(0, 0, 1)], 2, 1)
    tables = {"g1": init_state(cfg, g, rng), "g2": init_state(cfg, g, rng)}
    assert unpack_config(pack_model(values, params, tables, None))[1] is None


def test_pack_model_keeps_the_largest_seed_exact():
    # a checkpoint holds the seed as a float64, exact below 2**53 only
    values = parse_config(None, {"task": "align", "dim": "4", "layers": "1",
                                 "seed": str(2 ** 53 - 1)})
    cfg = ModelConfig(dim=4, layers=1)
    rng = seeded(2)
    params = init_params(cfg, 1, rng)
    g = build_graph([(0, 0, 1)], 2, 1)
    tables = {"g1": init_state(cfg, g, rng), "g2": init_state(cfg, g, rng)}
    assert unpack_config(pack_model(values, params, tables, None))[0]["seed"] == 2 ** 53 - 1


@pytest.mark.parametrize("seed", [-1, 2 ** 53, 2 ** 53 + 1])
def test_train_config_rejects_a_seed_a_checkpoint_cannot_hold(seed):
    # 2**53 + 1 trained, then came back from its checkpoint as 2**53; -1
    # reached NumPy's generator, whose error named no option
    values = parse_config(None, {"task": "align", "seed": str(seed)})
    with pytest.raises(ValueError, match=f"seed must be .*, got {seed}$"):
        train_config(values)


def test_report_write_read_roundtrip(tmp_path):
    p = tmp_path / "report.tsv"
    write_report(str(p), {"mrr": 0.58333, "seed": 7, "hits1": 1.0 / 3.0})
    text = p.read_text()
    assert text.splitlines()[0].startswith("hits1\t")
    got = read_report(str(p))
    assert got["seed"] == "7"
    assert float(got["mrr"]) == 0.58333
    assert float(got["hits1"]) == 1.0 / 3.0


def test_load_graph_builds_counts(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tr\tb\nb\ts\tc\n")
    g, ent, rel = load_graph(str(p))
    assert g.num_entities == 3 and g.num_relations == 2
    assert g.num_triples == 2
