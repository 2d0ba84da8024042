"""The TSV loaders of `kegcn.io`, on both of their paths (the bulk path
for clean integer files, the per-line reader for every other file),
against the independent per-line oracle in `tsv_oracle.py`, plus the
bundle-level label checks."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import tsv_oracle as oracle
from helpers import load_triples, perfbench_module
from kegcn import cli
from kegcn import io as kio
from kegcn.graph import build_graph

PROPERTY = settings(max_examples=150, deadline=None, database=None)
CORRUPT = st.integers(0, 2)   # nonzero: corrupt one to three lines of the file


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def classification_values(tmp_path, **splits):
    ring = "".join(f"{i}\t0\t{(i + 1) % 4}\n" for i in range(4))
    values = {"graph1": write(tmp_path / "g.tsv", ring)}
    values.update({s: write(tmp_path / f"{s}.tsv", text) for s, text in splits.items()})
    return values


# ---------------- bundle-level label checks ----------------


@pytest.mark.parametrize("splits, where, label, limit", [
    ({"train": "0\t0\n1\t99999999999999\n"}, "train.tsv line 2", 99999999999999, 2),
    ({"train": "0\t0\n1\t1\n", "valid": "2\t0,4\n"}, "valid.tsv line 1", 4, 4),
    ({"train": "0\t5\n", "test": "1\t0\n2\t1\n"}, "train.tsv line 1", 5, 3),
])
def test_integer_label_must_be_below_the_split_files_label_token_count(
        tmp_path, splits, where, label, limit):
    values = classification_values(tmp_path, **splits)
    with pytest.raises(kio.DataError) as err:
        kio.load_classification_bundle(values)
    assert str(err.value) == (f"{tmp_path / where}: label {label} is not below {limit}, "
                              "the split files' label-token count")


def test_integer_label_is_bounded_by_all_splits_together(tmp_path):
    # train alone holds one label token; with test's two, label 2 is in range
    values = classification_values(tmp_path, train="0\t2\n", test="1\t0\n2\t1\n")
    bundle = kio.load_classification_bundle(values)
    assert bundle.label_set.num_classes == 3
    assert bundle.label_set.labels == {0: (2,), 1: (0,), 2: (1,)}


def test_cli_huge_integer_label_exits_1_naming_file_and_line(tmp_path, capsys):
    values = classification_values(tmp_path, train="0\t0\n1\t99999999999999\n")
    argv = ["train-classify", "--graph1", values["graph1"], "--train", values["train"],
            "--dim", "4", "--layers", "1", "--epochs", "1", "--quiet"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{values['train']} line 2: label 99999999999999" in err


def test_entity_labeled_in_two_splits_names_the_second_line(tmp_path):
    values = classification_values(tmp_path, train="0\t0\n1\t1\n", test="# c\n2\t0\n1\t1\n")
    with pytest.raises(kio.DataError) as err:
        kio.load_classification_bundle(values)
    assert str(err.value) == (f"{values['test']} line 3: entity id 1 labeled in more "
                              "than one split")


# ---------------- generated files against the per-line oracle ----------------

PAD = st.sampled_from(["", "", " ", "  ", "\x0b", "\x0c", "\xa0", "\x1c", "\x85",
                       "\u2028", "\u3000"])
NOISE = st.sampled_from(["", "  ", "\t", "\x0c", "#", "# comment", "  #\tx\ty", "\t# z"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
NOT_UTF8 = "\ue000"   # stands for a byte that is not UTF-8, see `encode`
INT_CLASSES = ["0", "1", "2", "3", "007"]
STR_CLASSES = ["c1", "c2", "٣", "x y", "3", "é"]
STR_ENTITIES = ["a", "b", "c1", "1", "02", "٣", "x y", "é", "#"]
STR_RELATIONS = ["r", "s", "r 2", "٣"]


@st.composite
def layout(draw, rows):
    """TSV text of `rows` (token lists): padded tokens, comment and blank
    lines between rows, mixed line ends, maybe no final line end."""
    lines = []
    for row in rows:
        lines += draw(st.lists(NOISE, max_size=2))
        lines.append("\t".join(draw(PAD) + t + draw(PAD) for t in row))
    lines += draw(st.lists(NOISE, max_size=2))
    text = "".join(line + draw(ENDS) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def encode(text):
    return text.encode("utf-8").replace(NOT_UTF8.encode("utf-8"), b"\xff")


@st.composite
def triple_rows(draw):
    """(integer mode, rows) of a valid triples file, duplicates included."""
    int_mode = draw(st.booleans())
    n = draw(st.integers(0, 10))
    if int_mode:
        tok = st.builds(lambda i, z: "0" * z + str(i), st.integers(0, max(3 * n - 1, 0)),
                        st.sampled_from([0, 0, 0, 1, 2]))
        rel = tok
    else:
        tok, rel = st.sampled_from(STR_ENTITIES), st.sampled_from(STR_RELATIONS)
    rows = [[draw(tok), draw(rel), draw(tok)] for _ in range(n)]
    rows += [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=3))] if rows else []
    return int_mode, rows


def corrupt(draw, rows, kinds, int_tokens):
    """Corrupt one to three random rows in place; returns the kinds used."""
    used = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)) if rows else []
    for kind in sorted(used, key="non_utf8".__eq__):   # last, so no later edit drops it
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        k = draw(st.integers(0, len(row) - 1))
        if kind == "fields":
            rows[i] = row + ["x"] if len(row) < 2 or draw(st.booleans()) else row[:-1]
        elif kind == "empty":
            row[k] = ""
        elif kind == "mixed":
            if int_tokens:
                row[k] = draw(st.sampled_from(["x", "1a", "٣", "-1", "+2"]))
            else:
                rows[i] = [str(j) for j in range(len(row))]
        elif kind == "overlong":
            row[k] = "9" * draw(st.sampled_from([19, 25, 5000]))
        elif kind == "big":
            row[k] = str(draw(st.sampled_from([3, 10, 30, 10 ** 17, 10 ** 18 - 1])))
        elif kind == "unknown":
            row[k] = draw(st.sampled_from(["zz", "99", "٣", "a b"]))
        else:
            row[k] += NOT_UTF8
    return used


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except kio.DataError as exc:
        return "error", str(exc)


def vocab_state(v):
    return v.int_mode, v.size, v.names()


def triples_state(result):
    if result[0] == "error":
        return result
    triples, ent, rel = result[1]
    return triples, vocab_state(ent), vocab_state(rel)


@PROPERTY
@given(triple_rows(), CORRUPT, st.data())
def test_triples_match_the_oracle(tmp_path_factory, instance, bad, data):
    int_mode, rows = instance
    kinds = ["fields", "empty", "mixed", "non_utf8"] + (["overlong", "big"] if int_mode else [])
    used = corrupt(data.draw, rows, kinds, int_mode) if bad else []
    path = tmp_path_factory.mktemp("t") / "g.tsv"
    path.write_bytes(encode(data.draw(layout(rows))))
    want = outcome(oracle.load_triples, str(path))
    assert triples_state(outcome(load_triples, str(path))) == triples_state(want)
    assert want[0] == "error" or "non_utf8" not in used
    if want[0] == "ok":
        triples, ent, rel = want[1]
        g, _, _ = kio.load_graph(str(path))
        ref = build_graph(triples, ent.size, rel.size)
        for col in ("heads", "rels", "tails", "in_degree", "out_degree", "rel_degree"):
            assert getattr(g, col).tolist() == getattr(ref, col).tolist()


@st.composite
def graph_file(draw, tmp_path_factory):
    """A valid triples file, loaded by both parsers."""
    _, rows = draw(triple_rows())
    path = tmp_path_factory.mktemp("g") / "g.tsv"
    path.write_bytes(encode(draw(layout(rows))))
    loaded = load_triples(str(path))
    assume(loaded[0])   # every row may have been a comment: "#" is a head token too
    return path, loaded, oracle.load_triples(str(path))


def entity_tokens(vocab):
    if vocab.int_mode:
        return st.builds(lambda i, z: "0" * z + str(i), st.integers(0, vocab.size - 1),
                         st.sampled_from([0, 0, 1]))
    return st.sampled_from(vocab.names())


@PROPERTY
@given(st.data(), CORRUPT)
def test_alignments_match_the_oracle(tmp_path_factory, data, bad):
    path, (_, ent, rel), (_, oent, orel) = data.draw(graph_file(tmp_path_factory))
    other = data.draw(st.booleans())   # right side in the relation vocabulary
    rows = data.draw(st.lists(st.tuples(entity_tokens(ent),
                                        entity_tokens(rel if other else ent)).map(list),
                              max_size=12))
    used = corrupt(data.draw, rows, ["fields", "empty", "overlong", "unknown", "non_utf8"],
                   True) if bad else []
    pairs = path.parent / "pairs.tsv"
    pairs.write_bytes(encode(data.draw(layout(rows))))
    got = outcome(kio.load_alignments, str(pairs), ent, rel if other else ent)
    want = outcome(oracle.load_alignments, str(pairs), oent, orel if other else oent)
    assert got == want
    assert want[0] == "error" or "non_utf8" not in used


@PROPERTY
@given(st.data(), CORRUPT)
def test_labels_match_the_oracle(tmp_path_factory, data, bad):
    path, (_, ent, _), (_, oent, _) = data.draw(graph_file(tmp_path_factory))
    entities = data.draw(st.lists(entity_tokens(ent), max_size=10))
    int_classes = data.draw(st.booleans())
    cls = st.sampled_from(INT_CLASSES if int_classes else STR_CLASSES)
    rows = [[e, ",".join(data.draw(PAD) + c for c in data.draw(st.lists(cls, min_size=1,
                                                                         max_size=3)))]
            for e in entities]
    used = corrupt(data.draw, rows, ["fields", "empty", "mixed", "overlong", "unknown",
                                     "non_utf8"], int_classes) if bad else []
    if bad and rows and data.draw(st.booleans()):
        rows[-1][-1] += data.draw(st.sampled_from([",", ", ,x"]))   # an empty label token
    labels = path.parent / "labels.tsv"
    labels.write_bytes(encode(data.draw(layout(rows))))
    seen = data.draw(st.sampled_from([None, "0", "c"]))   # class tokens of an earlier split
    classes, oclasses = kio.Vocabulary(), oracle.OracleVocabulary()
    if seen is not None:
        classes.intern(seen)
        oclasses.intern(seen, "setup")
    got = outcome(kio.load_labels, str(labels), ent, classes)
    want = outcome(oracle.load_labels, str(labels), oent, oclasses)
    assert got == want
    assert want[0] == "error" or "non_utf8" not in used
    if want[0] == "ok":
        assert vocab_state(classes) == vocab_state(oclasses)


# ---------------- the bulk path and the general one ----------------


def general_path(load, *args):
    """The outcome of load(*args) and whether it took the general path,
    which every file the bulk path refuses goes through (`_read_rows`)."""
    calls, read = [], kio._read_rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kio, "_read_rows", lambda *a: calls.append(a) or read(*a))
        got = outcome(load, *args)
    return got, bool(calls)


def clean_layout(draw, rows):
    """Tab-separated rows of ASCII-digit ids, each line ending in \\n or
    \\r\\n, the last one maybe not: what the bulk path takes."""
    text = "".join("\t".join(row) + draw(st.sampled_from(["\n", "\r\n"])) for row in rows)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@PROPERTY
@given(st.data())
def test_clean_integer_files_take_the_bulk_path(tmp_path_factory, data):
    n = data.draw(st.integers(1, 10))
    ids = st.builds(lambda i, z: "0" * z + str(i), st.integers(0, 3 * n - 1),
                    st.sampled_from([0, 0, 1, 16]))   # up to 18 digits
    rows = [[data.draw(ids) for _ in range(3)] for _ in range(n)]
    d = tmp_path_factory.mktemp("b")
    write(d / "g.tsv", clean_layout(data.draw, rows))
    got, general = general_path(load_triples, str(d / "g.tsv"))
    want = outcome(oracle.load_triples, str(d / "g.tsv"))
    assert triples_state(got) == triples_state(want) and not general
    (_, ent, rel), (_, oent, orel) = got[1], want[1]

    pairs = data.draw(st.lists(st.tuples(entity_tokens(ent), entity_tokens(rel)).map(list),
                               min_size=1, max_size=12))
    write(d / "pairs.tsv", clean_layout(data.draw, pairs))
    got, general = general_path(kio.load_alignments, str(d / "pairs.tsv"), ent, rel)
    assert got == outcome(oracle.load_alignments, str(d / "pairs.tsv"), oent, orel)
    assert not general

    entities = data.draw(st.lists(entity_tokens(ent), min_size=1, max_size=10, unique_by=int))
    labels = [[e, ",".join(data.draw(st.lists(st.sampled_from(INT_CLASSES), min_size=1,
                                              max_size=3)))] for e in entities]
    write(d / "labels.tsv", clean_layout(data.draw, labels))
    classes, oclasses = kio.Vocabulary(), oracle.OracleVocabulary()
    got, general = general_path(kio.load_labels, str(d / "labels.tsv"), ent, classes)
    assert got == outcome(oracle.load_labels, str(d / "labels.tsv"), oent, oclasses)
    assert not general and vocab_state(classes) == vocab_state(oclasses)


WORKLOADS = perfbench_module("workloads")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workloads_load_on_the_bulk_path(tmp_path, monkeypatch, name, seed):
    # the benchmark's setup_s times these loads: a generator change that
    # sent their lines to the per-line reader would move it with no code
    # change.  An empty split file (align-quate-200 has no valid pairs)
    # goes through `_read_rows`, which finds no line in it.
    w = WORKLOADS.WORKLOADS[name]
    values = WORKLOADS.write_inputs(w, seed, tmp_path)
    read, lines = kio._read_rows, []

    def reading(*args):
        linenos, rows = read(*args)
        lines.extend(linenos)
        return linenos, rows

    monkeypatch.setattr(kio, "_read_rows", reading)
    bundle = WORKLOADS.load_bundle(w, values)
    assert lines == []
    WORKLOADS.check_sizes(w, WORKLOADS.loaded_sizes(w, bundle), "loaded")


DIGITS_18, DIGITS_19 = "0" * 17 + "1", "0" * 18 + "1"


@pytest.mark.parametrize("text, general", [
    ("0\t1\t2\n", False),
    (f"0\t0\t{DIGITS_18}\n", False),     # 18 digits: an id
    (f"0\t0\t{DIGITS_19}\n", True),      # 19 digits: an error
    ("0\t0\t3\n", True),                 # the id-token count: an error
    ("0\t0\t2\n1\t1\t5\n", False),       # one below it
    ("00\t01\t002\n", False),            # leading zeros
    ("0\t+1\t2\n", True), ("0\t-1\t2\n", True), ("+1\t1\t2\n", True),
    ("0\t٣\t2\n", True),                 # a digit, but not an ASCII one
    ("0\t 1\t2\n", True), ("0\t1\t2 \n", True), ("0\t1\t2\xa0\n", True),   # padded
    ("0\t1\t2\r", True),                 # a CR line end
    ("0\t1\t2\r\n1\t1\t0\r\n", False),   # CRLF line ends
    ("0\t1\t2\r\r\n", True), ("0\t1\t2\r\n\r\n", True),   # a CR line, a CRLF blank one
    ("0\t1\t2\n1\t1\t0", False),         # no final line end
    ("", True),                          # an empty file
    ("\n", True), ("0\t1\t2\n\n", True), ("# c\n0\t1\t2\n", True),
    ("0\t1\n", True), ("0\t1\t2\t2\n", True), ("0\t\t2\n", True), ("0,1\t1\t2\n", True),
])
def test_triples_edge_cases_take_their_path_and_match_the_oracle(tmp_path, text, general):
    path = write(tmp_path / "g.tsv", text)
    got, took_general = general_path(load_triples, path)
    assert triples_state(got) == triples_state(outcome(oracle.load_triples, path))
    assert took_general == general


RING = "".join(f"{i}\t0\t{(i + 1) % 4}\n" for i in range(4))   # entities 0-3, relation 0


@pytest.mark.parametrize("text, general", [
    ("0\t3\n", False), ("3\t0\n", False),
    ("0\t4\n", True), ("4\t0\n", True),  # the entity count: unknown
    (f"{DIGITS_18[:-1]}3\t0\n", False), (f"{DIGITS_19}\t0\n", True),
    ("0\t+1\n", True), ("-1\t0\n", True), ("0\t٣\n", True), (" 0\t1\n", True),
    ("0\t1\r\n", False), ("0\t1\r", True), ("0\t1", False), ("", True),
    ("0\t1\t2\n", True), ("0,1\t1\n", True),
])
def test_alignment_edge_cases_take_their_path_and_match_the_oracle(tmp_path, text, general):
    _, ent, _ = load_triples(write(tmp_path / "g.tsv", RING))
    _, oent, _ = oracle.load_triples(str(tmp_path / "g.tsv"))
    path = write(tmp_path / "pairs.tsv", text)
    got, took_general = general_path(kio.load_alignments, path, ent, ent)
    assert got == outcome(oracle.load_alignments, path, oent, oent)
    assert took_general == general


@pytest.mark.parametrize("text, seen, general", [
    ("0\t1\n1\t0,2\n", None, False), ("0\t1\n1\t0,2\n", "5", False),
    ("0\t1\n", "c", True),                    # string classes: the digits are names
    ("0\t1,1,0\n", None, False),              # a repeated label
    (f"0\t{DIGITS_18}\n", None, False), (f"0\t{DIGITS_19}\n", None, True),
    ("4\t1\n", None, True),                   # unknown entity
    ("0\t1\n0\t2\n", None, True),             # duplicate entity
    ("0\t1,\n", None, True), ("0\t,1\n", None, True), ("0\t1,,2\n", None, True),
    ("0\t+1\n", None, True), ("0\t-1\n", None, True), ("0\t٣\n", None, True),
    ("0\t1, 2\n", None, True), ("0\t1\r\n", None, False), ("0\t1\r", None, True),
    ("0\t1,2\r\n1\t0\r\n", None, False), ("0\t1\r,2\n", None, True),
    ("0\t1\n1\t2", None, False), ("", None, True), ("0\t1\t2\n", None, True),
    ("0,1\t1\n", None, True),
])
def test_label_edge_cases_take_their_path_and_match_the_oracle(tmp_path, text, seen,
                                                                general):
    _, ent, _ = load_triples(write(tmp_path / "g.tsv", RING))
    _, oent, _ = oracle.load_triples(str(tmp_path / "g.tsv"))
    classes, oclasses = kio.Vocabulary(), oracle.OracleVocabulary()
    if seen is not None:
        classes.intern(seen)
        oclasses.intern(seen, "setup")
    path = write(tmp_path / "labels.tsv", text)
    got, took_general = general_path(kio.load_labels, path, ent, classes)
    want = outcome(oracle.load_labels, path, oent, oclasses)
    assert got == want and took_general == general
    if want[0] == "ok":
        assert vocab_state(classes) == vocab_state(oclasses)


def test_string_id_graph_reads_digit_pairs_as_names(tmp_path):
    # the bulk path never reads a string vocabulary's names as numbers
    _, ent, _ = load_triples(write(tmp_path / "g.tsv", "02\tr\t1\n1\tr\ta\n"))
    path = write(tmp_path / "pairs.tsv", "02\t1\n1\t02\n")
    got, took_general = general_path(kio.load_alignments, path, ent, ent)
    assert got == ("ok", [(0, 1), (1, 0)]) and took_general
