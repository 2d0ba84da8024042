"""Dataset ingestion, config files, binary checkpoints, and report files.

Data files are tab-separated text; blank lines and lines starting with
`#` are ignored, in config files and rank lists too (`data_lines`).
Within one triples file ids are either all non-negative integers (used
directly) or all strings (interned in first-seen order); mixing the two
is an error.  Every malformed line is reported with its line number,
nothing is skipped silently.

The common file takes a bulk path (`_clean_ids`): every line holds
unpadded ASCII-digit ids of at most 18 digits and ends in \\n, \\r\\n or
at the end of the file, with no comment, blank line or lone CR.  NumPy
checks its bytes, then one NumPy call converts all of its ids; no Python
code runs per line or token.  A file that fails a check there, or whose
ids do not fit the vocabularies (an id out of range, a repeated labeled
entity, a string-id vocabulary), takes the general path, which raises
every error.

The general path reads line by line: the text is decoded at once (lines
end in \\n, \\r\\n or \\r), every data line's fields are split, stripped
and counted, then each line's ids go through `Vocabulary.intern` or
`resolve` in file order.  A file with errors reports the first one, in
this order: a byte that is not UTF-8; a wrong field count or an empty
field; then line by line, mixed integer and string ids, an id of more
than 18 digits, and an id at or above the file's id-token count
(triples) or an unknown id, duplicate entity or empty label token (pairs
and labels).

Checkpoints are a flat binary container: magic `KEGC`, a 4-byte
little-endian version, then named sections, each
`name-length(4B LE) | name(UTF-8) | elem-count(8B LE) | float64 LE payload`.
Array shapes ride inside the section name after a `:` separator, so the
container itself stays a plain list of float vectors.  Sections are
written sorted by name, which makes save -> load -> save byte-identical.
Version 2 ends in a `checksum` section (the CRC-32 of all bytes before it, an
exact float) that loading checks and drops; version 1 loads unchecked.
Saving a `Checkpoint` that holds a section of that name raises.
A model checkpoint (`pack_model`) holds the config echo `config/<key>`,
`best_valid`, and one `param/layer<i>.<field>` or `table/<graph>.<part>`
section per array of the layout `propagation.layer_shapes` and
`table_shapes` give the model of that config on the data; `unpack_model`
reads back exactly those sections with exactly those shapes.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .graph import build_graph
from .propagation import EmbeddingState, LayerParams, layer_shapes, table_shapes
from .tasks import AlignmentSeeds, LabelSet, TrainConfig, named_parameters


class DataError(ValueError):
    """Malformed or inconsistent dataset file."""


class ConfigError(ValueError):
    """Bad configuration key or value."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


_MAX_ID_DIGITS = 18   # every id of this many digits fits int64
TASKS = ("align", "classify")


# ---------------- vocabularies and TSV loaders ----------------


def _is_int(token: str) -> bool:
    return token.isascii() and token.isdigit()   # isdigit alone admits non-ASCII digits


def int_token(token: str) -> Optional[int]:
    """The integer an id token names: unpadded ASCII digits, at most
    _MAX_ID_DIGITS of them (so it fits int64); None for any other token.
    Ranks and checkpoint dims follow it too, as do `Vocabulary.intern` and
    `resolve` token by token and `_clean_ids` on a file's bytes."""
    return int(token) if _is_int(token) and len(token) <= _MAX_ID_DIGITS else None


def _int_id(token: str) -> int:
    """The id an integer-mode token names; DataError for any other token."""
    if not (token.isascii() and token.isdigit()):   # _is_int, without a call per token
        raise DataError("mixed integer and string ids")
    if len(token) > _MAX_ID_DIGITS:
        raise DataError(f"integer id of {len(token)} digits, more than {_MAX_ID_DIGITS}")
    return int(token)


class Vocabulary:
    """Token to dense-id map.  Integer mode passes ids through and only
    tracks the implied count; string mode interns in first-seen order."""

    def __init__(self, int_mode: Optional[bool] = None):
        self.int_mode = int_mode
        self._ids: dict = {}
        self._count = 0

    @property
    def size(self) -> int:
        return self._count if self.int_mode else len(self._ids)

    def names(self):
        return list(map(str, range(self._count))) if self.int_mode else list(self._ids)

    def intern(self, token: str) -> int:
        """The id of a non-empty token, new ones included (an unset mode
        follows the token); integer mode takes only integer ids."""
        if self.int_mode is None:
            self.int_mode = _is_int(token)
        if not self.int_mode:
            return self._ids.setdefault(token, len(self._ids))
        i = _int_id(token)
        if i >= self._count:
            self._count = i + 1
        return i

    def count(self, ids: np.ndarray) -> None:
        """Take int64 `ids` into integer mode: the count grows to hold them."""
        self.int_mode = True
        self._count = max(self._count, int(ids.max(initial=-1)) + 1)

    def resolve(self, token: str, what: str) -> int:
        """The id of a known token; an unknown one is an error naming it a `what`."""
        if self.int_mode:
            i = _int_id(token) if _is_int(token) else -1
        else:
            i = self._ids.get(token, -1)
        if not 0 <= i < self.size:
            raise DataError(f"unknown {what} {token!r}")
        return i


def _clean_ids(data: bytes, n_fields: int, listed: bool = False):
    """The int64 ids of a file's bytes `data` on the bulk path (see the
    module docstring), in file order, and the byte after each: tab, comma
    or \\n, a CRLF read as \\n; None for any other file, the empty one too.
    Each line holds n_fields tab-separated fields, the last a comma-separated
    list if `listed`.  The bytes are checked before NumPy converts them."""
    data = data.replace(b"\r\n", b"\n")   # a CR anywhere else stays and refuses the file
    data += b"" if data.endswith(b"\n") else b"\n"
    b = np.frombuffer(data, np.uint8)
    if (b > ord("9")).any():
        return None
    ends = np.flatnonzero(b < ord("0"))   # the byte after each id
    lens = np.diff(ends, prepend=-1) - 1
    if not 1 <= lens.min() <= lens.max() <= _MAX_ID_DIGITS:
        return None
    seps = b[ends]
    if listed:   # a tab first on each line, then only commas up to its \n
        lines = np.flatnonzero(seps == 10)
        ok = ((seps[np.r_[0, lines[:-1] + 1]] == 9).all()
              and np.count_nonzero(seps == 9) == lines.size
              and np.count_nonzero(seps == 44) == seps.size - 2 * lines.size)
    else:
        ok = seps.size % n_fields == 0 and (
            seps.reshape(-1, n_fields) == [9] * (n_fields - 1) + [10]).all()
    return (np.fromstring(data.replace(b",", b" "), np.int64, sep=" "), seps) if ok else None


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def data_lines(path: str, data: Optional[bytes] = None):
    """Line numbers and text of the data lines of a text file, all lines
    but blank ones and those whose first non-blank character is `#`.
    Lines end in \\n, \\r\\n or \\r, as in text mode.  `data` is the
    file's bytes when the caller has read them already."""
    data = _read(path) if data is None else data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise DataError(f"{path} line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                        f"({exc.reason})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    linenos = [i for i, line in enumerate(lines, 1) if (s := line.lstrip()) and s[0] != "#"]
    return linenos, [lines[i - 1] for i in linenos]


def _read_rows(path: str, n_fields: int, data: bytes):
    """Line numbers of the data lines of a TSV file, whose bytes are
    `data`, and their stripped fields, one flat list of n_fields per line."""
    linenos, rows = data_lines(path, data)
    tokens = list(map(str.strip, "\t".join(rows).split("\t"))) if rows else []
    tabs = n_fields - 1
    if "" in tokens or list(map(str.count, rows, itertools.repeat("\t"))).count(tabs) < len(rows):
        lineno = next(i for i, row in zip(linenos, rows) if row.count("\t") != tabs
                      or "" in map(str.strip, row.split("\t")))
        raise DataError(f"{path} line {lineno}: expected {n_fields} tab-separated fields")
    return linenos, tokens


def _triple_rows(path: str):
    """(n, 3) int64 rows of a triples file in file order, with its entity
    and relation vocabularies."""
    data = _read(path)
    clean = _clean_ids(data, 3)
    if clean is not None and clean[0].max() < clean[0].size:   # the id-token count
        rows, ent, rel = clean[0].reshape(-1, 3), Vocabulary(), Vocabulary()
        ent.count(rows[:, ::2])
        rel.count(rows[:, 1])
        return rows, ent, rel
    linenos, tokens = _read_rows(path, 3, data)
    int_mode = bool(tokens) and _is_int("".join(tokens[:3]))
    ent, rel, limit, out = Vocabulary(int_mode), Vocabulary(int_mode), len(tokens), []
    try:
        for lineno, h, r, t in zip(linenos, tokens[0::3], tokens[1::3], tokens[2::3]):
            if _is_int(h + r + t) != int_mode:   # the fields are non-empty
                raise DataError("mixed integer and string ids")
            row = ent.intern(h), rel.intern(r), ent.intern(t)
            if int_mode and max(row) >= limit:
                raise DataError(f"id {max(row)} is not below {limit}, the file's id-token count")
            out += row   # flat: NumPy converts a list of ints faster than one of tuples
    except DataError as exc:
        raise DataError(f"{path} line {lineno}: {exc}") from None
    return np.array(out, np.int64).reshape(-1, 3), ent, rel


def load_graph(path: str):
    """Parse `head<TAB>relation<TAB>tail` lines into a graph plus entity and
    relation vocabularies.  An integer id must be below the file's id-token
    count (three per line), the most distinct ids the file can name;
    globally numbered pairs such as DBP15K stay well inside."""
    rows, ent, rel = _triple_rows(path)
    return build_graph(rows, ent.size, rel.size), ent, rel


def load_alignments(path: str, vocab1: Vocabulary, vocab2: Vocabulary, what: str = "entity"):
    """Parse `e1<TAB>e2` seed pairs; both sides must already be known `what`s."""
    data = _read(path)
    clean = _clean_ids(data, 2) if vocab1.int_mode and vocab2.int_mode else None
    if clean is not None:
        left, right = clean[0].reshape(-1, 2).T
        if left.max() < vocab1.size and right.max() < vocab2.size:
            return list(zip(left.tolist(), right.tolist()))
    linenos, tokens = _read_rows(path, 2, data)
    pairs = []
    try:
        for lineno, a, b in zip(linenos, tokens[0::2], tokens[1::2]):
            pairs.append((vocab1.resolve(a, what), vocab2.resolve(b, what)))
    except DataError as exc:
        raise DataError(f"{path} line {lineno}: {exc}") from None
    return pairs


def _label_rows(path: str, ent_vocab: Vocabulary, class_vocab: Vocabulary):
    """load_labels, plus the line number of each labeled entity (in the
    map's order) and the file's label-token count."""
    data = _read(path)
    clean = (_clean_ids(data, 2, listed=True)
             if ent_vocab.int_mode and class_vocab.int_mode is not False else None)
    if clean is not None:
        tabs = clean[1] == 9
        ents, classes = clean[0][tabs], clean[0][~tabs]
        if ents.max() >= ent_vocab.size or (np.diff(np.sort(ents)) == 0).any():   # repeated
            clean = None
    if clean is None:
        linenos, ents, classes, ends = _general_label_rows(path, data, ent_vocab, class_vocab)
    else:
        linenos, ends = range(1, ents.size + 1), np.flatnonzero(clean[1][~tabs] == 10) + 1
        class_vocab.count(classes)
    flat, ends = classes.tolist(), ends.tolist()
    if len(flat) == len(ends):   # one label a line
        return dict(zip(ents.tolist(), zip(flat))), False, linenos, len(flat)
    tuples = [tuple(dict.fromkeys(flat[a:b])) for a, b in zip([0] + ends, ends)]
    return dict(zip(ents.tolist(), tuples)), any(len(t) > 1 for t in tuples), linenos, len(flat)


def _general_label_rows(path: str, data: bytes, ent_vocab: Vocabulary,
                        class_vocab: Vocabulary):
    """_label_rows' line numbers, entity ids, class ids and one past each
    line's last class id, on the general path."""
    linenos, tokens = _read_rows(path, 2, data)
    ents, classes, ends = {}, [], []
    try:
        for lineno, entity, text in zip(linenos, tokens[0::2], tokens[1::2]):
            e = ent_vocab.resolve(entity, "entity")
            if e in ents:
                raise DataError(f"duplicate labels for entity {entity!r}")
            parts = [p.strip() for p in text.split(",")]
            if not all(parts):
                raise DataError("empty label token")
            ents[e] = None
            classes += map(class_vocab.intern, parts)
            ends.append(len(classes))
    except DataError as exc:
        raise DataError(f"{path} line {lineno}: {exc}") from None
    return linenos, *(np.array(list(x), np.int64) for x in (ents, classes, ends))


def load_labels(path: str, ent_vocab: Vocabulary, class_vocab: Vocabulary):
    """Parse `entity<TAB>label[,label...]` lines; returns the entity to
    label-tuple map and whether any line carried several labels."""
    return _label_rows(path, ent_vocab, class_vocab)[:2]


@dataclass
class DatasetBundle:
    graphs: list
    relation_vocabs: list
    seeds: Optional[AlignmentSeeds] = None
    label_set: Optional[LabelSet] = None


def _require_path(values: dict, key: str) -> str:
    if key not in values:
        raise ConfigError(f"config key '{key}' is required for this task")
    return values[key]


def load_alignment_bundle(values: dict) -> DatasetBundle:
    g1, ev1, rv1 = load_graph(_require_path(values, "graph1"))
    g2, ev2, rv2 = load_graph(_require_path(values, "graph2"))
    splits = {}
    for split in ("train", "valid", "test"):
        path = values.get(split)
        splits[split] = load_alignments(path, ev1, ev2) if path else []
    seeds = AlignmentSeeds(**splits)
    return DatasetBundle([g1, g2], [rv1, rv2], seeds=seeds)


def load_classification_bundle(values: dict) -> DatasetBundle:
    """An integer label must be below the label-token count of all split
    files together, checked once they are all read."""
    g, ev, rv = load_graph(_require_path(values, "graph1"))
    class_vocab = Vocabulary()
    merged: dict = {}
    where: dict = {}
    split_ids = {}
    multi = False
    limit = 0
    for split in ("train", "valid", "test"):
        path = values.get(split)
        if not path:
            split_ids[split] = []
            continue
        labels, m, linenos, n_tokens = _label_rows(path, ev, class_vocab)
        if merged.keys() & labels.keys():
            e, lineno = next((e, i) for e, i in zip(labels, linenos) if e in merged)
            raise DataError(f"{path} line {lineno}: entity id {e} labeled in more than "
                            "one split")
        where.update(zip(labels, zip(itertools.repeat(path), linenos)))
        merged.update(labels)
        split_ids[split] = sorted(labels)
        multi = multi or m
        limit += n_tokens
    if class_vocab.int_mode and class_vocab.size > limit:
        e = next(e for e, ids in merged.items() if max(ids) >= limit)
        raise DataError("{} line {}".format(*where[e]) + f": label {max(merged[e])} is not "
                        f"below {limit}, the split files' label-token count")
    label_set = LabelSet(merged, class_vocab.size, multi, **split_ids)
    return DatasetBundle([g], [rv], label_set=label_set)


# ---------------- configuration ----------------


# Config keys: the dataset and output paths, the task, every TrainConfig
# field (typed by its default) and the run count.
_PATH_KEYS = ("graph1", "graph2", "train", "valid", "test", "rel_test",
              "report", "checkpoint")
_FIELDS = fields(TrainConfig)
_CONFIG_KEYS = ("task",) + tuple(f.name for f in _FIELDS)   # the keys a checkpoint stores
TRAIN_KEYS = _PATH_KEYS + tuple(f.name for f in _FIELDS) + ("runs",)
ALIGN_KEYS = ("graph2", "rel_test", "gamma", "negatives")   # classification takes none
_TYPES = {"task": str, "runs": int, **{f.name: type(f.default) for f in _FIELDS}}
_CHOICES = {"task": TASKS, **{f.name: f.metadata["choices"] for f in _FIELDS
                              if "choices" in f.metadata}}
_TYPE_NAMES = {int: "integer", float: "number"}


def _convert(key: str, value: str):
    if key in _PATH_KEYS:
        return value
    if key not in _TYPES:
        raise ConfigError(f"unknown config key '{key}'")
    kind = _TYPES[key]
    if kind in _TYPE_NAMES:
        try:
            v = kind(value)
        except ValueError:
            raise ConfigError(
                f"config key '{key}': expected {_TYPE_NAMES[kind]}, got {value!r}") from None
        if key == "runs" and v < 1:
            raise ConfigError(f"config key 'runs': need at least 1 run, got {v}")
        return v
    if value not in _CHOICES[key]:
        raise ConfigError(
            f"config key '{key}': expected one of {_CHOICES[key]}, got {value!r}")
    return value


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    """`key = value` lines merged with command-line overrides (which win),
    then defaults; dim defaults to 200 for alignment, 32 for classification.
    The task comes from the overrides, never the file, and a classification
    config may not set any of ALIGN_KEYS."""
    values: dict = {}
    where: dict = {}   # key -> the "file line n: " that set it last, if any
    for lineno, line in zip(*data_lines(path)) if path else ():
        key, sep, value = map(str.strip, line.partition("="))
        where[key] = f"{path} line {lineno}: "
        try:
            if not sep:
                raise ConfigError("expected key = value")
            if key == "task":
                raise ConfigError("config key 'task': the subcommand sets the task")
            values[key] = _convert(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{where[key]}{exc}") from None
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key], where[key] = _convert(key, str(value)), ""
    values.setdefault("task", "align")
    bad = [key for key in ALIGN_KEYS if key in values and values["task"] == "classify"]
    if bad:
        raise ConfigError(f"{where[bad[0]]}config key '{bad[0]}': classification does not read it")
    for f in _FIELDS:
        values.setdefault(f.name, f.default if f.name != "dim"
                          else 200 if values["task"] == "align" else 32)
    values.setdefault("runs", 1)
    return values


def train_config(values: dict) -> TrainConfig:
    return TrainConfig(**{f.name: values[f.name] for f in _FIELDS})


# ---------------- checkpoints ----------------


MAGIC = b"KEGC"
CHECKPOINT_VERSION = 2
CHECKSUM = "checksum"   # the last section of a version-2 file; a reserved name


@dataclass
class Checkpoint:
    sections: dict = field(default_factory=dict)


def _section(name: str, arr: np.ndarray) -> bytes:
    full = f"{name}:{'x'.join(str(s) for s in arr.shape)}".encode("utf-8")
    return (struct.pack("<I", len(full)) + full + struct.pack("<Q", arr.size)
            + np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _checksum(data: bytes) -> np.ndarray:
    return np.array([float(zlib.crc32(data))])


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, cp: Checkpoint) -> None:
    if CHECKSUM in cp.sections:
        raise CheckpointError(f"{path}: section name '{CHECKSUM}' is reserved for the trailer")
    blob = bytearray(MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
    for name in sorted(cp.sections):
        blob += _section(name, np.atleast_1d(cp.sections[name]))
    blob += _section(CHECKSUM, _checksum(blob))
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    if len(data) < 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    version = struct.unpack_from("<I", data, 4)[0]
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    off, start, name = 8, 8, None
    sections: dict = {}

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = data[off:off + n]
        off += n
        return out

    while off < len(data):
        start = off
        (name_len,) = struct.unpack("<I", take(4))
        try:
            full = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: section name at byte {off - name_len} "
                                  "is not UTF-8") from None
        (count,) = struct.unpack("<Q", take(8))
        payload = take(8 * count)
        name, sep, shape_txt = full.rpartition(":")
        if not sep:
            raise CheckpointError(f"{path}: section {full!r} lacks a shape")
        dims = shape_txt.split("x") if shape_txt else []
        shape = tuple(map(int_token, dims))
        if None in shape or math.prod(shape) != count:
            raise CheckpointError(f"{path}: section {name!r} shape/count mismatch")
        if name in sections:
            raise CheckpointError(f"{path}: duplicate section {name!r}")
        try:
            sections[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError:   # more axes, or a larger empty array, than NumPy holds
            raise CheckpointError(f"{path}: section {name!r} has shape {shape_txt}, "
                                  "which NumPy cannot hold") from None
    if version == CHECKPOINT_VERSION and not (
            name == CHECKSUM and np.array_equal(sections.pop(name), _checksum(data[:start]))):
        raise CheckpointError(f"{path}: checksum mismatch, changed since it was written")
    return Checkpoint(sections)


def pack_model(values: dict, params_list: list, tables: dict,
               best_valid: Optional[float]) -> Checkpoint:
    """Model state as a checkpoint: config echo, layer weights, embedding
    tables, best validation metric (NaN when there was no validation).
    Fields with choices are stored as their index."""
    sections: dict = {"best_valid": [np.nan if best_valid is None else float(best_valid)]}
    for key in _CONFIG_KEYS:
        v = values[key]
        sections[f"config/{key}"] = [float(_CHOICES[key].index(v) if key in _CHOICES else v)]
    for name, arr in named_parameters(params_list, {}).items():
        sections[f"param/{name}"] = arr
    for name, arr in named_parameters([], tables).items():
        sections[f"table/{name}"] = arr
    return Checkpoint(sections)


def unpack_config(cp: Checkpoint):
    """The config values (runs = 1) and best validation metric (None when
    NaN) a checkpoint stores.  Every value must be finite but
    `best_valid`, whose NaN means there was no validation, and the config
    one `TrainConfig` and `ModelConfig` accept."""
    sec = cp.sections

    def get(name: str) -> float:
        if name not in sec:
            raise CheckpointError(f"checkpoint lacks section {name!r}")
        if np.shape(sec[name]) != (1,):
            raise CheckpointError(f"section {name!r} has shape {_dims(np.shape(sec[name]))}, "
                                  "but holds one value")
        return float(sec[name][0])

    for name in sec:
        if name != "best_valid" and not np.isfinite(sec[name]).all():
            raise CheckpointError(f"checkpoint section {name!r} holds a non-finite value")
    values = {}
    for key in _CONFIG_KEYS:
        v = get(f"config/{key}")
        if (key in _CHOICES or _TYPES[key] is int) and v != int(v):
            raise CheckpointError(f"checkpoint section 'config/{key}' is not an integer")
        if key in _CHOICES:
            if not (0 <= int(v) < len(_CHOICES[key])):
                raise CheckpointError(f"checkpoint section 'config/{key}' out of range")
            values[key] = _CHOICES[key][int(v)]
        else:
            values[key] = _TYPES[key](v)
    values["runs"] = 1
    try:
        train_config(values).model_config()
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from None
    best = get("best_valid")
    return values, None if np.isnan(best) else best


def _dims(shape) -> str:
    return "x".join(map(str, shape))


def unpack_model(cp: Checkpoint, values: dict, graphs: dict, num_classes: Optional[int] = None):
    """The (layer params, tables by graph name) of a checkpoint whose
    config is `values`, for `graphs` and, when classifying, `num_classes`
    labels.  Its param/ and table/ sections must be exactly those
    pack_model writes for the model the config builds on these graphs,
    with their shapes: the relation count is the largest of the graphs'.
    Each layer is read before the next is looked for, so nothing is sized
    by a stored count before the sections show it."""
    mc = train_config(values).model_config(num_classes)
    sec, used = cp.sections, {"best_valid", *(f"config/{key}" for key in _CONFIG_KEYS)}

    def take(name: str, shape: tuple) -> np.ndarray:
        if name not in sec:
            raise CheckpointError(f"checkpoint lacks section {name!r} of shape {_dims(shape)}")
        if sec[name].shape != shape:
            raise CheckpointError(f"section {name!r} has shape {_dims(sec[name].shape)}, but "
                                  f"the model of its config and data has {_dims(shape)}")
        used.add(name)
        return sec[name].copy()

    rels = max(g.num_relations for g in graphs.values())
    params_list = [LayerParams(**{f: take(f"param/layer{i}.{f}", shape) for f, shape
                                  in layer_shapes(mc, rels, i).items()}, alpha=mc.alpha)
                   for i in range(mc.layers)]
    tables = {name: EmbeddingState(**{part: take(f"table/{name}.{part}", shape)
                                      for part, shape in table_shapes(mc, g).items()})
              for name, g in graphs.items()}
    if set(sec) - used:
        raise CheckpointError(f"unexpected section {min(set(sec) - used)!r}")
    return params_list, tables


# ---------------- report files ----------------


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):   # bool too
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_report(path: str, entries: dict) -> None:
    """`key<TAB>value` lines, sorted by key, written atomically."""
    text = "".join(f"{k}\t{format_value(entries[k])}\n" for k in sorted(entries))
    atomic_write_bytes(path, text.encode("utf-8"))
