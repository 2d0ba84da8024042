"""Dataset ingestion, config files, binary checkpoints, and report files.

Data files are tab-separated text; blank lines and lines starting with
`#` are ignored.  Within one triples file ids are either all
non-negative integers (used directly) or all strings (interned in
first-seen order); mixing the two is an error.  Every malformed line is
reported with its line number, nothing is skipped silently.

Checkpoints are a flat binary container: magic `KEGC`, a 4-byte
little-endian version, then named sections, each
`name-length(4B LE) | name(UTF-8) | elem-count(8B LE) | float64 LE payload`.
Array shapes ride inside the section name after a `:` separator, so the
container itself stays a plain list of float vectors.  Sections are
written sorted by name, which makes save -> load -> save byte-identical.
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .graph import build_graph
from .propagation import EmbeddingState, LayerParams, LayerVars, layer_activations
from .tasks import AlignmentSeeds, LabelSet, TrainConfig, named_parameters


class DataError(ValueError):
    """Malformed or inconsistent dataset file."""


class ConfigError(ValueError):
    """Bad configuration key or value."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


_INT_RE = re.compile(r"[0-9]+\Z")
_MAX_ID_DIGITS = 18   # every id of this many digits fits int64
TASKS = ("align", "classify")


# ---------------- vocabularies and TSV loaders ----------------


class Vocabulary:
    """Token to dense-id map.  Integer mode passes ids through and only
    tracks the implied count; string mode interns in first-seen order."""

    def __init__(self, int_mode: Optional[bool] = None):
        self.int_mode = int_mode
        self._ids: dict = {}
        self._names: list = []
        self._count = 0

    @property
    def size(self) -> int:
        return self._count if self.int_mode else len(self._ids)

    def names(self):
        if self.int_mode:
            return [str(i) for i in range(self._count)]
        return list(self._names)

    def intern(self, token: str, where: str) -> int:
        is_int = bool(_INT_RE.fullmatch(token))
        if self.int_mode is None:
            self.int_mode = is_int
        if self.int_mode:
            if not is_int:
                raise DataError(f"{where}: mixed integer and string ids")
            if len(token) > _MAX_ID_DIGITS:
                raise _overlong_id(token, where)
            i = int(token)
            self._count = max(self._count, i + 1)
            return i
        if token not in self._ids:
            self._ids[token] = len(self._ids)
            self._names.append(token)
        return self._ids[token]

    def resolve(self, token: str, where: str, what: str = "entity") -> int:
        if self.int_mode:
            if _INT_RE.fullmatch(token):
                if len(token) > _MAX_ID_DIGITS:
                    raise _overlong_id(token, where)
                i = int(token)
                if i < self._count:
                    return i
        elif token in self._ids:
            return self._ids[token]
        raise DataError(f"{where}: unknown {what} {token!r}")


def _overlong_id(token: str, where: str) -> DataError:
    return DataError(f"{where}: integer id of {len(token)} digits, more than {_MAX_ID_DIGITS}")


def _data_rows(path: str, n_fields: int):
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\r\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                tokens = [t.strip() for t in line.split("\t")]
                if len(tokens) != n_fields or any(not t for t in tokens):
                    raise DataError(
                        f"{path} line {lineno}: expected {n_fields} tab-separated fields")
                rows.append((lineno, tokens))
    except UnicodeDecodeError:
        raise DataError(_undecodable(path)) from None
    return rows


def _undecodable(path: str) -> str:
    """Message naming the line of the first byte that is not UTF-8; line
    ends are \\r\\n, \\r or \\n, as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        return f"{path} line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"


def load_triples(path: str):
    """Parse `head<TAB>relation<TAB>tail` lines; returns the triple list
    plus entity and relation vocabularies.  An integer id must be below
    the file's id-token count (three per line), the most distinct ids the
    file can name; globally numbered pairs such as DBP15K stay well inside."""
    rows = _data_rows(path, 3)
    int_mode = bool(rows) and all(_INT_RE.fullmatch(t) for t in rows[0][1])
    ent = Vocabulary(int_mode)
    rel = Vocabulary(int_mode)
    limit = 3 * len(rows)
    triples = []
    for lineno, tokens in rows:
        row_int = all(_INT_RE.fullmatch(t) for t in tokens)
        if row_int != int_mode:
            raise DataError(f"{path} line {lineno}: mixed integer and string ids")
        where = f"{path} line {lineno}"
        h = ent.intern(tokens[0], where)
        r = rel.intern(tokens[1], where)
        t = ent.intern(tokens[2], where)
        if int_mode and max(h, r, t) >= limit:
            raise DataError(f"{where}: id {max(h, r, t)} is not below {limit}, "
                            "the file's id-token count")
        triples.append((h, r, t))
    return triples, ent, rel


def load_graph(path: str):
    triples, ent, rel = load_triples(path)
    return build_graph(triples, ent.size, rel.size), ent, rel


def load_alignments(path: str, vocab1: Vocabulary, vocab2: Vocabulary):
    """Parse `e1<TAB>e2` seed pairs; both sides must already be known."""
    pairs = []
    for lineno, tokens in _data_rows(path, 2):
        where = f"{path} line {lineno}"
        pairs.append((vocab1.resolve(tokens[0], where),
                      vocab2.resolve(tokens[1], where)))
    return pairs


def load_labels(path: str, ent_vocab: Vocabulary, class_vocab: Vocabulary):
    """Parse `entity<TAB>label[,label...]` lines; returns the entity to
    label-tuple map and whether any line carried several labels."""
    labels: dict = {}
    multi = False
    for lineno, tokens in _data_rows(path, 2):
        where = f"{path} line {lineno}"
        e = ent_vocab.resolve(tokens[0], where)
        if e in labels:
            raise DataError(f"{where}: duplicate labels for entity {tokens[0]!r}")
        parts = [p.strip() for p in tokens[1].split(",")]
        if any(not p for p in parts):
            raise DataError(f"{where}: empty label token")
        ids = tuple(dict.fromkeys(class_vocab.intern(p, where) for p in parts))
        labels[e] = ids
        multi = multi or len(ids) > 1
    return labels, multi


@dataclass
class DatasetBundle:
    graphs: list
    entity_vocabs: list
    relation_vocabs: list
    seeds: Optional[AlignmentSeeds] = None
    label_set: Optional[LabelSet] = None
    class_vocab: Optional[Vocabulary] = None


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
    return DatasetBundle([g1, g2], [ev1, ev2], [rv1, rv2], seeds=seeds)


def load_classification_bundle(values: dict) -> DatasetBundle:
    g, ev, rv = load_graph(_require_path(values, "graph1"))
    class_vocab = Vocabulary()
    merged: dict = {}
    split_ids = {}
    multi = False
    for split in ("train", "valid", "test"):
        path = values.get(split)
        if not path:
            split_ids[split] = []
            continue
        labels, m = load_labels(path, ev, class_vocab)
        multi = multi or m
        for e in labels:
            if e in merged:
                raise DataError(f"{path}: entity id {e} labeled in more than one split")
        merged.update(labels)
        split_ids[split] = sorted(labels)
    label_set = LabelSet(merged, class_vocab.size, multi, **split_ids)
    return DatasetBundle([g], [ev], [rv], label_set=label_set,
                         class_vocab=class_vocab)


# ---------------- configuration ----------------


# Config keys: the dataset and output paths, the task, every TrainConfig
# field (typed by its default) and the run count.
_PATH_KEYS = ("graph1", "graph2", "train", "valid", "test", "rel_test",
              "report", "checkpoint")
_FIELDS = fields(TrainConfig)
TRAIN_KEYS = _PATH_KEYS + tuple(f.name for f in _FIELDS) + ("runs",)
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
            return kind(value)
        except ValueError:
            raise ConfigError(
                f"config key '{key}': expected {_TYPE_NAMES[kind]}, got {value!r}") from None
    if value not in _CHOICES[key]:
        raise ConfigError(
            f"config key '{key}': expected one of {_CHOICES[key]}, got {value!r}")
    return value


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    """`key = value` lines merged with command-line overrides (which win),
    then defaults; dim defaults to 200 for alignment, 32 for classification."""
    values: dict = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path} line {lineno}: expected key = value")
                values[key.strip()] = _convert(key.strip(), value.strip())
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _convert(key, str(value))
    values.setdefault("task", "align")
    for f in _FIELDS:
        values.setdefault(f.name, f.default if f.name != "dim"
                          else 200 if values["task"] == "align" else 32)
    values.setdefault("runs", 1)
    if values["runs"] < 1:
        raise ConfigError(f"config key 'runs': need at least 1 run, got {values['runs']}")
    return values


def train_config(values: dict) -> TrainConfig:
    return TrainConfig(**{f.name: values[f.name] for f in _FIELDS})


# ---------------- checkpoints ----------------


MAGIC = b"KEGC"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    sections: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


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
    blob = bytearray(MAGIC)
    blob += struct.pack("<I", cp.version)
    for name in sorted(cp.sections):
        arr = np.atleast_1d(np.asarray(cp.sections[name], dtype="<f8"))
        full = f"{name}:{'x'.join(str(s) for s in arr.shape)}".encode("utf-8")
        blob += struct.pack("<I", len(full))
        blob += full
        blob += struct.pack("<Q", arr.size)
        blob += np.ascontiguousarray(arr).tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    if len(data) < 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    off = 8
    sections: dict = {}

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = data[off:off + n]
        off += n
        return out

    while off < len(data):
        (name_len,) = struct.unpack("<I", take(4))
        full = take(name_len).decode("utf-8")
        (count,) = struct.unpack("<Q", take(8))
        payload = take(8 * count)
        name, sep, shape_txt = full.rpartition(":")
        if not sep:
            raise CheckpointError(f"{path}: section {full!r} lacks a shape")
        shape = tuple(int(p) for p in shape_txt.split("x")) if shape_txt else ()
        if int(np.prod(shape, dtype=np.int64)) != count:
            raise CheckpointError(f"{path}: section {name!r} shape/count mismatch")
        if name in sections:
            raise CheckpointError(f"{path}: duplicate section {name!r}")
        sections[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return Checkpoint(sections, version)


def pack_model(values: dict, params_list: list, tables: dict,
               best_valid: Optional[float]) -> Checkpoint:
    """Model state as a checkpoint: config echo, layer weights, embedding
    tables, best validation metric (NaN when there was no validation).
    Fields with choices are stored as their index."""
    sections: dict = {
        "config/task": [float(TASKS.index(values["task"]))],
        "best_valid": [np.nan if best_valid is None else float(best_valid)],
    }
    for key in (f.name for f in _FIELDS):
        v = values[key]
        sections[f"config/{key}"] = [float(_CHOICES[key].index(v) if key in _CHOICES else v)]
    for name, arr in named_parameters(params_list, {}).items():
        sections[f"param/{name}"] = arr
    for name, arr in named_parameters([], tables).items():
        sections[f"table/{name}"] = arr
    return Checkpoint(sections)


def unpack_model(cp: Checkpoint):
    """Inverse of pack_model: (config values, layer params, tables, best)."""
    sec = cp.sections

    def one(name: str) -> float:
        if name not in sec:
            raise CheckpointError(f"checkpoint lacks section {name!r}")
        return float(np.asarray(sec[name]).ravel()[0])

    values = {}
    for key in ("task",) + tuple(f.name for f in _FIELDS):
        v = one(f"config/{key}")
        if key in _CHOICES:
            if not (0 <= int(v) < len(_CHOICES[key])):
                raise CheckpointError(f"checkpoint section 'config/{key}' out of range")
            values[key] = _CHOICES[key][int(v)]
        else:
            values[key] = _TYPES[key](v)
    values["runs"] = 1

    params_list = []
    for i in range(values["layers"]):
        weights = {f: sec[f"param/layer{i}.{f}"].copy() if f"param/layer{i}.{f}" in sec else None
                   for f in LayerVars._fields}
        if weights["w"] is None and weights["w_per_rel"] is None:
            raise CheckpointError(f"checkpoint lacks weights for layer {i}")
        act_ent, act_rel = layer_activations(values["mode"], i, values["layers"])
        params_list.append(LayerParams(**weights, act_ent=act_ent, act_rel=act_rel,
                                       alpha=values["alpha"]))

    tables: dict = {}
    for name in sec:
        if not name.startswith("table/"):
            continue
        gname, _, part = name[len("table/"):].partition(".")
        if gname not in tables:
            tables[gname] = EmbeddingState(np.zeros((0, 0)))
        if part == "entity":
            tables[gname].entity = sec[name].copy()
        elif part == "relation":
            tables[gname].relation = sec[name].copy()
        else:
            raise CheckpointError(f"unexpected table section {name!r}")

    best = one("best_valid")
    return values, params_list, tables, (None if np.isnan(best) else best)


# ---------------- report files ----------------


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_report(path: str, entries: dict) -> None:
    """`key<TAB>value` lines, sorted by key, written atomically."""
    text = "".join(f"{k}\t{format_value(entries[k])}\n" for k in sorted(entries))
    atomic_write_bytes(path, text.encode("utf-8"))


def read_report(path: str) -> dict:
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            key, sep, value = line.partition("\t")
            if not sep:
                raise DataError(f"{path} line {lineno}: expected key<TAB>value")
            out[key] = value
    return out
