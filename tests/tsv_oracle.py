"""Per-line reference parser for the TSV dataset files.

The oracle the loaders in `kegcn.io` are tested against, written
independently of them: it reads a file one line at a time, splits and
strips each line, and hands every token to a `Vocabulary`-style
intern/resolve call, so each error is raised by the first line and
token that causes it.  Results and
messages of the package loaders must equal these exactly.
"""

import re
from typing import Optional

from kegcn.io import DataError

_INT_RE = re.compile(r"[0-9]+\Z")
_MAX_ID_DIGITS = 18


class OracleVocabulary:
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


def data_rows(path: str, n_fields: int):
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


def load_triples(path: str):
    rows = data_rows(path, 3)
    int_mode = bool(rows) and all(_INT_RE.fullmatch(t) for t in rows[0][1])
    ent = OracleVocabulary(int_mode)
    rel = OracleVocabulary(int_mode)
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


def load_alignments(path: str, vocab1, vocab2, what: str = "entity"):
    pairs = []
    for lineno, tokens in data_rows(path, 2):
        where = f"{path} line {lineno}"
        pairs.append((vocab1.resolve(tokens[0], where, what),
                      vocab2.resolve(tokens[1], where, what)))
    return pairs


def load_labels(path: str, ent_vocab, class_vocab):
    labels: dict = {}
    multi = False
    for lineno, tokens in data_rows(path, 2):
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
