"""Functions only the tests call: the per-row classification metrics the
vectorised `tasks.evaluate_classification` and `ndcg_at_k` (score rows
ranked into `metrics.ndcg_of_hits`) are checked against, the
triples a graph file parses to, the reader of `io.write_report` files,
a finite-difference check of any function recorded on a tape, a reverse
pass that copies every first gradient, which `Tape.backward` is checked
against, the per-parameter Adam step the flat `tasks.Adam` is checked
against, and an importer of the benchmark's modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kegcn.autodiff import Tape
from kegcn.checks import fd_error
from kegcn.io import DataError, _triple_rows
from kegcn.metrics import ndcg_of_hits


def top_k_classes(scores_row: np.ndarray, k: int) -> np.ndarray:
    row = np.asarray(scores_row, dtype=np.float64)
    order = np.argsort(-row, kind="stable")
    return order[:k]


def argmax_prediction(scores_row: np.ndarray) -> int:
    # np.argmax returns the first maximum, i.e. the lowest class id
    return int(np.argmax(np.asarray(scores_row)))


def precision_at_k(scores_row, truth, k: int) -> float:
    truth = set(truth)
    if not truth:
        return 0.0
    top = top_k_classes(scores_row, k)
    return float(sum(1 for c in top if int(c) in truth)) / float(k)


def ndcg_one_row(scores_row, truth, k: int) -> float:
    """NDCG@k of one row as a loop over its ranked positions."""
    truth = set(truth)
    if not truth:
        return 0.0
    dcg = 0.0
    for pos, c in enumerate(top_k_classes(scores_row, k), start=1):
        if int(c) in truth:
            dcg += 1.0 / np.log2(1.0 + pos)
    idcg = sum(1.0 / np.log2(1.0 + pos) for pos in range(1, min(len(truth), k) + 1))
    return float(dcg / idcg)


def ndcg_at_k(scores, truth, k: int):
    """NDCG@k of a score row against its true class ids, or, for 2-D
    scores, an array of each row's against truth[i] (0 for no true class)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        return float(ndcg_at_k(scores[None], [truth], k)[0])
    sets = [set(t) for t in truth]
    member = np.zeros(scores.shape, dtype=bool)
    for i, t in enumerate(sets):
        member[i, [c for c in t if 0 <= c < scores.shape[1]]] = True
    hits = np.take_along_axis(member, np.argsort(-scores, axis=1, kind="stable")[:, :k], axis=1)
    return ndcg_of_hits(hits, [len(t) for t in sets], k)


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


def load_triples(path: str):
    """The triples of a graph file in file order, with its entity and
    relation vocabularies: what `io.load_graph` builds its graph from."""
    rows, ent, rel = _triple_rows(path)
    return list(map(tuple, rows.tolist())), ent, rel


def finite_diff_check(fn, point, max_coords: int | None = None) -> float:
    """Compare backward() against central differences (see
    `checks.fd_error`).  `fn(tape, *vars) -> scalar Variable` must be a
    deterministic function of the leaf values."""
    point = [np.asarray(p, dtype=np.float64) for p in point]
    tape = Tape()
    leaves = [tape.leaf(p) for p in point]
    out = fn(tape, *leaves)
    if np.size(out.value) != 1:
        raise ValueError("finite_diff_check needs a scalar-valued fn")
    grads = tape.backward(out)

    def value_at(args):
        t = Tape()
        return float(fn(t, *[t.leaf(a) for a in args]).value)

    return fd_error(value_at, point, [grads[v] for v in leaves], max_coords=max_coords)


def copying_backward(tape: Tape, loss) -> list:
    """The gradient of every node up to `loss`, added in `Tape.backward`'s
    order, but each node's first gradient a copy of what its consumer's
    vjp returned, so no two nodes share an array and every later
    contribution is added in place; a vjp's None adds nothing, as there.
    Reads the tape without consuming it."""
    nodes = tape.nodes.all
    grads = [None] * (loss.index + 1)
    grads[loss.index] = np.ones_like(loss.value)
    for i in range(loss.index, -1, -1):
        vjp, g = nodes[i].vjp, grads[i]
        if vjp is None or g is None:
            continue
        for pi, pg in zip(nodes[i].parents, vjp(g)):
            if pg is None:
                continue
            if grads[pi] is None:
                grads[pi] = pg.copy()
            else:
                grads[pi] += pg
    return grads


class PerParameterAdam:
    """Full-batch Adam with bias correction, one parameter at a time: its
    moments are a dict of arrays and its 13 elementwise operations run once
    per parameter, through two scratch arrays of the largest parameter's
    size."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m, self.v = {}, {}
        self._scratch = np.empty((2, 0))

    def step(self, params: dict, grads: dict) -> None:
        self.step_count += 1
        t = self.step_count
        size = max((a.size for a in params.values()), default=0)
        if self._scratch.shape[1] < size:
            self._scratch = np.empty((2, size))
        for name, arr in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m, v = self.m[name], self.v[name]
            a, b = (s[:arr.size].reshape(arr.shape) for s in self._scratch)
            np.subtract(g, m, out=a)
            a *= 1.0 - self.beta1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= 1.0 - self.beta2
            v += a
            np.divide(m, 1.0 - self.beta1**t, out=a)
            a *= self.lr
            np.divide(v, 1.0 - self.beta2**t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            arr -= a


def perfbench_module(name: str):
    """`perfbench/<name>.py`, imported as `perfbench_<name>` (registered
    first, as dataclasses need)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
