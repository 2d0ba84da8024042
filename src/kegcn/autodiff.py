"""Reverse-mode differentiation over dense float64 arrays.

A Tape records primitive applications in append order (which is therefore
a topological order); backward walks the list in reverse, so gradient
accumulation order is fixed and results are bitwise reproducible for an
identical tape.  Training losses built from these primitives differentiate
through the score-gradient messages, so second derivatives of the scoring
functions are picked up automatically.

Gradients: a vjp never writes the gradient g it is given, and returns for
each parent either a view of g (`add` and `sub` pass g on, `concat`
splits it) or a fresh array that no other output shares, or None where
no gradient passes (a relu whose inputs are all <= 0): `backward` adds
nothing to that parent then, so a zero hinge loss runs no vjp below its
relu, and a leaf nothing reaches reads zeros.  `backward`
keeps a parent's first gradient as its vjp returned it, borrowed if it
may share memory with g.  A later contribution to a borrowed gradient is
added out of place into `numerics.empty`, and the parent owns the sum; a
later one to an owned gradient is added in place.

Value lifetime: an intermediate lives only while a Variable, or a vjp not
yet run, holds it.  A Variable owns its array; a node holds its parents and
vjp until `backward` has run it, but refers to its value only weakly, so an
array that no vjp captured is freed as soon as the layer code drops its
last Variable (vjps that need only a shape keep the shape, relu keeps its
mask).  A vjp that reads a gathered operand, or a product of gathered
operands (`quat_mul`, `complex_mul`, `sub`, `scale`), keeps its `Recipe`
instead of the edge-sized array and rebuilds the value when it runs, with
the same kernels on rows taken again: a row lookup, or one product of row
lookups, is recomputed, never a layer.  `backward` drops each node's vjp
and parents once the node has run, so a tape is consumed by its own
reverse pass.

Memory: ops and vjps take their arrays from `numerics.empty` when they
run, so none holds an allocator.  In a `numerics.pooled()` block (a
training run) an array dropped during the forward pass serves a later op
of the same pass, and the arrays `backward` frees serve the next tape,
instead of going back to the operating system; outside one they come
from NumPy.
"""

from __future__ import annotations

import math
import sys
import weakref
from typing import Callable, NamedTuple

import numpy as np

from . import numerics
from .numerics import DimensionError, empty


class Node:
    """One recorded op: parent indices, vjp and name.  `value` is the op's
    array while something else holds it, else None."""

    __slots__ = ("_value", "parents", "vjp", "name")

    def __init__(self, value, parents, vjp, name):
        self._value = weakref.ref(value)
        self.parents = parents
        self.vjp = vjp
        self.name = name

    @property
    def value(self):
        return self._value()


class _Nodes:
    """A tape's nodes in record order: `nodes[i]` is node i and `len`
    counts them all, while iterating or slicing gives only the nodes whose
    value is still alive."""

    def __init__(self):
        self.all: list[Node] = []

    def __len__(self) -> int:
        return len(self.all)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [n for n in self.all[i] if n.value is not None]
        return self.all[i]

    def __iter__(self):
        return iter(self[:])


class Variable:
    """Handle to one tape node; owns its value (and its Recipe, if any)."""

    __slots__ = ("index", "value", "rows")

    def __init__(self, index: int, value: np.ndarray):
        self.index = index
        self.value = value
        self.rows = None

    @property
    def shape(self):
        return self.value.shape


class FlatCache(dict):
    """`scatter_add`'s flat positions of one fixed index array by plane
    width; its owner checked once that every index is below `rows`."""

    def __init__(self, rows: int):
        super().__init__()
        self.rows = rows


def _row_index(idx, num: int, flat_cache=None) -> np.ndarray:
    """idx as int64, raising IndexError unless every entry is in [0, num).
    The owner of a FlatCache checked its index: only its `rows` is checked."""
    rows = getattr(flat_cache, "rows", None)
    if rows is not None:
        if rows > num:
            raise IndexError(f"row index outside [0, {num})")
        return idx
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num):
        raise IndexError(f"row index outside [0, {num})")
    return idx


def scatter_add(x: np.ndarray, idx: np.ndarray, num: int,
                flat_cache: dict | None = None, planes: int = 1) -> np.ndarray:
    """out[idx[j]] += x[j] into zeros of shape (num,) + trailing, where
    trailing = x.shape[idx.ndim:], as one bincount over flat positions.

    With planes=k > 1, x holds component planes (k, len(idx), d) and the
    result is interleaved, (num, d*k): plane c of row j lands in columns
    c, k + c, 2k + c, ... of row idx[j].  Each plane is one bincount over
    the width-d positions, so each output entry adds its rows in index order.

    `flat_cache` maps a plane width to the flat positions already built
    for this same `idx` (shared by the k planes); the owner of a fixed
    index array (a graph's heads, tails, rels) keeps one so each is built
    once.  Indices that change per call leave it None.

    One plane is bincount's own array; k planes are copied into
    numerics.empty(shape), and bincount's arrays are freed at once.
    """
    trailing = x.shape[idx.ndim:] if planes == 1 else (x.shape[-1] * planes,)
    w = math.prod(trailing) // planes
    flat = None if flat_cache is None else flat_cache.get(w)
    if flat is None:
        flat = (idx.reshape(-1, 1) * w + np.arange(w)).ravel()
        if flat_cache is not None:
            flat_cache[w] = flat
    if planes == 1:   # bincount gives int64 zeros for an empty idx
        sums = np.bincount(flat, x.reshape(-1), num * w)
        return sums.astype(np.float64, copy=False).reshape((num,) + trailing)
    sums = empty((num,) + trailing)
    cols = sums.reshape(num, w, planes)
    for c, weights in enumerate(x.reshape(planes, -1)):
        np.copyto(cols[..., c], np.bincount(flat, weights, num * w).reshape(num, w))
    return sums


def take_planes(x: np.ndarray, idx: np.ndarray, planes: int) -> np.ndarray:
    """Rows x[idx] of an interleaved (n, d*k) array as contiguous planes
    (k, len(idx), d), written into numerics.empty(shape).  Only the n-row
    table is transposed.  Every index must be in [0, n) (see `_row_index`)."""
    if planes == 1:
        return np.take(x, idx, axis=0, out=empty(idx.shape + x.shape[1:]), mode="clip")
    table = empty((planes, x.shape[0], x.shape[1] // planes))
    np.copyto(table, x.reshape(x.shape[0], -1, planes).transpose(2, 0, 1))
    return np.take(table, idx, axis=1, out=empty((planes,) + idx.shape + table.shape[2:]),
                   mode="clip")


class Recipe(NamedTuple):
    """A value as what it is computed from: `build()` rebuilds each operand
    (a Recipe too), then returns kernel(*operands, *args), the value again
    bit for bit.  A row lookup is take_planes over no operands: its args
    are a table-sized array, the index and `planes`."""

    kernel: Callable
    operands: tuple
    args: tuple

    def build(self) -> np.ndarray:
        return self.kernel(*(o.build() for o in self.operands), *self.args)


def _recipe(kernel, operands: tuple, *args):
    """The Recipe of kernel over `operands`, if each of them has one."""
    if all(o.rows is not None for o in operands):
        return Recipe(kernel, tuple(o.rows for o in operands), args)
    return None


def _keep(x: Variable):
    """What a vjp keeps of operand x: its Recipe if it has one, else its
    array.  The vjp gets the array back from `_kept` when it runs."""
    return x.value if x.rows is None else x.rows


def _kept(kept) -> np.ndarray:
    return kept if isinstance(kept, np.ndarray) else kept.build()


def _subtract(a, b) -> np.ndarray:
    return np.subtract(a, b, out=empty(_shape_of(a.shape, b.shape)))


def _scaled(a, c) -> np.ndarray:
    return np.multiply(a, c, out=empty(a.shape))


def _unit_parts(kz, taken: int = 4) -> tuple:
    """numerics.unit_parts of the operand kept as kz.  Gathered with planes > 1,
    they come per source row: the first `taken` of (safe, small, safe**3, safe**5)
    taken to the edges (bitwise the edges' own), the rest None, the projection as rows."""
    if isinstance(kz, np.ndarray) or kz.kernel is not take_planes or kz.args[2] == 1:
        return numerics.unit_parts(_kept(kz))
    table, idx, k = kz.args
    *rows, unit = numerics.unit_parts(table.reshape(len(table), -1, k).transpose(2, 0, 1))
    edges = [None if a is None or i >= taken else
             a[idx] if a.dtype == bool else take_planes(a, idx, 1)
             for i, a in enumerate(rows)]
    unit = np.ascontiguousarray(unit.transpose(1, 2, 0)).reshape(len(table), -1)
    return (*edges, Recipe(take_planes, (), (unit, idx, k)))


def _shape_of(sa: tuple, sb: tuple) -> tuple:
    return sa if sa == sb else np.broadcast_shapes(sa, sb)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Tape:
    """Append-only record of primitive applications.

    Scatters (`segment_sum` forward, `gather` backward) are one bincount
    per component plane over flat (row, column) positions: each output
    entry starts at +0.0 and adds its contributions in index (edge) order,
    so the result is bitwise equal to zeros accumulated with the unbuffered
    `at` method of `np.add`.

    Ops and vjps take their large arrays from `numerics.empty` (see the
    module docstring).  A vjp never holds the tape, so a tape that never
    runs backward is still freed as soon as nothing refers to it.  Its
    `nodes` keep each node's parents and vjp for `backward`, and its value
    only while a Variable or a vjp holds it (see the module docstring).
    `gather` results, `unit_project` results of them, and the products of
    such operands carry a Recipe, which the vjps that read them keep
    instead of the arrays (see `_keep`).
    """

    def __init__(self):
        self.nodes = _Nodes()

    def _record(self, value, parents=(), vjp=None, name="leaf") -> Variable:
        value = np.asarray(value, dtype=np.float64)
        self.nodes.all.append(Node(value, tuple(p.index for p in parents), vjp, name))
        return Variable(len(self.nodes.all) - 1, value)

    def leaf(self, value) -> Variable:
        return self._record(value)

    # ---- arithmetic ----

    def add(self, a: Variable, b: Variable | float) -> Variable:
        if not isinstance(b, Variable):   # a float constant: g passes to a alone
            out = np.add(a.value, b, out=empty(a.shape))
            return self._record(out, (a,), lambda g: (g,), "add")
        sa, sb = a.shape, b.shape

        def vjp(g):
            return _unbroadcast(g, sa), _unbroadcast(g, sb)

        out = np.add(a.value, b.value, out=empty(_shape_of(sa, sb)))
        return self._record(out, (a, b), vjp, "add")

    def sub(self, a: Variable, b: Variable) -> Variable:
        sa, sb = a.shape, b.shape

        def vjp(g):
            return _unbroadcast(g, sa), _unbroadcast(np.negative(g, out=empty(g.shape)), sb)

        out = self._record(_subtract(a.value, b.value), (a, b), vjp, "sub")
        out.rows = _recipe(_subtract, (a, b))
        return out

    def mul(self, a: Variable, b: Variable) -> Variable:
        ka, kb, sa, sb = _keep(a), _keep(b), a.shape, b.shape

        def vjp(g):
            av, bv = _kept(ka), _kept(kb)
            return (_unbroadcast(np.multiply(g, bv, out=empty(g.shape)), sa),
                    _unbroadcast(np.multiply(g, av, out=empty(g.shape)), sb))

        out = np.multiply(a.value, b.value, out=empty(_shape_of(sa, sb)))
        return self._record(out, (a, b), vjp, "mul")

    def scale(self, a: Variable, c) -> Variable:
        """a times a constant: a float, or an array broadcast to a's shape."""

        def vjp(g):
            return (_scaled(g, c),)

        out = self._record(_scaled(a.value, c), (a,), vjp, "scale")
        out.rows = _recipe(_scaled, (a,), c)
        return out

    def matmul(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul mismatch {av.shape} vs {bv.shape}")

        def vjp(g):
            return (np.matmul(g, bv.T, out=empty(av.shape)),
                    np.matmul(av.T, g, out=empty(bv.shape)))

        out = np.matmul(av, bv, out=empty((av.shape[0], bv.shape[1])))
        return self._record(out, (a, b), vjp, "matmul")

    # ---- indexing / shaping ----

    def gather(self, x: Variable, idx: np.ndarray, *,
               flat_cache: dict | None = None, planes: int = 1) -> Variable:
        """Rows x[idx]; with planes=k > 1 the interleaved rows come back as
        (k, len(idx), d) planes (see `take_planes`).  `flat_cache` (see
        `scatter_add`) serves the vjp.  The result's `rows` (a lookup of x's
        array with the checked index) are what a vjp that reads it keeps."""
        xv = x.value
        num = xv.shape[0]
        idx = _row_index(idx, num, flat_cache)

        def vjp(g):
            return (scatter_add(g, idx, num, flat_cache, planes),)

        out = self._record(take_planes(xv, idx, planes), (x,), vjp, "gather")
        out.rows = Recipe(take_planes, (), (xv, idx, planes))
        return out

    def segment_sum(self, x: Variable, idx: np.ndarray, num: int, *,
                    flat_cache: dict | None = None, planes: int = 1) -> Variable:
        """Row idx[j] of the result sums x[j] over every j carrying it.  With
        planes=k > 1, x is (k, len(idx), d) planes and the result is
        interleaved, (num, d*k)."""
        idx = _row_index(idx, num, flat_cache)
        out = scatter_add(x.value, idx, num, flat_cache, planes)
        return self._record(out, (x,), lambda g: (take_planes(g, idx, planes),),
                            "segment_sum")

    def concat(self, parts) -> Variable:
        """The parts side by side along the last axis."""
        values = [p.value for p in parts]
        sizes = [v.shape[-1] for v in values]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=-1))

        out = np.concatenate(values, axis=-1, out=empty(values[0].shape[:-1] + (sum(sizes),)))
        return self._record(out, tuple(parts), vjp, "concat")

    def slice_cols(self, x: Variable, start: int, stop: int) -> Variable:
        shape = x.shape

        def vjp(g):
            out = empty(shape)
            out.fill(0.0)
            out[..., start:stop] = g
            return (out,)

        return self._record(x.value[..., start:stop], (x,), vjp, "slice")

    # ---- reductions ----

    def sum(self, x: Variable) -> Variable:
        shape = x.shape

        def vjp(g):
            out = empty(shape)
            out.fill(float(g))
            return (out,)

        return self._record(np.sum(x.value), (x,), vjp, "sum")

    def sum_axis(self, x: Variable) -> Variable:
        """Sum over the last axis, keepdims."""
        shape = x.shape

        def vjp(g):
            out = empty(shape)
            np.copyto(out, np.broadcast_to(g, shape))
            return (out,)

        return self._record(np.sum(x.value, axis=-1, keepdims=True), (x,), vjp, "sum_axis")

    # ---- elementwise nonlinear ----

    def abs(self, x: Variable) -> Variable:
        xv = x.value

        def vjp(g):
            sign = np.sign(xv, out=empty(xv.shape))
            return (np.multiply(g, sign, out=sign),)

        return self._record(np.abs(xv, out=empty(xv.shape)), (x,), vjp, "abs")

    def relu(self, x: Variable) -> Variable:
        xv = x.value
        mask = xv > 0

        def vjp(g):   # None when no input is positive: no gradient reaches x
            return (np.multiply(g, mask, out=empty(g.shape)) if mask.any() else None,)

        return self._record(np.maximum(xv, 0.0, out=empty(xv.shape)), (x,), vjp, "relu")

    def softplus(self, x: Variable) -> Variable:
        """log(1 + exp(x)) entrywise, which neither overflows nor rounds a
        saturated x's gradient sigmoid(x) away."""
        xv = x.value
        return self._record(np.logaddexp(0.0, xv), (x,),
                            lambda g: (g * numerics.sigmoid(xv),), "softplus")

    def neg_log_softmax(self, x: Variable) -> Variable:
        """-log softmax(x) over the last axis, logsumexp(x) - x, from
        z = x - max(x): log(sum exp z) - z, so every entry is >= +0.0."""
        z = x.value - np.max(x.value, axis=-1, keepdims=True)
        total = np.sum(np.exp(z), axis=-1, keepdims=True)

        def vjp(g):   # softmax(x) sum(g) - g
            return (np.exp(z) / total * np.sum(g, axis=-1, keepdims=True) - g,)

        return self._record(np.log(total) - z, (x,), vjp, "neg_log_softmax")

    # ---- structured algebra ----

    def complex_mul(self, a: Variable, b: Variable, conj_b: bool = False) -> Variable:
        """a * b entrywise, or a * conj(b) with conj_b, without a
        conjugate node."""
        ka, kb = _keep(a), _keep(b)

        def vjp(g):
            db = numerics.complex_elementwise_product(g, _kept(ka), True)
            if conj_b:
                np.negative(db[1], out=db[1])
            return numerics.complex_elementwise_product(g, _kept(kb), not conj_b), db

        out = numerics.complex_elementwise_product(a.value, b.value, conj_b)
        out = self._record(out, (a, b), vjp, "complex_mul")
        out.rows = _recipe(numerics.complex_elementwise_product, (a, b), conj_b)
        return out

    def quat_mul(self, p: Variable, q: Variable, conj_p: bool = False,
                 conj_q: bool = False) -> Variable:
        """Hamilton product p q; conj_p / conj_q conjugate that factor
        without a conjugate node."""
        kp, kq = _keep(p), _keep(q)

        def vjp(g):
            dp = numerics.hamilton_product(g, _kept(kq), False, not conj_q)
            dq = numerics.hamilton_product(_kept(kp), g, not conj_p, False)
            for d, conj in ((dp, conj_p), (dq, conj_q)):
                if conj:
                    np.negative(d[1:], out=d[1:])
            return dp, dq

        out = numerics.hamilton_product(p.value, q.value, conj_p, conj_q)
        out = self._record(out, (p, q), vjp, "quat_mul")
        out.rows = _recipe(numerics.hamilton_product, (p, q), conj_p, conj_q)
        return out

    def circular_correlation(self, a: Variable, b: Variable) -> Variable:
        ka, kb = _keep(a), _keep(b)

        def vjp(g):
            return (
                numerics.circular_correlation(g, _kept(kb)),
                numerics.circular_convolution(g, _kept(ka)),
            )

        return self._record(
            numerics.circular_correlation(a.value, b.value), (a, b), vjp, "circular_correlation"
        )

    def unit_project(self, z: Variable) -> Variable:
        """Unit-norm tuples of z's planes.  For a gathered z the result's
        `rows` are those of the per-row projection (see `_unit_parts`)."""
        kz = _keep(z)
        unit = _unit_parts(kz, 0)[4]

        def vjp(g):
            return (numerics.unit_project_pullback(_kept(kz), g, parts=_unit_parts(kz, 3)),)

        out = self._record(_kept(unit), (z,), vjp, "unit_project")
        out.rows = None if isinstance(unit, np.ndarray) else unit
        return out

    def unit_project_pullback(self, z: Variable, g: Variable) -> Variable:
        """Forward evaluation of the unit_project vjp, differentiable in both
        arguments; needed because training backpropagates through message
        gradients that already contain one projection pullback.  The vjp
        computes z.g again, from z and g as it gets them back."""
        kz, kg = _keep(z), _keep(g)

        def vjp(s):
            zv, gv = _kept(kz), _kept(kg)
            zg = numerics.component_dot(zv, gv)
            _, small, safe3, safe5, _ = parts = _unit_parts(kz)
            sz = numerics.component_dot(s, zv)
            sg = numerics.component_dot(s, gv)
            # -sg z / m^3 - zg s / m^3 - sz g / m^3 + 3 zg sz z / m^5, in that order
            dz = np.multiply(zv, np.negative(sg, out=sg), out=empty(zv.shape))
            dz /= safe3
            t = np.multiply(s, zg, out=empty(zv.shape))
            t /= safe3
            dz -= t
            np.multiply(gv, sz, out=t)
            t /= safe3
            dz -= t
            w = np.multiply(zg, 3.0, out=empty(zg.shape))
            w *= sz
            np.multiply(zv, w, out=t)
            t /= safe5
            dz += t
            if small is not None:
                np.copyto(dz, 0.0, where=small)
            return dz, numerics.unit_project_pullback(zv, s, parts=parts, zg=sz)

        out = numerics.unit_project_pullback(z.value, g.value, parts=_unit_parts(kz, 3))
        return self._record(out, (z, g), vjp, "unit_project_pullback")

    def per_relation_matmul(self, x: Variable, w: Variable, rel: np.ndarray) -> Variable:
        """Row i of the result is x[i] @ w[rel[i]]."""
        xv, wv, kx = x.value, w.value, _keep(x)
        rel = np.asarray(rel, dtype=np.int64)
        if wv.ndim != 3 or xv.ndim != 2 or xv.shape[1] != wv.shape[1]:
            raise DimensionError(f"per-relation matmul mismatch {xv.shape} vs {wv.shape}")
        masks = [rel == r for r in range(wv.shape[0])]
        out = np.zeros((xv.shape[0], wv.shape[2]), dtype=np.float64)
        for r, m in enumerate(masks):
            if m.any():
                out[m] = xv[m] @ wv[r]

        def vjp(g):
            xv = _kept(kx)
            dx = np.zeros_like(xv)
            dw = np.zeros_like(wv)
            for r, m in enumerate(masks):
                if m.any():
                    dx[m] = g[m] @ wv[r].T
                    dw[r] = xv[m].T @ g[m]
            return dx, dw

        return self._record(out, (x, w), vjp, "per_relation_matmul")

    # ---- reverse pass ----

    def backward(self, loss: Variable) -> "GradientMap":
        """Leaf gradients of `loss`.  Consumes the tape: each node's vjp
        and parents are dropped once it has run, or at once if it comes
        after the loss."""
        if np.size(loss.value) != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        nodes = self.nodes.all
        for node in nodes[loss.index + 1:]:
            node.vjp, node.parents = None, ()
        grads: list = [None] * (loss.index + 1)
        grads[loss.index] = np.ones_like(loss.value)
        borrowed: set = set()   # nodes whose gradient may share memory with another's
        for i in range(loss.index, -1, -1):
            node = nodes[i]
            vjp, parents = node.vjp, node.parents
            if vjp is None:
                continue    # a leaf keeps its gradient
            node.vjp, node.parents = None, ()
            g, grads[i] = grads[i], None
            if g is None:
                continue
            for pi, pg in zip(parents, vjp(g)):
                if pg is None:
                    continue
                if grads[pi] is None:
                    grads[pi] = pg
                    if np.may_share_memory(pg, g):
                        borrowed.add(pi)
                elif pi in borrowed:
                    grads[pi] = np.add(grads[pi], pg, out=empty(pg.shape))
                    borrowed.discard(pi)
                else:
                    grads[pi] += pg
        return GradientMap(grads)


class ForwardTape(Tape):
    """A Tape for passes that never run backward (inference).

    Its nodes keep no vjp and no parents, so no vjp holds an array either:
    each intermediate is freed as soon as the layer code drops its last
    Variable, and a pass holds about one layer's intermediates.  Values are
    those of a Tape bit for bit.
    """

    def _record(self, value, parents=(), vjp=None, name="leaf") -> Variable:
        return super()._record(value, (), None, name)

    def backward(self, loss: Variable) -> "GradientMap":
        raise TypeError("a ForwardTape records no gradients; use Tape")


class GradientMap:
    def __init__(self, grads: list):
        self._grads = grads

    def __getitem__(self, var: Variable) -> np.ndarray:
        if var.index < len(self._grads) and self._grads[var.index] is not None:
            return self._grads[var.index]
        return np.zeros_like(var.value)
