"""Reverse-mode differentiation over dense float64 arrays.

A Tape records primitive applications in append order (which is therefore
a topological order); backward walks the list in reverse, so gradient
accumulation order is fixed and results are bitwise reproducible for an
identical tape.  Training losses built from these primitives differentiate
through the score-gradient messages, so second derivatives of the scoring
functions are picked up automatically.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import numerics
from .numerics import DimensionError


class Node:
    __slots__ = ("value", "parents", "vjp", "name", "__weakref__")

    def __init__(self, value, parents, vjp, name):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.name = name


class Variable:
    """Handle to one tape node; it keeps the node (and so its value) alive."""

    __slots__ = ("tape", "index", "node")

    def __init__(self, tape: "Tape", index: int, node: Node):
        self.tape = tape
        self.index = index
        self.node = node

    @property
    def value(self) -> np.ndarray:
        return self.node.value

    @property
    def shape(self):
        return self.node.value.shape

    def __add__(self, other):
        return self.tape.add(self, other)

    def __sub__(self, other):
        return self.tape.sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Variable):
            return self.tape.mul(self, other)
        return self.tape.scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape.scale(self, -1.0)

    def __matmul__(self, other):
        return self.tape.matmul(self, other)


def _row_index(idx, num: int) -> np.ndarray:
    """idx as int64, raising IndexError unless every entry is in [0, num)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num):
        raise IndexError(f"row index outside [0, {num})")
    return idx


def scatter_add(x: np.ndarray, idx: np.ndarray, num: int,
                flat_cache: dict | None = None) -> np.ndarray:
    """out[idx[j]] += x[j] into zeros of shape (num,) + trailing, where
    trailing = x.shape[idx.ndim:], as one bincount over flat positions.

    `flat_cache` maps a trailing width to the flat positions already built
    for this same `idx`; the owner of a fixed index array (a graph's
    heads, tails, rels) keeps one so each width is built once.  Indices
    that change per call leave it None and build theirs on the fly.
    """
    trailing = x.shape[idx.ndim:]
    w = int(np.prod(trailing, dtype=np.int64))
    flat = None if flat_cache is None else flat_cache.get(w)
    if flat is None:
        flat = (idx.reshape(-1, 1) * w + np.arange(w)).ravel()
        if flat_cache is not None:
            flat_cache[w] = flat
    out = np.bincount(flat, weights=x.reshape(-1), minlength=num * w)
    # bincount of an empty index comes back as int64 zeros
    return out.astype(np.float64, copy=False).reshape((num,) + trailing)


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
    over flat (row, column) positions: each output entry starts at +0.0 and
    adds its contributions in index (edge) order, so the result is bitwise
    equal to zeros accumulated with the unbuffered `at` method of `np.add`.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, value, parents=(), vjp=None, name="leaf") -> Variable:
        node = Node(np.asarray(value, dtype=np.float64), tuple(p.index for p in parents),
                    vjp, name)
        self.nodes.append(node)
        return Variable(self, len(self.nodes) - 1, node)

    def leaf(self, value) -> Variable:
        return self._record(value)

    constant = leaf

    # ---- arithmetic ----

    def add(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value

        def vjp(g):
            return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

        return self._record(av + bv, (a, b), vjp, "add")

    def sub(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value

        def vjp(g):
            return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

        return self._record(av - bv, (a, b), vjp, "sub")

    def mul(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value

        def vjp(g):
            return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

        return self._record(av * bv, (a, b), vjp, "mul")

    def scale(self, a: Variable, c: float) -> Variable:
        return self._record(a.value * c, (a,), lambda g: (g * c,), "scale")

    def matmul(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul mismatch {av.shape} vs {bv.shape}")

        def vjp(g):
            return g @ bv.T, av.T @ g

        return self._record(av @ bv, (a, b), vjp, "matmul")

    def matvec(self, m: Variable, x: Variable) -> Variable:
        mv, xv = m.value, x.value
        if mv.ndim != 2 or xv.ndim != 1 or mv.shape[1] != xv.shape[0]:
            raise DimensionError(f"matvec mismatch {mv.shape} vs {xv.shape}")

        def vjp(g):
            return np.outer(g, xv), mv.T @ g

        return self._record(mv @ xv, (m, x), vjp, "matvec")

    # ---- indexing / shaping ----

    def gather(self, x: Variable, idx: np.ndarray, *,
               flat_cache: dict | None = None) -> Variable:
        """Rows x[idx].  `flat_cache` (see `scatter_add`) serves the vjp."""
        xv = x.value
        num = xv.shape[0]
        idx = _row_index(idx, num)

        def vjp(g):
            return (scatter_add(g, idx, num, flat_cache),)

        return self._record(np.take(xv, idx, axis=0), (x,), vjp, "gather")

    def segment_sum(self, x: Variable, idx: np.ndarray, num: int, *,
                    flat_cache: dict | None = None) -> Variable:
        """Row idx[j] of the result sums x[j] over every j carrying it."""
        idx = _row_index(idx, num)
        out = scatter_add(x.value, idx, num, flat_cache)
        return self._record(out, (x,), lambda g: (np.take(g, idx, axis=0),), "segment_sum")

    def concat(self, parts, axis: int = -1) -> Variable:
        values = [p.value for p in parts]
        ax = axis if axis >= 0 else values[0].ndim + axis
        sizes = [v.shape[ax] for v in values]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=ax))

        return self._record(np.concatenate(values, axis=ax), tuple(parts), vjp, "concat")

    def slice_cols(self, x: Variable, start: int, stop: int) -> Variable:
        xv = x.value

        def vjp(g):
            out = np.zeros_like(xv)
            out[..., start:stop] = g
            return (out,)

        return self._record(xv[..., start:stop], (x,), vjp, "slice")

    def reshape(self, x: Variable, shape) -> Variable:
        xv = x.value
        return self._record(
            xv.reshape(shape), (x,), lambda g: (g.reshape(xv.shape),), "reshape"
        )

    # ---- reductions ----

    def sum(self, x: Variable) -> Variable:
        xv = x.value
        return self._record(
            np.sum(xv), (x,), lambda g: (np.full(xv.shape, float(g)),), "sum"
        )

    def sum_axis(self, x: Variable, axis: int = -1) -> Variable:
        """Sum over one axis, keepdims."""
        xv = x.value

        def vjp(g):
            return (np.broadcast_to(g, xv.shape).copy(),)

        return self._record(np.sum(xv, axis=axis, keepdims=True), (x,), vjp, "sum_axis")

    def l2_norm_sq(self, x: Variable) -> Variable:
        return self.sum(self.mul(x, x))

    def l1_distance(self, a: Variable, b: Variable) -> Variable:
        return self.sum(self.abs(self.sub(a, b)))

    # ---- elementwise nonlinear ----

    def abs(self, x: Variable) -> Variable:
        xv = x.value
        return self._record(np.abs(xv), (x,), lambda g: (g * np.sign(xv),), "abs")

    def relu(self, x: Variable) -> Variable:
        xv = x.value
        mask = xv > 0

        def vjp(g):
            return (g * mask,)

        return self._record(np.maximum(xv, 0.0), (x,), vjp, "relu")

    def sigmoid(self, x: Variable) -> Variable:
        s = numerics.sigmoid(x.value)
        return self._record(s, (x,), lambda g: (g * s * (1.0 - s),), "sigmoid")

    def log(self, x: Variable) -> Variable:
        xv = x.value
        return self._record(np.log(xv), (x,), lambda g: (g / xv,), "log")

    def clamp(self, x: Variable, lo: float, hi: float) -> Variable:
        xv = x.value
        mask = (xv > lo) & (xv < hi)

        def vjp(g):
            return (g * mask,)

        return self._record(np.clip(xv, lo, hi), (x,), vjp, "clamp")

    def softmax_row(self, x: Variable) -> Variable:
        p = numerics.softmax_row(x.value)

        def vjp(g):
            return (p * (g - np.sum(g * p, axis=-1, keepdims=True)),)

        return self._record(p, (x,), vjp, "softmax_row")

    def activate(self, kind: str, x: Variable) -> Variable:
        if kind == "relu":
            return self.relu(x)
        if kind == "sigmoid":
            return self.sigmoid(x)
        if kind == "identity":
            return x
        raise ValueError(f"unknown activation {kind!r}")

    # ---- structured algebra ----

    def complex_mul(self, a: Variable, b: Variable, conj_b: bool = False) -> Variable:
        """a * b entrywise, or a * conj(b) with conj_b: bitwise the product
        with a complex_conj node, without the node."""
        av, bv = a.value, b.value

        def vjp(g):
            db = numerics.complex_elementwise_product(g, av, conj_b=True)
            return (
                numerics.complex_elementwise_product(g, bv, conj_b=not conj_b),
                numerics.complex_conjugate(db) if conj_b else db,
            )

        return self._record(
            numerics.complex_elementwise_product(av, bv, conj_b=conj_b), (a, b), vjp,
            "complex_mul"
        )

    def complex_conj(self, a: Variable) -> Variable:
        return self._record(
            numerics.complex_conjugate(a.value),
            (a,),
            lambda g: (numerics.complex_conjugate(g),),
            "complex_conj",
        )

    def quat_mul(self, p: Variable, q: Variable, conj_p: bool = False,
                 conj_q: bool = False) -> Variable:
        """Hamilton product p q; conj_p / conj_q conjugate that factor, bitwise
        as a quat_conj node would, without the node."""
        pv, qv = p.value, q.value

        def vjp(g):
            dp = numerics.hamilton_product(g, qv, conj_q=not conj_q)
            dq = numerics.hamilton_product(pv, g, conj_p=not conj_p)
            return (numerics.quaternion_conjugate(dp) if conj_p else dp,
                    numerics.quaternion_conjugate(dq) if conj_q else dq)

        return self._record(numerics.hamilton_product(pv, qv, conj_p, conj_q), (p, q), vjp,
                            "quat_mul")

    def quat_conj(self, p: Variable) -> Variable:
        return self._record(
            numerics.quaternion_conjugate(p.value),
            (p,),
            lambda g: (numerics.quaternion_conjugate(g),),
            "quat_conj",
        )

    def circular_correlation(self, a: Variable, b: Variable) -> Variable:
        av, bv = a.value, b.value

        def vjp(g):
            return (
                numerics.circular_correlation(g, bv),
                numerics.circular_convolution(g, av),
            )

        return self._record(
            numerics.circular_correlation(av, bv), (a, b), vjp, "circular_correlation"
        )

    def unit_project(self, z: Variable, eps: float = 1e-12) -> Variable:
        zv = z.value
        parts = numerics.unit_norm_parts(zv, eps)

        def vjp(g):
            return (numerics.unit_project_pullback(zv, g, eps, parts),)

        return self._record(numerics.unit_project(zv, eps, parts), (z,), vjp, "unit_project")

    def unit_project_pullback(self, z: Variable, g: Variable, eps: float = 1e-12) -> Variable:
        """Forward evaluation of the unit_project vjp, differentiable in both
        arguments; needed because training backpropagates through message
        gradients that already contain one projection pullback."""
        zv, gv = z.value, g.value
        parts = numerics.unit_norm_parts(zv, eps)

        def vjp(s):
            safe, small, safe3 = parts
            zg = numerics.component_dot(zv, gv)
            sz = numerics.component_dot(s, zv)
            # -sg z / m^3 - zg s / m^3 - sz g / m^3 + 3 zg sz z / m^5, in that order
            col = numerics.by_column
            dz = col(np.multiply, zv, -numerics.component_dot(s, gv))
            col(np.divide, dz, safe3, out=dz)
            t = col(np.multiply, s, zg)
            col(np.divide, t, safe3, out=t)
            dz -= t
            col(np.multiply, gv, sz, out=t)
            col(np.divide, t, safe3, out=t)
            dz -= t
            col(np.multiply, zv, 3.0 * zg * sz, out=t)
            col(np.divide, t, safe**5, out=t)
            dz += t
            if small is not None:
                np.copyto(dz, 0.0, where=small)
            return dz, numerics.unit_project_pullback(zv, s, eps, parts)

        return self._record(
            numerics.unit_project_pullback(zv, gv, eps, parts), (z, g), vjp,
            "unit_project_pullback"
        )

    def per_relation_matmul(self, x: Variable, w: Variable, rel: np.ndarray) -> Variable:
        """Row i of the result is x[i] @ w[rel[i]]."""
        xv, wv = x.value, w.value
        rel = np.asarray(rel, dtype=np.int64)
        if wv.ndim != 3 or xv.ndim != 2 or xv.shape[1] != wv.shape[1]:
            raise DimensionError(f"per-relation matmul mismatch {xv.shape} vs {wv.shape}")
        masks = [rel == r for r in range(wv.shape[0])]
        out = np.zeros((xv.shape[0], wv.shape[2]), dtype=np.float64)
        for r, m in enumerate(masks):
            if m.any():
                out[m] = xv[m] @ wv[r]

        def vjp(g):
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
        if np.size(loss.value) != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        grads: list = [None] * (loss.index + 1)
        grads[loss.index] = np.ones_like(loss.value)
        for i in range(loss.index, -1, -1):
            g = grads[i]
            node = self.nodes[i]
            if g is None or node.vjp is None:
                continue
            # only leaves (no vjp) keep their gradient past this point
            grads[i] = None
            for pi, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if grads[pi] is None:
                    grads[pi] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    grads[pi] += pg
        return GradientMap(grads)


class _LiveNodes:
    """The nodes of a ForwardTape in record order, held weakly: indexing
    gives a node while some Variable still holds it, else None; a slice
    gives the nodes in it that are still held."""

    def __init__(self):
        self._refs: list = []

    def append(self, node: Node) -> None:
        self._refs.append(weakref.ref(node))

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [n for n in (r() for r in self._refs[i]) if n is not None]
        return self._refs[i]()


class ForwardTape(Tape):
    """A Tape for passes that never run backward (inference).

    Its nodes keep no vjp and no parents, and the tape holds them only
    weakly, so each intermediate is freed as soon as the layer code drops
    its last Variable.  Values are those of a Tape bit for bit, but a pass
    holds about one layer's intermediates instead of the whole stack's.
    That keeps a repeated pass inside memory the allocator already holds,
    where a Tape's pass grows the heap, hands it back to the operating
    system when the tape dies, and page-faults it in again on the next call.
    """

    def __init__(self):
        self.nodes = _LiveNodes()

    def _record(self, value, parents=(), vjp=None, name="leaf") -> Variable:
        node = Node(np.asarray(value, dtype=np.float64), (), None, name)
        self.nodes.append(node)
        return Variable(self, len(self.nodes) - 1, node)

    def backward(self, loss: Variable) -> "GradientMap":
        raise TypeError("a ForwardTape records no gradients; use Tape")


class GradientMap:
    def __init__(self, grads: list):
        self._grads = grads

    def __getitem__(self, var: Variable) -> np.ndarray:
        if var.index < len(self._grads) and self._grads[var.index] is not None:
            return self._grads[var.index]
        return np.zeros_like(var.value)


def finite_diff_check(fn, point, eps: float = 1e-5, rel_floor: float = 1e-2,
                      max_coords: int | None = None) -> float:
    """Compare backward() against central differences.

    `fn(tape, *vars) -> scalar Variable` must be a deterministic function of
    the leaf values.  Returns the worst error |analytic - numeric| divided by
    max(|analytic|, |numeric|, rel_floor); the floor makes the comparison an
    absolute one near zero.  `max_coords` caps the probed coordinates per
    input (deterministic subsample) to bound runtime on large parameter sets.
    """
    point = [np.asarray(p, dtype=np.float64) for p in point]
    tape = Tape()
    leaves = [tape.leaf(p) for p in point]
    out = fn(tape, *leaves)
    if np.size(out.value) != 1:
        raise ValueError("finite_diff_check needs a scalar-valued fn")
    grads = tape.backward(out)
    analytic = [grads[v] for v in leaves]

    def value_at(args):
        t = Tape()
        vs = [t.leaf(a) for a in args]
        return float(fn(t, *vs).value)

    worst = 0.0
    pick = np.random.Generator(np.random.PCG64(20240917))
    for k, p in enumerate(point):
        n = p.size
        coords = np.arange(n)
        if max_coords is not None and n > max_coords:
            coords = np.sort(pick.choice(n, size=max_coords, replace=False))
        flat = p.ravel()
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = value_at(point)
            flat[c] = orig - eps
            f_minus = value_at(point)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[k].ravel()[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
            worst = max(worst, err)
    return worst
