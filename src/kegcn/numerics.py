"""Dense float64 kernels shared by every other module.

Complex and quaternion vectors have two layouts.  Stored embeddings are
interleaved: a row of d complex entries or quaternions holds d tuples of
2 or 4 components, shape (..., 2d) or (..., 4d).  The component kernels
below (products, unit projection and its pullback) take component planes
instead, with the component axis FIRST: shape (2, ...) or (4, ...), so
that x[c] is component c of every tuple, one contiguous run for a
C-ordered array.  A single tuple of shape (2,) or (4,) is the same in
both layouts.  Generic vector operations (distances, activations,
initialization) act on the flat real arrays, so one primitive set serves
all three algebras.  Every random draw comes from a `seeded` Generator.

The component kernels are written out per component, and their results
are bit for bit those of the plain formulas on trailing tuples.  A
product conjugates a factor through a flag (conj_p, conj_q, conj_b),
bitwise equal to multiplying by the conjugate: the same products under
flipped signs (x*(-y) == -(x*y) and a-(-b) == a+b exactly).  A sum over
the 2 or 4 components is the adds ((0.0 + t0) + t1) + ... in component
order, which is what np.sum(t, axis=-1) and np.linalg.norm(t, axis=-1)
compute on such short trailing axes, +0.0 start included (an all -0.0
tuple sums to +0.0).  Only the sign and payload of a NaN may differ.  A
per-tuple quantity such as a norm has the shape of one plane and
broadcasts over the planes.

Memory: the large arrays of these kernels and of the `autodiff` tape ops
come from `empty(shape)`: np.empty, or inside a `pooled()` block (the
epochs of one `tasks.fit`) one BufferPool that the block's tapes share.
The values are the same bit for bit either way.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.random import PCG64, Generator

UNIT_EPS = 1e-12   # a component tuple with a smaller norm projects to (1, 0, ...)


class DimensionError(ValueError):
    """Shape or length mismatch handed to a numeric kernel."""


def seeded(seed: int) -> Generator:
    """NumPy's Generator on a pinned PCG64: the same seed, the same samples."""
    return Generator(PCG64(int(seed)))


def _free_refs() -> int:
    """What sys.getrefcount reports for an array held by one list only."""
    arrays = [np.empty(0)]
    return sys.getrefcount(arrays[0])


_FREE_REFS = _free_refs()
_LINE, _PAGE = 8, 512      # float64 elements in a 64-byte cache line, a 4 KiB page


def _block(size: int, count: int, color: int) -> list:
    """`count` flat float64 arrays of `size` elements cut from one
    allocation.  Each is an array of its own (its base is a memoryview, not
    the block), so its views refer to it and count as its references.
    Consecutive arrays are an odd number of cache lines apart and the first
    starts `color` lines into the block, so a pool's arrays start at
    different offsets within a page: elementwise loops that read one array
    and write another at the same offset run markedly slower."""
    stride = -(-size // (2 * _LINE)) * 2 * _LINE + _LINE
    first = color * _LINE % _PAGE
    mem = memoryview(np.empty(first + count * stride))
    return [np.frombuffer(mem[first + i * stride:first + i * stride + size])
            for i in range(count)]


class BufferPool:
    """Float64 arrays that the tapes of one training run reuse.

    The pool keeps every array it hands out, flat and keyed by element
    count.  `empty(shape)` returns one of that size, viewed as `shape`,
    that nothing outside the pool holds any more: its reference count shows
    the pool's list alone, since a Variable, a vjp, a view or a caller each
    add one.  So an array still in use is never handed out twice, whoever
    holds it.  The arrays of a size come in blocks that double their count
    (1, 1, 2, 4, ...), and an array is first handed out only when every
    earlier one of its size is held, so the pool uses as many arrays of
    each size as were ever held at once; the rest of the last block is
    never written.  Arrays below MIN_SIZE elements are not pooled: they
    cost more to pool than to allocate.
    """

    MIN_SIZE = 1024

    def __init__(self):
        self._arrays: dict[int, list] = {}   # handed out before, most recently last
        self._unused: dict[int, list] = {}   # the rest of each size's last block
        self._blocks = 0

    def empty(self, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        if size < self.MIN_SIZE:
            return np.empty(shape)
        arrays = self._arrays.get(size)
        if arrays is None:
            arrays = self._arrays[size] = []
            self._unused[size] = []
        # the free array handed out last was most likely freed last: still in cache
        for i in range(len(arrays) - 1, -1, -1):
            if sys.getrefcount(arrays[i]) == _FREE_REFS:
                a = arrays.pop(i)
                arrays.append(a)
                return a.reshape(shape)
        unused = self._unused[size]
        if not unused:
            self._blocks += 1   # blocks start 5 lines apart: an odd step visits all 64
            unused.extend(_block(size, max(1, len(arrays)), 5 * self._blocks))
        a = unused.pop()
        arrays.append(a)
        return a.reshape(shape)

    def held(self) -> list:
        """The pooled arrays that something outside the pool still holds."""
        return [arrays[i] for arrays in self._arrays.values() for i in range(len(arrays))
                if sys.getrefcount(arrays[i]) > _FREE_REFS]


# the pool of the innermost pooled() block running in this thread or task
_active: ContextVar[BufferPool | None] = ContextVar("kegcn_pool", default=None)


def empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of `shape`: from the active pool
    inside a `pooled()` block, else from np.empty."""
    pool = _active.get()
    return np.empty(shape) if pool is None else pool.empty(shape)


@contextmanager
def pooled():
    """Make a fresh BufferPool the allocator of `empty` for the block, and
    give it; the previous allocator is restored on exit, also on an
    exception.  The pool is freed once nothing else refers to it."""
    token = _active.set(BufferPool())
    try:
        yield _active.get()
    finally:
        _active.reset(token)


def truncated_normal_fill(shape, source: Generator, width: int | None = None) -> np.ndarray:
    """Fill `shape` with N(0, sigma^2) samples, sigma = 1/sqrt(width),
    resampling anything outside +-2 sigma.  `width` defaults to the last
    dimension; pass the fan-in explicitly for weight matrices."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if any(s <= 0 for s in shape):
        raise DimensionError(f"non-positive dimension in shape {shape}")
    w = shape[-1] if width is None else int(width)
    if w <= 0:
        raise DimensionError(f"non-positive width {w}")
    sigma = 1.0 / math.sqrt(w)
    out = sigma * source.normal(size=shape)
    bad = np.abs(out) > 2.0 * sigma
    while np.any(bad):
        out[bad] = sigma * source.normal(size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * sigma
    return out


# Terms of each product component in evaluation order: (left component,
# right component, sign).
_HAMILTON = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
    ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)),
)
_COMPLEX = (
    ((0, 0, 1), (1, 1, -1)),
    ((0, 1, 1), (1, 0, 1)),
)


def _plan(table, conj_p: bool, conj_q: bool) -> tuple:
    """Per output component ((i, j, lead), ((i, j, ufunc), ...)): start from
    p_i q_j, apply `lead` (None or np.negative), then acc = ufunc(acc, p_i q_j).

    A conjugated factor flips the sign of each term its imaginary components
    enter, which is exact (x*(-y) == -(x*y), a-(-b) == a+b), so each
    component equals the left-to-right formula on conjugated inputs bit for
    bit.  Only a negative first term needs care: (-x0) + x1 is x1 - x0, so
    the terms swap; two negative leads negate x0 first.
    """
    plan = []
    for terms in table:
        signed = [(i, j, s * (-1 if conj_p and i else 1) * (-1 if conj_q and j else 1))
                  for i, j, s in terms]
        (i0, j0, s0), (i1, j1, s1) = signed[:2]
        if s0 > 0:
            first, rest = (i0, j0, None), signed[1:]
        elif s1 > 0:
            first, rest = (i1, j1, None), [(i0, j0, -1)] + signed[2:]
        else:
            first, rest = (i0, j0, np.negative), signed[1:]
        plan.append((first, tuple((i, j, np.add if s > 0 else np.subtract)
                                  for i, j, s in rest)))
    return tuple(plan)


_HAMILTON_PLANS = {(cp, cq): _plan(_HAMILTON, cp, cq)
                   for cp in (False, True) for cq in (False, True)}
_COMPLEX_PLANS = {cq: _plan(_COMPLEX, False, cq) for cq in (False, True)}


def _algebra_product(p: np.ndarray, q: np.ndarray, plan: tuple) -> np.ndarray:
    """Evaluate `plan` (see _plan) on component planes, accumulating each
    output component in its own plane of one output array."""
    out = empty((len(plan),) + np.broadcast_shapes(p.shape[1:], q.shape[1:]))
    tmp = empty(out.shape[1:])
    for k, ((i, j, lead), rest) in enumerate(plan):
        acc = out[k, ...]
        np.multiply(p[i], q[j], out=acc)
        if lead is not None:
            lead(acc, out=acc)
        for i, j, ufunc in rest:
            np.multiply(p[i], q[j], out=tmp)
            ufunc(acc, tmp, out=acc)
    return out


def hamilton_product(p: np.ndarray, q: np.ndarray, conj_p: bool = False,
                     conj_q: bool = False) -> np.ndarray:
    """Quaternion product on (a, b, c, d) planes, shape (4, ...); conj_p /
    conj_q conjugate that factor first, bitwise as the conjugate's product."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[:1] != (4,) or q.shape[:1] != (4,):
        raise DimensionError("quaternion arrays need a leading component axis of 4")
    return _algebra_product(p, q, _HAMILTON_PLANS[conj_p, conj_q])


def complex_elementwise_product(a: np.ndarray, b: np.ndarray,
                                conj_b: bool = False) -> np.ndarray:
    """Entrywise complex product on (re, im) planes, shape (2, ...); conj_b
    conjugates b first, bitwise as the conjugate's product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[:1] != (2,) or b.shape[:1] != (2,):
        raise DimensionError("complex arrays need a leading component axis of 2")
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    return _algebra_product(a, b, _COMPLEX_PLANS[conj_b])


def circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """result[k] = sum_i a[i] * b[(i + k) mod d], over the trailing axis."""
    return _circular(a, b, "correlation")


def circular_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """result[k] = sum_i a[i] * b[(k - i) mod d]; adjoint partner of the
    correlation above."""
    return _circular(a, b, "convolution")


def _circular(a, b, kind: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    d = a.shape[-1]
    if d < 1:
        raise DimensionError(f"circular {kind} needs length >= 1")
    fa = np.fft.rfft(a, axis=-1)
    fb = np.fft.rfft(b, axis=-1)
    return np.fft.irfft((np.conj(fa) if kind == "correlation" else fa) * fb, n=d, axis=-1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_row(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis with max-subtraction."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] == 0:
        raise DimensionError("softmax over an empty row")
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def component_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of component tuples, one value per tuple; bitwise
    np.sum(a * b, axis=-1) on trailing tuples: the products of the planes
    added from +0.0 in component order, one plane at a time."""
    out = np.multiply(a[0], b[0], out=empty(np.broadcast_shapes(a.shape[1:], b.shape[1:])))
    out += 0.0
    tmp = empty(out.shape)
    for k in range(1, a.shape[0]):
        out += np.multiply(a[k], b[k], out=tmp)
    return out


def unit_parts(z: np.ndarray):
    """(safe, small, safe**3, safe**5, unit_project(z)): all that
    unit_project, its pullback and that pullback's vjp read of z.  safe is
    the norm of each tuple (shape z.shape[1:], bitwise np.linalg.norm on
    trailing tuples) with 1.0 where it is below UNIT_EPS; small marks those
    tuples, or is None when there is none."""
    z = np.asarray(z, dtype=np.float64)
    safe = np.sqrt(component_dot(z, z))
    small = safe < UNIT_EPS
    if small.any():
        safe = np.where(small, 1.0, safe)
    else:
        small = None
    out = z / safe
    if small is not None:
        np.copyto(out, 0.0, where=small)
        np.copyto(out[0, ...], 1.0, where=small)
    return safe, small, safe**3, safe**5, out


def unit_project(z: np.ndarray) -> np.ndarray:
    """Normalize component tuples (planes, shape (k, ...)) to unit norm.
    Tuples with norm below UNIT_EPS are reset to the unit element (1, 0, ...)."""
    return unit_parts(z)[4]


def unit_project_pullback(z: np.ndarray, g: np.ndarray, parts=None, zg=None) -> np.ndarray:
    """Apply the transposed Jacobian of unit_project at z to g (both
    planes): g / |z| - z (z.g) / |z|^3.  `parts` is unit_parts(z) and
    `zg` is component_dot(z, g), if the caller has them.

    Reset tuples (norm < UNIT_EPS) are constants, so their pullback is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.shape != g.shape:
        raise DimensionError(f"length mismatch {z.shape} vs {g.shape}")
    safe, small, safe3 = (unit_parts(z) if parts is None else parts)[:3]
    out = np.divide(g, safe, out=empty(g.shape))
    zg = component_dot(z, g) if zg is None else zg
    t = empty(out.shape[1:])
    for k in range(len(z)):     # one plane at a time: no (k, ...) temporary
        np.multiply(z[k], zg, out=t)
        t /= safe3
        out[k] -= t
    if small is not None:
        np.copyto(out, 0.0, where=small)
    return out
