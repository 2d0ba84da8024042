"""Dense float64 kernels shared by every other module.

Complex and quaternion vectors are stored as real arrays whose trailing
axis holds the components: shape (..., 2) for complex entries, (..., 4)
for quaternions.  Generic vector operations (distances, activations,
initialization) act on the flattened real view, so one primitive set
serves all three algebras.

The component kernels (products, conjugates, unit projection and its
pullback) are written out per component, and their results are bit for
bit those of the plain formulas: a product of conjugates is the same
products under flipped signs (x*(-y) == -(x*y) and a-(-b) == a+b exactly),
and a sum over the trailing 2- or 4-wide axis is the component adds
((0.0 + t0) + t1) + ... in index order, which is what
np.sum(t, axis=-1, keepdims=True) and np.linalg.norm(t, axis=-1) compute
on such short axes, +0.0 start included (an all -0.0 tuple sums to +0.0).
Only the sign and payload of a NaN may differ.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionError(ValueError):
    """Shape or length mismatch handed to a numeric kernel."""


class RandomSource:
    """Deterministic sample stream (PCG64). Same seed, same samples.

    Single consumer by convention: one instance per logical task.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        return self._gen.normal(size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def uniform(self, size=None):
        return self._gen.random(size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


def truncated_normal_fill(shape, source: RandomSource, width: int | None = None) -> np.ndarray:
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
    out = sigma * source.normal(shape)
    bad = np.abs(out) > 2.0 * sigma
    while np.any(bad):
        out[bad] = sigma * source.normal(int(bad.sum()))
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
    """Evaluate `plan` (see _plan) on trailing component tuples into one
    output array, one component at a time."""
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    acc = np.empty(out.shape[:-1])
    tmp = np.empty(out.shape[:-1])
    pc = [p[..., i] for i in range(len(plan))]
    qc = [q[..., j] for j in range(len(plan))]
    for k, ((i, j, lead), rest) in enumerate(plan):
        np.multiply(pc[i], qc[j], out=acc)
        if lead is not None:
            lead(acc, out=acc)
        for i, j, ufunc in rest:
            np.multiply(pc[i], qc[j], out=tmp)
            ufunc(acc, tmp, out=acc)
        out[..., k] = acc
    return out


def hamilton_product(p: np.ndarray, q: np.ndarray, conj_p: bool = False,
                     conj_q: bool = False) -> np.ndarray:
    """Quaternion product on trailing (a, b, c, d) quadruples; conj_p /
    conj_q conjugate that factor first, bitwise as the conjugate's product."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[-1] != 4 or q.shape[-1] != 4:
        raise DimensionError("quaternion arrays need a trailing axis of 4")
    return _algebra_product(p, q, _HAMILTON_PLANS[conj_p, conj_q])


def _negate_imaginary(p: np.ndarray) -> np.ndarray:
    """Conjugate over the trailing axis: component 0 kept, the rest negated.
    Negating the whole array and copying component 0 back keeps the inner
    loop long; a broadcast multiply by [1, -1, ...] runs it 2 or 4 wide."""
    out = np.negative(p)
    out[..., 0] = p[..., 0]
    return out


def quaternion_conjugate(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 4:
        raise DimensionError("quaternion arrays need a trailing axis of 4")
    return _negate_imaginary(p)


def complex_elementwise_product(a: np.ndarray, b: np.ndarray,
                                conj_b: bool = False) -> np.ndarray:
    """Entrywise complex product on trailing (re, im) pairs; conj_b
    conjugates b first, bitwise as the conjugate's product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != 2 or b.shape[-1] != 2:
        raise DimensionError("complex arrays need a trailing axis of 2")
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    return _algebra_product(a, b, _COMPLEX_PLANS[conj_b])


def complex_conjugate(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] != 2:
        raise DimensionError("complex arrays need a trailing axis of 2")
    return _negate_imaginary(a)


def circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """result[k] = sum_i a[i] * b[(i + k) mod d], over the trailing axis."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    d = a.shape[-1]
    if d < 1:
        raise DimensionError("circular correlation needs length >= 1")
    fa = np.fft.rfft(a, axis=-1)
    fb = np.fft.rfft(b, axis=-1)
    return np.fft.irfft(np.conj(fa) * fb, n=d, axis=-1)


def circular_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """result[k] = sum_i a[i] * b[(k - i) mod d]; adjoint partner of the
    correlation above."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    d = a.shape[-1]
    if d < 1:
        raise DimensionError("circular convolution needs length >= 1")
    fa = np.fft.rfft(a, axis=-1)
    fb = np.fft.rfft(b, axis=-1)
    return np.fft.irfft(fa * fb, n=d, axis=-1)


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or x.ndim != 1 or m.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec mismatch {m.shape} vs {x.shape}")
    return m @ x


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def identity(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "identity": identity}


def activation(kind: str, x: np.ndarray) -> np.ndarray:
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    return ACTIVATIONS[kind](x)


def softmax_row(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis with max-subtraction."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] == 0:
        raise DimensionError("softmax over an empty row")
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


def l2_norm_sq(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def _component_sum(t: np.ndarray) -> np.ndarray:
    """np.sum(t, axis=-1, keepdims=True) bit for bit, as component adds."""
    out = t[..., 0:1] + 0.0
    for k in range(1, t.shape[-1]):
        out += t[..., k:k + 1]
    return out


def by_column(ufunc, x: np.ndarray, col: np.ndarray, out=None) -> np.ndarray:
    """ufunc(x, col) for a (..., 1) column, one component at a time.  The
    values are the broadcast's; a broadcast over the trailing axis runs
    its inner loop only 2 or 4 wide, these loops run the length of x."""
    if out is None:
        out = np.empty(x.shape)
    c = col[..., 0]
    for k in range(x.shape[-1]):
        ufunc(x[..., k], c, out=out[..., k])
    return out


def component_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of trailing component tuples, keepdims; bitwise
    np.sum(a * b, axis=-1, keepdims=True)."""
    return _component_sum(a * b)


def unit_norm_parts(z: np.ndarray, eps: float = 1e-12):
    """(safe, small, safe**3) shared by unit_project and its pullback at z.

    safe is the norm of each trailing tuple (keepdims, bitwise
    np.linalg.norm) with 1.0 where it is below eps; small marks those
    tuples, or is None when there is none.
    """
    safe = np.sqrt(_component_sum(z * z))
    small = safe < eps
    if small.any():
        safe[small] = 1.0
    else:
        small = None
    return safe, small, safe**3


def unit_project(z: np.ndarray, eps: float = 1e-12, parts=None) -> np.ndarray:
    """Normalize trailing component tuples to unit norm.  Tuples with norm
    below eps are reset to the unit element (1, 0, ...).  `parts` is
    unit_norm_parts(z, eps), if the caller already has it."""
    z = np.asarray(z, dtype=np.float64)
    safe, small, _ = unit_norm_parts(z, eps) if parts is None else parts
    out = by_column(np.divide, z, safe)
    if small is not None:
        np.copyto(out, 0.0, where=small)
        np.copyto(out[..., 0:1], 1.0, where=small)
    return out


def unit_project_pullback(z: np.ndarray, g: np.ndarray, eps: float = 1e-12,
                          parts=None) -> np.ndarray:
    """Apply the transposed Jacobian of unit_project at z to g:
    g / |z| - z (z.g) / |z|^3.  `parts` is unit_norm_parts(z, eps).

    Reset tuples (norm < eps) are constants, so their pullback is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.shape != g.shape:
        raise DimensionError(f"length mismatch {z.shape} vs {g.shape}")
    safe, small, safe3 = unit_norm_parts(z, eps) if parts is None else parts
    out = by_column(np.divide, g, safe)
    t = by_column(np.multiply, z, component_dot(z, g))
    by_column(np.divide, t, safe3, out=t)
    out -= t
    if small is not None:
        np.copyto(out, 0.0, where=small)
    return out
