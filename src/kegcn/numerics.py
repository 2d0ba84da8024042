"""Dense float64 kernels shared by every other module.

Complex and quaternion vectors are stored as real arrays whose trailing
axis holds the components: shape (..., 2) for complex entries, (..., 4)
for quaternions.  Generic vector operations (distances, activations,
initialization) act on the flattened real view, so one primitive set
serves all three algebras.
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


def hamilton_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product on trailing (a, b, c, d) quadruples."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[-1] != 4 or q.shape[-1] != 4:
        raise DimensionError("quaternion arrays need a trailing axis of 4")
    a1, b1, c1, d1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    a2, b2, c2, d2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


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


def complex_elementwise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise complex product on trailing (re, im) pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != 2 or b.shape[-1] != 2:
        raise DimensionError("complex arrays need a trailing axis of 2")
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch {a.shape} vs {b.shape}")
    re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
    im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return np.stack([re, im], axis=-1)


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


def unit_project(z: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Normalize trailing component tuples to unit norm.  Tuples with norm
    below eps are reset to the unit element (1, 0, ...)."""
    z = np.asarray(z, dtype=np.float64)
    n = np.linalg.norm(z, axis=-1, keepdims=True)
    small = n < eps
    out = z / np.where(small, 1.0, n)
    if np.any(small):
        out = np.where(small, 0.0, out)
        out[..., 0] = np.where(small[..., 0], 1.0, out[..., 0])
    return out


def unit_project_pullback(z: np.ndarray, g: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Apply the transposed Jacobian of unit_project at z to g.

    Reset tuples (norm < eps) are constants, so their pullback is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.shape != g.shape:
        raise DimensionError(f"length mismatch {z.shape} vs {g.shape}")
    m = np.linalg.norm(z, axis=-1, keepdims=True)
    small = m < eps
    safe = np.where(small, 1.0, m)
    dot = np.sum(z * g, axis=-1, keepdims=True)
    out = g / safe - z * dot / safe**3
    return np.where(small, 0.0, out)
