import threading

import numpy as np
import pytest

from kegcn import numerics
from kegcn.numerics import (
    BufferPool,
    DimensionError,
    circular_convolution,
    circular_correlation,
    complex_elementwise_product,
    hamilton_product,
    seeded,
    sigmoid,
    softmax_row,
    truncated_normal_fill,
    unit_project,
    unit_project_pullback,
)


def quat_norm(p):
    return np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1))


def planes(x):
    """Trailing component tuples (..., k) as the kernels' (k, ...) planes."""
    return np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0)


def trailing(x):
    """Kernel planes (k, ...) back to trailing tuples (..., k)."""
    return np.moveaxis(x, 0, -1)


def test_hamilton_identity():
    q = np.array([3.0, -1.0, 2.0, 0.5])
    assert np.array_equal(hamilton_product([1.0, 0, 0, 0], q), q)


def test_hamilton_ij_equals_k():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(hamilton_product(i, j), [0.0, 0.0, 0.0, 1.0])


def test_hamilton_hand_expansion():
    # (1 + i)(1 + j) = 1 + i + j + k
    out = hamilton_product([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(out, [1.0, 1.0, 1.0, 1.0])


def test_hamilton_norm_multiplicative():
    rng = seeded(7)
    p = rng.normal(size=(1000, 4))
    q = rng.normal(size=(1000, 4))
    lhs = quat_norm(trailing(hamilton_product(planes(p), planes(q))))
    rhs = quat_norm(p) * quat_norm(q)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(rhs, 1.0))


def test_hamilton_associative_not_commutative():
    rng = seeded(11)
    p, q, r = rng.normal(size=(3, 50, 4))
    p, q, r = planes(p), planes(q), planes(r)
    left = hamilton_product(hamilton_product(p, q), r)
    right = hamilton_product(p, hamilton_product(q, r))
    assert np.all(np.abs(left - right) <= 1e-12 * np.maximum(np.abs(left), 1.0))
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    assert not np.array_equal(hamilton_product(i, j), hamilton_product(j, i))


def test_complex_product_by_i():
    out = complex_elementwise_product(planes([[1.0, 0.0]]), planes([[0.0, 1.0]]))
    assert np.array_equal(trailing(out), [[0.0, 1.0]])


def test_complex_product_hand():
    # (1+1i)(1-1i) = 2
    out = complex_elementwise_product(planes([[1.0, 1.0]]), planes([[1.0, -1.0]]))
    assert np.array_equal(trailing(out), [[2.0, 0.0]])


def test_complex_product_empty():
    a = planes(np.zeros((0, 2)))
    assert trailing(complex_elementwise_product(a, a)).shape == (0, 2)


def test_complex_product_mismatch():
    with pytest.raises(DimensionError):
        complex_elementwise_product(planes(np.zeros((2, 2))), planes(np.zeros((3, 2))))


def test_conjugates():
    # the product with the unit element conjugates through the flag
    one = planes([[1.0, 0.0]])
    assert np.array_equal(trailing(complex_elementwise_product(
        one, planes([[1.0, 2.0]]), conj_b=True)), [[1.0, -2.0]])
    assert np.array_equal(hamilton_product([1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0],
                                           conj_q=True), [1.0, -2.0, -3.0, -4.0])
    assert np.array_equal(hamilton_product([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 0.0, 0.0],
                                           conj_p=True), [1.0, -2.0, -3.0, -4.0])


def test_circular_correlation_hand():
    out = circular_correlation([1.0, 0.0], [0.0, 1.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-14)
    out = circular_correlation([1.0, 1.0], [1.0, 1.0])
    assert np.allclose(out, [2.0, 2.0], atol=1e-14)


def test_circular_correlation_delta_identity():
    rng = seeded(3)
    for d in range(1, 65):
        delta = np.zeros(d)
        delta[0] = 1.0
        b = rng.normal(size=d)
        assert np.allclose(circular_correlation(delta, b), b, atol=1e-12)


def test_circular_correlation_mismatch():
    with pytest.raises(DimensionError):
        circular_correlation(np.zeros(3), np.zeros(4))


def test_circular_convolution_is_correlation_adjoint():
    # <corr(a, b), g> == <b, conv(a, g)> makes conv the vjp of corr in b.
    rng = seeded(5)
    for _ in range(20):
        a, b, g = rng.normal(size=(3, 16))
        lhs = float(np.dot(circular_correlation(a, b), g))
        rhs = float(np.dot(b, circular_convolution(a, g)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_activations():
    # sigmoid serves the multi-label loss; the layers' relu is a tape op,
    # covered by the primitive-gradient tests
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_sigmoid_extremes_finite():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def test_softmax_row_values():
    assert np.array_equal(softmax_row([0.0, 0.0]), [0.5, 0.5])
    assert np.array_equal(softmax_row([1000.0, 1000.0]), [0.5, 0.5])
    out = softmax_row([np.log(1.0), np.log(3.0)])
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_row_sum_and_shift():
    rng = seeded(13)
    x = rng.normal(size=(200, 7)) * 10.0
    p = softmax_row(x)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    q = softmax_row(x + 3.25)
    assert np.all(np.abs(p - q) <= 1e-12)
    with pytest.raises(DimensionError):
        softmax_row(np.zeros((3, 0)))


def test_truncated_normal_bounds_and_determinism():
    out1 = truncated_normal_fill((500, 16), seeded(42))
    out2 = truncated_normal_fill((500, 16), seeded(42))
    sigma = 1.0 / 4.0
    assert np.all(np.abs(out1) <= 2.0 * sigma)
    assert np.array_equal(out1, out2)


def test_truncated_normal_mean():
    out = truncated_normal_fill((100000,), seeded(0), width=1)
    assert -0.02 < out.mean() < 0.02
    assert np.all(np.abs(out) <= 2.0)


def test_truncated_normal_bad_shape():
    with pytest.raises(DimensionError):
        truncated_normal_fill((0, 3), seeded(1))


def test_unit_project():
    z = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = trailing(unit_project(planes(z)))
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-15)
    assert np.array_equal(out[1], [1.0, 0.0])


def test_unit_project_pullback_matches_finite_difference():
    rng = seeded(17)
    z = rng.normal(size=(6, 4)) + 0.5
    g = rng.normal(size=(6, 4))
    got = trailing(unit_project_pullback(planes(z), planes(g)))
    eps = 1e-6
    num = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += eps
        zm = z.copy()
        zm[idx] -= eps
        diff = trailing(unit_project(planes(zp))) - trailing(unit_project(planes(zm)))
        num[idx] = np.sum(diff * g) / (2 * eps)
    assert np.all(np.abs(got - num) <= 1e-7 * np.maximum(np.abs(num), 1.0))


def test_unit_project_pullback_zero_on_reset():
    z = np.zeros((2, 4))
    g = np.ones((2, 4))
    assert np.array_equal(trailing(unit_project_pullback(planes(z), planes(g))),
                          np.zeros((2, 4)))


def test_seeded_streams_are_pinned_pcg64_and_differ_by_seed():
    assert isinstance(seeded(0).bit_generator, np.random.PCG64)
    assert seeded(np.int64(0)).random() == 0.6369616873214543   # PCG64's first draw at seed 0
    a = seeded(1).normal(size=8)
    b = seeded(2).normal(size=8)
    assert not np.array_equal(a, b)


def test_kernels_finite_in_finite_out():
    rng = seeded(23)
    p = rng.normal(size=(10, 4)) * 1e6
    assert np.all(np.isfinite(hamilton_product(planes(p), planes(p))))
    c = rng.normal(size=(10, 2)) * 1e6
    assert np.all(np.isfinite(complex_elementwise_product(planes(c), planes(c))))
    a = rng.normal(size=32) * 1e3
    assert np.all(np.isfinite(circular_correlation(a, a)))
    assert np.all(np.isfinite(softmax_row(a)))


def in_pool(a, pool) -> bool:
    return any(np.may_share_memory(a, b) for b in pool.held())


def test_empty_draws_from_the_pool_only_inside_pooled():
    assert numerics.empty((64, 32)).base is None
    with numerics.pooled() as pool:
        big = numerics.empty((64, 32))
        small = numerics.empty((3, 4))          # below MIN_SIZE: a plain array
        edge = numerics.empty((BufferPool.MIN_SIZE,))
        assert big.shape == (64, 32) and big.flags.c_contiguous
        assert in_pool(big, pool) and in_pool(edge, pool)
        assert small.base is None and not in_pool(small, pool)
    plain = numerics.empty((64, 32))
    assert plain.base is None and not in_pool(plain, pool)


def test_pooled_scopes_nest_and_restore_the_outer_allocator():
    with numerics.pooled() as outer:
        with numerics.pooled() as inner:
            a = numerics.empty((2048,))
            assert inner is not outer
            assert in_pool(a, inner) and not in_pool(a, outer)
        b = numerics.empty((2048,))
        assert in_pool(b, outer) and not in_pool(b, inner)
        with pytest.raises(RuntimeError):
            with numerics.pooled() as failed:
                raise RuntimeError("inside a nested scope")
        c = numerics.empty((2048,))
        assert in_pool(c, outer) and not in_pool(c, failed)
    with pytest.raises(RuntimeError):
        with numerics.pooled():
            raise RuntimeError("inside the only scope")
    assert numerics.empty((2048,)).base is None


def test_a_pooled_block_is_local_to_its_thread():
    # another thread's arrays stay plain while this one runs a pooled block
    seen = []
    with numerics.pooled() as pool:
        worker = threading.Thread(target=lambda: seen.append(numerics.empty((2048,))))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert in_pool(numerics.empty((2048,)), pool)
    assert len(seen) == 1 and seen[0].base is None
