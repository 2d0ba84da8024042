"""The component kernels against their plain formulas, bit for bit.

The oracles below are the straightforward forms the kernels replaced:
np.stack of whole-axis expressions, conjugates as separate arrays, and
np.sum / np.linalg.norm over the trailing component axis.  "Bitwise"
means identical bytes wherever the oracle is not NaN, and NaN in the same
places; the sign and payload of a NaN are not compared, since folding a
conjugate into a product's sign may flip them.
"""

import numpy as np
import pytest

from kegcn import numerics
from kegcn.autodiff import Tape
from kegcn.scorers import make_scorer

# the adversarial inputs hold inf and nan on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# ---------------- oracles: the plain formulas ----------------


def old_hamilton_product(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
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


def old_complex_product(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
    im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return np.stack([re, im], axis=-1)


def old_conjugate(p):
    p = np.asarray(p, dtype=np.float64)
    out = np.negative(p)
    out[..., 0] = p[..., 0]
    return out


def old_unit_project(z, eps=1e-12):
    z = np.asarray(z, dtype=np.float64)
    n = np.linalg.norm(z, axis=-1, keepdims=True)
    small = n < eps
    out = z / np.where(small, 1.0, n)
    if np.any(small):
        out = np.where(small, 0.0, out)
        out[..., 0] = np.where(small[..., 0], 1.0, out[..., 0])
    return out


def old_unit_project_pullback(z, g, eps=1e-12):
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    m = np.linalg.norm(z, axis=-1, keepdims=True)
    small = m < eps
    safe = np.where(small, 1.0, m)
    dot = np.sum(z * g, axis=-1, keepdims=True)
    out = g / safe - z * dot / safe**3
    return np.where(small, 0.0, out)


class OracleTape(Tape):
    """A Tape whose structured-algebra ops are the plain formulas."""

    def complex_mul(self, a, b):
        av, bv = a.value, b.value

        def vjp(g):
            return (old_complex_product(g, old_conjugate(bv)),
                    old_complex_product(g, old_conjugate(av)))

        return self._record(old_complex_product(av, bv), (a, b), vjp, "complex_mul")

    def complex_conj(self, a):
        return self._record(old_conjugate(a.value), (a,),
                            lambda g: (old_conjugate(g),), "complex_conj")

    def quat_mul(self, p, q):
        pv, qv = p.value, q.value

        def vjp(g):
            return (old_hamilton_product(g, old_conjugate(qv)),
                    old_hamilton_product(old_conjugate(pv), g))

        return self._record(old_hamilton_product(pv, qv), (p, q), vjp, "quat_mul")

    quat_conj = complex_conj

    def unit_project(self, z, eps=1e-12):
        zv = z.value
        return self._record(old_unit_project(zv, eps), (z,),
                            lambda g: (old_unit_project_pullback(zv, g, eps),),
                            "unit_project")

    def unit_project_pullback(self, z, g, eps=1e-12):
        zv, gv = z.value, g.value

        def vjp(s):
            m = np.linalg.norm(zv, axis=-1, keepdims=True)
            small = m < eps
            safe = np.where(small, 1.0, m)
            sg = np.sum(s * gv, axis=-1, keepdims=True)
            zg = np.sum(zv * gv, axis=-1, keepdims=True)
            sz = np.sum(s * zv, axis=-1, keepdims=True)
            dz = (
                -sg * zv / safe**3
                - zg * s / safe**3
                - sz * gv / safe**3
                + 3.0 * zg * sz * zv / safe**5
            )
            dz = np.where(small, 0.0, dz)
            return dz, old_unit_project_pullback(zv, s, eps)

        return self._record(old_unit_project_pullback(zv, gv, eps), (z, g), vjp,
                            "unit_project_pullback")


def old_rotate_messages(tape, d, U, R, V):
    n = U.shape[0]
    u3 = tape.reshape(U, (n, d, 2))
    r3 = tape.reshape(R, (n, d, 2))
    v3 = tape.reshape(V, (n, d, 2))
    p = tape.unit_project(r3)
    w = tape.sub(tape.complex_mul(u3, p), v3)
    gt = tape.reshape(tape.scale(w, 2.0), (n, 2 * d))
    gh = tape.reshape(tape.scale(tape.complex_mul(w, tape.complex_conj(p)), -2.0), (n, 2 * d))
    ghat = tape.scale(tape.complex_mul(w, tape.complex_conj(u3)), -2.0)
    gr = tape.reshape(tape.unit_project_pullback(r3, ghat), (n, 2 * d))
    return gh, gr, gt


def old_quate_messages(tape, d, U, R, V):
    n = U.shape[0]
    u4 = tape.reshape(U, (n, d, 4))
    r4 = tape.reshape(R, (n, d, 4))
    v4 = tape.reshape(V, (n, d, 4))
    p = tape.unit_project(r4)
    gt = tape.reshape(tape.quat_mul(u4, p), (n, 4 * d))
    gh = tape.reshape(tape.quat_mul(v4, tape.quat_conj(p)), (n, 4 * d))
    ghat = tape.quat_mul(tape.quat_conj(u4), v4)
    gr = tape.reshape(tape.unit_project_pullback(r4, ghat), (n, 4 * d))
    return gh, gr, gt


# ---------------- inputs ----------------


def assert_bitwise(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def signed_zero_tuples(width):
    """Every assignment of +0.0 / -0.0 to the components, one tuple each."""
    bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
    return np.where(bits == 1, -0.0, 0.0)


def adversarial(width, rng):
    """Rows of `width` components: random, all -0.0, all +-0.0 sign
    patterns, norms below 1e-12, exact cancellations, inf and nan."""
    rows = [rng.normal(size=(40, width)),
            signed_zero_tuples(width),
            rng.normal(size=(8, width)) * 1e-14,
            np.full((2, width), 1e-13),
            np.full((2, width), 0.5),
            np.array([[1.0, -1.0] * (width // 2)]),
            np.array([[np.inf] + [0.0] * (width - 1),
                      [1.0, -np.inf] + [2.0] * (width - 2),
                      [np.nan] + [1.0] * (width - 1),
                      [0.0] * (width - 1) + [np.nan]])]
    return np.concatenate(rows)


def pairs(width, seed):
    """(p, q) batches that meet each adversarial row against random rows,
    zero rows and every other adversarial row."""
    rng = np.random.default_rng(seed)
    a = adversarial(width, rng)
    zeros = signed_zero_tuples(width)
    left = np.concatenate([a, a, np.repeat(a, len(a), axis=0),
                           np.repeat(zeros, len(zeros), axis=0)])
    right = np.concatenate([rng.normal(size=a.shape), a[::-1], np.tile(a, (len(a), 1)),
                            np.tile(zeros, (len(zeros), 1))])
    return left, right


SHAPES = [(-1,), (-1, 3), (3, -1)]


def shaped(x, lead):
    """x (rows, width) laid out with leading shape `lead` (-1 = rows)."""
    n = x.shape[0]
    k = int(np.prod([s for s in lead if s != -1]))
    x = x[: n - n % k]
    return x.reshape(tuple(s if s != -1 else x.shape[0] // k for s in lead) + x.shape[-1:])


# ---------------- kernels ----------------


@pytest.mark.parametrize("lead", SHAPES)
def test_component_sums_match_numpy_reductions(lead):
    for width in (2, 4):
        p, q = (shaped(x, lead) for x in pairs(width, 1))
        assert_bitwise(numerics.component_dot(p, q), np.sum(p * q, axis=-1, keepdims=True))
        safe, small, safe3 = numerics.unit_norm_parts(p)
        n = np.linalg.norm(p, axis=-1, keepdims=True)
        assert_bitwise(safe, np.where(n < 1e-12, 1.0, n))
        assert np.array_equal(small, n < 1e-12)
        assert_bitwise(safe3, np.where(n < 1e-12, 1.0, n) ** 3)


def test_all_negative_zero_tuple_sums_to_positive_zero():
    z = np.full((3, 4), -0.0)
    out = numerics.component_dot(z, np.ones((3, 4)))
    assert not np.signbit(out).any()
    assert_bitwise(out, np.sum(z, axis=-1, keepdims=True))


def test_unit_norm_parts_without_small_tuples():
    z = np.random.default_rng(2).normal(size=(5, 3, 4)) + 3.0
    safe, small, _ = numerics.unit_norm_parts(z)
    assert small is None
    assert_bitwise(safe, np.linalg.norm(z, axis=-1, keepdims=True))


@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("conj_p,conj_q", [(False, False), (True, False), (False, True),
                                           (True, True)])
def test_hamilton_product_matches_oracle(lead, conj_p, conj_q):
    p, q = (shaped(x, lead) for x in pairs(4, 3))
    want = old_hamilton_product(old_conjugate(p) if conj_p else p,
                                old_conjugate(q) if conj_q else q)
    assert_bitwise(numerics.hamilton_product(p, q, conj_p, conj_q), want)


@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("conj_b", [False, True])
def test_complex_product_matches_oracle(lead, conj_b):
    a, b = (shaped(x, lead) for x in pairs(2, 4))
    want = old_complex_product(a, old_conjugate(b) if conj_b else b)
    assert_bitwise(numerics.complex_elementwise_product(a, b, conj_b=conj_b), want)


def test_products_of_single_tuples_and_broadcasts():
    rng = np.random.default_rng(5)
    p, q = rng.normal(size=4), rng.normal(size=(6, 4))
    assert_bitwise(numerics.hamilton_product(p, q), old_hamilton_product(p, q))
    assert_bitwise(numerics.hamilton_product(q, p, conj_q=True),
                   old_hamilton_product(q, old_conjugate(p)))
    assert_bitwise(numerics.hamilton_product(list(p), list(q[0])),
                   old_hamilton_product(p, q[0]))


@pytest.mark.parametrize("lead", SHAPES)
def test_conjugates_match_oracle(lead):
    for width, conj in ((2, numerics.complex_conjugate), (4, numerics.quaternion_conjugate)):
        p, _ = pairs(width, 6)
        p = shaped(p, lead)
        assert_bitwise(conj(p), old_conjugate(p))


@pytest.mark.parametrize("lead", SHAPES)
def test_unit_projection_and_pullback_match_oracle(lead):
    for width in (2, 4):
        z, g = (shaped(x, lead) for x in pairs(width, 7))
        assert_bitwise(numerics.unit_project(z), old_unit_project(z))
        assert_bitwise(numerics.unit_project_pullback(z, g), old_unit_project_pullback(z, g))
        parts = numerics.unit_norm_parts(z)
        assert_bitwise(numerics.unit_project(z, parts=parts), old_unit_project(z))
        assert_bitwise(numerics.unit_project_pullback(z, g, parts=parts),
                       old_unit_project_pullback(z, g))


# ---------------- tape ops and messages ----------------


def run_tape(tape, build, arrays, weights):
    leaves = [tape.leaf(a) for a in arrays]
    outs = build(tape, *leaves)
    total = None
    for o, w in zip(outs, weights):
        term = tape.sum(tape.mul(o, tape.leaf(w)))
        total = term if total is None else tape.add(total, term)
    grads = tape.backward(total)
    return [o.value for o in outs], [grads[v] for v in leaves]


def assert_same_run(new, old):
    for got, want in zip(new[0] + new[1], old[0] + old[1]):
        assert_bitwise(got, want)


@pytest.mark.parametrize("width", [2, 4])
def test_tape_ops_match_oracle_tape(width):
    rng = np.random.default_rng(8)
    z, g = pairs(width, 9)
    z, g = shaped(z, (-1, 3)), shaped(g, (-1, 3))
    z = np.where(np.isfinite(z), z, 0.5)
    g = np.where(np.isfinite(g), g, -0.5)
    weights = [rng.normal(size=z.shape) for _ in range(4)]
    if width == 4:
        def build(t, a, b):
            return (t.quat_mul(a, b), t.quat_mul(t.quat_conj(a), b),
                    t.unit_project(a), t.unit_project_pullback(a, b))

        def build_new(t, a, b):
            return (t.quat_mul(a, b), t.quat_mul(a, b, conj_p=True),
                    t.unit_project(a), t.unit_project_pullback(a, b))
    else:
        def build(t, a, b):
            return (t.complex_mul(a, b), t.complex_mul(a, t.complex_conj(b)),
                    t.unit_project(a), t.unit_project_pullback(a, b))

        def build_new(t, a, b):
            return (t.complex_mul(a, b), t.complex_mul(a, b, conj_b=True),
                    t.unit_project(a), t.unit_project_pullback(a, b))
    assert_same_run(run_tape(Tape(), build_new, [z, g], weights),
                    run_tape(OracleTape(), build, [z, g], weights))


def test_quat_mul_conjugate_flags_match_conj_nodes():
    rng = np.random.default_rng(10)
    p, q = rng.normal(size=(2, 5, 3, 4))
    weights = [rng.normal(size=p.shape) for _ in range(3)]

    def build(t, a, b):
        return (t.quat_mul(t.quat_conj(a), b), t.quat_mul(a, t.quat_conj(b)),
                t.quat_mul(t.quat_conj(a), t.quat_conj(b)))

    def build_new(t, a, b):
        return (t.quat_mul(a, b, conj_p=True), t.quat_mul(a, b, conj_q=True),
                t.quat_mul(a, b, True, True))

    assert_same_run(run_tape(Tape(), build_new, [p, q], weights),
                    run_tape(OracleTape(), build, [p, q], weights))


@pytest.mark.parametrize("kind,old", [("quate", old_quate_messages),
                                      ("rotate", old_rotate_messages)])
def test_messages_match_oracle_tape(kind, old):
    d = 5
    scorer = make_scorer(kind, d)
    rng = np.random.default_rng(11)
    n, w = 7, scorer.entity_width
    U, V = rng.normal(size=(2, n, w))
    R = rng.normal(size=(n, scorer.relation_width))
    R[0, :] = 0.0                                 # every tuple of row 0 is reset
    R[1, : w // d] = -0.0                         # one all -0.0 tuple
    R[2, : w // d] = 1e-13                        # one tuple below eps
    weights = [rng.normal(size=(n, w)) for _ in range(3)]
    new = run_tape(Tape(), lambda t, u, r, v: scorer.messages(t, u, r, v), [U, R, V], weights)
    ref = run_tape(OracleTape(), lambda t, u, r, v: old(t, d, u, r, v), [U, R, V], weights)
    assert_same_run(new, ref)
