import gc
import weakref
import zlib
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import copying_backward, finite_diff_check
from kegcn import autodiff, numerics
from kegcn.autodiff import ForwardTape, Tape
from kegcn.numerics import BufferPool, DimensionError, seeded


def directional_error(build, arrays, rng, eps=1e-6):
    """Analytic directional derivative vs central difference along one
    random direction.  `build(tape, *vars) -> scalar Variable`."""
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = build(tape, *leaves)
    grads = tape.backward(out)
    dirs = [rng.normal(size=a.shape) for a in arrays]
    analytic = sum(float(np.sum(grads[v] * d)) for v, d in zip(leaves, dirs))

    def value(scale):
        t = Tape()
        vs = [t.leaf(a + scale * d) for a, d in zip(arrays, dirs)]
        return float(build(t, *vs).value)

    numeric = (value(eps) - value(-eps)) / (2.0 * eps)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-2)


def weighted_sum(tape, x, w):
    return tape.sum(tape.mul(x, tape.leaf(w)))


def planes(x):
    """Trailing component tuples (..., k) as the (k, ...) planes the
    structured-algebra ops take."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def test_record_examples():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    y = tape.leaf([3.0, 5.0])
    assert np.array_equal(tape.add(x, y).value, [4.0, 7.0])
    m = tape.leaf(np.eye(2))
    col = tape.leaf([[1.0], [2.0]])
    assert np.array_equal(tape.matmul(m, col).value, [[1.0], [2.0]])
    # composed TransE-style magnitude
    u = tape.leaf([1.0, 0.0])
    r = tape.leaf([0.0, 1.0])
    v = tape.leaf([0.0, 0.0])
    d = tape.sub(tape.add(u, r), v)
    score = tape.sum(tape.mul(d, d))
    assert float(score.value) == 2.0


def test_backward_examples():
    tape = Tape()
    x = tape.leaf([1.0, -2.0, 3.0])
    grads = tape.backward(tape.sum(x))
    assert np.array_equal(grads[x], [1.0, 1.0, 1.0])

    tape = Tape()
    x = tape.leaf([3.0, 4.0])
    grads = tape.backward(tape.sum(tape.mul(x, x)))
    assert np.array_equal(grads[x], [6.0, 8.0])

    tape = Tape()
    x = tape.leaf([-1.0, 2.0])
    grads = tape.backward(tape.sum(tape.relu(x)))
    assert np.array_equal(grads[x], [0.0, 1.0])


def test_relu_grad_zero_at_zero():
    tape = Tape()
    x = tape.leaf([0.0, 1.0])
    grads = tape.backward(tape.sum(tape.relu(x)))
    assert np.array_equal(grads[x], [0.0, 1.0])


def test_a_leaf_reached_only_through_a_relu_with_no_positive_input_reads_zeros():
    # that relu's vjp returns None, so backward adds nothing to x; y, which
    # the loss also reaches directly, gets only its own gradient
    tape = Tape()
    x, y = tape.leaf([[-1.0, 0.0], [-0.0, -2.0]]), tape.leaf([[3.0, -1.0], [0.5, 2.0]])
    dead = tape.relu(tape.mul(x, y))
    loss = tape.add(tape.sum(dead), tape.sum(tape.relu(y)))
    assert tape.nodes[dead.index].vjp(np.ones((2, 2)))[0] is None
    grads = tape.backward(loss)
    assert grads[x].tobytes() == np.zeros((2, 2)).tobytes()   # +0.0 everywhere
    assert np.array_equal(grads[y], [[1.0, 0.0], [1.0, 1.0]])


def test_accumulation_fanout():
    tape = Tape()
    x = tape.leaf([2.0, 5.0])
    y = tape.add(x, x)
    grads = tape.backward(tape.sum(y))
    assert np.array_equal(grads[x], [2.0, 2.0])



def test_single_consumer_parents_of_an_add_share_its_gradient():
    tape = Tape()
    a, b = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((3, 2)))
    grads = tape.backward(tape.sum(tape.add(a, b)))
    assert grads[a] is grads[b] and np.array_equal(grads[a], np.ones((3, 2)))


def test_a_parent_that_is_added_into_owns_its_first_gradient():
    # s passes its gradient on to p and q, and p to a and b, so a's first
    # gradient is the array b and q hold too: r's gradient must be added
    # out of place, or b and q, which runs after r, would read 4 instead
    # of 1 and give c 20
    tape = Tape()
    a, b, c = (tape.leaf(np.ones((3, 2))) for _ in range(3))
    q = tape.scale(c, 5.0)
    r = tape.scale(a, 3.0)
    p = tape.add(a, b)
    s = tape.add(p, q)
    grads = tape.backward(tape.sum(tape.add(s, r)))
    assert not np.may_share_memory(grads[a], grads[b])
    for leaf, want in ((a, 4.0), (b, 1.0), (c, 5.0)):
        assert np.array_equal(grads[leaf], np.full((3, 2), want))
    for a_first in (True, False):   # a takes the add's gradient, or its sibling does
        tape = Tape()
        a, b = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((3, 2)))
        x = tape.add(a, b)
        grads = tape.backward(tape.sum(tape.add(a, x) if a_first else tape.add(x, a)))
        assert not np.may_share_memory(grads[a], grads[b])
        assert np.array_equal(grads[a], np.full((3, 2), 2.0))
        assert np.array_equal(grads[b], np.ones((3, 2)))


def test_a_first_gradient_viewing_a_shared_one_is_added_out_of_place():
    # add gives c and d2 one array, and concat gives a a view of it, not
    # the array itself: t's gradient, which comes later, must not be added
    # into that view, or d2's first three columns would read 4
    tape = Tape()
    a, b, d2 = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((2, 5)))
    t = tape.scale(a, 3.0)
    c = tape.concat([a, b])
    s = tape.add(c, d2)
    grads = tape.backward(tape.add(tape.sum(s), tape.sum(t)))
    assert np.array_equal(grads[d2], np.ones((2, 5)))
    assert np.array_equal(grads[a], np.full((2, 3), 4.0))
    assert np.array_equal(grads[b], np.ones((2, 2)))


_ROWS, _WIDTH = 3, 2


@st.composite
def tape_programs(draw):
    """Leaves of width w or 2w, then ops over earlier values (fan-out), and
    the indices of the values whose sums the loss adds.  Recent operands,
    `add` and `concat` are drawn more often, so that views of a gradient
    that another node holds too come up in many examples."""
    widths = [_WIDTH] * draw(st.integers(1, 3)) + [2 * _WIDTH] * draw(st.integers(1, 2))
    leaves = len(widths)
    ops = []
    for _ in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(["add", "add", "sub", "mul", "scale", "concat", "concat",
                                   "slice_cols", "gather", "segment_sum", "relu"]))
        x = len(widths) - 1 - draw(st.integers(0, len(widths) - 1))   # recent first
        if op in ("add", "sub", "mul"):
            y = draw(st.sampled_from([i for i, w in enumerate(widths) if w == widths[x]]))
            ops.append((op, x, y))
        elif op == "scale":
            ops.append((op, x, draw(st.sampled_from([3.0, -0.5, 1.25]))))
        elif op == "relu":   # relu of a relu scaled by -0.5 passes no gradient
            ops.append((op, x, None))
        elif op == "concat":
            narrow = [i for i, w in enumerate(widths) if w == _WIDTH]
            ops.append((op, draw(st.sampled_from(narrow)), draw(st.sampled_from(narrow))))
        elif op == "slice_cols":
            ops.append((op, x, draw(st.integers(0, widths[x] - _WIDTH))))
        else:
            ops.append((op, x, np.array(draw(st.lists(st.integers(0, _ROWS - 1),
                                                      min_size=_ROWS, max_size=_ROWS)))))
        widths.append(2 * _WIDTH if op == "concat" else _WIDTH if op == "slice_cols"
                      else widths[x])
    summed = draw(st.lists(st.integers(0, len(widths) - 1), max_size=4))
    return widths[:leaves], ops, [len(widths) - 1] + summed


def _record_program(tape, program, seed):
    widths, ops, summed = program
    rng = seeded(seed)
    values = [tape.leaf(rng.normal(size=(_ROWS, w))) for w in widths]
    for op, x, arg in ops:
        x = values[x]
        if op == "concat":
            out = tape.concat([x, values[arg]])
        elif op == "slice_cols":
            out = tape.slice_cols(x, arg, arg + _WIDTH)
        elif op == "segment_sum":
            out = tape.segment_sum(x, arg, _ROWS)
        elif op == "relu":
            out = tape.relu(x)
        elif op in ("scale", "gather"):
            out = getattr(tape, op)(x, arg)
        else:
            out = getattr(tape, op)(x, values[arg])
        values.append(out)
    loss = tape.sum(values[summed[0]])
    for i in summed[1:]:
        loss = tape.add(loss, tape.sum(values[i]))
    return values[:len(widths)], loss


@settings(max_examples=300, deadline=None, database=None)
@given(tape_programs(), st.integers(0, 2**31))
def test_backward_equals_a_reverse_pass_that_copies_every_first_gradient(program, seed):
    tape = Tape()
    leaves, loss = _record_program(tape, program, seed)
    want = copying_backward(tape, loss)
    tape = Tape()
    leaves, loss = _record_program(tape, program, seed)
    grads = tape.backward(loss)
    for v in leaves:
        ref = np.zeros_like(v.value) if want[v.index] is None else want[v.index]
        assert grads[v].shape == ref.shape and grads[v].tobytes() == ref.tobytes()


def test_untouched_leaf_gets_zero():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    y = tape.leaf([3.0, 4.0])
    grads = tape.backward(tape.sum(x))
    assert np.array_equal(grads[y], [0.0, 0.0])


def test_non_scalar_loss_rejected():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError):
        tape.backward(x)


def test_shape_mismatch_rejected():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        tape.matmul(a, b)


def test_determinism_bitwise():
    rng = seeded(31)
    x0 = rng.normal(size=(4, 6))
    w0 = rng.normal(size=(6, 3))

    def run():
        tape = Tape()
        x = tape.leaf(x0)
        w = tape.leaf(w0)
        out = tape.sum(tape.relu(tape.matmul(x, w)))
        g = tape.backward(out)
        return g[x].copy(), g[w].copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_finite_diff_check_quadratic():
    def fn(tape, x):
        return tape.sum(tape.mul(x, x))

    err = finite_diff_check(fn, [np.array([1.0, -2.0, 0.5])])
    assert err <= 1e-9


def test_finite_diff_check_constant():
    def fn(tape, x):
        return tape.sum(tape.scale(x, 0.0))

    err = finite_diff_check(fn, [np.array([1.0, 2.0])])
    assert err == 0.0


PRIMITIVE_CASES = {}
FD_STEPS = {}   # central-difference step by case


def case(name, eps=1e-6):
    def deco(f):
        PRIMITIVE_CASES[name], FD_STEPS[name] = f, eps
        return f

    return deco


@case("add")
def _add(rng):
    a, b, w = rng.normal(size=(3, 2, 5)), rng.normal(size=(3, 2, 5)), rng.normal(size=(2, 5))
    return lambda t, x, y: weighted_sum(t, t.add(x, y), w), [a, b]


@case("add_broadcast")
def _add_b(rng):
    a, b, w = rng.normal(size=(4, 5)), rng.normal(size=(1, 5)), rng.normal(size=(4, 5))
    return lambda t, x, y: weighted_sum(t, t.add(x, y), w), [a, b]


@case("add_constant")
def _add_c(rng):
    a, w = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    return lambda t, x: weighted_sum(t, t.add(x, -0.7), w), [a]


@case("sub")
def _sub(rng):
    a, b, w = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    return lambda t, x, y: weighted_sum(t, t.sub(x, y), w), [a, b]


@case("mul_broadcast")
def _mul(rng):
    a, b, w = rng.normal(size=(4, 1)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    return lambda t, x, y: weighted_sum(t, t.mul(x, y), w), [a, b]


@case("scale")
def _scale(rng):
    a, w = rng.normal(size=(7,)), rng.normal(size=(7,))
    return lambda t, x: weighted_sum(t, t.scale(x, -1.7), w), [a]


@case("matmul")
def _matmul(rng):
    a, b, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    return lambda t, x, y: weighted_sum(t, t.matmul(x, y), w), [a, b]


@case("gather")
def _gather(rng):
    x = rng.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5, 1])
    w = rng.normal(size=(5, 3))
    return lambda t, a: weighted_sum(t, t.gather(a, idx), w), [x]


@case("segment_sum")
def _segsum(rng):
    x = rng.normal(size=(7, 3))
    idx = np.array([0, 1, 1, 3, 0, 3, 3])
    w = rng.normal(size=(4, 3))
    return lambda t, a: weighted_sum(t, t.segment_sum(a, idx, 4), w), [x]


@case("gather_planes")
def _gather_planes(rng):
    x = rng.normal(size=(6, 8))
    idx = np.array([0, 2, 2, 5, 1])
    w = rng.normal(size=(4, 5, 2))
    return lambda t, a: weighted_sum(t, t.gather(a, idx, planes=4), w), [x]


@case("segment_sum_planes")
def _segsum_planes(rng):
    x = rng.normal(size=(2, 7, 3))
    idx = np.array([0, 1, 1, 3, 0, 3, 3])
    w = rng.normal(size=(4, 6))
    return lambda t, a: weighted_sum(t, t.segment_sum(a, idx, 4, planes=2), w), [x]


@case("concat")
def _concat(rng):
    a, b, w = rng.normal(size=(3, 2)), rng.normal(size=(3, 4)), rng.normal(size=(3, 6))
    return lambda t, x, y: weighted_sum(t, t.concat([x, y]), w), [a, b]


@case("slice")
def _slice(rng):
    x, w = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    return lambda t, a: weighted_sum(t, t.slice_cols(a, 1, 4), w), [x]


@case("sum_axis")
def _sum_axis(rng):
    x, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
    return lambda t, a: weighted_sum(t, t.sum_axis(a), w), [x]


@case("abs")
def _abs(rng):
    x = rng.normal(size=(8,))
    x = np.where(np.abs(x) < 0.1, x + 0.5, x)
    w = rng.normal(size=(8,))
    return lambda t, a: weighted_sum(t, t.abs(a), w), [x]


@case("relu")
def _relu(rng):
    x = rng.normal(size=(8,))
    x = np.where(np.abs(x) < 0.1, x + 0.5, x)
    w = rng.normal(size=(8,))
    return lambda t, a: weighted_sum(t, t.relu(a), w), [x]


@case("relu_no_positive_input")
def _relu_dead(rng):
    # its vjp returns None: x gets the zero gradient the differences show
    x = -np.abs(rng.normal(size=(8,))) - 0.1
    w = rng.normal(size=(8,))
    return lambda t, a: weighted_sum(t, t.relu(a), w), [x]


def saturated(rng, shape):
    """Logits near +-1e3, where softmax and sigmoid round to 0 and 1.  Their
    cases take a step of 1e-4: values near 1e3 round 1,000 times coarser
    than values near 1, and the central difference's error is O(step**2)."""
    return np.where(rng.normal(size=shape) < 0.0, -1e3, 1e3) + rng.normal(size=shape)


@case("neg_log_softmax")
def _neg_log_softmax(rng):
    x, w = rng.normal(size=(4, 5)) * 2.0, rng.normal(size=(4, 5))
    return lambda t, a: weighted_sum(t, t.neg_log_softmax(a), w), [x]


@case("neg_log_softmax_saturated", eps=1e-4)
def _neg_log_softmax_saturated(rng):
    x, w = saturated(rng, (4, 5)), rng.normal(size=(4, 5))
    return lambda t, a: weighted_sum(t, t.neg_log_softmax(a), w), [x]


@case("softplus")
def _softplus(rng):
    x, w = rng.normal(size=(8,)) * 2.0, rng.normal(size=(8,))
    return lambda t, a: weighted_sum(t, t.softplus(a), w), [x]


@case("softplus_saturated", eps=1e-4)
def _softplus_saturated(rng):
    x, w = saturated(rng, (8,)), rng.normal(size=(8,))
    return lambda t, a: weighted_sum(t, t.softplus(a), w), [x]


@case("complex_mul")
def _cmul(rng):
    a, b, w = (planes(rng.normal(size=(3, 4, 2))) for _ in range(3))
    return lambda t, x, y: weighted_sum(t, t.complex_mul(x, y), w), [a, b]


@case("quat_mul")
def _qmul(rng):
    a, b, w = (planes(rng.normal(size=(2, 3, 4))) for _ in range(3))
    return lambda t, x, y: weighted_sum(t, t.quat_mul(x, y), w), [a, b]


@case("circular_correlation")
def _corr(rng):
    a, b, w = rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    return lambda t, x, y: weighted_sum(t, t.circular_correlation(x, y), w), [a, b]


@case("unit_project")
def _proj(rng):
    z = rng.normal(size=(5, 2))
    z = z + np.sign(z) * 0.3
    w = rng.normal(size=(5, 2))
    return lambda t, x: weighted_sum(t, t.unit_project(x), planes(w)), [planes(z)]


@case("unit_project_pullback")
def _projpb(rng):
    z = rng.normal(size=(4, 4))
    z = z + np.sign(z) * 0.3
    g = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4))
    return (lambda t, x, y: weighted_sum(t, t.unit_project_pullback(x, y), planes(w)),
            [planes(z), planes(g)])


@case("per_relation_matmul")
def _prm(rng):
    x = rng.normal(size=(6, 3))
    w3 = rng.normal(size=(2, 3, 4))
    rel = np.array([0, 1, 0, 0, 1, 1])
    w = rng.normal(size=(6, 4))
    return lambda t, a, b: weighted_sum(t, t.per_relation_matmul(a, b, rel), w), [x, w3]


def test_neg_log_softmax_and_softplus_values():
    tape = Tape()
    nls = tape.neg_log_softmax(tape.leaf([[0.0, 0.0], [1e3, -1e3]])).value
    assert nls[0, 0] == nls[0, 1] == np.log(2.0)
    assert np.array_equal(nls[1], [0.0, 2e3]) and np.copysign(1.0, nls[1, 0]) == 1.0
    sp = tape.softplus(tape.leaf([0.0, -1e3, 1e3])).value
    assert np.array_equal(sp, [np.log(2.0), 0.0, 1e3])


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    rng = seeded(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(100):
        build, arrays = PRIMITIVE_CASES[name](rng)
        worst = max(worst, directional_error(build, arrays, rng, FD_STEPS[name]))
    assert worst <= 1e-6, f"{name}: worst directional error {worst:.3e}"


def test_second_order_through_pullback():
    # loss built from a gradient-like expression still checks out, i.e. the
    # engine differentiates through unit_project_pullback cleanly
    rng = seeded(77)
    z = planes(rng.normal(size=(3, 2)) + np.array([1.0, 0.0]))
    u = planes(rng.normal(size=(3, 2)))
    w = planes(rng.normal(size=(3, 2)))

    def fn(t, zz, uu):
        msg = t.unit_project_pullback(zz, t.complex_mul(uu, t.unit_project(zz)))
        return weighted_sum(t, msg, w)

    assert finite_diff_check(fn, [z, u]) <= 1e-6


class _KeepingTape(Tape):
    """A Tape that keeps every Variable it records, so each node's value
    stays alive for the vjp contract test."""

    def __init__(self):
        super().__init__()
        self.kept = []

    def _record(self, value, parents=(), vjp=None, name="leaf"):
        self.kept.append(super()._record(value, parents, vjp, name))
        return self.kept[-1]


def _is_view_of(a, g) -> bool:
    while a is not None:
        if a is g:
            return True
        a = a.base
    return False


def test_every_vjp_leaves_g_unwritten_and_returns_views_of_g_or_fresh_arrays():
    # the contract `backward`'s borrowing rests on (see the module docstring)
    checked = set()
    for name in sorted(PRIMITIVE_CASES):
        rng = seeded(zlib.crc32(name.encode()))
        build, arrays = PRIMITIVE_CASES[name](rng)
        tape = _KeepingTape()
        build(tape, *[tape.leaf(a) for a in arrays])
        values = [v.value for v in tape.kept]
        for v in tape.kept:
            node = tape.nodes[v.index]
            if node.vjp is None:
                continue
            g = rng.normal(size=v.shape)
            g.flags.writeable = False
            pgs = node.vjp(g)   # writing g raises
            assert len(pgs) == len(node.parents)
            for j, (pi, pg) in enumerate(zip(node.parents, pgs)):
                if pg is None:   # no gradient passes: only relu, with no positive input
                    assert node.name == "relu" and not (values[pi] > 0).any(), name
                    continue
                assert pg.shape == values[pi].shape, (name, node.name)
                if np.may_share_memory(pg, g):
                    assert _is_view_of(pg, g), (name, node.name)
                    continue
                others = [q for k, q in enumerate(pgs) if k != j] + values
                assert not any(np.may_share_memory(pg, q) for q in others), (name, node.name)
            checked.add(node.name)
    ops = {n for n, f in vars(Tape).items() if callable(f) and not n.startswith("_")}
    ops = {"slice" if n == "slice_cols" else n for n in ops - {"leaf", "backward"}}
    assert ops <= checked, sorted(ops - checked)


# ---------------- scatter kernel (np.add.at is the oracle) ----------------


def add_at_oracle(x, idx, num):
    trailing = x.shape[np.ndim(idx):]
    out = np.zeros((num,) + trailing)
    np.add.at(out, idx, x)
    return out


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# about seven addends per target row, so a different summation order shows
SCATTER_INDICES = {
    "unsorted_repeated": seeded(1).integers(0, 6, 40),
    "empty": np.zeros(0, dtype=np.int64),
    "two_d": seeded(2).integers(0, 6, (5, 8)),
}
SCATTER_TRAILING = {"vector": (), "column": (1,), "matrix": (5,)}


@pytest.mark.parametrize("trailing", sorted(SCATTER_TRAILING))
@pytest.mark.parametrize("kind", sorted(SCATTER_INDICES))
def test_segment_sum_matches_add_at_bitwise(kind, trailing):
    rng = seeded(zlib.crc32(f"{kind}/{trailing}".encode()))
    idx = SCATTER_INDICES[kind]
    num = 6
    x = rng.normal(size=idx.shape + SCATTER_TRAILING[trailing])
    # mixed magnitudes and signed zeros make summation order visible
    x = x * 10.0 ** rng.integers(-8, 9, x.shape)
    x.reshape(-1)[:2] = [-0.0, 0.0][: x.size]
    tape = Tape()
    xv = tape.leaf(x)
    out = tape.segment_sum(xv, idx, num)
    assert bitwise_equal(out.value, add_at_oracle(x, idx, num))
    g = rng.normal(size=out.shape)
    assert bitwise_equal(tape.nodes[out.index].vjp(g)[0], g[idx])


@pytest.mark.parametrize("trailing", sorted(SCATTER_TRAILING))
@pytest.mark.parametrize("kind", sorted(SCATTER_INDICES))
def test_gather_vjp_matches_add_at_bitwise(kind, trailing):
    rng = seeded(zlib.crc32(f"gather/{kind}/{trailing}".encode()))
    idx = SCATTER_INDICES[kind]
    num = 6
    x = rng.normal(size=(num,) + SCATTER_TRAILING[trailing])
    tape = Tape()
    out = tape.gather(tape.leaf(x), idx)
    assert bitwise_equal(out.value, x[idx])
    g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 9, out.shape)
    dx = tape.nodes[out.index].vjp(g)[0]
    assert bitwise_equal(dx, add_at_oracle(g, idx, num))


def test_scatter_cache_serves_equal_results_and_one_entry_per_width():
    rng = seeded(5)
    idx = np.array([4, 1, 1, 0, 4])
    cache: dict = {}
    for width in (3, 1, 3):
        x = rng.normal(size=(5, width))
        tape = Tape()
        out = tape.segment_sum(tape.leaf(x), idx, 6, flat_cache=cache)
        assert bitwise_equal(out.value, add_at_oracle(x, idx, 6))
        g = tape.gather(tape.leaf(rng.normal(size=(6, width))), idx, flat_cache=cache)
        dg = rng.normal(size=g.shape)
        assert bitwise_equal(tape.nodes[g.index].vjp(dg)[0], add_at_oracle(dg, idx, 6))
    assert sorted(cache) == [1, 3]


def interleaved(x):
    """(k, E, d) planes as the interleaved (E, d*k) rows they stand for."""
    k, e, d = x.shape
    return np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(e, d * k)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("kind", ["unsorted_repeated", "empty"])
def test_planar_scatters_match_interleaved_bitwise(kind, k):
    # planes=k is a layout change only: values and vjps are the interleaved
    # path's bytes, signed zeros and summation order included
    rng = seeded(zlib.crc32(f"planes/{kind}/{k}".encode()))
    idx = SCATTER_INDICES[kind]
    num, d = 6, 5
    x = rng.normal(size=(k, idx.size, d)) * 10.0 ** rng.integers(-8, 9, (k, idx.size, d))
    x.reshape(-1)[:4] = [-0.0, 0.0, -0.0, -0.0][: x.size]
    x[:, idx == 3] = -0.0                      # a row of only -0.0 sums to +0.0
    rows = interleaved(x)
    cache: dict = {}
    for _ in range(2):                         # build the positions, then reuse them
        got = autodiff.scatter_add(x, idx, num, cache, planes=k)
        assert bitwise_equal(got, autodiff.scatter_add(rows, idx, num))
        assert bitwise_equal(got, add_at_oracle(rows, idx, num))
    # the k planes share the positions of one plane: the planes=1 entry of width d
    assert list(cache) == [d]
    with numerics.pooled():
        pooled = autodiff.scatter_add(x, idx, num, cache, k)
        assert bitwise_equal(pooled, add_at_oracle(rows, idx, num))
    autodiff.scatter_add(x[0], idx, num, cache)
    assert list(cache) == [d] and cache[d].size == idx.size * d

    tape = Tape()
    out = tape.segment_sum(tape.leaf(x), idx, num, planes=k)
    assert bitwise_equal(out.value, add_at_oracle(rows, idx, num))
    g = rng.normal(size=out.shape)
    g[0] = -0.0
    assert bitwise_equal(interleaved(tape.nodes[out.index].vjp(g)[0]), g[idx])

    table = rng.normal(size=(num, d * k))
    table[1] = -0.0
    gathered = tape.gather(tape.leaf(table), idx, planes=k)
    assert gathered.shape == (k, idx.size, d) and gathered.value.flags.c_contiguous
    assert bitwise_equal(interleaved(gathered.value), table[idx])
    dg = x * 1.0
    assert bitwise_equal(tape.nodes[gathered.index].vjp(dg)[0], add_at_oracle(rows, idx, num))


@pytest.mark.parametrize("bad", [[0, 6, 1], [0, -1, 1]])
def test_scatter_out_of_range_index_raises(bad):
    tape = Tape()
    with pytest.raises(IndexError):
        tape.segment_sum(tape.leaf(np.ones((3, 2))), np.array(bad), 6)
    with pytest.raises(IndexError):
        tape.gather(tape.leaf(np.ones((6, 2))), np.array(bad))


# ---------------- reverse-pass memory ----------------


def test_backward_keeps_only_leaf_gradients():
    rng = seeded(8)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(5, 3)))
    w = tape.leaf(rng.normal(size=(3, 3)))
    h = tape.relu(tape.matmul(tape.gather(x, np.array([0, 2, 2, 4])), w))
    loss = tape.sum(tape.segment_sum(h, np.array([1, 0, 1, 1]), 2))
    grads = tape.backward(loss)
    kept = {i for i, g in enumerate(grads._grads) if g is not None}
    assert kept == {x.index, w.index}
    assert all(tape.nodes[i].vjp is None for i in kept)


def test_backward_drops_the_nodes_recorded_after_the_loss():
    # they never run: backward drops their vjps and parents, and the leaf
    # gradients are those of the tape that never recorded them, bit for bit
    def record(after: bool):
        rng = seeded(21)
        tape = Tape()
        x, w = tape.leaf(rng.normal(size=(4, 3))), tape.leaf(rng.normal(size=(3, 2)))
        h = tape.matmul(tape.gather(x, np.array([0, 3, 1, 3])), w)
        loss = tape.sum(tape.mul(h, tape.relu(h)))
        if after:
            tape.add(h, h)
            tape.scale(tape.matmul(x, w), 3.0)
        return tape, (x, w), loss

    tape, leaves, loss = record(True)
    after = tape.nodes.all[loss.index + 1:]
    assert len(after) == 3 and all(n.vjp is not None and n.parents for n in after)
    grads = tape.backward(loss)
    assert all(n.vjp is None and n.parents == () for n in after)
    ref_tape, ref_leaves, ref_loss = record(False)
    ref = ref_tape.backward(ref_loss)
    assert len(ref_tape.nodes) == loss.index + 1
    for v, r in zip(leaves, ref_leaves):
        assert np.array_equal(grads[v].view(np.int64), ref[r].view(np.int64))


def test_backward_frees_dropped_intermediates_while_tape_and_loss_live():
    # mul's vjp captures h's array, so it outlives its dropped Variable
    # until backward has run the mul, and nothing holds it after that
    tape = Tape()
    x = tape.leaf(np.ones((4, 3)))
    h = tape.scale(x, 2.0)
    probe = weakref.ref(h.value)
    loss = tape.sum(tape.mul(h, h))
    del h
    gc.collect()
    assert probe() is not None
    grads = tape.backward(loss)
    gc.collect()
    assert probe() is None
    assert float(loss.value) == 48.0
    assert np.array_equal(grads[x], np.full((4, 3), 8.0))


SHAPE_ONLY_OPS = {
    "add": lambda t, h, x: t.sum(t.add(h, x)),
    "sub": lambda t, h, x: t.sum(t.sub(x, h)),
    "sum": lambda t, h, x: t.sum(h),
    "sum_axis": lambda t, h, x: t.sum(t.sum_axis(h)),
    "slice_cols": lambda t, h, x: t.sum(t.slice_cols(h, 1, 3)),
}


@pytest.mark.parametrize("op", sorted(SHAPE_ONLY_OPS))
def test_shape_only_vjps_free_their_inputs_after_backward(op):
    tape = Tape()
    x = tape.leaf(np.arange(12.0).reshape(4, 3))
    h = tape.scale(x, 2.0)
    probe = weakref.ref(h.value)
    loss = SHAPE_ONLY_OPS[op](tape, h, x)
    del h
    grads = tape.backward(loss)
    gc.collect()
    assert probe() is None
    assert grads[x].shape == (4, 3)


def test_tape_nodes_hold_values_only_while_something_else_does():
    # a node refers to its value weakly.  relu's vjp keeps only its mask and
    # sum's only a shape, so the matmul and abs arrays go with their
    # Variables; the gathered rows (matmul's vjp) and the relu output (abs's
    # vjp) stay until backward has run the node that captured them
    rng = seeded(8)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(5, 3)))
    w = tape.leaf(rng.normal(size=(3, 3)))
    rows = tape.gather(x, np.array([0, 2, 2, 4]))
    pre = tape.matmul(rows, w)
    loss = tape.sum(tape.abs(tape.relu(pre)))
    assert tape.nodes[pre.index].value is pre.value
    del rows, pre
    names = ["leaf", "leaf", "gather", "matmul", "relu", "abs", "sum"]
    assert len(tape.nodes) == 7
    assert [tape.nodes[i].name for i in range(7)] == names
    assert tape.nodes[3].value is None and tape.nodes[3].vjp is not None
    assert [n.name for n in tape.nodes] == ["leaf", "leaf", "gather", "relu", "sum"]
    assert [n.name for n in tape.nodes[3:]] == ["relu", "sum"]
    tape.backward(loss)
    assert [n.name for n in tape.nodes] == ["leaf", "leaf", "sum"]
    assert all(tape.nodes[i].vjp is None for i in range(7))
    assert loss.value.shape == () and x.value.shape == (5, 3)


def test_backward_consumes_the_tape_and_frees_captured_edge_arrays():
    # mul's vjp keeps the rows the edges were gathered from, not the edge
    # array, so the edge array is gone once the Variable is dropped
    tape = Tape()
    x = tape.leaf(np.arange(12.0).reshape(4, 3))
    edges = tape.gather(x, np.array([0, 3, 3, 1, 2]))
    w = tape.leaf(np.full((5, 3), 0.5))
    loss = tape.sum(tape.mul(edges, w))
    probe = weakref.ref(edges.value)
    gather_node = tape.nodes[edges.index]
    del edges
    seen = []
    inner = gather_node.vjp

    def vjp(g):
        gc.collect()
        seen.append(probe())
        return inner(g)

    gather_node.vjp = vjp
    grads = tape.backward(loss)
    assert seen == [None]
    assert all(tape.nodes[i].vjp is None and tape.nodes[i].parents == ()
               for i in range(len(tape.nodes)))
    assert np.array_equal(grads[x], np.array([[0.5] * 3, [0.5] * 3, [0.5] * 3, [1.0] * 3]))


W_PER_REL = np.linspace(-1.0, 1.0, 18).reshape(3, 3, 2)
GATHERED_OPS = {   # planes, op on gathered a and b
    "mul": (1, lambda t, a, b: t.mul(a, b)),
    "complex_mul": (2, lambda t, a, b: t.complex_mul(a, b, conj_b=True)),
    "quat_mul": (4, lambda t, a, b: t.quat_mul(a, b, conj_p=True)),
    "circular_correlation": (1, lambda t, a, b: t.circular_correlation(a, b)),
    "per_relation_matmul": (1, lambda t, a, b: t.per_relation_matmul(
        a, t.leaf(W_PER_REL), np.array([0, 2, 1, 1, 0, 2, 2]))),
    "unit_project": (4, lambda t, a, b: t.quat_mul(t.unit_project(a), b)),
    "unit_project_pullback": (2, lambda t, a, b: t.unit_project_pullback(a, b)),
}


@pytest.mark.parametrize("op", sorted(GATHERED_OPS))
def test_vjps_take_gathered_operands_again_from_their_rows(op):
    # the gathered arrays go with their Variables, and the gradients are
    # bitwise those of vjps that captured the arrays (a gather whose result
    # keeps no rows); row 2 of `a` holds tuples the projections reset
    k, build = GATHERED_OPS[op]
    rng = seeded(5)
    tables = [rng.normal(size=(6, 3 * k)), rng.normal(size=(5, 3 * k))]
    tables[0][2] = 0.0
    ia, ib = np.array([0, 2, 5, 2, 1, 3, 3]), np.array([4, 0, 1, 1, 3, 2, 0])
    grads = []
    for keep_rows in (True, False):
        tape = Tape()
        a, b = tape.leaf(tables[0]), tape.leaf(tables[1])
        ga, gb = tape.gather(a, ia, planes=k), tape.gather(b, ib, planes=k)
        if not keep_rows:
            ga.rows = gb.rows = None
        out = build(tape, ga, gb)
        probes = [weakref.ref(ga.value), weakref.ref(gb.value)]
        del ga, gb
        assert all(p() is None for p in probes) if keep_rows else probes[0]() is not None
        w = np.cos(np.arange(out.value.size)).reshape(out.shape)
        g = tape.backward(tape.sum(tape.mul(out, tape.leaf(w))))
        grads.append([g[a], g[b]])
    for got, want in zip(*grads):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


RECIPE_OPS = {   # planes, op on gathered a and b whose result carries a Product
    "sub": (2, lambda t, a, b: t.sub(a, b)),
    "scale": (4, lambda t, a, b: t.scale(a, -2.0)),
    "complex_mul": (2, lambda t, a, b: t.complex_mul(a, b)),
    "complex_mul_conj": (2, lambda t, a, b: t.complex_mul(a, b, conj_b=True)),
    **{f"quat_mul_{cp:d}{cq:d}": (4, lambda t, a, b, cp=cp, cq=cq: t.quat_mul(a, b, cp, cq))
       for cp in (False, True) for cq in (False, True)},
    "quate_ghat_of_projection": (4, lambda t, a, b: t.quat_mul(a, t.unit_project(b), True)),
    "rotate_ghat": (2, lambda t, a, b: t.scale(t.complex_mul(
        t.sub(t.complex_mul(a, t.unit_project(b)), b), a, conj_b=True), -2.0)),
}


@pytest.mark.parametrize("op", sorted(RECIPE_OPS))
def test_product_recipes_rebuild_the_forward_value_bitwise(op):
    # a vjp that reads a product of gathered rows rebuilds it from its
    # recipe; signed zeros and tuples of only -0.0 (reset by the
    # projections) must come back as the forward pass wrote them
    k, build = RECIPE_OPS[op]
    rng = seeded(zlib.crc32(f"recipe/{op}".encode()))
    tables = [rng.normal(size=(6, 3 * k)) * 10.0 ** rng.integers(-8, 9, (6, 3 * k)),
              rng.normal(size=(5, 3 * k))]
    tables[0][2] = -0.0
    tables[1][1] = np.where(np.arange(3 * k) % 2, -0.0, 0.0)
    tables[1][3, :k] = -0.0
    tape = Tape()
    ia, ib = np.array([0, 2, 5, 2, 1, 3, 3]), np.array([4, 0, 1, 1, 3, 2, 0])
    ga = tape.gather(tape.leaf(tables[0]), ia, planes=k)
    gb = tape.gather(tape.leaf(tables[1]), ib, planes=k)
    out = build(tape, ga, gb)
    assert isinstance(out.rows, autodiff.Recipe)
    for scope in (nullcontext, numerics.pooled):
        with scope():
            assert bitwise_equal(out.rows.build(), out.value)
    # one operand without a recipe: the result keeps none either
    ga.rows = None
    assert build(tape, ga, gb).rows is None


def test_tape_without_backward_is_freed_by_reference_counting():
    # neither vjps nor Variables hold the tape, so no reference cycle keeps
    # a tape that never runs backward (as in finite-difference probes)
    gc.disable()
    try:
        for scope in (nullcontext, numerics.pooled):
            with scope():
                tape = Tape()
                x = tape.leaf(np.ones((40, 30)))
                tape.sum(tape.abs(tape.relu(tape.scale(tape.sub(x, tape.mul(x, x)), 2.0))))
                probe = weakref.ref(tape)
                del tape, x
                assert probe() is None
    finally:
        gc.enable()


def test_buffer_pool_hands_out_only_arrays_nothing_holds():
    pool = BufferPool()
    a = pool.empty((64, 32))
    view = a[1:]
    b = pool.empty((32, 64))               # same element count, a still held
    assert not np.may_share_memory(a, b)
    del a
    c = pool.empty((2048,))                # a's array is held through its view
    assert not np.may_share_memory(view, c)
    del b, view
    d = pool.empty((16, 128))
    assert d.shape == (16, 128) and d.flags.c_contiguous
    assert len(pool.held()) == 2           # c and d; nothing new was made
    del c, d
    assert pool.held() == []
    small = pool.empty((3, 4))             # below MIN_SIZE: a plain array
    assert small.base is None and pool.held() == []


def _pooled_net(tape, xa, wa, idx):
    x, w = tape.leaf(xa), tape.leaf(wa)
    h = tape.relu(tape.matmul(tape.gather(x, idx), w))
    m = tape.segment_sum(tape.sub(tape.add(h, h), tape.scale(h, 0.5)), idx, len(xa))
    return x, w, tape.sum(tape.abs(tape.mul(m, m)))


def test_pooled_tape_is_bitwise_a_plain_tape():
    rng = seeded(12)
    xa, wa = rng.normal(size=(40, 32)), rng.normal(size=(32, 32))
    idx = rng.integers(0, 40, 200)
    tape0 = Tape()
    x0, w0, loss0 = _pooled_net(tape0, xa, wa, idx)
    want = tape0.backward(loss0)
    with numerics.pooled() as pool:
        for _ in range(3):                 # later tapes reuse the pool's arrays
            tape = Tape()
            x, w, loss = _pooled_net(tape, xa, wa, idx)
            assert pool.held()             # the vjps hold pooled arrays
            got = tape.backward(loss)
            assert bitwise_equal(loss.value, loss0.value)
            assert bitwise_equal(got[x], want[x]) and bitwise_equal(got[w], want[w])
            del tape, x, w, loss, got
            assert pool.held() == []


def test_pool_never_recycles_a_leaf_gradient_still_held():
    # add hands its incoming gradient itself to its first parent, here a
    # leaf, so the GradientMap holds a pooled array after backward
    with numerics.pooled() as pool:
        tape = Tape()
        x = tape.leaf(np.ones((64, 32)))
        loss = tape.sum(tape.add(x, tape.leaf(np.zeros((64, 32)))))
        grads = tape.backward(loss)
        gx = grads[x]
        want = gx.copy()
        assert any(np.may_share_memory(gx, a) for a in pool.held())
        for _ in range(4):
            other = Tape()
            y = other.leaf(np.full((64, 32), 7.0))
            outs = [other.scale(y, 3.0), other.add(y, y), other.mul(y, y)]
            assert not any(np.may_share_memory(gx, o.value) for o in outs)
        assert bitwise_equal(gx, want)


# ---------------- forward-only tape ----------------


def _small_net(tape, xa, wa):
    x, w = tape.leaf(xa), tape.leaf(wa)
    h = tape.relu(tape.matmul(tape.gather(x, np.array([0, 2, 2, 4])), w))
    return tape.segment_sum(tape.mul(h, h), np.array([1, 0, 1, 1]), 2)


def test_forward_tape_values_equal_tape_bitwise():
    rng = seeded(9)
    xa, wa = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
    want = _small_net(Tape(), xa, wa).value
    got = _small_net(ForwardTape(), xa, wa).value
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_forward_tape_frees_dropped_intermediates():
    tape = ForwardTape()
    x = tape.leaf(np.ones((4, 2)))
    h = tape.scale(x, 2.0)
    out = tape.add(h, x)
    assert len(tape.nodes) == 3 and tape.nodes[h.index].value is h.value
    probe = weakref.ref(h.value)
    del h
    gc.collect()
    assert probe() is None
    assert tape.nodes[1].name == "scale" and tape.nodes[1].value is None
    live = tape.nodes[0:]
    assert len(live) == 2 and live[0].value is x.value and live[1].value is out.value
    assert all(tape.nodes[i].vjp is None and tape.nodes[i].parents == () for i in range(3))
    with pytest.raises(TypeError):
        tape.backward(tape.sum(out))
