import numpy as np
import pytest

from kegcn.autodiff import Tape
from kegcn.checks import message_gradients, scorer_gradient_fd
from kegcn.numerics import DimensionError, seeded, unit_project
from kegcn.scorers import SCORERS, base_dim, make_scorer
from scorer_oracle import gradients

ALL_KINDS = sorted(SCORERS)


def to_planes(x, k):
    """Interleaved (n, d*k) rows as the (k, n, d) planes that `messages`
    of a k > 1 scorer takes."""
    return x if k == 1 else np.ascontiguousarray(x.reshape(len(x), -1, k).transpose(2, 0, 1))


def from_planes(x, k):
    return x if k == 1 else x.transpose(1, 2, 0).reshape(x.shape[1], -1)


def test_transe_scores():
    s = make_scorer("transe", 2)
    assert s.score([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]) == 0.0
    assert s.score([1.0, 2.0], [1.0, 1.0], [0.0, 0.0]) == -13.0


def test_distmult_score():
    s = make_scorer("distmult", 2)
    assert s.score([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]) == 63.0


def test_rotate_score_rotation_by_i():
    s = make_scorer("rotate", 1)
    assert s.score([1.0, 0.0], [0.0, 1.0], [0.0, 1.0]) == 0.0


def test_quate_identity_rotation():
    s = make_scorer("quate", 1)
    u = [0.5, 0.5, 0.5, 0.5]
    assert s.score(u, [1.0, 0.0, 0.0, 0.0], u) == 1.0


def test_transh_projection_annihilates():
    s = make_scorer("transh", 1)
    for u, v in [([3.0], [7.0]), ([-1.0], [0.25])]:
        assert s.score(u, [1.0, 2.0], v) == pytest.approx(-4.0, abs=1e-12)


def test_transe_gradients_hand():
    s = make_scorer("transe", 2)
    u, r, v = np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
    for grads in (message_gradients(s, u, r, v), gradients(s, u, r, v)):
        gh, gr, gt = grads
        assert np.array_equal(gt, [4.0, 6.0])
        assert np.array_equal(gh, [-4.0, -6.0])
        assert np.array_equal(gr, [-4.0, -6.0])


def test_transe_zero_point_zero_grads():
    s = make_scorer("transe", 3)
    z = np.zeros(3)
    for grads in (message_gradients(s, z, z, z), gradients(s, z, z, z)):
        for g in grads:
            assert np.array_equal(g, z)


def test_distmult_grad_rel_hand():
    s = make_scorer("distmult", 2)
    u, r, v = np.array([[1.0, 2.0], [0.0, 0.0], [5.0, 6.0]])
    assert np.array_equal(message_gradients(s, u, r, v)[1], [5.0, 12.0])
    assert np.array_equal(gradients(s, u, r, v)[1], [5.0, 12.0])


def test_width_mismatch():
    s = make_scorer("transh", 3)
    with pytest.raises(DimensionError):
        s.score(np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionError):
        s.score(np.zeros(6), np.zeros(6), np.zeros(6))
    with pytest.raises(ValueError):
        make_scorer("ntn", 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    worst = scorer_gradient_fd(kind, n_points=30, seed=5)
    assert worst <= 1e-6, f"{kind}: worst fd error {worst:.3e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tape_messages_match_closed_forms(kind):
    scorer = make_scorer(kind, 3)
    rng = seeded(41)
    n = 100
    U = rng.normal(size=(n, scorer.entity_width))
    R = rng.normal(size=(n, scorer.relation_width))
    V = rng.normal(size=(n, scorer.entity_width))
    k = scorer.planes
    if k > 1:
        R += 0.4 * np.sign(R.reshape(n, -1, k)).reshape(n, -1)
    tape = Tape()
    out = scorer.gradients(tape, *(tape.leaf(to_planes(x, k)) for x in (U, R, V)))
    gh, gr, gt = (from_planes(o.value, k) for o in out)
    for e in range(n):
        for got, want in zip((gh, gr, gt), gradients(scorer, U[e], R[e], V[e])):
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got[e] - want) <= 1e-10 * scale), (kind, e)


def test_distmult_tape_messages_bitwise():
    scorer = make_scorer("distmult", 5)
    rng = seeded(43)
    U, R, V = rng.normal(size=(3, 20, 5))
    tape = Tape()
    gh, gr, gt = scorer.messages(tape, tape.leaf(U), tape.leaf(R), tape.leaf(V))
    assert np.array_equal(gh.value, R * V)
    assert np.array_equal(gr.value, U * V)
    assert np.array_equal(gt.value, U * R)


def test_transe_message_vjp_is_minus_two_g():
    # L = <gt, g>; dL/dV = -2 g because the tail message gt = 2(U + R - V)
    scorer = make_scorer("transe", 4)
    rng = seeded(47)
    U, R, V = rng.normal(size=(3, 6, 4))
    g = rng.normal(size=(6, 4))
    tape = Tape()
    vU, vR, vV = tape.leaf(U), tape.leaf(R), tape.leaf(V)
    _, _, gt = scorer.gradients(tape, vU, vR, vV)
    loss = tape.sum(tape.mul(gt, tape.leaf(g)))
    grads = tape.backward(loss)
    assert np.allclose(grads[vV], -2.0 * g, atol=1e-12)


def test_transe_sends_one_edge_term_for_its_factors():
    # the layer applies -2, -2 and 2 once per summed row; the edge term is
    # e = U + R - V for all three directions, recorded once
    scorer = make_scorer("transe", 4)
    U, R, V = seeded(48).normal(size=(3, 6, 4))
    tape = Tape()
    gh, gr, gt = scorer.messages(tape, tape.leaf(U), tape.leaf(R), tape.leaf(V))
    assert scorer.factors == (-2, -2, 2) and gh is gr is gt
    assert np.array_equal(gh.value, U + R - V)
    assert scorer.messages(tape, tape.leaf(U), tape.leaf(R), tape.leaf(V), False)[1] is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_are_messages_times_factors_bitwise(kind):
    scorer = make_scorer(kind, 3)
    rng = seeded(49)
    U, V = rng.normal(size=(2, 10, scorer.entity_width))
    R = rng.normal(size=(10, scorer.relation_width))
    k = scorer.planes
    tape = Tape()
    rows = [tape.leaf(to_planes(x, k)) for x in (U, R, V)]
    for f, m, g in zip(scorer.factors, scorer.messages(tape, *rows),
                       scorer.gradients(tape, *rows)):
        assert np.array_equal(g.value, f * m.value)


def test_transe_translation_invariance():
    s = make_scorer("transe", 6)
    rng = seeded(53)
    for _ in range(20):
        u, v = rng.normal(size=(2, 6))
        r = rng.normal(size=6)
        c = rng.normal(size=6)
        a = s.score(u, r, v)
        b = s.score(u + c, r, v + c)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_distmult_symmetry_bitwise():
    s = make_scorer("distmult", 8)
    rng = seeded(59)
    for _ in range(20):
        u, r, v = rng.normal(size=(3, 8))
        assert s.score(u, r, v) == s.score(v, r, u)


def test_rotate_phase_invariance():
    s = make_scorer("rotate", 4)
    rng = seeded(61)
    for _ in range(20):
        u, r, v = rng.normal(size=(3, 8))
        theta = float(rng.normal(size=1)[0])
        phase = np.array([np.cos(theta), np.sin(theta)])
        from kegcn.numerics import complex_elementwise_product

        rot = np.broadcast_to(phase, (4, 2)).T
        up = complex_elementwise_product(u.reshape(4, 2).T, rot).T.reshape(-1)
        vp = complex_elementwise_product(v.reshape(4, 2).T, rot).T.reshape(-1)
        a = s.score(u, r, v)
        b = s.score(up, r, vp)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_rotate_nonpositive_and_zero_iff_exact():
    s = make_scorer("rotate", 3)
    rng = seeded(67)
    from kegcn.numerics import complex_elementwise_product

    for _ in range(20):
        u, r, v = rng.normal(size=(3, 6))
        assert s.score(u, r, v) <= 0.0
        rhat = unit_project(r.reshape(3, 2).T)
        v_exact = complex_elementwise_product(u.reshape(3, 2).T, rhat).T.reshape(-1)
        assert abs(s.score(u, r, v_exact)) <= 1e-12


def test_quate_identity_relation_is_inner_product():
    s = make_scorer("quate", 3)
    rng = seeded(71)
    ident = np.tile([1.0, 0.0, 0.0, 0.0], 3)
    for _ in range(20):
        u, v = rng.normal(size=(2, 12))
        a = s.score(u, ident, v)
        b = float(np.dot(u, v))
        assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_width_conventions(kind):
    d = 5
    s = make_scorer(kind, d)
    ew = {"transe": d, "distmult": d, "transh": d, "transd": 2 * d,
          "rotate": 2 * d, "quate": 4 * d}[kind]
    rw = {"transe": d, "distmult": d, "transh": 2 * d, "transd": 2 * d,
          "rotate": 2 * d, "quate": 4 * d}[kind]
    assert s.entity_width == ew and s.relation_width == rw
    assert s.widths == (ew // d, rw // d)
    assert base_dim(kind, ew) == d
    if ew // d > 1:
        with pytest.raises(ValueError, match="not a multiple"):
            base_dim(kind, ew + 1)
    with pytest.raises(ValueError, match="unknown scorer"):
        base_dim("ntn", ew)
