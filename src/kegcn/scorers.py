"""Knowledge-embedding scoring functions with analytic gradients.

Each scorer provides three things: a scalar score over one (head,
relation, tail) embedding triple, closed-form gradients of that score
with respect to each argument, and `messages`, the same gradients built
as a tape expression over batched edge arrays so training can
differentiate through them.  The closed forms and the tape expressions
are maintained as separate derivations on purpose; tests cross-check
them against each other and against finite differences.

Width conventions for base dimension d:

    TransE    entity d    relation d
    DistMult  entity d    relation d
    TransH    entity d    relation 2d   (r = [normal ; translation])
    TransD    entity 2d   relation 2d   (x = [embedding ; projector])
    RotatE    entity 2d   relation 2d   (d complex pairs)
    QuatE     entity 4d   relation 4d   (d quaternions)

RotatE relation entries are projected to unit modulus before use
(reset to 1+0i below 1e-12); QuatE relation quaternions are likewise
normalized (fallback (1,0,0,0)).  Gradients are taken with respect to
the stored, unprojected coordinates.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .numerics import DimensionError


def _check(vec: np.ndarray, width: int, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != width:
        raise DimensionError(f"{name} must have width {width}, got shape {vec.shape}")
    return vec


class Scorer:
    kind = "?"

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"base dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    @property
    def entity_width(self) -> int:
        raise NotImplementedError

    @property
    def relation_width(self) -> int:
        raise NotImplementedError

    def _args(self, u, r, v):
        return (
            _check(u, self.entity_width, "head"),
            _check(r, self.relation_width, "relation"),
            _check(v, self.entity_width, "tail"),
        )

    def score(self, u, r, v) -> float:
        raise NotImplementedError

    def grad_head(self, u, r, v) -> np.ndarray:
        raise NotImplementedError

    def grad_rel(self, u, r, v) -> np.ndarray:
        raise NotImplementedError

    def grad_tail(self, u, r, v) -> np.ndarray:
        raise NotImplementedError

    def messages(self, tape, U, R, V):
        """Batched (grad_head, grad_rel, grad_tail) as tape Variables.

        U, V: (E, entity_width); R: (E, relation_width).
        """
        raise NotImplementedError


class TransE(Scorer):
    kind = "transe"

    @property
    def entity_width(self):
        return self.dim

    @property
    def relation_width(self):
        return self.dim

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        e = u + r - v
        return -float(np.sum(e * e))

    def grad_head(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return -2.0 * (u + r - v)

    def grad_rel(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return -2.0 * (u + r - v)

    def grad_tail(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return 2.0 * (u + r - v)

    def messages(self, tape, U, R, V):
        e = tape.sub(tape.add(U, R), V)
        return tape.scale(e, -2.0), tape.scale(e, -2.0), tape.scale(e, 2.0)


class DistMult(Scorer):
    kind = "distmult"

    @property
    def entity_width(self):
        return self.dim

    @property
    def relation_width(self):
        return self.dim

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        # r * (u * v) keeps the float sequence symmetric in u and v
        return float(np.sum(r * (u * v)))

    def grad_head(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return r * v

    def grad_rel(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return u * v

    def grad_tail(self, u, r, v):
        u, r, v = self._args(u, r, v)
        return u * r

    def messages(self, tape, U, R, V):
        return tape.mul(R, V), tape.mul(U, V), tape.mul(U, R)


class TransH(Scorer):
    kind = "transh"

    @property
    def entity_width(self):
        return self.dim

    @property
    def relation_width(self):
        return 2 * self.dim

    def _parts(self, u, r, v):
        u, r, v = self._args(u, r, v)
        r1, r2 = r[: self.dim], r[self.dim :]
        uproj = u - np.dot(r1, u) * r1
        vproj = v - np.dot(r1, v) * r1
        e = uproj + r2 - vproj
        return u, v, r1, r2, e

    def score(self, u, r, v):
        _, _, _, _, e = self._parts(u, r, v)
        return -float(np.sum(e * e))

    def grad_head(self, u, r, v):
        _, _, r1, _, e = self._parts(u, r, v)
        return -2.0 * (e - np.dot(r1, e) * r1)

    def grad_tail(self, u, r, v):
        _, _, r1, _, e = self._parts(u, r, v)
        return 2.0 * (e - np.dot(r1, e) * r1)

    def grad_rel(self, u, r, v):
        u, v, r1, _, e = self._parts(u, r, v)
        duv = v - u
        g1 = -2.0 * (np.dot(r1, e) * duv + np.dot(r1, duv) * e)
        g2 = -2.0 * e
        return np.concatenate([g1, g2])

    def messages(self, tape, U, R, V):
        d = self.dim
        r1 = tape.slice_cols(R, 0, d)
        r2 = tape.slice_cols(R, d, 2 * d)
        pu = tape.sum_axis(tape.mul(r1, U))
        pv = tape.sum_axis(tape.mul(r1, V))
        uproj = tape.sub(U, tape.mul(pu, r1))
        vproj = tape.sub(V, tape.mul(pv, r1))
        e = tape.sub(tape.add(uproj, r2), vproj)
        pe = tape.sum_axis(tape.mul(r1, e))
        t = tape.sub(e, tape.mul(pe, r1))
        gh = tape.scale(t, -2.0)
        gt = tape.scale(t, 2.0)
        duv = tape.sub(V, U)
        pduv = tape.sum_axis(tape.mul(r1, duv))
        g1 = tape.scale(tape.add(tape.mul(pe, duv), tape.mul(pduv, e)), -2.0)
        g2 = tape.scale(e, -2.0)
        return gh, tape.concat([g1, g2]), gt


class TransD(Scorer):
    kind = "transd"

    @property
    def entity_width(self):
        return 2 * self.dim

    @property
    def relation_width(self):
        return 2 * self.dim

    def _parts(self, u, r, v):
        u, r, v = self._args(u, r, v)
        d = self.dim
        u1, u2 = u[:d], u[d:]
        v1, v2 = v[:d], v[d:]
        r1, r2 = r[:d], r[d:]
        au = np.dot(u2, u1)
        av = np.dot(v2, v1)
        e = u1 + au * r1 + r2 - v1 + av * r1
        return u1, u2, v1, v2, r1, r2, au, av, e

    def score(self, u, r, v):
        e = self._parts(u, r, v)[-1]
        return -float(np.sum(e * e))

    def grad_head(self, u, r, v):
        u1, u2, _, _, r1, _, _, _, e = self._parts(u, r, v)
        pe = np.dot(r1, e)
        return np.concatenate([-2.0 * (e + pe * u2), -2.0 * pe * u1])

    def grad_tail(self, u, r, v):
        _, _, v1, v2, r1, _, _, _, e = self._parts(u, r, v)
        pe = np.dot(r1, e)
        return np.concatenate([2.0 * (e - pe * v2), -2.0 * pe * v1])

    def grad_rel(self, u, r, v):
        _, _, _, _, _, _, au, av, e = self._parts(u, r, v)
        return np.concatenate([-2.0 * (au + av) * e, -2.0 * e])

    def messages(self, tape, U, R, V):
        d = self.dim
        u1 = tape.slice_cols(U, 0, d)
        u2 = tape.slice_cols(U, d, 2 * d)
        v1 = tape.slice_cols(V, 0, d)
        v2 = tape.slice_cols(V, d, 2 * d)
        r1 = tape.slice_cols(R, 0, d)
        r2 = tape.slice_cols(R, d, 2 * d)
        au = tape.sum_axis(tape.mul(u2, u1))
        av = tape.sum_axis(tape.mul(v2, v1))
        e = tape.add(
            tape.sub(tape.add(tape.add(u1, tape.mul(au, r1)), r2), v1),
            tape.mul(av, r1),
        )
        pe = tape.sum_axis(tape.mul(r1, e))
        gh = tape.concat(
            [
                tape.scale(tape.add(e, tape.mul(pe, u2)), -2.0),
                tape.scale(tape.mul(pe, u1), -2.0),
            ]
        )
        gt = tape.concat(
            [
                tape.scale(tape.sub(e, tape.mul(pe, v2)), 2.0),
                tape.scale(tape.mul(pe, v1), -2.0),
            ]
        )
        gr = tape.concat(
            [
                tape.scale(tape.mul(tape.add(au, av), e), -2.0),
                tape.scale(e, -2.0),
            ]
        )
        return gh, gr, gt


class RotatE(Scorer):
    kind = "rotate"

    @property
    def entity_width(self):
        return 2 * self.dim

    @property
    def relation_width(self):
        return 2 * self.dim

    def _parts(self, u, r, v):
        u, r, v = self._args(u, r, v)
        d = self.dim
        uc = u.reshape(d, 2)
        rc = r.reshape(d, 2)
        vc = v.reshape(d, 2)
        rhat = numerics.unit_project(rc)
        w = numerics.complex_elementwise_product(uc, rhat) - vc
        return uc, rc, vc, rhat, w

    def score(self, u, r, v):
        w = self._parts(u, r, v)[-1]
        return -float(np.sum(w * w))

    def grad_head(self, u, r, v):
        _, _, _, rhat, w = self._parts(u, r, v)
        g = -2.0 * numerics.complex_elementwise_product(w, numerics.complex_conjugate(rhat))
        return g.reshape(-1)

    def grad_tail(self, u, r, v):
        w = self._parts(u, r, v)[-1]
        return (2.0 * w).reshape(-1)

    def grad_rel(self, u, r, v):
        uc, rc, _, _, w = self._parts(u, r, v)
        ghat = -2.0 * numerics.complex_elementwise_product(w, numerics.complex_conjugate(uc))
        return numerics.unit_project_pullback(rc, ghat).reshape(-1)

    def messages(self, tape, U, R, V):
        d = self.dim
        n = U.shape[0]
        u3 = tape.reshape(U, (n, d, 2))
        r3 = tape.reshape(R, (n, d, 2))
        v3 = tape.reshape(V, (n, d, 2))
        p = tape.unit_project(r3)
        w = tape.sub(tape.complex_mul(u3, p), v3)
        gt = tape.reshape(tape.scale(w, 2.0), (n, 2 * d))
        gh = tape.reshape(tape.scale(tape.complex_mul(w, p, conj_b=True), -2.0), (n, 2 * d))
        ghat = tape.scale(tape.complex_mul(w, u3, conj_b=True), -2.0)
        gr = tape.reshape(tape.unit_project_pullback(r3, ghat), (n, 2 * d))
        return gh, gr, gt


class QuatE(Scorer):
    kind = "quate"

    @property
    def entity_width(self):
        return 4 * self.dim

    @property
    def relation_width(self):
        return 4 * self.dim

    def _parts(self, u, r, v):
        u, r, v = self._args(u, r, v)
        d = self.dim
        uq = u.reshape(d, 4)
        rq = r.reshape(d, 4)
        vq = v.reshape(d, 4)
        rhat = numerics.unit_project(rq)
        return uq, rq, vq, rhat

    def score(self, u, r, v):
        uq, _, vq, rhat = self._parts(u, r, v)
        return float(np.sum(numerics.hamilton_product(uq, rhat) * vq))

    def grad_tail(self, u, r, v):
        uq, _, _, rhat = self._parts(u, r, v)
        return numerics.hamilton_product(uq, rhat).reshape(-1)

    def grad_head(self, u, r, v):
        _, _, vq, rhat = self._parts(u, r, v)
        return numerics.hamilton_product(vq, numerics.quaternion_conjugate(rhat)).reshape(-1)

    def grad_rel(self, u, r, v):
        uq, rq, vq, _ = self._parts(u, r, v)
        ghat = numerics.hamilton_product(numerics.quaternion_conjugate(uq), vq)
        return numerics.unit_project_pullback(rq, ghat).reshape(-1)

    def messages(self, tape, U, R, V):
        d = self.dim
        n = U.shape[0]
        u4 = tape.reshape(U, (n, d, 4))
        r4 = tape.reshape(R, (n, d, 4))
        v4 = tape.reshape(V, (n, d, 4))
        p = tape.unit_project(r4)
        gt = tape.reshape(tape.quat_mul(u4, p), (n, 4 * d))
        gh = tape.reshape(tape.quat_mul(v4, p, conj_q=True), (n, 4 * d))
        ghat = tape.quat_mul(u4, v4, conj_p=True)
        gr = tape.reshape(tape.unit_project_pullback(r4, ghat), (n, 4 * d))
        return gh, gr, gt


SCORERS = {
    "transe": TransE,
    "distmult": DistMult,
    "transh": TransH,
    "transd": TransD,
    "rotate": RotatE,
    "quate": QuatE,
}

# entity width as a multiple of the scorer's base dimension d
ENTITY_MULT = {
    "transe": 1,
    "distmult": 1,
    "transh": 1,
    "transd": 2,
    "rotate": 2,
    "quate": 4,
}


def make_scorer(kind: str, dim: int) -> Scorer:
    if kind not in SCORERS:
        raise ValueError(f"unknown scorer {kind!r}; expected one of {sorted(SCORERS)}")
    return SCORERS[kind](dim)


def base_dim(kind: str, width: int) -> int:
    """Base dimension d for an entity-embedding width.

    The configured hidden dimension is the entity width; scorers whose
    entities are concatenations (TransD pairs, RotatE complex pairs,
    QuatE quadruples) split it into d components.
    """
    if kind not in SCORERS:
        raise ValueError(f"unknown scorer {kind!r}; expected one of {sorted(SCORERS)}")
    mult = ENTITY_MULT[kind]
    if width % mult:
        raise ValueError(
            f"dim {width} is not a multiple of {mult} required by scorer {kind!r}")
    return width // mult
