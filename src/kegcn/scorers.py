"""Knowledge-embedding scoring functions and their gradients.

Each scorer provides two things: a scalar score over one (head,
relation, tail) embedding triple, and `messages`, the gradients of that
score with respect to each argument over its power-of-two `factors`, as
tape expressions over batched edge arrays so training can differentiate
through them.  TransE (-2, -2, 2), TransH (-2, -2, 2) and TransD (-2,
-2, -2) scale no edge message: the layer applies their factors per row.
The others have (1, 1, 1).  `checks.scorer_gradient_fd` runs
`gradients` on a one-row tape against finite differences of `score`;
the tests also compare it with closed forms derived separately.

Widths for base dimension d (`widths` holds the multiples of d):

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

RotatE and QuatE vectors are stored as d interleaved tuples of
k = `planes` = 2 or 4 components.  Their `messages` take and return
(k, E, d) component planes (see `numerics`), which `Tape.gather` and
`Tape.segment_sum` with planes=k convert from and to.  Their `score`
runs the kernels on (k, d) views of one vector, then sums the contiguous
interleaved (d, k) array, so np.sum adds in stored order.
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


def _interleaved(x: np.ndarray) -> np.ndarray:
    """Contiguous (d, k) tuples of (k, d) planes."""
    return np.ascontiguousarray(x.T)


class Scorer:
    kind = "?"
    planes = 1
    widths: tuple   # (entity, relation) width as multiples of d
    factors = (1, 1, 1)   # gradient / message (head, relation, tail); head = +-tail

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"base dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.entity_width, self.relation_width = (m * self.dim for m in self.widths)

    def _args(self, u, r, v):
        return (
            _check(u, self.entity_width, "head"),
            _check(r, self.relation_width, "relation"),
            _check(v, self.entity_width, "tail"),
        )

    def score(self, u, r, v) -> float:
        raise NotImplementedError

    def gradients(self, tape, U, R, V, relation=True):
        """The score's gradients: `messages` times `factors`."""
        return tuple(g if g is None or f == 1 else tape.scale(g, float(f))
                     for g, f in zip(self.messages(tape, U, R, V, relation), self.factors))

    def messages(self, tape, U, R, V, relation=True):
        """Batched gradients of the score with respect to head, relation
        and tail, each divided by its entry of `factors`, as tape
        Variables; the relation message is None, and not recorded, unless
        `relation`.

        U, V: (E, entity_width); R: (E, relation_width); or, when
        planes = k > 1, all six are (k, E, d) component planes.  When R is
        gathered, the projection ops compute its unit parts once per
        relation row (see Tape.unit_project), and the vjps rebuild the
        products of gathered rows they read (QuatE's ghat, RotatE's w)
        instead of keeping them (see autodiff's Value lifetime).
        """
        raise NotImplementedError


class TransE(Scorer):
    kind = "transe"
    widths = (1, 1)
    factors = (-2, -2, 2)

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        e = u + r - v
        return -float(np.sum(e * e))

    def messages(self, tape, U, R, V, relation=True):
        e = tape.sub(tape.add(U, R), V)
        return e, e if relation else None, e


class DistMult(Scorer):
    kind = "distmult"
    widths = (1, 1)

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        # r * (u * v) keeps the float sequence symmetric in u and v
        return float(np.sum(r * (u * v)))

    def messages(self, tape, U, R, V, relation=True):
        return tape.mul(R, V), tape.mul(U, V) if relation else None, tape.mul(U, R)


class TransH(Scorer):
    kind = "transh"
    widths = (1, 2)
    factors = (-2, -2, 2)

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        r1, r2 = r[: self.dim], r[self.dim :]
        e = u - np.dot(r1, u) * r1 + r2 - (v - np.dot(r1, v) * r1)
        return -float(np.sum(e * e))

    def messages(self, tape, U, R, V, relation=True):
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
        if not relation:
            return t, None, t
        duv = tape.sub(V, U)
        pduv = tape.sum_axis(tape.mul(r1, duv))
        g1 = tape.add(tape.mul(pe, duv), tape.mul(pduv, e))
        return t, tape.concat([g1, e]), t


class TransD(Scorer):
    kind = "transd"
    widths = (2, 2)
    factors = (-2, -2, -2)

    def score(self, u, r, v):
        u, r, v = self._args(u, r, v)
        d = self.dim
        u1, v1, r1 = u[:d], v[:d], r[:d]
        e = u1 + np.dot(u[d:], u1) * r1 + r[d:] - v1 + np.dot(v[d:], v1) * r1
        return -float(np.sum(e * e))

    def messages(self, tape, U, R, V, relation=True):
        d = self.dim
        u1 = tape.slice_cols(U, 0, d)
        u2 = tape.slice_cols(U, d, 2 * d)
        v1 = tape.slice_cols(V, 0, d)
        v2 = tape.slice_cols(V, d, 2 * d)
        r1 = tape.slice_cols(R, 0, d)
        r2 = tape.slice_cols(R, d, 2 * d)
        au = tape.sum_axis(tape.mul(u2, u1))
        av = tape.sum_axis(tape.mul(v2, v1))
        e = tape.add(tape.sub(tape.add(tape.add(u1, tape.mul(au, r1)), r2), v1),
                     tape.mul(av, r1))
        pe = tape.sum_axis(tape.mul(r1, e))
        gh = tape.concat([tape.add(e, tape.mul(pe, u2)), tape.mul(pe, u1)])
        gt = tape.concat([tape.sub(tape.mul(pe, v2), e), tape.mul(pe, v1)])
        if not relation:
            return gh, None, gt
        return gh, tape.concat([tape.mul(tape.add(au, av), e), e]), gt


class RotatE(Scorer):
    kind = "rotate"
    planes = 2
    widths = (2, 2)

    def score(self, u, r, v):
        uc, rc, vc = (x.reshape(-1, 2).T for x in self._args(u, r, v))
        w = numerics.complex_elementwise_product(uc, numerics.unit_project(rc)) - vc
        return -float(np.sum(_interleaved(w * w)))

    def messages(self, tape, U, R, V, relation=True):
        p = tape.unit_project(R)
        w = tape.sub(tape.complex_mul(U, p), V)
        gt = tape.scale(w, 2.0)
        gh = tape.scale(tape.complex_mul(w, p, conj_b=True), -2.0)
        if not relation:
            return gh, None, gt
        ghat = tape.scale(tape.complex_mul(w, U, conj_b=True), -2.0)
        return gh, tape.unit_project_pullback(R, ghat), gt


class QuatE(Scorer):
    kind = "quate"
    planes = 4
    widths = (4, 4)

    def score(self, u, r, v):
        uq, rq, vq = (x.reshape(-1, 4).T for x in self._args(u, r, v))
        w = numerics.hamilton_product(uq, numerics.unit_project(rq))
        return float(np.sum(_interleaved(w * vq)))

    def messages(self, tape, U, R, V, relation=True):
        p = tape.unit_project(R)
        gt = tape.quat_mul(U, p)
        gh = tape.quat_mul(V, p, conj_q=True)
        if not relation:
            return gh, None, gt
        ghat = tape.quat_mul(U, V, conj_p=True)
        return gh, tape.unit_project_pullback(R, ghat), gt


SCORERS = {
    "transe": TransE,
    "distmult": DistMult,
    "transh": TransH,
    "transd": TransD,
    "rotate": RotatE,
    "quate": QuatE,
}


def _scorer_class(kind: str) -> type:
    if kind not in SCORERS:
        raise ValueError(f"unknown scorer {kind!r}; expected one of {sorted(SCORERS)}")
    return SCORERS[kind]


def make_scorer(kind: str, dim: int) -> Scorer:
    return _scorer_class(kind)(dim)


def base_dim(kind: str, width: int) -> int:
    """Base dimension d for an entity-embedding width.

    The configured hidden dimension is the entity width; scorers whose
    entities are concatenations (TransD pairs, RotatE complex pairs,
    QuatE quadruples) split it into d components.
    """
    mult = _scorer_class(kind).widths[0]
    if width % mult:
        raise ValueError(
            f"dim {width} is not a multiple of {mult} required by scorer {kind!r}")
    return width // mult
