"""Closed-form gradients of the six scores, one interleaved triple at a
time.

The independent reference the batched `Scorer.messages` is tested
against: each gradient is derived by hand from the score and written in
plain NumPy on single vectors.  RotatE and QuatE run the component
kernels on (k, d) views of one vector and return the contiguous
interleaved (d, k) array; a conjugated factor is the kernel's
conj_p/conj_q/conj_b flag, bitwise equal to multiplying by the
conjugate.
"""

import numpy as np

from kegcn import numerics


def _interleaved(x):
    return np.ascontiguousarray(x.T).reshape(-1)


def _transe(d, u, r, v):
    e = u + r - v
    return -2.0 * e, -2.0 * e, 2.0 * e


def _distmult(d, u, r, v):
    return r * v, u * v, u * r


def _transh(d, u, r, v):
    r1, r2 = r[:d], r[d:]
    e = u - np.dot(r1, u) * r1 + r2 - (v - np.dot(r1, v) * r1)
    t = e - np.dot(r1, e) * r1
    duv = v - u
    g1 = -2.0 * (np.dot(r1, e) * duv + np.dot(r1, duv) * e)
    return -2.0 * t, np.concatenate([g1, -2.0 * e]), 2.0 * t


def _transd(d, u, r, v):
    u1, u2, v1, v2, r1, r2 = u[:d], u[d:], v[:d], v[d:], r[:d], r[d:]
    au, av = np.dot(u2, u1), np.dot(v2, v1)
    e = u1 + au * r1 + r2 - v1 + av * r1
    pe = np.dot(r1, e)
    return (np.concatenate([-2.0 * (e + pe * u2), -2.0 * pe * u1]),
            np.concatenate([-2.0 * (au + av) * e, -2.0 * e]),
            np.concatenate([2.0 * (e - pe * v2), -2.0 * pe * v1]))


def _rotate(d, u, r, v):
    uc, rc, vc = (x.reshape(-1, 2).T for x in (u, r, v))
    rhat = numerics.unit_project(rc)
    w = numerics.complex_elementwise_product(uc, rhat) - vc
    gh = -2.0 * numerics.complex_elementwise_product(w, rhat, conj_b=True)
    ghat = -2.0 * numerics.complex_elementwise_product(w, uc, conj_b=True)
    return (_interleaved(gh), _interleaved(numerics.unit_project_pullback(rc, ghat)),
            _interleaved(2.0 * w))


def _quate(d, u, r, v):
    uq, rq, vq = (x.reshape(-1, 4).T for x in (u, r, v))
    rhat = numerics.unit_project(rq)
    ghat = numerics.hamilton_product(uq, vq, conj_p=True)
    return (_interleaved(numerics.hamilton_product(vq, rhat, conj_q=True)),
            _interleaved(numerics.unit_project_pullback(rq, ghat)),
            _interleaved(numerics.hamilton_product(uq, rhat)))


_FORMS = {"transe": _transe, "distmult": _distmult, "transh": _transh,
          "transd": _transd, "rotate": _rotate, "quate": _quate}


def gradients(scorer, u, r, v):
    """(d score / d u, d score / d r, d score / d v) of `scorer` at one
    (head, relation, tail) triple of interleaved vectors."""
    u, r, v = scorer._args(u, r, v)
    return _FORMS[scorer.kind](scorer.dim, u, r, v)
