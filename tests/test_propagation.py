import weakref
from dataclasses import replace

import numpy as np
import pytest

from eager_oracle import entity_message, layer_forward, relation_message
from helpers import finite_diff_check
from kegcn.autodiff import Tape
from kegcn import checks
from kegcn.checks import baseline_forward, verify_reduction
from kegcn.graph import build_graph
from kegcn.numerics import seeded
from kegcn.propagation import (
    REDUCTION_MODES,
    EmbeddingState,
    MODES,
    LayerParams,
    ModelConfig,
    config_scorer,
    forward_on_tape,
    init_params,
    init_state,
    layer_forward_tape,
    layer_shapes,
    lift,
    model_forward,
    relation_width,
)
from kegcn.scorers import SCORERS, make_scorer
from kegcn.tasks import TrainConfig

ALL_KINDS = sorted(SCORERS)


def identity_params(d, alpha=1.0):
    # alpha 1 on an entity or relation of one edge leaves its message as it is
    return LayerParams(w=np.eye(d), w0=np.eye(d), w_rel=np.eye(d), alpha=alpha)


def random_instance(n=12, r=3, edges=30, seed=0):
    rng = seeded(seed)
    triples = list(zip(rng.integers(0, n, edges), rng.integers(0, r, edges),
                       rng.integers(0, n, edges)))
    triples = [(int(h), int(q), int(t)) for h, q, t in triples if h != t]
    return build_graph(triples, n, r)


def test_entity_message_isolated():
    g = build_graph([(0, 0, 1)], 3, 1)
    s = make_scorer("transe", 2)
    state = EmbeddingState(np.ones((3, 2)), np.ones((1, 2)))
    out = entity_message(g, state, s, 2, identity_params(2))
    assert np.array_equal(out, [0.0, 0.0])


def test_entity_message_single_in_edge():
    g = build_graph([(0, 0, 1)], 2, 1)
    s = make_scorer("transe", 2)
    hu, hr, hv = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])
    state = EmbeddingState(np.stack([hu, hv]), hr[None, :])
    out = entity_message(g, state, s, 1, identity_params(2))
    assert np.allclose(out, 2.0 * (hu + hr - hv), atol=1e-15)


def test_entity_message_single_out_edge():
    g = build_graph([(0, 0, 1)], 2, 1)
    s = make_scorer("transe", 2)
    hv, hr, hu = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])
    state = EmbeddingState(np.stack([hv, hu]), hr[None, :])
    out = entity_message(g, state, s, 0, identity_params(2))
    assert np.allclose(out, -2.0 * (hv + hr - hu), atol=1e-15)


def test_relation_message_examples():
    s = make_scorer("transe", 2)
    g = build_graph([(0, 0, 1)], 2, 2)
    hu, hr, hv = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])
    state = EmbeddingState(np.stack([hu, hv]), np.stack([hr, hr]))
    assert np.array_equal(relation_message(g, state, s, 1, identity_params(2)), [0.0, 0.0])
    one = relation_message(g, state, s, 0, identity_params(2))
    assert np.allclose(one, -2.0 * (hu + hr - hv), atol=1e-15)
    # duplicated geometry: two triples with identical embeddings, factor a/2
    g2 = build_graph([(0, 0, 1), (2, 0, 3)], 4, 1)
    state2 = EmbeddingState(np.stack([hu, hv, hu, hv]), hr[None, :])
    p = identity_params(2, alpha=0.3)
    two = relation_message(g2, state2, s, 0, p)
    assert np.allclose(two, 0.3 * one, atol=1e-15)


def test_layer_forward_empty_graph_identity():
    g = build_graph([], 3, 2)
    state = EmbeddingState(np.arange(6.0).reshape(3, 2), np.ones((2, 2)))
    p = identity_params(2)
    out = layer_forward(g, state, p, make_scorer("transe", 2), last=True)
    assert np.array_equal(out.entity, state.entity)
    assert np.array_equal(out.relation, state.relation)


def test_layer_forward_hand_toy():
    g = build_graph([(0, 0, 1)], 2, 1)
    state = EmbeddingState(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]]))
    out = layer_forward(g, state, identity_params(2), make_scorer("transe", 2), last=False)
    assert np.array_equal(out.entity, [[0.0, 0.0], [4.0, 1.0]])
    assert np.array_equal(out.relation, [[0.0, 1.0]])


def test_model_forward_one_layer_equals_layer_forward():
    g = random_instance(seed=3)
    cfg = ModelConfig(mode="kegcn", scorer_kind="distmult", dim=4, layers=1, alpha=0.3)
    rng = seeded(5)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    s = config_scorer(cfg)
    got = model_forward(g, state, params, scorer=s)
    want = layer_forward(g, state, params[0], s, last=True)
    assert np.allclose(got.entity, want.entity, atol=1e-12)
    assert np.allclose(got.relation, want.relation, atol=1e-12)


def test_model_forward_empty_identity_two_layers():
    g = build_graph([], 4, 2)
    params = [identity_params(3) for _ in range(2)]
    # non-negative, so the first layer's relu keeps them too
    state = EmbeddingState(np.arange(12.0).reshape(4, 3), np.ones((2, 3)))
    out = model_forward(g, state, params, scorer=make_scorer("transe", 3))
    assert np.array_equal(out.entity, state.entity)
    assert np.array_equal(out.relation, state.relation)


def test_model_forward_deterministic():
    g = random_instance(seed=7)
    cfg = ModelConfig(mode="kegcn", scorer_kind="rotate", dim=4, layers=2, alpha=0.3)
    rng = seeded(11)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    s = config_scorer(cfg)
    a = model_forward(g, state, params, scorer=s)
    b = model_forward(g, state, params, scorer=s)
    assert np.array_equal(a.entity, b.entity)
    assert np.array_equal(a.relation, b.relation)


def test_model_forward_equals_recording_tape_bitwise():
    g = random_instance(seed=7)
    for mode in MODES:
        cfg = ModelConfig(mode=mode, scorer_kind="quate", dim=8, layers=3, alpha=0.3)
        rng = seeded(11)
        params = init_params(cfg, g.num_relations, rng)
        state = init_state(cfg, g, rng)
        s = config_scorer(cfg)
        tape = Tape()
        st = lift(tape, state)
        e, r = forward_on_tape(tape, g, mode, s, [lift(tape, p) for p in params],
                               st.entity, st.relation)
        got = model_forward(g, state, params, mode=mode, scorer=s)
        assert np.array_equal(got.entity.view(np.int64), e.value.view(np.int64)), mode
        assert (got.relation is None) == (r is None), mode
        if r is not None:
            assert np.array_equal(got.relation.view(np.int64), r.value.view(np.int64)), mode


def test_lift_records_each_array_field_in_field_order():
    cfg = ModelConfig(mode="wgcn", dim=4, layers=1)
    p = init_params(cfg, 3, seeded(0))[0]
    state = EmbeddingState(np.ones((2, 4)), np.zeros((3, 4)))
    tape = Tape()
    lp, ls = lift(tape, p), lift(tape, state)
    assert [v.index for v in (lp.w, lp.rel_scale, ls.entity, ls.relation)] == [0, 1, 2, 3]
    assert lp.w0 is None and lp.w_rel is None and lp.w_per_rel is None
    assert lp.alpha == p.alpha
    assert lp.w.value is p.w and ls.relation.value is state.relation


@pytest.mark.parametrize("variant", [*ALL_KINDS, *REDUCTION_MODES])
def test_tape_layers_match_eager_oracle(variant):
    # kegcn with each scorer, and each reduction mode as training builds
    # it (degree-normalized; wgcn with drawn relation scales)
    mode, kind = (variant, "transe") if variant in REDUCTION_MODES else ("kegcn", variant)
    g = random_instance(n=12, r=3, edges=36, seed=13)
    cfg = ModelConfig(mode=mode, scorer_kind=kind, dim=4, layers=2, alpha=0.3)
    rng = seeded(17)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    for p in params:
        if p.rel_scale is not None:
            p.rel_scale = rng.normal(size=p.rel_scale.shape)
    s = config_scorer(cfg)
    tape = Tape()
    st = lift(tape, state)
    hv, hr, eager = st.entity, st.relation, state
    for i, p in enumerate(params):
        last = i == len(params) - 1
        hv, hr = layer_forward_tape(tape, g, mode, s, lift(tape, p), hv, hr, last)
        eager = layer_forward(g, eager, p, s, last, mode)
        assert np.allclose(hv.value, eager.entity, atol=1e-10), variant
        assert (hr is None) == (eager.relation is None) == (mode in ("rgcn", "wgcn")), variant
        if hr is not None:
            assert np.allclose(hr.value, eager.relation, atol=1e-10), variant


@pytest.mark.parametrize("mode", ["kegcn", "compgcn-sub", "rgcn"])
def test_layer_rule_follows_its_place_in_the_stack_and_its_weights(mode):
    # relu on inner entities and inner kegcn relations; identity on the
    # last layer and on every compgcn relation; a relation output exactly
    # where the layer holds w_rel
    g = random_instance(seed=7)
    cfg = ModelConfig(mode=mode, scorer_kind="transe", dim=4, layers=2, alpha=0.3)
    rng = seeded(3)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    s = config_scorer(cfg)
    tape = Tape()
    st = lift(tape, state)
    hv, hr = st.entity, st.relation
    for i, p in enumerate(params):
        last = i == len(params) - 1
        layer = lift(tape, p)
        bare = layer_forward_tape(tape, g, mode, s, replace(layer, w_rel=None), hv, hr, last)
        assert bare[1] is None
        hv, hr = layer_forward_tape(tape, g, mode, s, layer, hv, hr, last)
        assert (tape.nodes[hv.index].name == "relu") == (not last), (mode, i)
        assert np.array_equal(hv.value, bare[0].value), (mode, i)
        assert (hr is None) == (mode == "rgcn"), (mode, i)
        if hr is not None:
            want_relu = mode == "kegcn" and not last
            assert (tape.nodes[hr.index].name == "relu") == want_relu, (mode, i)
        if last:
            assert (hv.value < 0).any(), (mode, i)   # no relu hides in the identity


def test_zero_alpha_reduces_to_self_terms():
    g = random_instance(seed=19)
    cfg = ModelConfig(mode="kegcn", scorer_kind="transe", dim=4, layers=1, alpha=0.0)
    rng = seeded(23)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    out = model_forward(g, state, params, scorer=config_scorer(cfg))
    p = params[0]   # the only layer is the last: identity
    assert np.array_equal(out.entity, state.entity @ p.w0)
    assert np.array_equal(out.relation, state.relation @ p.w_rel)


def test_message_additive_over_disjoint_edge_sets():
    rng = seeded(29)
    n, r = 8, 2
    edges_a = [(0, 0, 1), (2, 1, 1), (3, 0, 1)]
    edges_b = [(1, 1, 4), (5, 0, 1), (1, 0, 6)]
    ent = rng.normal(size=(n, 4))
    rel = rng.normal(size=(r, 4))
    state = EmbeddingState(ent, rel)
    p = identity_params(4)
    for kind in ("transe", "distmult"):
        s = make_scorer(kind, 4)
        ga = build_graph(edges_a, n, r)
        gb = build_graph(edges_b, n, r)
        gab = build_graph(edges_a + edges_b, n, r)
        for v in (1, 4, 6):
            # alpha 1: each message is the edge sum over the entity's degree
            combined, split = (
                sum(entity_message(g, state, s, v, p) * (g.in_degree[v] + g.out_degree[v])
                    for g in graphs) for graphs in ([gab], [ga, gb]))
            assert np.allclose(combined, split, atol=1e-12)


def test_permutation_equivariance():
    g = random_instance(n=10, r=3, edges=25, seed=31)
    cfg = ModelConfig(mode="kegcn", scorer_kind="transh", dim=4, layers=2, alpha=0.3)
    rng = seeded(37)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    s = config_scorer(cfg)
    out1 = model_forward(g, state, params, scorer=s)

    perm = seeded(41).permutation(10)
    triples2 = np.column_stack((perm[g.heads], g.rels, perm[g.tails]))
    g2 = build_graph(triples2, 10, g.num_relations)
    ent2 = np.zeros_like(state.entity)
    ent2[perm] = state.entity
    out2 = model_forward(g2, EmbeddingState(ent2, state.relation), params, scorer=s)
    assert np.allclose(out2.entity[perm], out1.entity, atol=1e-9)
    assert np.allclose(out2.relation, out1.relation, atol=1e-9)


def _relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("mode,kind", [("kegcn", k) for k in ALL_KINDS]
                         + [(m, "transe") for m in REDUCTION_MODES])
def test_model_forward_equivariant_under_relabelling(mode, kind):
    # renumber entities and relations: every output row moves with its
    # label.  Edge order sets the summation order, so equal to 1e-12
    # relative, not bitwise
    g = random_instance(n=12, r=4, edges=40, seed=53)
    cfg = ModelConfig(mode=mode, scorer_kind=kind, dim=8, layers=3, alpha=0.3)
    rng = seeded(59)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    pe, pr = seeded(61).permutation(12), seeded(67).permutation(4)
    g2 = build_graph(np.column_stack((pe[g.heads], pr[g.rels], pe[g.tails])), 12, 4)
    params2 = []
    for p in params:
        q = replace(p)
        if p.rel_scale is not None:
            p.rel_scale = 0.5 + rng.random((4, 1))
            q.rel_scale = np.empty_like(p.rel_scale)
            q.rel_scale[pr] = p.rel_scale
        if p.w_per_rel is not None:
            q.w_per_rel = np.empty_like(p.w_per_rel)
            q.w_per_rel[pr] = p.w_per_rel
        params2.append(q)
    ent2 = np.empty_like(state.entity)
    ent2[pe] = state.entity
    rel2 = None
    if state.relation is not None:
        rel2 = np.empty_like(state.relation)
        rel2[pr] = state.relation
    s = config_scorer(cfg)
    out = model_forward(g, state, params, mode=mode, scorer=s)
    out2 = model_forward(g2, EmbeddingState(ent2, rel2), params2, mode=mode, scorer=s)
    assert _relative_error(out2.entity[pe], out.entity) <= 1e-12
    assert (out.relation is None) == (out2.relation is None)
    if out.relation is not None:
        assert _relative_error(out2.relation[pr], out.relation) <= 1e-12


@pytest.mark.parametrize("mode", ["compgcn-sub", "compgcn-mult", "compgcn-corr", "rgcn", "wgcn"])
def test_verify_reduction(mode):
    g = random_instance(n=20, r=4, edges=50, seed=43)
    for seed in range(2):
        assert verify_reduction(mode, g, seed) <= 1e-9


@pytest.mark.parametrize("mode", REDUCTION_MODES)
def test_verify_reduction_runs_the_layout_training_builds(monkeypatch, mode):
    # the layers verify_reduction checks hold exactly the weights that
    # layer_shapes gives the mode, field for field and shape for shape
    g = random_instance(n=20, r=4, edges=50, seed=43)
    seen = []

    def recording_layer(tape, graph, mode, scorer, layer, hv, hr, last):
        seen.append((layer, last))
        return layer_forward_tape(tape, graph, mode, scorer, layer, hv, hr, last)

    monkeypatch.setattr(checks, "layer_forward_tape", recording_layer)
    verify_reduction(mode, g, 0)
    cfg = ModelConfig(mode=mode, dim=8, layers=3)
    assert [last for _, last in seen] == [False, False, True]
    for layer, (p, _) in enumerate(seen):
        got = {f: getattr(p, f).shape for f in LayerParams.WEIGHTS
               if getattr(p, f) is not None}
        assert got == layer_shapes(cfg, g.num_relations, layer)
        assert p.alpha == TrainConfig().alpha


def test_baseline_forward_examples():
    # rgcn on the empty graph: sigma(W_0 h_v)
    g = build_graph([], 3, 2)
    rng = seeded(47)
    ent = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 4))
    wstack = rng.normal(size=(2, 4, 4))
    p = LayerParams(w_per_rel=wstack, w0=w0, alpha=0.3)
    out = baseline_forward("rgcn", g, EmbeddingState(ent), p, last=False)
    want = np.stack([np.maximum(ent[v] @ w0, 0.0) for v in range(3)])
    assert np.array_equal(out.entity, want)

    # wgcn with alpha_r = 1 equals rgcn with W_r = W
    g = random_instance(n=6, r=2, edges=12, seed=53)
    ent = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 4))
    pw = LayerParams(w=w, rel_scale=np.ones((2, 1)), alpha=0.3)
    pr = LayerParams(w_per_rel=np.stack([w, w]), w0=w, alpha=0.3)
    a = baseline_forward("wgcn", g, EmbeddingState(ent), pw, last=False)
    b = baseline_forward("rgcn", g, EmbeddingState(ent), pr, last=False)
    assert np.allclose(a.entity, b.entity, atol=1e-12)

    # compgcn-sub single edge, hand params; alpha 1 over one edge each
    g = build_graph([(0, 0, 1)], 2, 1)
    hu = np.array([2.0, 1.0])
    hv = np.array([0.5, -1.0])
    hr = np.array([1.0, 3.0])
    wr = np.array([[1.0, 2.0], [0.0, 1.0]])
    w0 = np.eye(2)
    p = LayerParams(w=wr, w0=w0, w_rel=np.eye(2), alpha=1.0)
    out = baseline_forward("compgcn-sub", g, EmbeddingState(np.stack([hu, hv]), hr[None, :]), p,
                           last=False)
    want_v = np.maximum((hu - hr) @ wr + hv, 0.0)
    want_u = np.maximum((hv - hr) @ wr + hu, 0.0)
    assert np.allclose(out.entity[1], want_v, atol=1e-15)
    assert np.allclose(out.entity[0], want_u, atol=1e-15)

    # the message sum times alpha / (in + out degree): entity 1 has two edges
    g = build_graph([(0, 0, 1), (1, 1, 2)], 3, 2)
    ent, w0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
    p = LayerParams(w_per_rel=wstack, w0=w0, alpha=0.3)
    out = baseline_forward("rgcn", g, EmbeddingState(ent), p, last=True)
    want = 0.15 * (ent[0] @ wstack[0] + ent[2] @ wstack[1]) + ent[1] @ w0
    assert np.allclose(out.entity[1], want, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_model_gradients_match_finite_differences(kind):
    g = random_instance(n=10, r=3, edges=24, seed=59)
    cfg = ModelConfig(mode="kegcn", scorer_kind=kind, dim=4, layers=2, alpha=0.3)
    rng = seeded(61)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    s = config_scorer(cfg)
    probe = seeded(67)
    w_ent = probe.normal(size=(g.num_entities, cfg.dim))
    w_rel = probe.normal(size=(g.num_relations, relation_width(cfg)))

    def fn(tape, ent, rel, w1, w01, wr1, w2, w02, wr2):
        layers = [replace(params[0], w=w1, w0=w01, w_rel=wr1),
                  replace(params[1], w=w2, w0=w02, w_rel=wr2)]
        hv, hr = forward_on_tape(tape, g, cfg.mode, s, layers, ent, rel)
        return tape.add(
            tape.sum(tape.mul(hv, tape.leaf(w_ent))),
            tape.sum(tape.mul(hr, tape.leaf(w_rel))),
        )

    point = [state.entity, state.relation]
    for p in params:
        point.extend([p.w, p.w0, p.w_rel])
    err = finite_diff_check(fn, point, max_coords=60)
    assert err <= 1e-4, f"{kind}: model fd error {err:.3e}"


def test_graphs_of_equal_size_keep_their_own_scatter_cache():
    n, r = 9, 2
    g1 = build_graph([(i, i % r, (i + 1) % n) for i in range(n)], n, r)
    g2 = build_graph([(i, i % r, (i + 2) % n) for i in range(n)], n, r)
    assert (g1.num_entities, g1.num_relations, g1.num_triples) == \
        (g2.num_entities, g2.num_relations, g2.num_triples)
    cfg = ModelConfig(mode="kegcn", scorer_kind="transe", dim=4, layers=2)
    rng = seeded(4)
    params = init_params(cfg, r, rng)
    state = init_state(cfg, g1, rng)
    scorer = config_scorer(cfg)
    model_forward(g1, state, params, scorer=scorer)
    warm = model_forward(g2, state, params, scorer=scorer)
    fresh_graph = build_graph(np.column_stack((g2.heads, g2.rels, g2.tails)), n, r)
    fresh = model_forward(fresh_graph, state, params, scorer=scorer)
    assert warm.entity.tobytes() == fresh.entity.tobytes()
    assert warm.relation.tobytes() == fresh.relation.tobytes()
    for name in ("heads", "tails", "rels"):
        c1, c2 = g1.index[name].flat, g2.index[name].flat
        assert c1 is not c2 and c1 and sorted(c1) == sorted(c2)
        for w, flat in c2.items():
            assert c1[w] is not flat
            idx = getattr(g2, name)
            assert np.array_equal(flat, (idx[:, None] * w + np.arange(w)).ravel())
    assert not np.array_equal(g1.index["tails"].flat[4], g2.index["tails"].flat[4])



def test_graph_builds_its_degree_norm_columns_once():
    # TransE's factors (-2, -2, 2) fold into the columns: 2 * entity norms,
    # -2 * relation norms, built on the first pass and reused by the next
    g = random_instance(seed=7)
    cfg = ModelConfig(scorer_kind="transe", dim=4, layers=2, alpha=0.3)
    rng = seeded(5)
    params, state = init_params(cfg, g.num_relations, rng), init_state(cfg, g, rng)
    first = model_forward(g, state, params, scorer=config_scorer(cfg))
    columns = dict(g.norm_columns)
    assert sorted(columns, key=str) == [(0.3, -2, False), (0.3, 2, True)]
    again = model_forward(g, state, params, scorer=config_scorer(cfg))
    assert g.norm_columns.keys() == columns.keys()
    assert all(g.norm_columns[k] is v for k, v in columns.items())
    assert first.entity.tobytes() == again.entity.tobytes()
    assert np.array_equal(columns[0.3, 2, True], 2 * g.norm_column(0.3, 1, True))
    assert np.array_equal(columns[0.3, -2, False], -2 * g.norm_column(0.3, 1, False))


# ---------------- intermediate lifetimes ----------------


class ProbeTape(Tape):
    """A Tape that keeps a weak reference to, and the shape of, each value."""

    def __init__(self):
        super().__init__()
        self.probes = []

    def _record(self, value, parents=(), vjp=None, name="leaf"):
        var = super()._record(value, parents, vjp, name)
        self.probes.append((weakref.ref(var.value), var.shape))
        return var


def _first_layer(kind):
    g = random_instance(n=12, r=3, edges=36, seed=13)
    cfg = ModelConfig(mode="kegcn", scorer_kind=kind, dim=8, layers=2, alpha=0.3)
    rng = seeded(17)
    params = init_params(cfg, g.num_relations, rng)
    state = init_state(cfg, g, rng)
    tape = ProbeTape()
    hv, hr = layer_forward_tape(tape, g, "kegcn", config_scorer(cfg), lift(tape, params[0]),
                                tape.leaf(state.entity), tape.leaf(state.relation), False)
    return g, tape, hv, hr


def test_transe_layer_frees_its_edge_arrays_when_it_returns():
    # no TransE vjp captures an edge-sized array, so once the layer returns
    # its gathered rows, U + R and e, its one message for all three
    # directions, are gone, while the tape and the layer's outputs live on
    g, tape, hv, hr = _first_layer("transe")
    edge = [i for i, (_, shape) in enumerate(tape.probes) if shape[0] == g.num_triples]
    assert [tape.nodes[i].name for i in edge] == ["gather"] * 3 + ["add", "sub"]
    assert all(tape.probes[i][0]() is None for i in edge)
    assert tape.nodes[hv.index].value is hv.value and tape.nodes[hr.index].value is hr.value


PLANES_EDGE_NODES = {
    "quate": ["gather"] * 3 + ["unit_project"] + ["quat_mul"] * 3 + ["unit_project_pullback"],
    "rotate": ["gather"] * 3 + ["unit_project", "complex_mul", "sub", "scale"]
    + ["complex_mul", "scale"] * 2 + ["unit_project_pullback"],
}


@pytest.mark.parametrize("kind", sorted(PLANES_EDGE_NODES))
def test_planes_layer_frees_its_edge_arrays_when_it_returns(kind):
    # the vjps that read the gathered rows U, V, R, the projection p or a
    # product of them (QuatE's ghat, RotatE's w and ghat) keep recipes
    # instead, so every (k, E, d) value goes with the layer; backward
    # rebuilds what it reads
    g, tape, hv, hr = _first_layer(kind)
    edge = [i for i, (_, shape) in enumerate(tape.probes)
            if len(shape) == 3 and shape[1] == g.num_triples]
    assert [tape.nodes[i].name for i in edge] == PLANES_EDGE_NODES[kind]
    assert all(tape.probes[i][0]() is None for i in edge)
    leaves = [i for i in range(len(tape.nodes)) if tape.nodes[i].name == "leaf"]
    grads = tape.backward(tape.add(tape.sum(hv), tape.sum(hr)))
    assert all(np.isfinite(grads._grads[i]).all() for i in leaves)
