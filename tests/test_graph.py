import numpy as np
import pytest

from eager_oracle import degree_norm, relation_norm
from kegcn.graph import (
    GraphError,
    Triple,
    build_graph,
    entity_norm_factors,
    relation_norm_factors,
)
from kegcn.numerics import RandomSource


def test_empty_graph():
    g = build_graph([], 3, 2)
    assert g.num_triples == 0
    assert all(len(a) == 0 for a in g.in_adj)
    assert all(len(a) == 0 for a in g.out_adj)
    assert all(len(a) == 0 for a in g.rel_index)


def test_single_edge_bookkeeping():
    g = build_graph([Triple(0, 0, 1)], 2, 1)
    assert g.in_adj[1] == ((0, 0),)
    assert g.out_adj[0] == ((1, 0),)
    assert g.rel_index[0] == ((0, 1),)
    assert g.in_adj[0] == () and g.out_adj[1] == ()


def test_duplicates_dropped():
    g = build_graph([(0, 0, 1), (0, 0, 1)], 2, 1)
    assert g.num_triples == 1


def test_out_of_range_ids():
    with pytest.raises(GraphError):
        build_graph([(0, 0, 5)], 2, 1)
    with pytest.raises(GraphError):
        build_graph([(0, 3, 1)], 2, 1)
    with pytest.raises(GraphError):
        build_graph([(-1, 0, 1)], 2, 1)


def test_norms():
    # entity 1: two in-edges, one out-edge
    g = build_graph([(0, 0, 1), (2, 1, 1), (1, 0, 2), (0, 0, 2)], 3, 2)
    assert degree_norm(g, 1, 0.3) == pytest.approx(0.1)
    assert degree_norm(g, 0, 0.3) == pytest.approx(0.15)
    # relation 0 has 3 edges after dedup; build one with 4
    g4 = build_graph([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0)], 4, 1)
    assert relation_norm(g4, 0, 0.3) == pytest.approx(0.075)


def test_zero_degree_convention():
    g = build_graph([(0, 0, 1)], 3, 2)
    assert degree_norm(g, 2, 0.3) == 0.0
    assert relation_norm(g, 1, 0.3) == 0.0
    assert entity_norm_factors(g, 0.3)[2] == 0.0
    assert relation_norm_factors(g, 0.3)[1] == 0.0


def test_norm_factor_columns_match_scalars():
    rng = RandomSource(2)
    triples = [(int(h), int(r), int(t)) for h, r, t in
               zip(rng.integers(0, 10, 30), rng.integers(0, 4, 30), rng.integers(0, 10, 30))]
    g = build_graph(triples, 10, 4)
    ent = entity_norm_factors(g, 0.3)
    rel = relation_norm_factors(g, 0.3)
    for v in range(10):
        assert ent[v] == degree_norm(g, v, 0.3)
    for r in range(4):
        assert rel[r] == relation_norm(g, r, 0.3)


def test_index_consistency_and_shuffle_determinism():
    rng = RandomSource(9)
    triples = list({(int(h), int(r), int(t)) for h, r, t in
                    zip(rng.integers(0, 20, 80), rng.integers(0, 5, 80), rng.integers(0, 20, 80))})
    g = build_graph(triples, 20, 5)
    from_in = {(u, r, v) for v in range(20) for (u, r) in g.in_adj[v]}
    from_out = {(u, r, v) for u in range(20) for (v, r) in g.out_adj[u]}
    from_rel = {(u, r, v) for r in range(5) for (u, v) in g.rel_index[r]}
    expected = set(triples)
    assert from_in == expected and from_out == expected and from_rel == expected
    assert g.in_degree.sum() == g.num_triples
    assert g.out_degree.sum() == g.num_triples
    assert g.rel_degree.sum() == g.num_triples

    perm = rng.permutation(len(triples))
    g2 = build_graph([triples[i] for i in perm], 20, 5)
    assert g.triples == g2.triples
    assert g.in_adj == g2.in_adj and g.out_adj == g2.out_adj and g.rel_index == g2.rel_index
    assert np.array_equal(g.heads, g2.heads)


def test_self_loops_kept():
    g = build_graph([(1, 0, 1)], 2, 1)
    assert g.num_triples == 1
    assert g.in_adj[1] == ((1, 0),)
    assert g.out_adj[1] == ((1, 0),)
