import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eager_oracle import degree_norm, relation_edges, relation_norm
from kegcn.checks import in_edges, out_edges
from kegcn.autodiff import Tape
from kegcn.graph import (
    GraphError,
    KnowledgeGraph,
    build_graph,
)
from kegcn.numerics import seeded

PROPERTY = settings(max_examples=200, deadline=None, database=None)


def columns(triples):
    """The (heads, rels, tails) int64 columns of a triple list."""
    return tuple(np.array([t[k] for t in triples], dtype=np.int64) for k in range(3))


def assert_arrays(g, triples):
    for got, want in zip((g.heads, g.rels, g.tails), columns(triples)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_empty_graph():
    g = build_graph([], 3, 2)
    assert g.num_triples == 0
    assert_arrays(g, [])
    assert all(in_edges(g, v) == [] and out_edges(g, v) == [] for v in range(3))
    assert all(relation_edges(g, r) == [] for r in range(2))
    assert np.array_equal(g.in_degree, [0, 0, 0]) and np.array_equal(g.rel_degree, [0, 0])


def test_single_edge_bookkeeping():
    g = build_graph([(0, 0, 1)], 2, 1)
    assert_arrays(g, [(0, 0, 1)])
    assert in_edges(g, 1) == [(0, 0)]
    assert out_edges(g, 0) == [(1, 0)]
    assert relation_edges(g, 0) == [(0, 1)]
    assert in_edges(g, 0) == [] and out_edges(g, 1) == []


def test_duplicates_dropped():
    g = build_graph([(0, 0, 1), (0, 0, 1)], 2, 1)
    assert g.num_triples == 1


def test_out_of_range_ids():
    with pytest.raises(GraphError, match=r"^triple 0: entity id out of range in \(0,0,5\)$"):
        build_graph([(0, 0, 5)], 2, 1)
    with pytest.raises(GraphError, match=r"^triple 0: relation id out of range in \(0,3,1\)$"):
        build_graph([(0, 3, 1)], 2, 1)
    with pytest.raises(GraphError, match=r"^triple 0: entity id out of range in \(-1,0,1\)$"):
        build_graph([(-1, 0, 1)], 2, 1)
    with pytest.raises(GraphError, match="beyond 64 bits"):
        build_graph([(0, 0, 2**64)], 2, 1)
    # the first bad triple is named, and its entity ids are checked first
    with pytest.raises(GraphError, match=r"^triple 1: entity id out of range in \(0,9,7\)$"):
        build_graph([(0, 0, 1), (0, 9, 7), (9, 0, 1)], 2, 1)


def test_graph_checks_its_ids_once_and_the_tape_the_table_rows():
    # the graph checks every id once; a gather or segment sum over its
    # index arrays then checks only that the table has the graph's rows,
    # so a short table still raises instead of being clipped
    ids = np.array([0, 4, 2])
    for bad in ([0, 5, 2], [0, -1, 2]):
        with pytest.raises(GraphError, match="heads id outside"):
            KnowledgeGraph(5, 2, np.array(bad), np.array([0, 1, 0]), ids)
    with pytest.raises(GraphError, match="rels id outside"):
        KnowledgeGraph(5, 2, ids, np.array([0, 2, 0]), ids)
    with pytest.raises(GraphError, match="tails id outside"):
        KnowledgeGraph(5, 2, ids, np.array([0, 1, 0]), np.array([0, 1, 5]))
    g = build_graph([(0, 1, 4), (4, 0, 2), (2, 1, 3)], 5, 2)
    tape = Tape()
    for name, num in (("heads", 5), ("tails", 5), ("rels", 2)):
        idx = g.index[name]
        assert idx.ids is getattr(g, name) and idx.bound == num
        out = tape.gather(tape.leaf(np.arange(2.0 * num).reshape(num, 2)), idx)
        assert np.array_equal(out.value, np.arange(2.0 * num).reshape(num, 2)[idx.ids])
        with pytest.raises(IndexError):
            tape.gather(tape.leaf(np.ones((num - 1, 2))), idx)
        with pytest.raises(IndexError):
            tape.segment_sum(tape.leaf(np.ones((3, 2))), idx, num - 1)
        assert tape.segment_sum(tape.leaf(np.ones((3, 2))), idx, num + 1).shape == (num + 1, 2)


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
    assert g.norm_column(0.3, 1, True)[2, 0] == 0.0
    assert g.norm_column(0.3, 1, False)[1, 0] == 0.0


def test_norm_factor_columns_match_scalars():
    rng = seeded(2)
    triples = [(int(h), int(r), int(t)) for h, r, t in
               zip(rng.integers(0, 10, 30), rng.integers(0, 4, 30), rng.integers(0, 10, 30))]
    g = build_graph(triples, 10, 4)
    ent = g.norm_column(0.3, 1, True)[:, 0]
    rel = g.norm_column(0.3, 1, False)[:, 0]
    for v in range(10):
        assert ent[v] == degree_norm(g, v, 0.3)
    for r in range(4):
        assert rel[r] == relation_norm(g, r, 0.3)


def test_index_consistency_and_shuffle_determinism():
    rng = seeded(9)
    triples = list({(int(h), int(r), int(t)) for h, r, t in
                    zip(rng.integers(0, 20, 80), rng.integers(0, 5, 80), rng.integers(0, 20, 80))})
    g = build_graph(triples, 20, 5)
    from_in = {(u, r, v) for v in range(20) for (u, r) in in_edges(g, v)}
    from_out = {(u, r, v) for u in range(20) for (v, r) in out_edges(g, u)}
    from_rel = {(u, r, v) for r in range(5) for (u, v) in relation_edges(g, r)}
    expected = set(triples)
    assert from_in == expected and from_out == expected and from_rel == expected
    assert g.in_degree.sum() == g.num_triples
    assert g.out_degree.sum() == g.num_triples
    assert g.rel_degree.sum() == g.num_triples

    perm = rng.permutation(len(triples))
    g2 = build_graph([triples[i] for i in perm], 20, 5)
    for a, b in ((g.heads, g2.heads), (g.rels, g2.rels), (g.tails, g2.tails)):
        assert np.array_equal(a, b)
    assert all(in_edges(g, v) == in_edges(g2, v) and out_edges(g, v) == out_edges(g2, v)
               for v in range(20))
    assert all(relation_edges(g, r) == relation_edges(g2, r) for r in range(5))


def test_self_loops_kept():
    g = build_graph([(1, 0, 1)], 2, 1)
    assert g.num_triples == 1
    assert in_edges(g, 1) == [(1, 0)]
    assert out_edges(g, 1) == [(1, 0)]


@pytest.mark.parametrize("num_relations", [2 ** 21, 2 ** 21 + 1])
def test_sorted_distinct_columns_on_both_sides_of_the_int64_key_limit(num_relations):
    # n * n * r ids fit one int64 sort key at 2^63, and not beyond
    n, r = 2 ** 21, num_relations
    triples = [(n - 1, r - 1, n - 1), (0, 0, 0), (n - 1, 0, 0), (0, r - 1, n - 1),
               (n - 1, r - 1, n - 2), (0, 0, 0), (1, r - 1, 0), (n - 1, r - 1, n - 1)]
    assert_arrays(build_graph(triples, n, r), sorted(set(triples)))


# ---------------- properties ----------------


@st.composite
def instances(draw, max_triples=40):
    """(num_entities, num_relations, in-range triples)."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, 4))
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1))
    return n, r, draw(st.lists(triple, max_size=max_triples))


@PROPERTY
@given(instances(), st.data())
def test_any_order_or_duplication_gives_sorted_distinct_columns(instance, data):
    n, r, triples = instance
    extra = data.draw(st.lists(st.sampled_from(triples), max_size=10)) if triples else []
    shuffled = data.draw(st.permutations(triples + extra))
    if data.draw(st.booleans()):
        shuffled = np.array(shuffled, dtype=np.int64).reshape(-1, 3)
    g = build_graph(shuffled, n, r)
    distinct = sorted(set(triples))
    assert_arrays(g, distinct)
    assert (g.num_entities, g.num_relations, g.num_triples) == (n, r, len(distinct))


@PROPERTY
@given(instances())
def test_degrees_count_edges_and_sum_to_num_triples(instance):
    n, r, triples = instance
    g = build_graph(triples, n, r)
    assert g.in_degree.sum() == g.out_degree.sum() == g.rel_degree.sum() == g.num_triples
    assert (len(g.in_degree), len(g.out_degree), len(g.rel_degree)) == (n, n, r)
    distinct = set(triples)
    for v in range(n):
        # the oracle neighbourhoods ascend and hold exactly the incident edges
        assert in_edges(g, v) == sorted((h, q) for h, q, t in distinct if t == v)
        assert out_edges(g, v) == sorted((t, q) for h, q, t in distinct if h == v)
        assert g.in_degree[v] == len(in_edges(g, v))
        assert g.out_degree[v] == len(out_edges(g, v))
    for q in range(r):
        assert relation_edges(g, q) == sorted((h, t) for h, p, t in distinct if p == q)
        assert g.rel_degree[q] == len(relation_edges(g, q))


@PROPERTY
@given(instances(), st.data())
def test_out_of_range_triple_names_its_input_index(instance, data):
    n, r, triples = instance
    bad = list(data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, r - 1),
                                   st.integers(0, n - 1))))
    slots = data.draw(st.sets(st.integers(0, 2), min_size=1))
    for k in slots:
        bad[k] = data.draw(st.one_of(st.integers(-5, -1), st.integers(r if k == 1 else n, 50)))
    i = data.draw(st.integers(0, len(triples)))
    # later triples, however bad, do not change the message
    later = data.draw(st.lists(st.tuples(st.integers(-9, 60), st.integers(-9, 60),
                                         st.integers(-9, 60)), max_size=3))
    with pytest.raises(GraphError) as err:
        build_graph(triples[:i] + [tuple(bad)] + later, n, r)
    what = "relation" if slots == {1} else "entity"
    assert str(err.value) == f"triple {i}: {what} id out of range in ({bad[0]},{bad[1]},{bad[2]})"
