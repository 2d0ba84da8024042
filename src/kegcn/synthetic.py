"""Synthetic benchmark instances with known ground truth.

Two families: a pair of isomorphic hub-signature graphs whose entity and
relation ids are permuted, in which every entity is structurally
identifiable (alignment recovers the permutation), and a relational
stochastic-block graph whose relations prefer endpoints of one class
(classification recovers the blocks).  `random_triples` draws the
uniform random multigraphs the verification harnesses run on.
"""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph, build_graph
from .numerics import Generator, seeded
from .tasks import AlignmentSeeds, LabelSet


def random_triples(n: int, r: int, edges: int, rng: Generator):
    """About `edges` distinct random triples without self loops."""
    heads = rng.integers(0, n, edges)
    rels = rng.integers(0, r, edges)
    tails = rng.integers(0, n, edges)
    return [(int(h), int(q), int(t))
            for h, q, t in zip(heads, rels, tails) if h != t]


def hub_signature_triples(n: int, r: int, edges: int, seed: int):
    """Random triples in which every entity is structurally identifiable.

    Uniform random graphs leave many entities with near-identical
    neighborhoods, which caps seed-based alignment well below perfect
    recovery.  Here a fifth of the entities act as hubs, each
    owning one relation through its hub group.  Every remaining entity
    attaches to its own distinct 3-hub subset with random edge
    directions, so the subset works like a signature, and hub pairs are
    chained group to group until the edge budget is met, which keeps the
    hubs themselves distinguishable."""
    rng = seeded(seed)
    hubs = int(n * 0.2)
    group = (np.arange(hubs) % r)[rng.permutation(hubs)]
    seen, triples = set(), []
    sigs = set()
    for leaf in range(hubs, n):
        while True:
            hs = tuple(sorted(rng.choice(hubs, size=3, replace=False)))
            if hs not in sigs:
                sigs.add(hs)
                break
        for h in hs:
            rel = int(group[h])
            if rng.random() < 0.5:
                e = (leaf, rel, int(h))
            else:
                e = (int(h), rel, leaf)
            if e not in seen:
                seen.add(e)
                triples.append(e)
    tries = 0
    while len(triples) < edges and tries < 100 * edges:
        tries += 1
        a, b = rng.choice(hubs, size=2, replace=False)
        ga, gb = int(group[a]), int(group[b])
        if gb != (ga + 1) % r and rng.random() < 0.8:
            continue
        e = (int(a), ga, int(b))
        if e not in seen:
            seen.add(e)
            triples.append(e)
    return triples


def hub_signature_pair(n: int = 200, r: int = 5, edges: int = 1000,
                       seed: int = 0):
    """Isomorphic hub-signature graphs plus the true pairings."""
    triples = hub_signature_triples(n, r, edges, seed)
    rng = seeded(seed + 1000)
    ent_perm = rng.permutation(n)
    rel_perm = rng.permutation(r)
    mapped = [(int(ent_perm[h]), int(rel_perm[q]), int(ent_perm[t]))
              for h, q, t in triples]
    g1 = build_graph(triples, n, r)
    g2 = build_graph(mapped, n, r)
    ent_pairs = [(i, int(ent_perm[i])) for i in range(n)]
    rel_pairs = [(j, int(rel_perm[j])) for j in range(r)]
    return g1, g2, ent_pairs, rel_pairs


def _split(items: list, train_fraction: float, valid_fraction: float, seed: int) -> tuple:
    """Shuffle `items` with the seed and carve (train, valid, test) lists."""
    order = seeded(seed).permutation(len(items))
    n_train = int(round(train_fraction * len(items)))
    n_valid = int(round(valid_fraction * len(items)))
    return tuple([items[i] for i in part] for part in
                 (order[:n_train], order[n_train:n_train + n_valid], order[n_train + n_valid:]))


def alignment_split(ent_pairs, train_fraction: float = 0.3, seed: int = 0,
                    valid_fraction: float = 0.0) -> AlignmentSeeds:
    """Shuffle the true pairs and carve train/valid/test seed sets."""
    return AlignmentSeeds(*_split(ent_pairs, train_fraction, valid_fraction, seed))


def block_classification(n: int = 300, classes: int = 3, edges: int = 1500,
                         noise: float = 0.1, seed: int = 0):
    """Directed stochastic-block graph with one relation per class:
    relation c points from a class-c entity to a class-(c+1) entity
    except for a `noise` fraction of uniform edges.  The consistent
    direction matters: translation scorers carry the relation signal
    with opposite signs on in- and out-edges, so undirected class
    blocks cancel it out.  Returns the graph and the entity class map."""
    rng = seeded(seed)
    labels = (np.arange(n) % classes)[rng.permutation(n)]
    members = [np.flatnonzero(labels == c) for c in range(classes)]
    seen, triples = set(), []
    tries = 0
    while len(triples) < edges and tries < 100 * edges:
        tries += 1
        if rng.random() < noise:
            h = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            c = int(rng.integers(0, classes))
        else:
            c = int(rng.integers(0, classes))
            src = members[c]
            dst = members[(c + 1) % classes]
            h = int(src[rng.integers(0, len(src))])
            t = int(dst[rng.integers(0, len(dst))])
        if h == t or (h, c, t) in seen:
            continue
        seen.add((h, c, t))
        triples.append((h, c, t))
    graph = build_graph(triples, n, classes)
    return graph, {i: (int(labels[i]),) for i in range(n)}


def classification_split(labels: dict, num_classes: int,
                         train_fraction: float = 0.1,
                         valid_fraction: float = 0.1,
                         seed: int = 0) -> LabelSet:
    """Shuffle the labelled entities and carve train/valid/test sets."""
    train, valid, test = _split(sorted(labels), train_fraction, valid_fraction, seed)
    return LabelSet(labels, num_classes, False, train=train, valid=valid, test=test)


def write_graph_tsv(path, graph: KnowledgeGraph) -> None:
    np.savetxt(path, np.column_stack((graph.heads, graph.rels, graph.tails)),
               fmt="%d", delimiter="\t")


def write_pairs_tsv(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def write_labels_tsv(path, labels: dict, entities) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entities:
            fh.write(f"{e}\t{','.join(str(c) for c in labels[e])}\n")
