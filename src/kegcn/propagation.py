"""Graph convolution layers where the messages are score gradients.

Entity update:  h_v' = sigma(m_v + W_0 h_v), where m_v sums
W * d f(h_u, h_r, h_v) / d h_v over in-edges and
W * d f(h_v, h_r, h_u) / d h_v over out-edges, scaled by
alpha / (|N_in(v)| + |N_out(v)|)  (zero for isolated entities).  The
sums run over the scorer's messages, the gradients over its `factors`
(fh, fr, ft), so m_v = ft * norm_v * (in-sum + out-sum) W, with - for +
where fh = -ft.

Relation update:  h_r' = sigma(W_rel (m_r + h_r)), where m_r sums
d f / d h_r over the edges labeled r, scaled by alpha / |N(r)|: the sum
of the messages times fr * alpha / |N(r)|.

sigma is relu inside the stack, the identity on the last layer and on
every compgcn relation; a layer updates relations iff it holds W_rel.

Updates are synchronous: every read comes from the input state.  The
default mode shares one W per layer and uses the same f on both
directions and for relations.  The reduction modes reproduce three
printed baselines exactly (their literal transcriptions live in
`checks.baseline_forward` and serve as equivalence oracles):

    compgcn-sub/-mult/-corr  f = phi(h_u, h_r)^T h_v, f_r = 0,
                             relation update collapses to W_rel h_r
    rgcn                     f = h_u^T h_v, per-relation W_r, no
                             relation table
    wgcn                     f = h_u^T h_v, W_r = alpha_r * W, no
                             relation table, self term uses W itself

Matrices are stored row-convention: a row vector h maps to h @ W.
The model's layout is decided once: `layer_shapes` gives each layer's
weight shapes and `table_shapes` a graph's embedding tables.
`init_params`/`init_state` draw exactly those shapes, and
`io.unpack_model` checks a checkpoint against them.
Every layer runs batched over all edges on a tape (`layer_forward_tape`).
Training reads only the last layer's entities, so `tasks.record_forward`
runs that layer without its W_rel, recording no relation update there;
`model_forward` runs it whole (relation alignment).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar, Optional

import numpy as np

from .autodiff import ForwardTape, Tape, Variable
from .graph import KnowledgeGraph
from .numerics import Generator, truncated_normal_fill
from .scorers import Scorer, base_dim, make_scorer

MODES = ("kegcn", "compgcn-sub", "compgcn-mult", "compgcn-corr", "rgcn", "wgcn")
REDUCTION_MODES = ("compgcn-sub", "compgcn-mult", "compgcn-corr", "rgcn", "wgcn")

# Gradient-message init gains.  Inner-product scorers emit entity gradients
# of scale ~sigma (one embedding); distance scorers emit difference vectors
# of scale ~4 sigma, so the message transform of the inner-product family
# starts 4x larger to give both families comparable message magnitude.
# The self transform starts small so early updates are structure-driven.
MESSAGE_GAIN = {"transe": 1.0, "transh": 1.0, "transd": 1.0, "rotate": 1.0,
                "distmult": 4.0, "quate": 4.0}
SELF_GAIN = 0.1


@dataclass
class LayerParams:
    """One layer's weights and its degree normalization (alpha).

    Exactly one of (w, w_per_rel) carries the message transform; wgcn
    additionally scales each message by rel_scale[r] and reuses w for
    the self term (w0 is None there).  WEIGHTS names the weights
    everywhere: fields, named parameters and checkpoint sections.
    """

    WEIGHTS: ClassVar[tuple] = ("w", "w0", "w_rel", "w_per_rel", "rel_scale")
    w: Optional[np.ndarray] = None
    w0: Optional[np.ndarray] = None
    w_rel: Optional[np.ndarray] = None
    w_per_rel: Optional[np.ndarray] = None
    rel_scale: Optional[np.ndarray] = None
    alpha: Optional[float] = None


@dataclass
class EmbeddingState:
    entity: np.ndarray
    relation: Optional[np.ndarray] = None


@dataclass
class ModelConfig:
    mode: str = "kegcn"
    scorer_kind: str = "transe"
    dim: int = 200
    layers: int = 4
    alpha: Optional[float] = 0.3
    out_dim: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.layers < 1:
            raise ValueError(f"layers must be at least 1, got {self.layers}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.mode == "kegcn":
            base_dim(self.scorer_kind, self.dim)


def config_scorer(cfg: ModelConfig) -> Optional[Scorer]:
    """dim is the hidden (entity) width; the scorer gets its base d."""
    if cfg.mode != "kegcn":
        return None
    return make_scorer(cfg.scorer_kind, base_dim(cfg.scorer_kind, cfg.dim))


def relation_width(cfg: ModelConfig) -> Optional[int]:
    if cfg.mode == "kegcn":
        return config_scorer(cfg).relation_width
    if cfg.mode.startswith("compgcn"):
        return cfg.dim
    return None


def layer_shapes(cfg: ModelConfig, num_relations: int, layer: int) -> dict:
    """The shapes of layer `layer`'s weights by name (see
    LayerParams.WEIGHTS), in the order init_params draws them."""
    we, wr = cfg.dim, relation_width(cfg)
    out_w = cfg.out_dim if layer == cfg.layers - 1 and cfg.out_dim is not None else we
    if cfg.mode == "rgcn":
        return {"w_per_rel": (num_relations, we, out_w), "w0": (we, out_w)}
    if cfg.mode == "wgcn":
        return {"w": (we, out_w), "rel_scale": (num_relations, 1)}
    return {"w": (we, out_w), "w0": (we, out_w), "w_rel": (wr, wr)}


def table_shapes(cfg: ModelConfig, graph: KnowledgeGraph) -> dict:
    """The shapes of a graph's embedding tables by EmbeddingState field."""
    wr = relation_width(cfg)
    return {"entity": (graph.num_entities, cfg.dim),
            **({"relation": (graph.num_relations, wr)} if wr else {})}


def init_params(cfg: ModelConfig, num_relations: int, rng: Generator) -> list[LayerParams]:
    """Truncated-normal weights with fan-in shape[-2]; wgcn's rel_scale
    starts at ones."""
    out: list[LayerParams] = []
    for layer in range(cfg.layers):
        weights = {f: np.ones(s) if f == "rel_scale" else truncated_normal_fill(s, rng, s[-2])
                   for f, s in layer_shapes(cfg, num_relations, layer).items()}
        if cfg.mode == "kegcn":
            weights["w"] *= MESSAGE_GAIN[cfg.scorer_kind]
            weights["w0"] *= SELF_GAIN
        out.append(LayerParams(**weights, alpha=cfg.alpha))
    return out


def init_state(cfg: ModelConfig, graph: KnowledgeGraph, rng: Generator) -> EmbeddingState:
    return EmbeddingState(*(truncated_normal_fill(s, rng)
                            for s in table_shapes(cfg, graph).values()))


# ---------------- batched tape path (production) ----------------


def lift(tape: Tape, x):
    """x (a LayerParams or EmbeddingState) with each array field a tape leaf, in field order."""
    return replace(x, **{f.name: tape.leaf(v) for f in fields(x)
                         if isinstance(v := getattr(x, f.name), np.ndarray)})


def _edge_messages_tape(tape, mode, scorer, U, Re, V, relation):
    """(message-to-head, -relation (None unless `relation`), -tail) per edge."""
    if mode == "kegcn":
        return scorer.messages(tape, U, Re, V, relation)
    if mode == "compgcn-sub":
        return tape.sub(V, Re), None, tape.sub(U, Re)
    if mode == "compgcn-mult":
        return tape.mul(V, Re), None, tape.mul(U, Re)
    if mode == "compgcn-corr":
        return tape.circular_correlation(V, Re), None, tape.circular_correlation(U, Re)
    return V, None, U


def _row_scale(tape: Tape, x: Variable, factor: int, graph: KnowledgeGraph,
               alpha: Optional[float], entity: bool) -> Variable:
    """x times `factor` and, unless alpha is None, its rows' degree norms."""
    if alpha is None:
        return x if factor == 1 else tape.scale(x, float(factor))
    return tape.scale(x, graph.norm_column(alpha, factor, entity))


def layer_forward_tape(tape: Tape, graph: KnowledgeGraph, mode: str, scorer: Optional[Scorer],
                       layer: LayerParams, hv: Variable, hr: Optional[Variable], last: bool):
    """One layer on `tape`, the last of its stack if `last`; `layer` holds
    its weights as leaves (`lift`).  The relation output is None unless
    the layer holds w_rel."""
    n, rn, ne = graph.num_entities, graph.num_relations, graph.num_triples
    self_term = tape.matmul(hv, layer.w0 if layer.w0 is not None else layer.w)
    gr_agg = None
    fh, fr, ft = scorer.factors if mode == "kegcn" else (1, 1, 1)
    if ne > 0:
        fc = graph.flat_cache
        # complex/quaternion messages run on (k, E, d) component planes
        k = scorer.planes if mode == "kegcn" else 1
        U = tape.gather(hv, graph.heads, flat_cache=fc["heads"], planes=k)
        V = tape.gather(hv, graph.tails, flat_cache=fc["tails"], planes=k)
        Re = (tape.gather(hr, graph.rels, flat_cache=fc["rels"], planes=k)
              if hr is not None else None)
        gh, gr, gt = _edge_messages_tape(tape, mode, scorer, U, Re, V, layer.w_rel is not None)
        if layer.w_per_rel is not None:
            gt = tape.per_relation_matmul(gt, layer.w_per_rel, graph.rels)
            gh = tape.per_relation_matmul(gh, layer.w_per_rel, graph.rels)
        elif layer.rel_scale is not None:
            scl = tape.gather(layer.rel_scale, graph.rels, flat_cache=fc["rels"])
            gt = tape.mul(gt, scl)
            gh = tape.mul(gh, scl)
        # in this order TransE's one message e adds its gradient (tail + relation) + head
        sh = tape.segment_sum(gh, graph.heads, n, flat_cache=fc["heads"], planes=k)
        if gr is not None:
            gr_agg = tape.segment_sum(gr, graph.rels, rn, flat_cache=fc["rels"], planes=k)
        st = tape.segment_sum(gt, graph.tails, n, flat_cache=fc["tails"], planes=k)
        m = (tape.add if fh == ft else tape.sub)(st, sh)
        m = _row_scale(tape, m, ft, graph, layer.alpha, entity=True)
        if layer.w_per_rel is None:
            m = tape.matmul(m, layer.w)
        pre = tape.add(m, self_term)
    else:
        pre = self_term
    new_hv = pre if last else tape.relu(pre)
    if layer.w_rel is None:
        return new_hv, None
    if gr_agg is not None:   # kegcn with edges; the other modes send no gr
        hr = tape.add(_row_scale(tape, gr_agg, fr, graph, layer.alpha, entity=False), hr)
    pre_r = tape.matmul(hr, layer.w_rel)
    return new_hv, pre_r if last or mode.startswith("compgcn") else tape.relu(pre_r)


def forward_on_tape(tape: Tape, graph: KnowledgeGraph, mode: str, scorer: Optional[Scorer],
                    layers: list[LayerParams], hv: Variable, hr: Optional[Variable]):
    """The stack of lifted `layers` on `tape`: its last entities and
    relations (None unless the last layer holds w_rel)."""
    for i, layer in enumerate(layers):
        hv, hr = layer_forward_tape(tape, graph, mode, scorer, layer, hv, hr, i == len(layers) - 1)
    return hv, hr


def model_forward(graph: KnowledgeGraph, state: EmbeddingState,
                  params_list: list[LayerParams], mode: str = "kegcn",
                  scorer: Optional[Scorer] = None) -> EmbeddingState:
    """The final state of the layer stack.  Runs on a ForwardTape, so the
    intermediates of each layer are freed once the layer returns."""
    tape = ForwardTape()
    st = lift(tape, state)
    hv, hr = forward_on_tape(tape, graph, mode, scorer, [lift(tape, p) for p in params_list],
                             st.entity, st.relation)
    return EmbeddingState(hv.value, None if hr is None else hr.value)
