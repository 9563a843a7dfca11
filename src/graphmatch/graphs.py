"""Graph container and the preprocessing the GCN encoder consumes."""

import logging
import operator
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class GraphError(ValueError):
    """Raised when a graph violates its structural invariants."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph with per-node feature vectors.

    Edges are stored deduplicated with u < v and without self-loops; the
    self-loop term of the normalized adjacency is added during preprocessing.
    Optional integer node labels drive substitution costs in edit-distance
    computations; the optional group names the clone group a graph belongs to
    (the positives of the classification task).
    """

    id: str
    features: np.ndarray  # N x d
    edges: tuple  # of (u, v) with u < v
    labels: tuple | None = None
    group: str | None = None

    @property
    def num_nodes(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]


def _integer(x):
    """operator.index(x), but for a bool: JSON's true is no node index or label."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool")
    return operator.index(x)


def _holds_bool(x):
    """Whether x, a nested sequence or an array of numbers, holds a bool."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        return x.dtype == np.bool_
    return not {bool, np.bool_}.isdisjoint(map(type, np.asarray(x, dtype=object).flat))


def as_id(x, what="id"):
    """A graph or group id: a str, or an integer (not a bool) as its digits."""
    if isinstance(x, str):
        return x
    try:
        return str(_integer(x))
    except TypeError:
        raise GraphError(f"{what} {x!r} is not a string or an integer") from None


def make_graph(graph_id, features, edges, labels=None, group=None):
    """Build and validate a Graph, deduplicating undirected edges."""
    graph_id = as_id(graph_id)
    if _holds_bool(features):  # JSON's true would read as 1.0
        raise GraphError(f"graph {graph_id!r}: features must be numbers, not bools")
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise GraphError(f"graph {graph_id!r}: features must be an N x d matrix with "
                         f"N, d >= 1, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise GraphError(f"graph {graph_id!r}: features must be finite")
    n = feats.shape[0]
    seen = set()
    dupes = 0
    for e in edges:
        try:
            u, v = e
            if type(u) is not int or type(v) is not int:  # plain ints need no check
                u, v = _integer(u), _integer(v)
        except (TypeError, ValueError):
            raise GraphError(f"graph {graph_id!r}: edge {e!r} is not a pair of "
                             f"integer node indices") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"graph {graph_id!r}: edge ({u}, {v}) out of range for {n} nodes")
        if u == v:
            raise GraphError(f"graph {graph_id!r}: self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            dupes += 1
        seen.add(key)
    if dupes:
        log.warning("graph %r: dropped %d duplicate edge(s)", graph_id, dupes)
    if labels is not None:
        try:
            labels = tuple(_integer(x) for x in labels)
        except TypeError:
            raise GraphError(f"graph {graph_id!r}: labels must be integers") from None
        if len(labels) != n:
            raise GraphError(f"graph {graph_id!r}: {len(labels)} labels for {n} nodes")
    feats.setflags(write=False)
    return Graph(id=graph_id, features=feats, edges=tuple(sorted(seen)), labels=labels,
                 group=None if group is None else as_id(group, "group"))


def adjacency_matrix(g: Graph):
    """Dense symmetric 0/1 adjacency, no self-loops."""
    n = g.num_nodes
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def normalized_adjacency(g: Graph):
    """Symmetrically normalized adjacency with self-loops.

    Computes D^-1/2 (A + I) D^-1/2 where D is the degree matrix of A + I.
    An isolated node gets a diagonal entry of exactly 1.
    """
    a = adjacency_matrix(g)
    np.fill_diagonal(a, 1.0)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    # exactly symmetric: a is 0 or 1, so a[u, v] * dinv[u] is exact and the last product commutes
    return a * dinv[:, None] * dinv[None, :]


@dataclass(frozen=True)
class LabeledPair:
    """A training/evaluation pair of graph ids with its target score."""

    g1: str
    g2: str
    target: float
