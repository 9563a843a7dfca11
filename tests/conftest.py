import itertools

import numpy as np
import pytest

from graphmatch.ged import EditCostScheme, GedBudgetError, GedResult, normalized_similarity
from graphmatch.graphs import make_graph

BRUTEFORCE_MAX_NODES = 5  # 1,546 mappings of a 5-node pair; 6 nodes take 13,327


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.max(np.abs(want)), 1e-8)
    return np.max(np.abs(got - want)) / denom


def finite_difference_grad(f, params, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each tensor in params.

    f must be deterministic and must read current .data of the params.
    Returns a list of arrays matching the parameter shapes.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_parameters_untouched(model, before):
    """model.params are before's {name: (tensor, its bytes)}: the same objects,
    still trainable, with no gradient and the same bytes."""
    assert model.params.keys() == before.keys()
    for k, (p, raw) in before.items():
        assert model.params[k] is p and p.requires_grad and p.grad is None, k
        assert p.data.tobytes() == raw, k


def record_predictions(monkeypatch):
    """Every tensor graphmatch.model.predict returns from here on, in order."""
    import graphmatch.model as model_module
    scores = []
    real_predict = model_module.predict
    monkeypatch.setattr(model_module, "predict",
                        lambda *args: scores.append(real_predict(*args)) or scores[-1])
    return scores


def edit_cost(g1, g2, mapping, costs):
    """Cost of the edit path a node mapping defines: {u: j} substitutes g1's
    node u by g2's node j, every other g1 node is deleted and every other g2
    node inserted; a g1 edge is kept when its two ends map onto the ends of a
    g2 edge, and every other g1 edge is deleted and every other g2 edge inserted."""
    assert len(set(mapping.values())) == len(mapping), "mapping is not injective"
    lab1 = g1.labels or (0,) * g1.num_nodes
    lab2 = g2.labels or (0,) * g2.num_nodes
    edges2 = set(g2.edges)
    kept = sum(u in mapping and v in mapping and tuple(sorted((mapping[u], mapping[v]))) in edges2
               for u, v in g1.edges)
    return ((g1.num_nodes - len(mapping)) * costs.node_delete
            + (g2.num_nodes - len(mapping)) * costs.node_insert
            + sum(costs.node_substitute for u, j in mapping.items() if lab1[u] != lab2[j])
            + (len(g1.edges) - kept) * costs.edge_delete
            + (len(edges2) - kept) * costs.edge_insert)


def ged_bruteforce(g1, g2, costs=None):
    """The minimum of edit_cost over every injective partial node mapping;
    refuses graphs above BRUTEFORCE_MAX_NODES."""
    costs = costs or EditCostScheme()
    n, m = g1.num_nodes, g2.num_nodes
    if max(n, m) > BRUTEFORCE_MAX_NODES:
        raise GedBudgetError(f"brute force limited to {BRUTEFORCE_MAX_NODES} nodes, got {n}/{m}")
    best = min(edit_cost(g1, g2, dict(zip(kept, image)), costs)
               for k in range(min(n, m) + 1)
               for kept in itertools.combinations(range(n), k)
               for image in itertools.permutations(range(m), k))
    return GedResult(best, normalized_similarity(best, n, m), 0)


def random_graph(rng, n_min=2, n_max=5, feature_dim=3, n_labels=2, labeled=True,
                 edge_prob=0.5, gid="g"):
    n = int(rng.integers(n_min, n_max + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    labels = [int(x) for x in rng.integers(0, n_labels, size=n)] if labeled else None
    feats = rng.normal(size=(n, feature_dim))
    return make_graph(gid, feats, edges, labels)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
