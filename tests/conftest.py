import numpy as np
import pytest

from graphmatch.graphs import make_graph


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
