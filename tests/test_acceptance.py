"""Acceptance gate: end-to-end checks with fixed tolerances.

Each test prints one summary line (visible with -rA or on failure) and
asserts the documented thresholds. The heavier end-to-end runs use reduced
layer widths and batch sizes so the whole gate stays within its wall-clock
budgets on a commodity CPU.
"""

import inspect
import itertools
import os
import time

import numpy as np
import pytest

from graphmatch import autodiff as ad
from graphmatch.autodiff import Tensor, backward
from graphmatch.data import gen_clone_dataset, gen_ged_dataset
from graphmatch.ged import ged_bruteforce, ged_exact
from graphmatch.graphs import make_graph
from graphmatch.metrics import mse_metric, spearman_rho
from graphmatch.model import (Model, ModelConfig, load_checkpoint, loss_mse,
                              save_checkpoint)
from graphmatch.training import TrainConfig, evaluate_pairs, train

from conftest import finite_difference_grad

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def _report(name, ok, detail):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-8)


def _random_graph(rng, n, n_labels=3, gid="g"):
    labels = [int(x) for x in rng.integers(0, n_labels, size=n)]
    feats = np.eye(n_labels)[labels]
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((u, v))
    return make_graph(gid, feats, sorted(edges), labels)


def _permuted(g, perm, gid):
    inv = np.argsort(perm)
    feats = np.asarray(g.features)[perm]
    edges = sorted(tuple(sorted((int(inv[u]), int(inv[v])))) for u, v in g.edges)
    labels = None if g.labels is None else tuple(g.labels[int(i)] for i in perm)
    return make_graph(gid, feats, edges, labels)


# ---------------------------------------------------------------------------
# 1. gradients of every op and of the full pipeline loss

def _fd_case(params, build):
    """Compare tape gradients of scalar build() against central differences."""
    out = build()
    for p in params:
        p.grad = None
    backward(out)
    fd = finite_difference_grad(lambda: build().item(), params, h=FD_STEP)
    worst = 0.0
    for p, g in zip(params, fd):
        worst = max(worst, _rel_err(p.grad if p.grad is not None else 0.0, g))
    return worst


def _op_cases(rng):
    t = lambda shape: Tensor(rng.normal(size=shape), requires_grad=True)
    w = lambda shape: Tensor(rng.normal(size=shape))  # fixed mixing weights
    cases = []
    a, b, wab = t((2, 3)), t((2, 3)), w((2, 3))
    cases.append(([a, b], lambda: ((a + b) * wab).mean()))
    cases.append(([a, b], lambda: ((a - b) * wab).mean()))
    cases.append(([a, b], lambda: (a * b * wab).mean()))
    r, c = t((1, 3)), t((2, 1))
    cases.append(([a, r], lambda: ((a + r) * wab).mean()))  # broadcast add
    cases.append(([a, c], lambda: (a * c * wab).mean()))    # broadcast mul
    m1, m2, wm = t((2, 3)), t((3, 4)), w((2, 4))
    cases.append(([m1, m2], lambda: ((m1 @ m2) * wm).mean()))
    x = Tensor(rng.normal(size=(2, 3)) + np.sign(rng.normal(size=(2, 3))) * 0.2,
               requires_grad=True)
    cases.append(([x], lambda: (ad.relu(x) * wab).mean()))
    cases.append(([a], lambda: (ad.sigmoid(a) * wab).mean()))
    cases.append(([a], lambda: a.mean()))
    w32, w43, w33, w2 = (w(s) for s in ((3, 2), (4, 3), (3, 3), (2,)))
    cases.append(([a], lambda: (ad.reshape(a, (3, 2)) * w32).mean()))
    cases.append(([a, b], lambda: (ad.concat([a, b], axis=0) * w43).mean()))
    cases.append(([a], lambda: (ad.gather_rows(a, [1, 0, 1]) * w33).mean()))
    # max_rows and bilstm_last: rows read through a time-major index padded
    # with -1, sequences of unequal length, rows out of order and some unread
    xm, w23 = t((6, 3)), w((2, 3))
    im = np.array([[4, 1], [0, 5], [2, -1]])
    cases.append(([xm], lambda: (ad.max_rows(xm, im) * w23).mean()))
    ones = Tensor(np.ones((1, 3)))  # the classification head's one perspective
    cases.append(([a, b], lambda: (ad.reshape(ad.weighted_cosine(a, b, ones), (-1,))
                                   * w2).mean()))
    seed = int(rng.integers(1 << 30))
    cases.append(([a], lambda: (ad.dropout(
        a, 0.3, np.random.default_rng(seed)) * wab).mean()))
    xs = t((8, 3))
    il = np.array([[6, 2], [0, 4], [-1, 1], [-1, 7]])
    lp = [t(s) for s in ((3, 8), (2, 8), (1, 8), (3, 8), (2, 8), (1, 8))]
    wl = w((2, 4))
    cases.append((([xs] + lp), lambda: (ad.bilstm_last(xs, *lp, index=il) * wl).mean()))
    wc, w24 = t((4, 3)), w((2, 4))
    cases.append(([a, b, wc], lambda: (ad.weighted_cosine(a, b, wc) * w24).mean()))
    # block_matmul: graphs of 2, 3 and 1 nodes, each block in its top-left corner
    sizes = (2, 3, 1)
    blocks = np.zeros((3, 3, 3))
    for k, n in enumerate(sizes):
        blocks[k, :n, :n] = rng.normal(size=(n, n))
    where = (np.repeat(np.arange(3), sizes), np.concatenate([np.arange(n) for n in sizes]))
    xg, w62 = t((6, 2)), w((6, 2))
    cases.append(([xg], lambda: (ad.block_matmul(blocks, xg, where) * w62).mean()))
    # cross_attention: pairs of 3 against 2 and 1 against 2 nodes, each of the 8
    # shuffled rows on exactly one pair side, in a time-major index padded with
    # -1: the first graphs in columns 0-1, the second graphs in columns 2-3
    perm = rng.permutation(8)
    ip = np.array([[perm[0], perm[5], perm[3], perm[6]],
                   [perm[1], -1, perm[4], perm[7]],
                   [perm[2], -1, -1, -1]])
    xp, w83 = t((8, 3)), w((8, 3))
    cases.append(([xp], lambda: (ad.cross_attention(xp, ip) * w83).mean()))
    return cases


def _pipeline_fd(seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(feature_dim=3, gcn_layers=2, gcn_dim=4, perspectives=3,
                      dropout=0.0, mode="mgmn", task="regression",
                      sgnn_aggregator="bilstm")
    model = Model(cfg, rng=rng)
    g1 = _random_graph(rng, 4, gid="a")
    g2 = _random_graph(rng, 4, gid="b")
    params = [model.params[k] for k in sorted(model.params)]

    def build():
        return loss_mse(model.forward_batch([(g1, g2)]), [0.7])

    return _fd_case(params, build)


def test_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for params, build in _op_cases(rng):
            worst = max(worst, _fd_case(params, build))
        worst = max(worst, _pipeline_fd(seed))
    elapsed = time.time() - t0
    ok = worst < GRAD_TOL and elapsed < 120
    _report("gradient-suite", ok,
            f"worst rel err {worst:.2e} (tol {GRAD_TOL}), {elapsed:.0f}s (< 120s)")


def test_gradient_suite_covers_every_op(monkeypatch):
    """Gate 1 checks every op: each public function of autodiff, but for
    backward, is called by some _op_cases build."""
    ops = [name for name, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")
           and name != "backward"]
    called = set()

    def recorded(name, op):
        def call(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        return call

    for name in ops:
        monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
    for _, build in _op_cases(np.random.default_rng(0)):
        build()
    missing = sorted(set(ops) - called)
    assert not missing, f"ops without a gate-1 case: {missing}"


# ---------------------------------------------------------------------------
# 2. edit-distance oracle equivalence and metric properties

def test_ged_oracle():
    t0 = time.time()
    rng = np.random.default_rng(42)
    mism = 0
    for i in range(200):
        labeled = i % 2 == 0
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g1 = _random_graph(rng, n1, gid="a")
        g2 = _random_graph(rng, n2, gid="b")
        if not labeled:
            g1 = make_graph("a", np.asarray(g1.features), g1.edges)
            g2 = make_graph("b", np.asarray(g2.features), g2.edges)
        if ged_exact(g1, g2).distance != ged_bruteforce(g1, g2).distance:
            mism += 1
    viol = 0
    for _ in range(100):
        ga, gb, gc = (_random_graph(rng, int(rng.integers(2, 6)), gid=k)
                      for k in "abc")
        dab = ged_exact(ga, gb).distance
        dbc = ged_exact(gb, gc).distance
        dac = ged_exact(ga, gc).distance
        if dac > dab + dbc + 1e-12:
            viol += 1
    elapsed = time.time() - t0
    ok = mism == 0 and viol == 0 and elapsed < 300
    _report("ged-oracle", ok,
            f"{mism}/200 bruteforce mismatches, {viol}/100 triangle violations, "
            f"{elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 3. permutation invariance of the order-free pipeline

def test_permutation_invariance():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(feature_dim=3, gcn_layers=3, gcn_dim=16, perspectives=8,
                      mode="sgnn", task="classification", sgnn_aggregator="max")
    model = Model(cfg, rng=rng)
    worst = 0.0
    for trial in range(50):
        n1, n2 = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        g1 = _random_graph(rng, n1, gid=f"a{trial}")
        g2 = _random_graph(rng, n2, gid=f"b{trial}")
        base = model.forward_pair(g1, g2).item()
        p1 = _permuted(g1, rng.permutation(n1), f"ap{trial}")
        p2 = _permuted(g2, rng.permutation(n2), f"bp{trial}")
        worst = max(worst, abs(model.forward_pair(p1, p2).item() - base))
    ok = worst < 1e-9
    _report("permutation-invariance", ok, f"max |delta| {worst:.2e} (< 1e-9), 50 trials")


# ---------------------------------------------------------------------------
# 4. synthetic regression end to end

@pytest.fixture(scope="module")
def regression_corpus():
    t0 = time.time()
    ds = gen_ged_dataset(n_graphs=200, node_range=(6, 9), seed=7,
                         max_train_pairs=1500, eval_candidates=20)
    return ds, time.time() - t0


def _fit_regression(ds, mode, agg, iterations, lr):
    cfg = ModelConfig(feature_dim=3, gcn_dim=64, perspectives=32, mode=mode,
                      task="regression", sgnn_aggregator=agg)
    model = Model(cfg, rng=np.random.default_rng(0))
    tc = TrainConfig(task="regression", learning_rate=lr, iterations=iterations,
                     batch_size=16, seed=0, val_every=iterations)
    train(model, ds, tc)
    preds, targets = evaluate_pairs(model, ds, ds.pairs_for_split("test"))
    return spearman_rho(preds, targets), mse_metric(preds, targets)


def test_regression_end_to_end(regression_corpus):
    ds, gen_time = regression_corpus
    t0 = time.time()
    rho, _ = _fit_regression(ds, "ngmn", "bilstm", 2000, 1e-3)
    _, mse_full = _fit_regression(ds, "mgmn", "bilstm", 1000, 5e-3)
    _, mse_plain = _fit_regression(ds, "sgnn", "max", 1000, 5e-3)
    elapsed = gen_time + time.time() - t0
    ok = rho >= 0.7 and mse_full <= mse_plain and elapsed < 1800
    _report("regression-end-to-end", ok,
            f"rho {rho:.3f} (>= 0.7), full-model mse {mse_full:.5f} <= "
            f"plain-model mse {mse_plain:.5f}, {elapsed:.0f}s (< 1800s)")


# ---------------------------------------------------------------------------
# 5. synthetic classification end to end

def test_classification_end_to_end():
    t0 = time.time()
    ds = gen_clone_dataset(n_groups=100, variants_per_group=4,
                           perturbation_budget=3, seed=11)
    fd = next(iter(ds.graphs.values())).feature_dim
    cfg = ModelConfig(feature_dim=fd, gcn_dim=32, perspectives=16, mode="mgmn",
                      task="classification", sgnn_aggregator="fcmax")
    model = Model(cfg, rng=np.random.default_rng(0))
    tc = TrainConfig(task="classification", epochs=10, seed=0)
    rep = train(model, ds, tc)
    best_auc = max(r["metric"] for r in rep.records if r["metric"] is not None)
    elapsed = time.time() - t0
    ok = best_auc >= 0.90 and elapsed < 1800
    _report("classification-end-to-end", ok,
            f"best val AUC {best_auc:.3f} (>= 0.90) within {len(rep.records)} "
            f"epochs (<= 50), {elapsed:.0f}s (< 1800s)")


# ---------------------------------------------------------------------------
# 6. forward cost scales with the node-pair interaction count

def test_forward_scaling():
    # widths chosen so the cross-graph interaction terms dominate the
    # profile; the graph-level head uses the order-free aggregator to keep
    # its sequential cost out of the measurement
    rng = np.random.default_rng(0)
    cfg = ModelConfig(feature_dim=3, gcn_layers=2, gcn_dim=512, perspectives=8,
                      mode="mgmn", task="regression", sgnn_aggregator="max")
    model = Model(cfg, rng=np.random.default_rng(1))
    medians = {}
    for n in (50, 100):
        g1 = _random_graph(rng, n, gid=f"a{n}")
        g2 = _random_graph(rng, n, gid=f"b{n}")
        model.forward_pair(g1, g2)  # warm-up: caches, allocator
        samples = []
        for _ in range(20):
            t0 = time.perf_counter()
            model.forward_pair(g1, g2)
            samples.append(time.perf_counter() - t0)
        medians[n] = float(np.median(samples))
    ratio = medians[100] / medians[50]
    ok = 2.5 <= ratio <= 6.0
    _report("forward-scaling", ok,
            f"(50,50) {medians[50]*1e3:.1f}ms -> (100,100) {medians[100]*1e3:.1f}ms, "
            f"ratio {ratio:.2f} (within [2.5, 6])")


# ---------------------------------------------------------------------------
# 7. determinism and persistence

def test_determinism_and_persistence(tmp_path):
    ds = gen_ged_dataset(n_graphs=14, node_range=(4, 5), seed=2)

    def fresh():
        cfg = ModelConfig(feature_dim=3, gcn_layers=2, gcn_dim=6, perspectives=4,
                          mode="mgmn", task="regression", sgnn_aggregator="max")
        return Model(cfg, rng=np.random.default_rng(7))

    def fit(model, iters, ckpt_dir, resume=None):
        tc = TrainConfig(task="regression", iterations=iters, batch_size=4,
                         seed=5, val_every=10, checkpoint_dir=ckpt_dir)
        return train(model, ds, tc, resume_from=resume)

    rep_a = fit(fresh(), 40, str(tmp_path / "a"))
    rep_b = fit(fresh(), 40, str(tmp_path / "b"))
    identical = rep_a.records == rep_b.records

    model = fresh()
    path = str(tmp_path / "rt.ckpt")
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    bit_exact = all(np.array_equal(loaded.params[k].data, p.data)
                    and loaded.params[k].data.dtype == p.data.dtype
                    for k, p in model.params.items())

    half = fresh()
    fit(half, 20, str(tmp_path / "half"))
    rep_resumed = fit(half, 40, str(tmp_path / "resumed"),
                      resume=str(tmp_path / "half" / "train_state.json"))
    resume_match = rep_resumed.records == rep_a.records

    ok = identical and bit_exact and resume_match
    _report("determinism-persistence", ok,
            f"identical logs {identical}, checkpoint bit-exact {bit_exact}, "
            f"resume matches {resume_match}")


# ---------------------------------------------------------------------------
# 8. stretch: released-benchmark data, if converted in

EXTERNAL_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "aids700")


def test_external_benchmark():
    if not os.path.isdir(EXTERNAL_DIR):
        print("ACCEPTANCE SKIP external-benchmark: no converted dataset at "
              f"{EXTERNAL_DIR}")
        pytest.skip("converted external dataset not present")
    from graphmatch.data import load_dataset_dir
    ds = load_dataset_dir(EXTERNAL_DIR)
    fd = next(iter(ds.graphs.values())).feature_dim
    cfg = ModelConfig(feature_dim=fd, mode="mgmn", task="regression")
    model = Model(cfg, rng=np.random.default_rng(0))
    tc = TrainConfig(task="regression", seed=0)
    train(model, ds, tc)
    preds, targets = evaluate_pairs(model, ds, ds.pairs_for_split("test"))
    mse = mse_metric(preds, targets)
    rho = spearman_rho(preds, targets)
    ok = mse <= 2.5e-3 and rho >= 0.85
    _report("external-benchmark", ok, f"mse {mse:.2e} (<= 2.5e-3), rho {rho:.3f} (>= 0.85)")
