import base64
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmatch import autodiff as ad
from graphmatch.autodiff import Tensor, backward
from graphmatch.graphs import make_graph, normalized_adjacency
from graphmatch.model import (ConfigError, Model, ModelConfig, aggregate, encode_arrays,
                              init_params, load_checkpoint, loss_mse, node_graph_match, padded,
                              param_shapes, predict, save_checkpoint)

from conftest import finite_difference_grad, random_graph, rel_err


def tiny_config(**kw):
    base = dict(feature_dim=3, gcn_layers=2, gcn_dim=4, perspectives=3,
                dropout=0.1, mode="mgmn", task="regression",
                sgnn_aggregator="max")
    base.update(kw)
    return ModelConfig(**base)


def permuted_graph(g, perm):
    inv = np.argsort(perm)
    return make_graph(g.id + "_perm", np.asarray(g.features)[perm],
                      [(int(inv[u]), int(inv[v])) for u, v in g.edges])


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(dropout=1.0)
    with pytest.raises(ConfigError):
        tiny_config(mode="simgnn")
    with pytest.raises(ConfigError):
        tiny_config(gcn_layers=0)
    with pytest.raises(ConfigError, match="feature_dim must be >= 1, got 0"):
        tiny_config(feature_dim=0)


# ---------------------------------------------------------------------------
# gcn

def test_gcn_zero_features_give_zero_embedding(rng):
    g = make_graph("z", np.zeros((1, 3)), [])
    cfg = tiny_config()
    m = Model(cfg, rng=rng)
    h = m.encode(g)
    assert np.array_equal(h.data, np.zeros((1, cfg.gcn_dim)))


def test_gcn_permutation_equivariance(rng):
    g = random_graph(rng, n_min=4, n_max=6, labeled=False)
    perm = rng.permutation(g.num_nodes)
    pg = permuted_graph(g, perm)
    cfg = tiny_config(dropout=0.0)
    m = Model(cfg, rng=np.random.default_rng(3))
    h = m.encode(g)
    hp = m.encode(pg)
    assert np.allclose(hp.data, h.data[perm], atol=1e-12)


def test_gcn_output_shape_finite(rng):
    g = random_graph(rng, n_min=5, n_max=5, feature_dim=3, labeled=False)
    cfg = ModelConfig(feature_dim=3, gcn_layers=3, gcn_dim=100, perspectives=5,
                      mode="sgnn", sgnn_aggregator="max")
    m = Model(cfg, rng=np.random.default_rng(0))
    h = m.encode(g, rng=rng)
    assert h.shape == (5, 100)
    assert np.all(np.isfinite(h.data))


# ---------------------------------------------------------------------------
# matching layers

def one_pair(x1, x2):
    """Rows of one pair's two graphs stacked, with the pair's (T, 2) index."""
    n = len(x1)
    x = Tensor(np.concatenate([np.asarray(x1, float), np.asarray(x2, float)]))
    return x, padded([np.arange(n), n + np.arange(len(x2))])


def test_cross_attention_identity_diag(rng):
    # orthonormal rows attend only to themselves: the weights are the identity
    h = np.linalg.qr(rng.normal(size=(6, 4)))[0].T
    x, index = one_pair(h, h)
    out = ad.cross_attention(x, index)
    assert np.allclose(out.data, np.concatenate([h, h]), atol=1e-12)


def test_cross_attention_orthogonal_rows():
    x, index = one_pair([[1.0, 0.0]], [[0.0, 2.0]])
    assert np.array_equal(ad.cross_attention(x, index).data, np.zeros((2, 2)))


def test_beta_is_exact_transpose(rng):
    # the second graph's weights are the transpose of the first graph's
    h1, h2 = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
    alpha = (h1 @ h2.T) / np.outer(np.linalg.norm(h1, axis=1), np.linalg.norm(h2, axis=1))
    x, index = one_pair(h1, h2)
    out = ad.cross_attention(x, index).data
    assert np.allclose(out[:3], alpha @ h2, atol=1e-12)
    assert np.allclose(out[3:], alpha.T @ h1, atol=1e-12)


def test_attentive_embedding_scaling(rng):
    # cosine weights ignore the other graph's scale, so its summary scales with it
    h1, h2 = rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
    base = ad.cross_attention(*one_pair(h1, h2)).data
    scaled = ad.cross_attention(*one_pair(h1, 3.0 * h2)).data
    assert np.allclose(scaled[:2], 3.0 * base[:2], atol=1e-12)


def test_attentive_embedding_zero_weights():
    x, index = one_pair([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(ad.cross_attention(x, index).data[0], [0.0, 0.0, 0.0])


def test_attentive_embedding_hand_case():
    x, index = one_pair([[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    c = 1.0 / np.sqrt(2.0)
    assert np.allclose(ad.cross_attention(x, index).data, [[c, c], [c, c], [c, c]])


def test_cross_attention_batch_equals_single_pairs(rng):
    h = [rng.normal(size=(n, 3)) for n in (1, 4, 2, 1, 3)]
    x = Tensor(np.concatenate(h))
    start = np.cumsum([0] + [len(q) for q in h])
    rows = [start[i] + np.arange(len(q)) for i, q in enumerate(h)]
    # pairs (0, 1) and (2, 3); graph 4 pairs with nothing and is left alone
    both = ad.cross_attention(x, padded([rows[0], rows[2], rows[1], rows[3]])).data
    for i, j in ((0, 1), (2, 3)):
        one = ad.cross_attention(*one_pair(h[i], h[j])).data
        assert np.allclose(both[np.concatenate([rows[i], rows[j]])], one, atol=1e-12)
    assert np.array_equal(both[rows[4]], np.zeros((3, 3)))


def test_multi_perspective_identical_inputs(rng):
    x = Tensor(rng.normal(size=(2, 4)) + 3.0)
    w = Tensor(rng.uniform(0.5, 1.5, size=(5, 4)))
    out = ad.weighted_cosine(x, x, w)
    assert np.allclose(out.data, 1.0)


def test_multi_perspective_all_ones_reduces_to_cosine(rng):
    x1, x2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    out = ad.weighted_cosine(Tensor(x1), Tensor(x2), Tensor(np.ones((1, 4))))
    want = np.sum(x1 * x2) / (np.linalg.norm(x1) * np.linalg.norm(x2))
    assert abs(out.data[0, 0] - want) < 1e-12


def test_multi_perspective_hand_value():
    out = ad.weighted_cosine(Tensor([[1.0, 1.0]]), Tensor([[1.0, 0.0]]),
                             Tensor([[1.0, 2.0]]))
    assert abs(out.data[0, 0] - 1.0 / np.sqrt(5.0)) < 1e-10


def test_multi_perspective_range(rng):
    out = ad.weighted_cosine(Tensor(rng.normal(size=(6, 5))),
                             Tensor(rng.normal(size=(6, 5))),
                             Tensor(rng.normal(size=(7, 5))))
    assert np.all(out.data <= 1.0 + 1e-12)
    assert np.all(out.data >= -1.0 - 1e-12)


def test_node_graph_match_identical_one_node_graphs():
    x, index = one_pair([[2.0, 3.0]], [[2.0, 3.0]])
    w = Tensor(np.abs(np.random.default_rng(0).normal(size=(4, 2))) + 0.1)
    m = node_graph_match(x, index, w)
    # attentive summary is a positive multiple of the node itself
    assert np.allclose(m.data, 1.0)


def test_node_graph_match_swap_symmetry(rng):
    x, index = one_pair(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
    w = Tensor(rng.normal(size=(6, 4)))
    assert np.array_equal(node_graph_match(x, index, w).data,
                          node_graph_match(x, index[:, ::-1], w).data)


def test_node_graph_match_shapes(rng):
    x, index = one_pair(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
    m = node_graph_match(x, index, Tensor(rng.normal(size=(7, 4))))
    assert m.shape == (8, 7)


# ---------------------------------------------------------------------------
# aggregation

def test_max_aggregator():
    out = aggregate(Tensor([[1.0, 5.0], [3.0, 2.0]]), "max", {}, "", padded([np.arange(2)]))
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_max_and_fcmax_permutation_invariant(rng):
    h = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    params = {"fcmax.weight": Tensor(rng.normal(size=(4, 4))),
              "fcmax.bias": Tensor(rng.normal(size=(1, 4)))}
    for agg in ("max", "fcmax"):
        a = aggregate(Tensor(h), agg, params, "", padded([np.arange(6)]))
        b = aggregate(Tensor(h[perm]), agg, params, "", padded([np.arange(6)]))
        assert np.array_equal(a.data, b.data)


def test_bilstm_aggregator_shape(rng):
    cfg = ModelConfig(feature_dim=3, gcn_dim=100, perspectives=5, mode="sgnn",
                      sgnn_aggregator="bilstm")
    params = {k: v for k, v in
              Model(cfg, rng=np.random.default_rng(0)).params.items()
              if k.startswith("sgnn_lstm")}
    out = aggregate(Tensor(rng.normal(size=(4, 100))), "bilstm", params,
                    "sgnn_lstm", padded([rng.permutation(4)]))
    assert out.shape == (1, 200)
    assert np.all(np.isfinite(out.data))


def test_aggregate_sequences_match_one_at_a_time(rng):
    cfg = ModelConfig(feature_dim=3, gcn_dim=4, perspectives=3, mode="sgnn",
                      sgnn_aggregator="bilstm")
    params = Model(cfg, rng=np.random.default_rng(0)).params
    params.update({"fcmax.weight": Tensor(rng.normal(size=(4, 4))),
                   "fcmax.bias": Tensor(rng.normal(size=(1, 4)))})
    h = Tensor(rng.normal(size=(9, 4)))
    seqs = [np.array([4, 2, 0]), np.array([7]), np.array([1, 8, 3, 5, 6])]
    for agg in ("max", "fcmax", "bilstm"):
        out = aggregate(h, agg, params, "sgnn_lstm", padded(seqs)).data
        for i, q in enumerate(seqs):
            one = aggregate(ad.gather_rows(h, q), agg, params, "sgnn_lstm",
                            padded([np.arange(len(q))])).data
            assert np.allclose(out[i], one[0], rtol=0, atol=1e-12), agg


# ---------------------------------------------------------------------------
# prediction and loss

def test_predict_classification_identical():
    h = Tensor([[1.0, -2.0, 0.5]])
    assert abs(predict(h, h, "classification", {}).item() - 1.0) < 1e-12


def test_predict_classification_opposite():
    h = Tensor([[1.0, -2.0, 0.5]])
    got = predict(h, h * Tensor(-1.0), "classification", {}).item()
    assert abs(got + 1.0) < 1e-12


def test_predict_regression_zero_weights():
    params = {}
    width = 6
    for i in range(4):
        nxt = 1 if i == 3 else max(width // 2, 1)
        params[f"mlp.{i}.weight"] = Tensor(np.zeros((width, nxt)))
        params[f"mlp.{i}.bias"] = Tensor(np.zeros((1, nxt)))
        width = nxt
    got = predict(Tensor([[1.0, 2.0, 3.0]]), Tensor([[0.0, 1.0, 0.0]]),
                  "regression", params).item()
    assert got == 0.5


def test_loss_mse_values():
    zero = loss_mse(Tensor([0.2, 0.8]), [0.2, 0.8])
    assert zero.item() == 0.0
    one = loss_mse(Tensor([0.0]), [1.0])
    assert one.item() == 1.0
    hand = loss_mse(Tensor([0.2, 0.8]), [0.0, 1.0])
    assert abs(hand.item() - 0.04) < 1e-12


def test_loss_mse_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        loss_mse(Tensor(np.empty(0)), [])


# ---------------------------------------------------------------------------
# full pair forward

def test_identical_pair_scores_one_classification(rng):
    g = random_graph(rng, n_min=4, n_max=5, labeled=False)
    cfg = tiny_config(task="classification", mode="mgmn", sgnn_aggregator="max")
    m = Model(cfg, rng=np.random.default_rng(1))
    assert abs(m.forward_pair(g, g, training=False).item() - 1.0) < 1e-9


def test_pair_symmetry_eval_mode(rng):
    g1 = random_graph(rng, n_min=3, n_max=5, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=3, n_max=5, labeled=False, gid="b")
    cfg = tiny_config(task="classification", mode="sgnn", sgnn_aggregator="max")
    m = Model(cfg, rng=np.random.default_rng(1))
    assert m.forward_pair(g1, g2).item() == m.forward_pair(g2, g1).item()


def test_sgnn_max_score_permutation_invariant(rng):
    g1 = random_graph(rng, n_min=4, n_max=6, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=4, n_max=6, labeled=False, gid="b")
    cfg = tiny_config(task="classification", mode="sgnn", sgnn_aggregator="max",
                      dropout=0.0)
    m = Model(cfg, rng=np.random.default_rng(1))
    base = m.forward_pair(g1, g2).item()
    for _ in range(5):
        p1 = permuted_graph(g1, rng.permutation(g1.num_nodes))
        p2 = permuted_graph(g2, rng.permutation(g2.num_nodes))
        assert abs(m.forward_pair(p1, p2).item() - base) < 1e-9


def test_score_ranges(rng):
    g1 = random_graph(rng, n_min=3, n_max=5, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=3, n_max=5, labeled=False, gid="b")
    cls = Model(tiny_config(task="classification"), rng=np.random.default_rng(0))
    reg = Model(tiny_config(task="regression"), rng=np.random.default_rng(0))
    c = cls.forward_pair(g1, g2).item()
    r = reg.forward_pair(g1, g2).item()
    assert -1.0 <= c <= 1.0
    assert 0.0 < r < 1.0


def test_feature_width_mismatch_raises(rng):
    g = random_graph(rng, feature_dim=5, labeled=False)
    m = Model(tiny_config(), rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        m.forward_pair(g, g)


def test_siamese_sharing_single_storage(rng):
    # both graphs of a pair are encoded through the same Tensor objects
    m = Model(tiny_config(), rng=np.random.default_rng(0))
    names = [k for k in m.params if k.startswith("gcn.")]
    assert names
    before = {k: id(m.params[k]) for k in names}
    g1 = random_graph(rng, labeled=False, gid="a")
    g2 = random_graph(rng, labeled=False, gid="b")
    m.forward_pair(g1, g2, training=True, rng=rng)
    assert {k: id(m.params[k]) for k in names} == before


@pytest.mark.parametrize("mode,agg,task", [
    ("mgmn", "max", "regression"),
    ("mgmn", "bilstm", "regression"),
    ("ngmn", "max", "classification"),
    ("sgnn", "fcmax", "regression"),
])
def test_end_to_end_gradient_fd(mode, agg, task):
    rng = np.random.default_rng(11)
    g1 = random_graph(rng, n_min=4, n_max=4, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=4, n_max=4, labeled=False, gid="b")
    cfg = tiny_config(mode=mode, sgnn_aggregator=agg, task=task, dropout=0.0)
    m = Model(cfg, rng=np.random.default_rng(5))
    target = 0.7 if task == "regression" else 1.0

    def build():
        return loss_mse(m.forward_batch([(g1, g2)]), [target])

    loss = build()
    m.zero_grad()
    backward(loss)
    analytic = {k: p.grad.copy() for k, p in m.params.items()}
    fd = finite_difference_grad(lambda: build().item(),
                                list(m.params.values()), h=1e-5)
    for (k, p), g in zip(m.params.items(), fd):
        assert rel_err(analytic[k], g) < 1e-4, k


def test_training_mode_gradient_fd_with_dropout():
    # dropout and the aggregation permutation are driven by a reseeded rng so
    # the loss is a deterministic function of the parameters
    rng = np.random.default_rng(21)
    g1 = random_graph(rng, n_min=4, n_max=4, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=4, n_max=4, labeled=False, gid="b")
    cfg = tiny_config(mode="mgmn", sgnn_aggregator="bilstm", dropout=0.2)
    m = Model(cfg, rng=np.random.default_rng(5))

    def build():
        pred = m.forward_batch([(g1, g2)], rng=np.random.default_rng(99))
        return loss_mse(pred, [0.4])

    loss = build()
    m.zero_grad()
    backward(loss)
    analytic = {k: p.grad.copy() for k, p in m.params.items()}
    fd = finite_difference_grad(lambda: build().item(),
                                list(m.params.values()), h=1e-5)
    for (k, p), g in zip(m.params.items(), fd):
        assert rel_err(analytic[k], g) < 1e-4, k


# ---------------------------------------------------------------------------
# batched forward against a loop of batches of one

CONFIGS = [(mode, agg, task) for mode in ("sgnn", "ngmn", "mgmn")
           for agg in ("max", "fcmax", "bilstm") for task in ("classification", "regression")]


@st.composite
def batches(draw):
    """Random graphs of 1-6 nodes and a batch of pairs over them; graphs recur
    across pairs and a whole pair may repeat."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    graphs = [random_graph(rng, n_min=n, n_max=n, labeled=False, gid=f"g{i}")
              for i, n in enumerate(sizes)]
    index = st.integers(0, len(graphs) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
    if draw(st.booleans()):
        pairs.append(pairs[0])
    return [(graphs[i], graphs[j]) for i, j in pairs]


@pytest.mark.parametrize("mode,agg,task", CONFIGS)
@settings(max_examples=25, deadline=None)
@given(pairs=batches(), training=st.booleans(), seed=st.integers(0, 1000))
def test_forward_batch_equals_batches_of_one(mode, agg, task, pairs, training, seed):
    m = Model(tiny_config(mode=mode, sgnn_aggregator=agg, task=task, dropout=0.0),
              rng=np.random.default_rng(seed))
    targets = np.linspace(-0.5, 0.9, len(pairs))

    def scores_and_grads(run):
        m.zero_grad()
        scores = run()
        backward(loss_mse(scores, targets))
        return scores.data, {k: p.grad.copy() for k, p in m.params.items()}

    # at train time both draw the reading orders pair by pair from one stream
    batch, batch_grads = scores_and_grads(lambda: m.forward_batch(
        pairs, rng=np.random.default_rng(seed) if training else None))
    loop_rng = np.random.default_rng(seed) if training else None
    single, single_grads = scores_and_grads(lambda: ad.concat([
        m.forward_batch([pair], rng=loop_rng) for pair in pairs]))
    assert np.max(np.abs(batch - single)) <= 1e-12
    # relative to the parameter's largest gradient entry, and absolute (1e-12)
    # below 1e-2: a gradient that is zero in exact arithmetic, such as that of
    # cos(a, a) in a self-pair, is rounding noise of about ulp / |a| on both
    # sides (1e-14 seen), which no relative bound can hold
    for k, g in single_grads.items():
        err = np.max(np.abs(batch_grads[k] - g))
        assert err <= 1e-10 * max(np.max(np.abs(g)), 1e-2), k


def test_checkpoints_of_the_per_pair_model_score_the_same(tmp_path):
    """Checkpoints and scores written by the per-pair model (forward_pair
    before forward_batch existed) for four configurations: eval scores, and
    train-mode scores at dropout 0 from one generator seeded 7, which pin the
    order the reading orders are drawn in. The softmax-attention model's
    checkpoint is refused, since that attention rule is retired."""
    import json
    ref = json.loads((Path(__file__).parent / "data" / "per_pair_reference.json").read_text())
    graphs = [make_graph(g["id"], g["nodes"], g["edges"]) for g in ref["graphs"]]
    pairs = [(graphs[i], graphs[j]) for i, j in ref["pairs"]]
    for name, rec in ref["models"].items():
        path = tmp_path / f"{name}.ckpt"
        path.write_text(json.dumps(rec["checkpoint"]))
        if rec["checkpoint"]["config"]["normalize_attention"]:
            with pytest.raises(ConfigError,
                               match="normalize_attention supports only False, got True"):
                load_checkpoint(path)
            continue
        model, _ = load_checkpoint(path)
        batch = model.forward_batch(pairs).data
        single = [model.forward_pair(g1, g2).item() for g1, g2 in pairs]
        assert np.max(np.abs(batch - rec["scores"])) <= 1e-12, name
        assert np.max(np.abs(np.asarray(single) - rec["scores"])) <= 1e-12, name
        model.config.dropout = 0.0
        train = model.forward_batch(pairs, rng=np.random.default_rng(7)).data
        assert np.max(np.abs(train - rec["train_scores_dropout0_seed7"])) <= 1e-12, name


def test_eval_batch_encodes_each_graph_once(rng, monkeypatch):
    """forward_batch gives every pair side its own slot, at eval as at train."""
    import graphmatch.model as model_module
    g1, g2, g3 = (random_graph(rng, gid=k) for k in "abc")
    encoded = []
    real = model_module.gcn_forward
    monkeypatch.setattr(model_module, "gcn_forward",
                        lambda graphs, *a: encoded.append(list(graphs)) or real(graphs, *a))
    m = Model(tiny_config(), rng=np.random.default_rng(0))
    pairs = [(g1, g2), (g1, g3), (g3, g1)]
    m.forward_batch(pairs)
    m.forward_batch(pairs[:2], rng=rng)
    assert [[g.id for g in gs] for gs in encoded] == [["a", "b", "a", "c", "c", "a"],
                                                     ["a", "b", "a", "c"]]


def test_an_eval_pass_builds_no_generator(rng, monkeypatch):
    """A pass trains exactly when it is handed a generator: an eval pass makes
    none, and only forward_pair's train pass without one seeds its own."""
    g1, g2 = (random_graph(rng, gid=k) for k in "ab")
    m = Model(tiny_config(), rng=np.random.default_rng(0))
    made, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or real(*a))
    m.forward_pair(g1, g2)
    m.forward_batch([(g1, g2), (g2, g1)])
    assert made == []
    m.forward_pair(g1, g2, training=True)
    assert made == [(0,)]


def test_forward_batch_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        Model(tiny_config(), rng=np.random.default_rng(0)).forward_batch([])


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    m = Model(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, extra={"step": 3})
    loaded, extra = load_checkpoint(path)
    assert extra == {"step": 3}
    assert loaded.config == m.config
    assert set(loaded.params) == set(m.params)
    for k in m.params:
        assert np.array_equal(loaded.params[k].data, m.params[k].data)


# any JSON value: floats include -0.0, subnormals, inf and nan, strings non-ASCII text
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(extra=st.dictionaries(st.text(), json_values, max_size=5),
       rows=st.integers(0, 3), seed=st.integers(0, 100))
@example(extra={"x": [-0.0, 5e-324, -2.2250738585072014e-308], "\u00e9\u2603": {"": None}},
         rows=1, seed=0)
def test_checkpoint_file_is_the_bytes_of_json_dumps(tmp_path_factory, extra, rows, seed):
    """save_checkpoint streams the document, base64 payloads unescaped, and
    writes exactly json.dumps of it, with payloads nested in extra too."""
    m = Model(tiny_config(), rng=np.random.default_rng(seed))
    extra = extra | {"arrays": {"m": encode_arrays({"w": np.full((rows, 2), -0.0)})}}
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, m, extra=extra)
    doc = {"format_version": 1, "config": asdict(m.config),
           "params": encode_arrays({k: p.data for k, p in m.params.items()}), "extra": extra}
    assert path.read_bytes() == json.dumps(doc).encode()


@pytest.mark.parametrize("mode,agg,task", CONFIGS)
def test_param_shapes_is_the_table_init_params_draws(mode, agg, task):
    config = tiny_config(mode=mode, sgnn_aggregator=agg, task=task)
    params = init_params(config, np.random.default_rng(0))
    assert list(param_shapes(config).items()) == [(k, p.shape) for k, p in params.items()]


# sha256 of the draws below: a change to it changes how every new model starts
PINNED_INIT_SHA256 = "7fff7d72a9f0f9b38a18d74dacdff5cd38529cb6cb2e682fc8afcb4d34756c1b"


def test_init_params_draws_are_pinned():
    """The names, shapes and values of a fixed draw, as every run so far made it."""
    digest = hashlib.sha256()
    for seed, agg in ((0, "bilstm"), (1, "fcmax")):
        params = init_params(tiny_config(sgnn_aggregator=agg), np.random.default_rng(seed))
        for name, p in params.items():
            digest.update(f"{name}{p.shape}".encode() + p.data.tobytes())
    assert digest.hexdigest() == PINNED_INIT_SHA256


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    import graphmatch.model as model_module
    path = tmp_path / "model.ckpt"
    m = Model(tiny_config(sgnn_aggregator="bilstm"), rng=np.random.default_rng(8))
    save_checkpoint(path, m)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(model_module, "init_params", refuse)
    loaded, _ = load_checkpoint(path)
    assert loaded.params.keys() == m.params.keys()
    for k, p in m.params.items():
        assert np.array_equal(loaded.params[k].data, p.data)


def test_failed_checkpoint_write_leaves_no_temporary_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    m = Model(tiny_config(), rng=np.random.default_rng(8))
    save_checkpoint(path, m, extra={"step": 3})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(path, m, extra={"x": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_rejects_unknown_version(tmp_path):
    m = Model(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    import json
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("change,message", [
    (lambda doc: doc["params"].pop("gcn.1.weight"),
     r"parameter 'gcn.1.weight' has shape nothing, but the config allocates \(4, 4\)"),
    (lambda doc: doc["params"].update({"gcn.1.weight": doc["params"]["mlp.3.bias"]}),
     r"parameter 'gcn.1.weight' has shape \(1, 1\), but the config allocates \(4, 4\)"),
    (lambda doc: doc["params"].update({"extra.weight": doc["params"]["mlp.3.bias"]}),
     r"parameter 'extra.weight' has shape \(1, 1\), but the config allocates nothing"),
    (lambda doc: doc["params"]["gcn.1.weight"].pop("data"),
     r"parameter 'gcn.1.weight' lacks field 'data'"),
    (lambda doc: doc["params"]["gcn.1.weight"].update({"data": "not base64!"}),
     r"parameter 'gcn.1.weight': data is not base64"),
    (lambda doc: doc["params"]["gcn.1.weight"].update({"shape": [4, 5]}),
     r"parameter 'gcn.1.weight': data holds 128 bytes, but shape \[4, 5\] needs 20 float64"),
    (lambda doc: doc["params"]["gcn.1.weight"].update(
        {"data": base64.b64encode(np.r_[np.ones(15), np.nan].tobytes()).decode()}),
     r"parameter 'gcn.1.weight' holds a non-finite value"),
    (lambda doc: doc["params"]["gcn.1.weight"].update({"shape": [-4, -4]}),
     r"parameter 'gcn.1.weight' has shape \[-4, -4\], not a list of ints >= 0"),
    (lambda doc: doc["params"].update({"gcn.1.weight": [1.0]}),
     r"parameter 'gcn.1.weight' is not an object"),
    (lambda doc: doc["config"].pop("feature_dim"), r"model config lacks field\(s\) feature_dim"),
    (lambda doc: doc.pop("config"), r"the config section is missing or not an object"),
    (lambda doc: doc.pop("params"), r"the params section is missing or not an object"),
    (lambda doc: doc["config"].update({"gcn_dim": "4"}),
     r"model config value of the wrong type: gcn_dim takes int, got '4'"),
    (lambda doc: [doc], r"expected a JSON object, got list"),
])
def test_checkpoint_parameters_checked_against_config(tmp_path, change, message):
    """Every malformed checkpoint document is a ConfigError naming the file;
    a change that returns a list replaces the whole document."""
    import json
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(tiny_config(), rng=np.random.default_rng(8)))
    doc = json.loads(path.read_text())
    replaced = change(doc)
    path.write_text(json.dumps(replaced if isinstance(replaced, list) else doc))
    with pytest.raises(ConfigError, match=message) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_checkpoint_with_legacy_aggregator_key(tmp_path, rng):
    """A retired model config field loads at the one value every run gave it
    and scores the same; any other value is refused by name."""
    import json
    m = Model(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    saved = path.read_text()
    g1, g2 = random_graph(rng, gid="a"), random_graph(rng, gid="b")
    for key, kept, refused in (("ngmn_aggregator", "bilstm", "max"),
                               ("normalize_attention", False, True)):
        doc = json.loads(saved)
        doc["config"][key] = kept
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.forward_pair(g1, g2).item() == m.forward_pair(g1, g2).item()
        doc["config"][key] = refused
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"{key} supports only {kept!r}, got {refused!r}"):
            load_checkpoint(path)


def test_checkpoint_with_unknown_config_key(tmp_path):
    import json
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(tiny_config(), rng=np.random.default_rng(8)))
    doc = json.loads(path.read_text())
    doc["config"]["gcn_width"] = 8
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"unknown model config key\(s\) gcn_width; "
                                          r"valid fields: feature_dim, gcn_layers") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
