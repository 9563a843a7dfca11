import numpy as np
import pytest

from graphmatch import autodiff as ad
from graphmatch.autodiff import Tensor, backward, finite_difference_grad
from graphmatch.graphs import make_graph, normalized_adjacency
from graphmatch.model import (ConfigError, Model, ModelConfig, aggregate,
                              attentive_graph_embedding, cross_attention,
                              gcn_forward, load_checkpoint, loss_mse,
                              node_graph_match, predict, save_checkpoint)

from conftest import random_graph, rel_err


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


# ---------------------------------------------------------------------------
# gcn

def test_gcn_zero_features_give_zero_embedding(rng):
    g = make_graph("z", np.zeros((1, 3)), [])
    cfg = tiny_config()
    m = Model(cfg, rng=rng)
    h = m.encode(g, training=False, rng=rng)
    assert np.array_equal(h.data, np.zeros((1, cfg.gcn_dim)))


def test_gcn_permutation_equivariance(rng):
    g = random_graph(rng, n_min=4, n_max=6, labeled=False)
    perm = rng.permutation(g.num_nodes)
    pg = permuted_graph(g, perm)
    cfg = tiny_config(dropout=0.0)
    m = Model(cfg, rng=np.random.default_rng(3))
    h = m.encode(g, training=False, rng=rng)
    hp = m.encode(pg, training=False, rng=rng)
    assert np.allclose(hp.data, h.data[perm], atol=1e-12)


def test_gcn_output_shape_finite(rng):
    g = random_graph(rng, n_min=5, n_max=5, feature_dim=3, labeled=False)
    cfg = ModelConfig(feature_dim=3, gcn_layers=3, gcn_dim=100, perspectives=5,
                      mode="sgnn", sgnn_aggregator="max")
    m = Model(cfg, rng=np.random.default_rng(0))
    h = m.encode(g, training=True, rng=rng)
    assert h.shape == (5, 100)
    assert np.all(np.isfinite(h.data))


# ---------------------------------------------------------------------------
# matching layers

def test_cross_attention_identity_diag(rng):
    h = rng.normal(size=(4, 6))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    alpha, _ = cross_attention(Tensor(h), Tensor(h))
    assert np.allclose(np.diag(alpha.data), 1.0)


def test_cross_attention_orthogonal_rows():
    alpha, _ = cross_attention(Tensor([[1.0, 0.0]]), Tensor([[0.0, 2.0]]))
    assert alpha.data[0, 0] == 0.0


def test_beta_is_exact_transpose(rng):
    alpha, beta = cross_attention(Tensor(rng.normal(size=(3, 5))),
                                  Tensor(rng.normal(size=(4, 5))))
    assert np.array_equal(beta.data, alpha.data.T)


def test_attentive_embedding_scaling():
    out = attentive_graph_embedding(Tensor([[0.5]]), Tensor([[2.0, 4.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_attentive_embedding_zero_weights():
    out = attentive_graph_embedding(Tensor([[0.0, 0.0]]),
                                    Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0]])


def test_attentive_embedding_hand_case():
    out = attentive_graph_embedding(Tensor([[1.0, 1.0]]),
                                    Tensor([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out.data, [[1.0, 1.0]])


def test_multi_perspective_identical_inputs(rng):
    x = Tensor(rng.normal(size=(2, 4)) + 3.0)
    w = Tensor(rng.uniform(0.5, 1.5, size=(5, 4)))
    out = ad.weighted_cosine(x, x, w)
    assert np.allclose(out.data, 1.0)


def test_multi_perspective_all_ones_reduces_to_cosine(rng):
    x1 = Tensor(rng.normal(size=(1, 4)))
    x2 = Tensor(rng.normal(size=(1, 4)))
    out = ad.weighted_cosine(x1, x2, Tensor(np.ones((1, 4))))
    want = ad.cosine(x1, x2).item()
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
    h = Tensor([[2.0, 3.0]])
    w = Tensor(np.abs(np.random.default_rng(0).normal(size=(4, 2))) + 0.1)
    m1, m2 = node_graph_match(h, h, w)
    # attentive summary is a positive multiple of the node itself
    assert np.allclose(m1.data, 1.0)
    assert np.allclose(m2.data, 1.0)


def test_node_graph_match_swap_symmetry(rng):
    h1 = Tensor(rng.normal(size=(3, 4)))
    h2 = Tensor(rng.normal(size=(5, 4)))
    w = Tensor(rng.normal(size=(6, 4)))
    m1, m2 = node_graph_match(h1, h2, w)
    s2, s1 = node_graph_match(h2, h1, w)
    assert np.array_equal(m1.data, s1.data)
    assert np.array_equal(m2.data, s2.data)


def test_node_graph_match_shapes(rng):
    m1, m2 = node_graph_match(Tensor(rng.normal(size=(3, 4))),
                              Tensor(rng.normal(size=(5, 4))),
                              Tensor(rng.normal(size=(7, 4))))
    assert m1.shape == (3, 7)
    assert m2.shape == (5, 7)


# ---------------------------------------------------------------------------
# aggregation

def test_max_aggregator():
    out = aggregate(Tensor([[1.0, 5.0], [3.0, 2.0]]), "max", {}, "", False, None)
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_max_and_fcmax_permutation_invariant(rng):
    h = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    params = {"fcmax.weight": Tensor(rng.normal(size=(4, 4))),
              "fcmax.bias": Tensor(rng.normal(size=(1, 4)))}
    for agg in ("max", "fcmax"):
        a = aggregate(Tensor(h), agg, params, "", False, None)
        b = aggregate(Tensor(h[perm]), agg, params, "", False, None)
        assert np.array_equal(a.data, b.data)


def test_bilstm_aggregator_shape(rng):
    cfg = ModelConfig(feature_dim=3, gcn_dim=100, perspectives=5, mode="sgnn",
                      sgnn_aggregator="bilstm")
    params = {k: v for k, v in
              Model(cfg, rng=np.random.default_rng(0)).params.items()
              if k.startswith("sgnn_lstm")}
    out = aggregate(Tensor(rng.normal(size=(4, 100))), "bilstm", params,
                    "sgnn_lstm", True, rng)
    assert out.shape == (1, 200)
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# prediction and loss

def test_predict_classification_identical():
    h = Tensor([[1.0, -2.0, 0.5]])
    assert abs(predict(h, h, "classification", {}, False).item() - 1.0) < 1e-12


def test_predict_classification_opposite():
    h = Tensor([[1.0, -2.0, 0.5]])
    got = predict(h, -1.0 * h, "classification", {}, False).item()
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
                  "regression", params, False).item()
    assert got == 0.5


def test_loss_mse_values():
    zero = loss_mse([Tensor(0.2), Tensor(0.8)], [0.2, 0.8])
    assert zero.item() == 0.0
    one = loss_mse([Tensor(0.0)], [1.0])
    assert one.item() == 1.0
    hand = loss_mse([Tensor(0.2), Tensor(0.8)], [0.0, 1.0])
    assert abs(hand.item() - 0.04) < 1e-12


def test_loss_mse_empty_batch():
    with pytest.raises(ValueError):
        loss_mse([], [])


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
        pred = m.forward_pair(g1, g2, training=False)
        return loss_mse([pred], [target])

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
        pred = m.forward_pair(g1, g2, training=True, rng=np.random.default_rng(99))
        return loss_mse([pred], [0.4])

    loss = build()
    m.zero_grad()
    backward(loss)
    analytic = {k: p.grad.copy() for k, p in m.params.items()}
    fd = finite_difference_grad(lambda: build().item(),
                                list(m.params.values()), h=1e-5)
    for (k, p), g in zip(m.params.items(), fd):
        assert rel_err(analytic[k], g) < 1e-4, k


def test_normalize_attention_flag(rng):
    g1 = random_graph(rng, n_min=3, n_max=4, labeled=False, gid="a")
    g2 = random_graph(rng, n_min=3, n_max=4, labeled=False, gid="b")
    plain = Model(tiny_config(mode="ngmn", task="classification"),
                  rng=np.random.default_rng(2))
    normed = Model(tiny_config(mode="ngmn", task="classification",
                               normalize_attention=True),
                   rng=np.random.default_rng(2))
    a = plain.forward_pair(g1, g2).item()
    b = normed.forward_pair(g1, g2).item()
    assert a != b  # the flag changes the computation
    assert np.isfinite(b)


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
    (lambda params: params.pop("gcn.1.weight"),
     r"parameter 'gcn.1.weight' has shape nothing, but the config allocates \(4, 4\)"),
    (lambda params: params.update({"gcn.1.weight": params["mlp.3.bias"]}),
     r"parameter 'gcn.1.weight' has shape \(1, 1\), but the config allocates \(4, 4\)"),
    (lambda params: params.update({"extra.weight": params["mlp.3.bias"]}),
     r"parameter 'extra.weight' has shape \(1, 1\), but the config allocates nothing"),
])
def test_checkpoint_parameters_checked_against_config(tmp_path, change, message):
    import json
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(tiny_config(), rng=np.random.default_rng(8)))
    doc = json.loads(path.read_text())
    change(doc["params"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_with_legacy_aggregator_key(tmp_path, rng):
    import json
    m = Model(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    doc = json.loads(path.read_text())
    doc["config"]["ngmn_aggregator"] = "bilstm"
    path.write_text(json.dumps(doc))
    loaded, _ = load_checkpoint(path)
    assert loaded.config == m.config
    g1, g2 = random_graph(rng, gid="a"), random_graph(rng, gid="b")
    assert loaded.forward_pair(g1, g2).item() == m.forward_pair(g1, g2).item()
    doc["config"]["ngmn_aggregator"] = "max"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="ngmn_aggregator supports only 'bilstm', got 'max'"):
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
