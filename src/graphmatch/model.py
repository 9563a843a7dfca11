"""The matching model family: shared GCN encoder, cross-graph node matching,
set aggregation, and prediction heads.

Three modes share one parameter store:
  sgnn  - encode both graphs, aggregate each to one vector, predict.
  ngmn  - encode, compare every node against an attentive summary of the other
          graph under learned perspective weightings, aggregate, predict.
  mgmn  - both branches over a shared encoder, heads concatenated.
"""

import base64
import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import normalized_adjacency

CHECKPOINT_FORMAT_VERSION = 1

MODES = ("sgnn", "ngmn", "mgmn")
AGGREGATORS = ("max", "fcmax", "bilstm")
TASKS = ("classification", "regression")


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    feature_dim: int
    gcn_layers: int = 3
    gcn_dim: int = 100
    perspectives: int = 100
    dropout: float = 0.1
    mode: str = "mgmn"
    task: str = "regression"
    sgnn_aggregator: str = "bilstm"
    normalize_attention: bool = False

    def __post_init__(self):
        if self.gcn_layers < 1 or self.gcn_dim < 1 or self.perspectives < 1:
            raise ConfigError("gcn_layers, gcn_dim and perspectives must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.sgnn_aggregator not in AGGREGATORS:
            raise ConfigError(f"sgnn_aggregator must be one of {AGGREGATORS}")

    def branch_dim(self):
        """Length of the per-graph embedding fed to the prediction head."""
        sgnn_len = 2 * self.gcn_dim if self.sgnn_aggregator == "bilstm" else self.gcn_dim
        ngmn_len = 2 * self.perspectives
        if self.mode == "sgnn":
            return sgnn_len
        if self.mode == "ngmn":
            return ngmn_len
        return ngmn_len + sgnn_len


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = shape if shape is not None else (fan_in, fan_out)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _lstm_params(rng, input_dim, hidden):
    # fused gate layout: [input, forget, cell, output]; forget bias starts at 1
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0
    return {
        "wx": _glorot(rng, input_dim, 4 * hidden),
        "wh": _glorot(rng, hidden, 4 * hidden),
        "b": Tensor(b, requires_grad=True),
    }


def init_params(config: ModelConfig, rng) -> dict:
    """Allocate every trainable tensor the configured mode needs.

    Keys are stable dotted paths; the checkpoint format serializes this dict
    as-is.
    """
    p = {}
    dims = [config.feature_dim] + [config.gcn_dim] * config.gcn_layers
    for t in range(config.gcn_layers):
        p[f"gcn.{t}.weight"] = _glorot(rng, dims[t], dims[t + 1])
    if config.mode in ("ngmn", "mgmn"):
        # rows are the perspective weight vectors
        p["perspective.weight"] = _glorot(
            rng, config.gcn_dim, config.perspectives,
            shape=(config.perspectives, config.gcn_dim))
        for d in ("fw", "bw"):
            for k, v in _lstm_params(rng, config.perspectives, config.perspectives).items():
                p[f"ngmn_lstm.{d}.{k}"] = v
    if config.mode in ("sgnn", "mgmn"):
        if config.sgnn_aggregator == "fcmax":
            p["fcmax.weight"] = _glorot(rng, config.gcn_dim, config.gcn_dim)
            p["fcmax.bias"] = Tensor(np.zeros((1, config.gcn_dim)), requires_grad=True)
        elif config.sgnn_aggregator == "bilstm":
            for d in ("fw", "bw"):
                for k, v in _lstm_params(rng, config.gcn_dim, config.gcn_dim).items():
                    p[f"sgnn_lstm.{d}.{k}"] = v
    if config.task == "regression":
        # four fully connected layers tapering to a single score
        width = 2 * config.branch_dim()
        for i in range(4):
            nxt = 1 if i == 3 else max(width // 2, 1)
            p[f"mlp.{i}.weight"] = _glorot(rng, width, nxt)
            p[f"mlp.{i}.bias"] = Tensor(np.zeros((1, nxt)), requires_grad=True)
            width = nxt
    return p


# ---------------------------------------------------------------------------
# layers

def gcn_forward(x, a_bar, params, config, training, rng):
    """Stacked graph convolutions: relu(A (relu(A x W0) ...) Wt), with dropout
    after each layer at train time. x and a_bar are constant tensors."""
    h = x
    a = a_bar
    for t in range(config.gcn_layers):
        h = ad.relu((a @ h) @ params[f"gcn.{t}.weight"])
        h = ad.dropout(h, config.dropout, rng, training)
    return h


def cross_attention(h1, h2):
    """Pairwise cosine between all node embeddings of the two graphs.

    Returns (alpha, beta) with beta exactly the transpose of alpha.
    """
    n, d = h1.shape
    m, _ = h2.shape
    alpha = ad.cosine(ad.reshape(h1, (n, 1, d)), ad.reshape(h2, (1, m, d)))
    beta = ad.transpose(alpha)
    return alpha, beta


def attentive_graph_embedding(weights, h_other, normalize=False):
    """Weighted sum of the other graph's node embeddings, one summary vector
    per attending node. weights is (N, M), h_other is (M, d)."""
    if normalize:
        # softmax over the attended nodes
        e = ad.exp(weights)
        weights = ad.div(e, ad.sum_axis(e, axis=1, keepdims=True))
    return weights @ h_other


def node_graph_match(h1, h2, w, normalize=False):
    """Cross-level matching features for every node of both graphs."""
    alpha, beta = cross_attention(h1, h2)
    att2 = attentive_graph_embedding(alpha, h2, normalize)  # summary of g2 per node of g1
    att1 = attentive_graph_embedding(beta, h1, normalize)
    return ad.weighted_cosine(h1, att2, w), ad.weighted_cosine(h2, att1, w)


def bilstm_aggregate(h, params, prefix, order):
    """Concatenate last hidden states of both directions over one row order."""
    seq = ad.gather_rows(h, [int(i) for i in order])
    return ad.bilstm_last(seq,
                          params[f"{prefix}.fw.wx"], params[f"{prefix}.fw.wh"],
                          params[f"{prefix}.fw.b"],
                          params[f"{prefix}.bw.wx"], params[f"{prefix}.bw.wh"],
                          params[f"{prefix}.bw.b"])


def aggregate(h, aggregator, params, prefix, training, rng):
    """Collapse node embeddings (N, k) to one graph vector.

    max/fcmax are permutation invariant; bilstm consumes a random permutation
    at train time and index order at eval time.
    """
    if aggregator == "max":
        return ad.max_rows(h)
    if aggregator == "fcmax":
        return ad.max_rows((h @ params["fcmax.weight"]) + params["fcmax.bias"])
    n = h.shape[0]
    order = rng.permutation(n) if training else np.arange(n)
    return bilstm_aggregate(h, params, prefix, list(order))


def predict(ha, hb, task, params, training):
    """Similarity score from two graph vectors (each (1, L)).

    classification: plain cosine in [-1, 1].
    regression: sigmoid over a four-layer MLP on the concatenation, in (0, 1).
    """
    if task == "classification":
        return ad.reshape(ad.cosine(ha, hb), ())
    x = ad.concat([ha, hb], axis=1)
    for i in range(4):
        x = (x @ params[f"mlp.{i}.weight"]) + params[f"mlp.{i}.bias"]
        if i < 3:
            x = ad.relu(x)
    return ad.reshape(ad.sigmoid(x), ())


def loss_mse(predictions, targets):
    """Mean squared error over a batch of scalar prediction tensors."""
    if len(predictions) == 0:
        raise ValueError("empty batch")
    if len(predictions) != len(targets):
        raise ValueError("batch length mismatch")
    pred = ad.concat([ad.reshape(p, (1,)) for p in predictions], axis=0)
    diff = pred - Tensor(np.asarray(targets, dtype=np.float64))
    return (diff * diff).mean()


class Model:
    """Configured model instance: config + parameter store."""

    def __init__(self, config: ModelConfig, params=None, rng=None):
        self.config = config
        if params is None:
            if rng is None:
                rng = np.random.default_rng(0)
            params = init_params(config, rng)
        self.params = params

    def encode(self, g, training, rng):
        return gcn_forward(Tensor(g.features), Tensor(normalized_adjacency(g)),
                           self.params, self.config, training, rng)

    def forward_pair(self, g1, g2, training=False, rng=None):
        """Similarity score for one pair of graphs; scalar Tensor."""
        cfg = self.config
        if g1.feature_dim != cfg.feature_dim or g2.feature_dim != cfg.feature_dim:
            raise ConfigError(
                f"feature width {g1.feature_dim}/{g2.feature_dim} does not match "
                f"model feature_dim {cfg.feature_dim}")
        if rng is None:
            rng = np.random.default_rng(0)
        h1 = self.encode(g1, training, rng)
        h2 = self.encode(g2, training, rng)
        heads1, heads2 = [], []
        if cfg.mode in ("ngmn", "mgmn"):
            m1, m2 = node_graph_match(h1, h2, self.params["perspective.weight"],
                                      cfg.normalize_attention)
            heads1.append(aggregate(m1, "bilstm", self.params, "ngmn_lstm", training, rng))
            heads2.append(aggregate(m2, "bilstm", self.params, "ngmn_lstm", training, rng))
        if cfg.mode in ("sgnn", "mgmn"):
            heads1.append(aggregate(h1, cfg.sgnn_aggregator, self.params,
                                    "sgnn_lstm", training, rng))
            heads2.append(aggregate(h2, cfg.sgnn_aggregator, self.params,
                                    "sgnn_lstm", training, rng))
        ha = heads1[0] if len(heads1) == 1 else ad.concat(heads1, axis=1)
        hb = heads2[0] if len(heads2) == 1 else ad.concat(heads2, axis=1)
        return predict(ha, hb, cfg.task, self.params, training)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# serialization shared by checkpoints and training state

def encode_arrays(arrays):
    """name -> array as JSON records of shape and base64 little-endian float64."""
    return {k: {"shape": list(a.shape),
                "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()}
            for k, a in sorted(arrays.items())}


def decode_arrays(records):
    """Inverse of encode_arrays: name -> writable float64 array."""
    return {k: np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8")
            .astype(np.float64).reshape(rec["shape"])
            for k, rec in records.items()}


def config_from_dict(d):
    """ModelConfig from its asdict() form.

    Files written while the node-graph branch aggregator was a setting carry
    its one legal value under its own key; that value is accepted and dropped.
    """
    d = dict(d)
    key = "ngmn_aggregator"
    value = d.pop(key, "bilstm")
    if value != "bilstm":
        raise ConfigError(f"{key} supports only 'bilstm', got {value!r}")
    valid = [f.name for f in fields(ModelConfig)]
    unknown = sorted(set(d) - set(valid))
    if unknown:
        raise ConfigError(f"unknown model config key(s) {', '.join(unknown)}; "
                          f"valid fields: {', '.join(valid)}")
    return ModelConfig(**d)


# ---------------------------------------------------------------------------
# checkpoint format: one self-describing JSON file

def save_checkpoint(path, model: Model, extra=None):
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "params": encode_arrays({k: p.data for k, p in model.params.items()}),
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    """Model and extra dict from a checkpoint; parameter names and shapes must
    be exactly those the stored config allocates."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: {doc.get('format_version')}")
    try:
        config = config_from_dict(doc["config"])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    arrays = decode_arrays(doc["params"])
    expected = init_params(config, np.random.default_rng(0))
    for name in sorted(expected.keys() | arrays.keys()):
        want = expected[name].shape if name in expected else "nothing"
        got = arrays[name].shape if name in arrays else "nothing"
        if want != got:
            raise ConfigError(f"{path}: parameter {name!r} has shape {got}, "
                              f"but the config allocates {want}")
    params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    return Model(config, params=params), doc.get("extra")
