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
import math
import numbers
import os
from dataclasses import MISSING, dataclass, asdict, fields
from typing import get_args

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


def is_count(v):
    """An integral value, Python's or numpy's, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _not_bool(v):
    return not isinstance(v, (bool, np.bool_))


# value bounds, each the phrase a refusal states and the test a value within it passes
AT_LEAST_0 = ("an int >= 0", lambda v: is_count(v) and v >= 0)
AT_LEAST_1 = ("an int >= 1", lambda v: is_count(v) and v >= 1)
AT_LEAST_0_OR_NONE = ("an int >= 0 or None", lambda v: v is None or is_count(v) and v >= 0)
FINITE_AT_LEAST_0 = ("a finite number >= 0", lambda v: _not_bool(v) and 0 <= v < math.inf)
FINITE_ABOVE_0 = ("a finite number > 0", lambda v: _not_bool(v) and 0 < v < math.inf)
IN_0_1 = ("a number in [0, 1]", lambda v: _not_bool(v) and 0 <= v <= 1)
IN_0_1_OPEN = ("a number in [0, 1)", lambda v: _not_bool(v) and 0 <= v < 1)


def one_of(choices):
    return f"one of {choices}", lambda v: v in choices


def check_bounds(values, bounds, error, names=None):
    """Refuse with error the first of values outside its bound in bounds, a
    name -> bound table, naming it (as names renames it) and its value."""
    for name, (phrase, holds) in bounds.items():
        try:
            inside = bool(holds(values[name]))
        except (TypeError, ValueError):  # no order (a str) or no truth value (an array)
            inside = False
        if not inside:
            raise error(f"{(names or {}).get(name, name)} must be {phrase}, got {values[name]!r}")


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
    BOUNDS = {"feature_dim": AT_LEAST_1, "gcn_layers": AT_LEAST_1, "gcn_dim": AT_LEAST_1,
              "perspectives": AT_LEAST_1, "dropout": IN_0_1_OPEN, "mode": one_of(MODES),
              "task": one_of(TASKS), "sgnn_aggregator": one_of(AGGREGATORS)}

    def __post_init__(self):
        check_bounds(vars(self), self.BOUNDS, ConfigError)

    def branch_dim(self):
        """Length of the per-graph embedding fed to the prediction head."""
        sgnn_len = 2 * self.gcn_dim if self.sgnn_aggregator == "bilstm" else self.gcn_dim
        ngmn_len = 2 * self.perspectives
        if self.mode == "sgnn":
            return sgnn_len
        if self.mode == "ngmn":
            return ngmn_len
        return ngmn_len + sgnn_len


def _lstm_shapes(prefix, k, h):
    # gate columns [input, forget, cell, output], as ad.bilstm_last reads them
    return {f"{prefix}.{d}.{name}": shape for d in ("fw", "bw")
            for name, shape in (("wx", (k, 4 * h)), ("wh", (h, 4 * h)), ("b", (1, 4 * h)))}


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every trainable tensor the configured mode needs, in
    the order init_params draws them. Keys are stable dotted paths."""
    dims = [config.feature_dim] + [config.gcn_dim] * config.gcn_layers
    shapes = {f"gcn.{t}.weight": (dims[t], dims[t + 1]) for t in range(config.gcn_layers)}
    if config.mode in ("ngmn", "mgmn"):
        # rows are the perspective weight vectors
        shapes["perspective.weight"] = (config.perspectives, config.gcn_dim)
        shapes.update(_lstm_shapes("ngmn_lstm", config.perspectives, config.perspectives))
    if config.mode in ("sgnn", "mgmn"):
        if config.sgnn_aggregator == "fcmax":
            shapes["fcmax.weight"] = (config.gcn_dim, config.gcn_dim)
            shapes["fcmax.bias"] = (1, config.gcn_dim)
        elif config.sgnn_aggregator == "bilstm":
            shapes.update(_lstm_shapes("sgnn_lstm", config.gcn_dim, config.gcn_dim))
    if config.task == "regression":
        # four fully connected layers tapering to a single score
        width = 2 * config.branch_dim()
        for i in range(4):
            nxt = 1 if i == 3 else max(width // 2, 1)
            shapes[f"mlp.{i}.weight"] = (width, nxt)
            shapes[f"mlp.{i}.bias"] = (1, nxt)
            width = nxt
    return shapes


def init_params(config: ModelConfig, rng) -> dict:
    """Every tensor of param_shapes, drawn in its order: weights Glorot-uniform
    over the sum of their two dims, biases zero but each LSTM forget gate's,
    which starts at 1. The checkpoint format serializes this dict as-is."""
    p = {}
    for name, shape in param_shapes(config).items():
        if name.endswith((".b", ".bias")):
            p[name] = Tensor(np.zeros(shape), requires_grad=True)
            if name.endswith(".b"):
                p[name].data[0, shape[1] // 4:shape[1] // 2] = 1.0
        else:
            limit = np.sqrt(6.0 / sum(shape))
            p[name] = Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)
    return p


# ---------------------------------------------------------------------------
# layers
#
# A batch is laid out as stacked rows: node rows of every graph one after the
# other, and a sequence of nodes is an array of row indices. Ragged groups of
# rows (the nodes of each pair side, the sequences an aggregator reads) reach
# the fused ops as one time-major ``padded`` index, sequence i in column i.

def consecutive(sizes):
    """Row-index arrays of consecutive groups of the given sizes."""
    return [np.arange(end - size, end) for size, end in zip(sizes, np.cumsum(sizes).tolist())]


def padded(seqs):
    """Time-major (longest, len(seqs)) index of the row sequences, padded with -1."""
    out = np.full((max(len(q) for q in seqs), len(seqs)), -1, dtype=np.intp)
    for i, q in enumerate(seqs):
        out[:len(q), i] = q
    return out


def gcn_forward(graphs, params, config, rng):
    """Stacked graph convolutions relu(A (relu(A x W0) ...) Wt) over all graphs
    at once, with dropout after each layer drawn from rng (none if rng is None);
    (sum of nodes, gcn_dim) node rows in graph order."""
    sizes = [g.num_nodes for g in graphs]
    distinct = {id(g): g for g in graphs}  # a graph in several slots is one object
    adjacency = {key: normalized_adjacency(g) for key, g in distinct.items()}
    blocks = np.zeros((len(graphs), max(sizes), max(sizes)))
    for k, g in enumerate(graphs):
        blocks[k, :sizes[k], :sizes[k]] = adjacency[id(g)]
    where = (np.repeat(np.arange(len(graphs)), sizes),
             np.concatenate([np.arange(n) for n in sizes]))
    h = Tensor(np.concatenate([g.features for g in graphs]))
    for t in range(config.gcn_layers):
        h = ad.relu(ad.block_matmul(blocks, h, where) @ params[f"gcn.{t}.weight"])
        h = ad.dropout(h, config.dropout, rng)
    return h


def node_graph_match(x, index, w):
    """Cross-level matching features (R, P) of pair-node rows x (R, d): every
    node against the attentive summary of the other graph of its pair, under
    each perspective row of w. index: the (T, 2B) ``padded`` index of the B
    pairs' first graphs, then their second graphs, as ``ad.cross_attention`` reads it."""
    return ad.weighted_cosine(x, ad.cross_attention(x, index), w)


def aggregate(h, aggregator, params, prefix, index):
    """One vector per sequence of rows of h, (S, L): the columns of a (T, S) index.

    max/fcmax are order-free; bilstm reads each sequence in the order given.
    """
    if aggregator == "fcmax":
        h = (h @ params["fcmax.weight"]) + params["fcmax.bias"]
    if aggregator != "bilstm":
        return ad.max_rows(h, index)
    return ad.bilstm_last(h, *(params[f"{prefix}.{d}.{name}"] for d in ("fw", "bw")
                               for name in ("wx", "wh", "b")), index=index)


def predict(ha, hb, task, params):
    """Similarity scores (B,) from the two graph vectors of each pair, (B, L) each.

    classification: plain cosine in [-1, 1], weighted_cosine's one all-ones perspective.
    regression: sigmoid over a four-layer MLP on the concatenation, in (0, 1).
    """
    if task == "classification":
        ones = Tensor(np.ones((1, ha.shape[1])))
        return ad.reshape(ad.weighted_cosine(ha, hb, ones), (-1,))
    x = ad.concat([ha, hb], axis=1)
    for i in range(4):
        x = (x @ params[f"mlp.{i}.weight"]) + params[f"mlp.{i}.bias"]
        if i < 3:
            x = ad.relu(x)
    return ad.reshape(ad.sigmoid(x), (-1,))


def loss_mse(predictions, targets):
    """Mean squared error of a (B,) prediction tensor against B targets."""
    if len(targets) == 0:
        raise ValueError("empty batch")
    if predictions.shape != (len(targets),):
        raise ValueError("batch length mismatch")
    diff = predictions - Tensor(np.asarray(targets, dtype=np.float64))
    return (diff * diff).mean()


@dataclass
class Encoded:
    """Per-graph stage output over a list of graph slots: GCN node rows h of
    all slots stacked, the row indices of each slot, the graph-level vector of
    each slot (None without the sgnn branch) and, from a train pass, each
    slot's node-graph reading order (None: index order)."""
    h: Tensor
    nodes: list
    sg: Tensor | None
    orders: list | None = None

    @classmethod
    def stack(cls, parts):
        """The values of eval-time outputs as one output, slots in order."""
        h, sizes, sg = [], [], []
        for part in parts:
            h.append(part.h.data)
            sizes += [len(r) for r in part.nodes]
            if part.sg is not None:
                sg.append(part.sg.data)
        return cls(Tensor(np.concatenate(h)), consecutive(sizes),
                   Tensor(np.concatenate(sg)) if sg else None)


class Model:
    """Configured model instance: config + parameter store."""

    def __init__(self, config: ModelConfig, params=None, rng=None):
        self.config = config
        if params is None:
            if rng is None:
                raise TypeError("Model needs params or rng, the generator to draw them from")
            params = init_params(config, rng)
        self.params = params

    def encode(self, g, rng=None):
        """GCN node embeddings (N, gcn_dim) of one graph; dropout drawn from rng if given."""
        return gcn_forward([g], self.params, self.config, rng)

    def forward_pair(self, g1, g2, training=False, rng=None):
        """Similarity score of one pair, scalar Tensor; a train pass draws from rng."""
        if training and rng is None:
            raise TypeError("a train pass needs rng, the generator its masks and orders draw from")
        return ad.reshape(self.forward_batch([(g1, g2)], rng if training else None), ())

    def forward_batch(self, pairs, rng=None):
        """Similarity scores (B,) for a list of (g1, g2) graph pairs: the
        per-graph stage over the pair sides, one slot each, then the per-pair stage.
        The pass trains exactly when rng is a generator, which draws each slot's masks."""
        if not pairs:
            raise ValueError("empty batch")
        graphs = [g for pair in pairs for g in pair]
        slots = np.arange(len(graphs)).reshape(-1, 2)
        return self.pair_stage(self.graph_stage(graphs, rng), slots)

    def graph_stage(self, graphs, rng=None):
        """Everything about each graph slot that no pair changes: GCN node rows,
        the graph-level (sgnn) vector and, in a train pass, the reading orders.

        A train pass (rng a generator) takes the slots as pair sides, two per
        pair, and draws the orders pair by pair (node-graph branch g1, g2, then
        graph-level branch g1, g2) after the dropout masks; in an eval pass
        (rng None) every bilstm reads its nodes in index order.
        """
        cfg = self.config
        for g in graphs:
            if g.feature_dim != cfg.feature_dim:
                raise ConfigError(f"graph {g.id!r} feature width {g.feature_dim} does not "
                                  f"match model feature_dim {cfg.feature_dim}")
        h = gcn_forward(graphs, self.params, cfg, rng)
        nodes = consecutive([g.num_nodes for g in graphs])  # rows of h per slot
        use_sgnn = cfg.mode in ("sgnn", "mgmn")
        orders, sgnn_seqs = (None if rng is None else []), list(nodes)
        if rng is not None:
            for pair in np.arange(len(graphs)).reshape(-1, 2):
                if cfg.mode in ("ngmn", "mgmn"):
                    orders += [rng.permutation(len(nodes[k])) for k in pair]
                if use_sgnn and cfg.sgnn_aggregator == "bilstm":
                    for k in pair:
                        sgnn_seqs[k] = nodes[k][rng.permutation(len(nodes[k]))]
        sg = aggregate(h, cfg.sgnn_aggregator, self.params, "sgnn_lstm",
                       padded(sgnn_seqs)) if use_sgnn else None
        return Encoded(h, nodes, sg, orders)

    def pair_stage(self, enc, slots):
        """Scores (B,) of the pairs whose sides are the (B, 2) slot indices into a
        graph_stage output: cross-level node-graph matching and its BiLSTM, then the
        head on the two halves of one table of the 2B sides, first graphs then second."""
        cfg = self.config
        count = len(slots)
        per_side = []
        if cfg.mode in ("ngmn", "mgmn"):
            # pair-node rows: pair 0's first graph, pair 0's second, pair 1's first, ...
            sides = slots.reshape(-1)
            x = ad.gather_rows(enc.h, np.concatenate([enc.nodes[k] for k in sides]))
            rows = consecutive([len(enc.nodes[k]) for k in sides])
            index = padded(rows[0::2] + rows[1::2])  # first graphs, then second graphs
            m = node_graph_match(x, index, self.params["perspective.weight"])
            if enc.orders is not None:
                rows = [r[enc.orders[k]] for r, k in zip(rows, sides)]
                index = padded(rows[0::2] + rows[1::2])
            per_side.append(aggregate(m, "bilstm", self.params, "ngmn_lstm", index))
        if enc.sg is not None:
            per_side.append(ad.gather_rows(enc.sg, slots.T.reshape(-1)))
        table = per_side[0] if len(per_side) == 1 else ad.concat(per_side, axis=1)
        return predict(ad.gather_rows(table, np.arange(count)),
                       ad.gather_rows(table, np.arange(count, 2 * count)), cfg.task, self.params)

    def eval_view(self):
        """This model over tensors that hold its own parameter arrays but require
        no gradient, so a pass through it keeps values and records no tape; the
        caller's params stay the same trainable tensors, bytes and all."""
        return Model(self.config, params={k: Tensor(p.data) for k, p in self.params.items()})

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# serialization shared by checkpoints and training state

class Base64(str):
    """A base64 payload: it holds only A-Z, a-z, 0-9, +, / and =, none of which
    JSON escapes, so save_checkpoint writes it out as it is."""


def encode_arrays(arrays):
    """name -> array as JSON records of shape and base64 little-endian float64."""
    return {k: {"shape": list(a.shape),
                "data": Base64(base64.b64encode(np.ascontiguousarray(a, dtype="<f8")), "ascii")}
            for k, a in sorted(arrays.items())}


def decode_arrays(path, what, records):
    """Inverse of encode_arrays: name -> writable float64 array. A record that
    is not an object with a shape of ints >= 0 and base64 data of exactly that
    many finite float64 values is a ConfigError naming path, what and the record."""
    arrays = {}
    for name, rec in records.items():
        where = f"{path}: {what} {name!r}"
        if not isinstance(rec, dict):
            raise ConfigError(f"{where} is not an object")
        shape = rec.get("shape")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ConfigError(f"{where} has shape {shape!r}, not a list of ints >= 0")
        if "data" not in rec:
            raise ConfigError(f"{where} lacks field 'data'")
        try:
            raw = base64.b64decode(rec["data"], validate=True)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: data is not base64") from None
        size = math.prod(shape)
        if len(raw) != 8 * size:
            raise ConfigError(f"{where}: data holds {len(raw)} bytes, but shape {shape} "
                              f"needs {size} float64 values")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(arrays[name]).all():
            raise ConfigError(f"{where} holds a non-finite value")
    return arrays


# per config kind, the fields a stored config may still hold from an older
# version: each may keep the one value every run gave it, which is dropped
RETIRED_FIELDS = {"model": {"ngmn_aggregator": "bilstm", "normalize_attention": False},
                  "train": {"grad_clip": None}}


# the value types each annotation of a config field takes: an int field no bool
FIELD_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (type(None),)}


def config_from_dict(cls, d):
    """A ModelConfig or TrainConfig from a dict of its fields; an unknown key, a
    missing required field, a retired field off its one value, a value not of
    its field's type (X | None also takes None) or a value the class refuses is
    a ConfigError."""
    kind = cls.__name__.removesuffix("Config").lower()
    d = dict(d)
    for name, only in RETIRED_FIELDS[kind].items():
        value = d.pop(name, only)
        if value != only:
            raise ConfigError(f"{name} supports only {only!r}, got {value!r}")
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(valid))
    if unknown:
        raise ConfigError(f"unknown {kind} config key(s) {', '.join(unknown)}; "
                          f"valid fields: {', '.join(valid)}")
    missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING]
    if missing:
        raise ConfigError(f"{kind} config lacks field(s) {', '.join(missing)}")
    for f in fields(cls):
        allowed = [t for a in get_args(f.type) or (f.type,) for t in FIELD_TYPES[a]]
        if f.name in d and type(d[f.name]) not in allowed:
            raise ConfigError(f"{kind} config value of the wrong type: {f.name} takes "
                              f"{getattr(f.type, '__name__', f.type)}, got {d[f.name]!r}")
    return cls(**d)


# ---------------------------------------------------------------------------
# checkpoint format: one self-describing JSON file

def _write_json(fh, obj):
    """Write the text of json.dumps(obj) to fh piece by piece: each Base64
    payload goes out unescaped in a piece of its own, dicts with str keys are
    walked for them, and any other value is one json.dumps piece."""
    if isinstance(obj, Base64):
        fh.writelines(('"', obj, '"'))
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        fh.write("{")
        for i, (k, v) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(k)}: ")
            _write_json(fh, v)
        fh.write("}")
    else:
        fh.write(json.dumps(obj))


def save_checkpoint(path, model: Model, extra=None):
    """Write config, parameters and a JSON-able extra dict, the bytes of
    json.dumps of the document; replaces path atomically."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "params": encode_arrays({k: p.data for k, p in model.params.items()}),
    }
    if extra:
        doc["extra"] = extra
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_json(fh, doc)
        os.replace(tmp, path)
    except BaseException:
        # an unserialisable extra or a full disk leaves path as it was and no .tmp
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def check_shapes(path, what, arrays, expected):
    """Refuse arrays whose names and shapes are not exactly expected's, a name -> shape table."""
    for name in sorted(expected.keys() | arrays.keys()):
        want = expected[name] if name in expected else "nothing"
        got = arrays[name].shape if name in arrays else "nothing"
        if want != got:
            raise ConfigError(f"{path}: {what} {name!r} has shape {got}, "
                              f"but the config allocates {want}")


def load_checkpoint(path):
    """Model and extra dict from a checkpoint whose parameters are exactly those
    its stored config allocates; every refusal is a ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path}: not a JSON checkpoint: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint format {doc.get('format_version')!r}"
                          f"; this reader takes format {CHECKPOINT_FORMAT_VERSION}")
    for key in ("config", "params"):
        if not isinstance(doc.get(key), dict):
            raise ConfigError(f"{path}: the {key} section is missing or not an object")
    try:
        config = config_from_dict(ModelConfig, doc["config"])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    arrays = decode_arrays(path, "parameter", doc["params"])
    check_shapes(path, "parameter", arrays, param_shapes(config))
    params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    return Model(config, params=params), doc.get("extra")
