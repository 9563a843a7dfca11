"""Dataset files and synthetic generators.

On-disk layout (line-delimited JSON, UTF-8, stable key order):
  graphs.jsonl  {"id", "group"?, "labels"?, "nodes": [[f,...],...], "edges": [[u,v],...]}
  pairs.jsonl   {"g1", "g2", "y"}
  split.json    {"train": [ids], "val": [ids], "test": [ids]}

Two generators stand in for the real-world corpora: random labeled graphs
with exact edit-distance targets for the regression task, and perturbed
"clone groups" for the classification task. No automatic converter for the
released GED benchmarks is provided: translate their per-graph files and
ground-truth score matrix into the three files above.
"""

import functools
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .ged import ged_exact
from .graphs import GraphError, LabeledPair, as_id, make_graph
from .model import AT_LEAST_0, AT_LEAST_0_OR_NONE, AT_LEAST_1, IN_0_1, check_bounds, is_count

log = logging.getLogger(__name__)


SPLITS = ("train", "val", "test")


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    graphs: dict
    pairs: list
    split: dict  # read-only: each name of SPLITS -> a tuple of ids; a split not given is empty
    groups: dict = field(init=False)  # group id -> member graph ids (classification)
    _split_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        """Refuse an unknown split name or graph id, an id placed twice and a
        paired graph placed nowhere, however the corpus was built."""
        self._split_index = {}
        for name, ids in self.split.items():
            if name not in SPLITS:
                raise DatasetError(f"unknown split {name!r}; valid splits: {', '.join(SPLITS)}")
            for gid in ids:
                if gid not in self.graphs:
                    raise DatasetError(f"unknown graph id {gid!r} in {name}")
                if gid in self._split_index:
                    raise DatasetError(f"graph {gid!r} listed twice in {name}"
                                       if self._split_index[gid] == name
                                       else f"graph {gid!r} in multiple splits")
                self._split_index[gid] = name
        for p in self.pairs:
            for gid in (p.g1, p.g2):
                if gid not in self._split_index:
                    raise DatasetError(f"graph {gid!r} of pair ({p.g1!r}, {p.g2!r}) "
                                       f"is in no split")
        given = dict.fromkeys(SPLITS, ()) | self.split
        # read-only, so the split stays the one _split_index was built from
        self.split = MappingProxyType({name: tuple(ids) for name, ids in given.items()})
        self.groups = {}
        for gid, g in self.graphs.items():
            if g.group is not None:
                self.groups.setdefault(g.group, []).append(gid)

    def graph(self, gid):
        return self.graphs[gid]

    def pair_split(self, pair):
        """A pair belongs to test/val if it touches a test/val graph."""
        splits = (self._split_index[pair.g1], self._split_index[pair.g2])
        for name in ("test", "val"):
            if name in splits:
                return name
        return "train"

    def pairs_for_split(self, name):
        return [p for p in self.pairs if self.pair_split(p) == name]


def _graph_record(g):
    rec = {"id": g.id}
    if g.group is not None:
        rec["group"] = g.group
    if g.labels is not None:
        rec["labels"] = list(g.labels)
    rec["nodes"] = [[float(x) for x in row] for row in np.asarray(g.features)]
    rec["edges"] = [[int(u), int(v)] for u, v in g.edges]
    return rec


def save_dataset(ds: Dataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "graphs.jsonl"), "w", encoding="utf-8") as fh:
        for g in ds.graphs.values():
            fh.write(json.dumps(_graph_record(g)) + "\n")
    with open(os.path.join(out_dir, "pairs.jsonl"), "w", encoding="utf-8") as fh:
        for p in ds.pairs:
            fh.write(json.dumps({"g1": p.g1, "g2": p.g2, "y": p.target}) + "\n")
    with open(os.path.join(out_dir, "split.json"), "w", encoding="utf-8") as fh:
        json.dump({k: list(v) for k, v in ds.split.items()}, fh)


def _jsonl(path, build):
    """(line number, build(record)) for each non-blank line of a jsonl file; a
    line that is not UTF-8 JSON or that build refuses is a DatasetError naming
    the file and the line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n or \r, as text mode reads
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                yield lineno, build(json.loads(line))
        except (ValueError, KeyError, TypeError, OverflowError) as e:
            raise DatasetError(f"{path}:{lineno}: {e}") from e


def _pair(rec):
    """A pairs.jsonl record: ids read by ``as_id``, y a finite number, no bool."""
    y = rec["y"]
    if isinstance(y, bool) or not isinstance(y, (int, float)):
        raise TypeError(f"target y {y!r} is not a number")
    if not math.isfinite(y):
        raise ValueError(f"target y must be finite, got {y}")
    return LabeledPair(as_id(rec["g1"], "g1"), as_id(rec["g2"], "g2"), float(y))


def load_dataset(graphs_path, pairs_path=None, split_path=None):
    """Load and validate a dataset; errors cite the offending line. A path
    given must exist; without a split file every graph is a train graph."""
    graphs = {}
    width = None
    for lineno, g in _jsonl(graphs_path, lambda rec: make_graph(
            rec["id"], rec["nodes"], rec["edges"], rec.get("labels"), rec.get("group"))):
        if g.id in graphs:
            raise DatasetError(f"{graphs_path}:{lineno}: duplicate id {g.id!r}")
        if width is None:
            width = g.feature_dim
        elif g.feature_dim != width:
            raise DatasetError(
                f"{graphs_path}:{lineno}: feature width {g.feature_dim} != {width}")
        graphs[g.id] = g
    if not graphs:
        raise DatasetError(f"{graphs_path}: no graphs")

    pairs = []
    if pairs_path is not None:
        for lineno, p in _jsonl(pairs_path, _pair):
            for gid in (p.g1, p.g2):
                if gid not in graphs:
                    raise DatasetError(f"{pairs_path}:{lineno}: unknown graph id {gid!r}")
            pairs.append(p)
        if not pairs:
            log.warning("%s: empty pairs file", pairs_path)

    split = {"train": list(graphs)}
    if split_path is not None:
        with open(split_path, encoding="utf-8") as fh:
            try:
                split = dict(json.load(fh).items())
            except (ValueError, AttributeError) as e:
                raise DatasetError(f"{split_path}: not an object of id lists: {e}") from e
        for name, ids in split.items():
            if not isinstance(ids, list):
                raise DatasetError(f"{split_path}: split {name!r} must be a list of ids, "
                                   f"got {type(ids).__name__}")
            try:
                split[name] = [as_id(gid) for gid in ids]
            except GraphError as e:
                raise DatasetError(f"{split_path}: split {name!r}: {e}") from None
    try:
        return Dataset(graphs=graphs, pairs=pairs, split=split)
    except DatasetError as e:  # only a split file can misplace a graph
        raise DatasetError(f"{split_path}: {e}") from None


def dataset_files(path):
    """The graphs, pairs and split file paths of a dataset directory."""
    return [os.path.join(path, f) for f in ("graphs.jsonl", "pairs.jsonl", "split.json")]


def load_dataset_dir(path):
    return load_dataset(*dataset_files(path))


# ---------------------------------------------------------------------------
# generators

# GED corpora: label alphabet, most nodes the exact search takes, seconds per
# pair; clone corpora: seed graph sizes, extra-edge probability, feature width
GED_LABELS, GED_NODE_BUDGET, GED_TIMEOUT = 3, 10, 30.0
CLONE_NODE_RANGE, CLONE_EDGE_PROB, CLONE_FEATURE_DIM = (6, 10), 0.2, 6


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


@functools.lru_cache(maxsize=GED_NODE_BUDGET + 1)
def _node_pairs(n):
    """Every (u, v) with u < v < n, row-major."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _random_connected_edges(n, edge_prob, rng):
    """Random spanning tree plus independent extra edges: node order[i]
    joins order[k] for a uniform k < i, then each node pair, row-major, is
    an edge with probability edge_prob. One vector call per step draws what
    a scalar call per tree node and per pair would, and leaves the same
    generator state."""
    order = rng.permutation(n).tolist()
    parents = [order[k] for k in rng.integers(0, np.arange(1, n)).tolist()]
    edges = {(u, v) if u < v else (v, u) for u, v in zip(order[1:], parents)}
    pairs = _node_pairs(n)
    edges.update(e for e, x in zip(pairs, rng.random(len(pairs)).tolist()) if x < edge_prob)
    return sorted(edges)


def _draw_split(ids, train_frac, val_frac, rng):
    """ids shuffled by one rng permutation and cut into train, val and test,
    the first two sized by rounding their fraction of len(ids)."""
    perm = [ids[int(i)] for i in rng.permutation(len(ids))]
    n_train = int(round(train_frac * len(perm)))
    n_val = int(round(val_frac * len(perm)))
    return {"train": perm[:n_train], "val": perm[n_train:n_train + n_val],
            "test": perm[n_train + n_val:]}


def _pair_at(k, t):
    """The k-th (i, j), i < j < t, of the row-major listing of pairs, found
    from its end: the last q + 1 rows hold the last (q + 1)(q + 2) / 2 pairs."""
    back = t * (t - 1) // 2 - 1 - k
    q = (math.isqrt(8 * back + 1) - 1) // 2
    return t - 2 - q, t - 1 - (back - q * (q + 1) // 2)


GED_BOUNDS = {"n_graphs": AT_LEAST_1, "edge_prob": IN_0_1, "seed": AT_LEAST_0,
              "node_range": (f"(min, max) ints with 1 <= min <= max <= {GED_NODE_BUDGET}",
                             lambda r: len(r) == 2 and all(map(is_count, r))
                             and 1 <= r[0] <= r[1] <= GED_NODE_BUDGET),
              "max_train_pairs": AT_LEAST_0_OR_NONE, "eval_candidates": AT_LEAST_0_OR_NONE}


def gen_ged_dataset(n_graphs, node_range=(4, 9), edge_prob=0.25, seed=0,
                    max_train_pairs=None, eval_candidates=None):
    """Random connected labeled graphs with exact normalized GED targets.

    Node features are one-hot label encodings. Graphs split 60/20/20; pairs
    cover train x train (optionally subsampled), plus every val/test graph
    against train graphs (the retrieval layout used at evaluation time).
    """
    check_bounds(locals(), GED_BOUNDS, DatasetError)
    lo, hi = node_range
    rng = np.random.default_rng(seed)
    graphs = {}
    for i in range(n_graphs):
        n = int(rng.integers(lo, hi + 1))
        labels = rng.integers(0, GED_LABELS, size=n).tolist()
        feats = np.eye(GED_LABELS)[labels]
        edges = _random_connected_edges(n, edge_prob, rng)
        g = make_graph(f"g{i:04d}", feats, edges, labels)
        graphs[g.id] = g

    split = {k: sorted(v) for k, v in _draw_split(list(graphs), 0.6, 0.2, rng).items()}

    train = split["train"]
    t = len(train)
    keep = range(t * (t - 1) // 2)  # positions in the row-major listing of train pairs
    if max_train_pairs is not None and len(keep) > max_train_pairs:
        keep = sorted(rng.choice(len(keep), size=max_train_pairs, replace=False).tolist())
    cand_pairs = [(train[i], train[j]) for i, j in (_pair_at(k, t) for k in keep)]
    for name in ("val", "test"):
        cands = train
        if eval_candidates is not None and len(train) > eval_candidates:
            picked = rng.choice(len(train), size=eval_candidates, replace=False)
            cands = [train[int(k)] for k in sorted(picked)]
        for gid in split[name]:
            cand_pairs.extend((gid, c) for c in cands)

    pairs = []
    expanded, ms = [], []
    for g1, g2 in cand_pairs:
        t0 = time.perf_counter()
        res = ged_exact(graphs[g1], graphs[g2], node_budget=GED_NODE_BUDGET, timeout=GED_TIMEOUT)
        ms.append(1e3 * (time.perf_counter() - t0))
        expanded.append(res.nodes_expanded)
        pairs.append(LabeledPair(g1, g2, res.normalized_similarity))
    if pairs:
        p50, p90 = np.percentile(ms, [50, 90])
        log.info("exact GED: %d pairs, %d nodes expanded (max %d per pair), "
                 "ms per pair p50 %.2f p90 %.2f max %.2f",
                 len(pairs), sum(expanded), max(expanded), p50, p90, max(ms))
    return Dataset(graphs=graphs, pairs=pairs, split=split)


def _perturb(g_feats, g_edges, budget, rng):
    """Apply up to `budget` random edits, keeping the graph connected."""
    feats = [list(row) for row in g_feats]
    edges = set(g_edges)
    for _ in range(budget):
        for _attempt in range(20):
            n = len(feats)
            op = rng.choice(["edge_add", "edge_remove", "node_insert", "feature_noise"])
            if op == "edge_add" and n >= 2:
                u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                if (u, v) in edges:
                    continue
                edges.add((u, v))
                break
            if op == "edge_remove" and edges:
                cand = sorted(edges)[int(rng.integers(0, len(edges)))]
                trial = edges - {cand}
                if _connected(n, trial):
                    edges = trial
                    break
                continue
            if op == "node_insert":
                anchor = int(rng.integers(0, n))
                feats.append([float(x) for x in rng.integers(0, 10, size=CLONE_FEATURE_DIM)])
                edges.add((anchor, n))
                break
            if op == "feature_noise":
                node = int(rng.integers(0, n))
                col = int(rng.integers(0, CLONE_FEATURE_DIM))
                feats[node][col] = float(max(0.0, feats[node][col] + rng.normal(0, 1)))
                break
    return feats, sorted(edges)


CLONE_BOUNDS = {"n_groups": AT_LEAST_1, "variants_per_group": AT_LEAST_1,
                "perturbation_budget": AT_LEAST_0, "seed": AT_LEAST_0}


def gen_clone_dataset(n_groups, variants_per_group, perturbation_budget, seed=0):
    """Groups of structural clones for the pair classification task.

    Each group is one seed graph plus variants within an edit budget of it.
    Split is 80/10/10 by group so no group straddles splits. The pairs list
    holds fixed positive/negative evaluation pairs for val and test graphs;
    training pairs are resampled each epoch by the trainer.
    """
    check_bounds(locals(), CLONE_BOUNDS, DatasetError)
    rng = np.random.default_rng(seed)
    lo, hi = CLONE_NODE_RANGE
    graphs = {}
    group_members = {}
    for gi in range(n_groups):
        n = int(rng.integers(lo, hi + 1))
        feats = [[float(x) for x in rng.integers(0, 10, size=CLONE_FEATURE_DIM)]
                 for _ in range(n)]
        edges = _random_connected_edges(n, CLONE_EDGE_PROB, rng)
        members = []
        for vi in range(variants_per_group):
            if vi == 0:
                vfeats, vedges = feats, edges
            else:
                vfeats, vedges = _perturb(feats, edges, perturbation_budget, rng)
            gid = f"f{gi:04d}v{vi}"
            g = make_graph(gid, vfeats, vedges, group=f"f{gi:04d}")
            graphs[gid] = g
            members.append(gid)
        group_members[f"f{gi:04d}"] = members

    split_groups = _draw_split(sorted(group_members), 0.8, 0.1, rng)
    split = {name: sorted(g for grp in grps for g in group_members[grp])
             for name, grps in split_groups.items()}

    # fixed evaluation pairs for the held-out splits
    pairs = []
    for name in ("val", "test"):
        grps = split_groups[name]
        for grp in grps:
            members = group_members[grp]
            for gid in members:
                others = [x for x in members if x != gid]
                if others:
                    pos = others[int(rng.integers(0, len(others)))]
                    pairs.append(LabeledPair(gid, pos, 1.0))
                other_groups = [x for x in grps if x != grp]
                if other_groups:
                    og = other_groups[int(rng.integers(0, len(other_groups)))]
                    neg = group_members[og][int(rng.integers(0, variants_per_group))]
                    pairs.append(LabeledPair(gid, neg, -1.0))
    return Dataset(graphs=graphs, pairs=pairs, split=split)

