"""Evaluation reports: run a model over a dataset's test pairs and emit the
task's metric set as one structured file."""

import json
from collections import defaultdict

import numpy as np

from .metrics import (MetricError, RankedQueryResult, auc, kendall_tau,
                      mse_metric, precision_at_k, spearman_rho)
from .training import evaluate_pairs


def split_pairs(dataset, split):
    """The pairs of a split; a split without pairs is refused by name."""
    pairs = dataset.pairs_for_split(split)
    if not pairs:
        raise ValueError(f"no pairs in split {split!r}")
    return pairs


def evaluate_model(model, dataset, split="test", ks=(10, 20)):
    """Metric dict for the given split.

    classification: AUC plus mse against the +-1 targets.
    regression: pooled mse / Spearman / Kendall over all pairs, and p@k with
    each held-out graph treated as a query against its candidate pairs.
    """
    pairs = split_pairs(dataset, split)
    preds, targets = evaluate_pairs(model, dataset, pairs)
    out = {"split": split, "num_pairs": len(pairs)}
    if model.config.task == "classification":
        labels = np.where(targets > 0, 1, -1)
        out["auc"] = auc(preds, labels)
        out["mse"] = mse_metric(preds, targets)
        return out
    out["mse"] = mse_metric(preds, targets)
    # rank correlations are undefined for constant predictions (e.g. an
    # untrained model); report null rather than refusing to evaluate
    for name, fn in (("spearman_rho", spearman_rho), ("kendall_tau", kendall_tau)):
        try:
            out[name] = fn(preds, targets)
        except MetricError:
            out[name] = None
    held_out = set(dataset.split.get(split, ()))
    by_query = defaultdict(list)
    for pair, p, t in zip(pairs, preds, targets):
        query, cand = (pair.g1, pair.g2) if pair.g1 in held_out else (pair.g2, pair.g1)
        by_query[query].append((cand, float(p), float(t)))
    queries = [RankedQueryResult(q, tuple(c)) for q, c in sorted(by_query.items())]
    for k in ks:
        usable = [q for q in queries if len(q.candidates) >= k]
        if usable:
            out[f"p@{k}"] = precision_at_k(usable, k)
    return out


def write_report(path, report, dataset_id, checkpoint_id):
    doc = {**report, "dataset_id": dataset_id, "checkpoint_id": checkpoint_id}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
