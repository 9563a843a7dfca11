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


def _or_null(metric, *args):
    """A metric's value, or None where it is undefined (MetricError): for
    constant predictions of an untrained model, a split with one class, or a
    non-finite prediction."""
    try:
        return metric(*args)
    except MetricError:
        return None


def evaluate_model(model, dataset, split="test", ks=(10, 20)):
    """Metric dict for the given split; a metric that is undefined is None.

    classification: AUC plus mse against the +-1 targets.
    regression: pooled mse / Spearman / Kendall over all pairs, and p@k with
    each held-out graph treated as a query against its candidate pairs.
    """
    pairs = split_pairs(dataset, split)
    preds, targets = evaluate_pairs(model, dataset, pairs)
    out = {"split": split, "num_pairs": len(pairs)}
    if model.config.task == "classification":
        out["auc"] = _or_null(auc, preds, np.where(targets > 0, 1, -1))
        out["mse"] = _or_null(mse_metric, preds, targets)
        return out
    out["mse"] = _or_null(mse_metric, preds, targets)
    out["spearman_rho"] = _or_null(spearman_rho, preds, targets)
    out["kendall_tau"] = _or_null(kendall_tau, preds, targets)
    held_out = set(dataset.split[split])
    by_query = defaultdict(list)
    for pair, p, t in zip(pairs, preds, targets):
        query, cand = (pair.g1, pair.g2) if pair.g1 in held_out else (pair.g2, pair.g1)
        by_query[query].append((cand, float(p), float(t)))
    queries = [RankedQueryResult(q, tuple(c)) for q, c in sorted(by_query.items())]
    for k in ks:
        usable = [q for q in queries if len(q.candidates) >= k]
        out[f"p@{k}"] = _or_null(precision_at_k, usable, k)
    return out


def write_report(path, report, dataset_id, checkpoint_id):
    doc = {**report, "dataset_id": dataset_id, "checkpoint_id": checkpoint_id}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
