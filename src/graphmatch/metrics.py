"""Evaluation metrics: AUC for pair classification; mse, rank correlations
and precision-at-k for similarity regression."""

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class RankedQueryResult:
    """One retrieval query: candidate ids with predicted and true scores."""

    query_id: str
    candidates: tuple  # of (candidate_id, predicted, truth)


def _finite(name, *arrays):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if not all(np.isfinite(a).all() for a in arrays):
        raise MetricError(f"{name} needs finite input")
    return arrays


def _average_ranks(x):
    """1-based ranks of x; c tied values from rank s each get s + (c - 1) / 2,
    as scipy.stats.rankdata does."""
    _, dense, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - counts + 1 + (counts - 1) / 2)[dense]


def auc(scores, labels):
    """Mann-Whitney AUC: P(random positive outscores a random negative),
    counting ties as one half. Threshold free. U is the positives' rank sum
    less P(P + 1) / 2; every partial sum is a multiple of 0.5, so it is exact."""
    (scores,) = _finite("AUC", scores)
    labels = np.asarray(labels)
    pos, neg = labels == 1, labels == -1
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    keep = pos | neg
    u = _average_ranks(scores[keep])[pos[keep]].sum() - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


def mse_metric(pred, truth):
    pred, truth = _finite("mse", pred, truth)
    if pred.size == 0:
        raise MetricError("mse of empty input")
    if pred.shape != truth.shape:
        raise MetricError("mse length mismatch")
    return float(np.mean((pred - truth) ** 2))


def _rank_input(pred, truth):
    pred, truth = _finite("rank correlation", pred, truth)
    if pred.size < 2:
        raise MetricError("rank correlation needs at least 2 points")
    if np.all(pred == pred[0]) or np.all(truth == truth[0]):
        raise MetricError("rank correlation undefined for constant input")
    return pred, truth


def _tied_pairs(counts):
    return int((counts * (counts - 1) // 2).sum())


def _discordant(y):
    """Pairs i < j with y[i] > y[j], by a bottom-up merge sort that counts each
    merge's cross-run inversions with searchsorted (Knight, JASA 1966)."""
    n, span, dis, width = y.size, int(y.max()) + 1, 0, 1
    pos = np.arange(n)
    while width < n:
        pair = pos // (2 * width)
        key = y + pair * span  # each run of `width` is sorted; pairs stay apart
        right = (pos & width) > 0
        at_most = np.searchsorted(key[~right], key[right], side="right")
        dis += int(((pair[right] + 1) * width - at_most).sum())
        y = np.sort(key, kind="stable") - pair * span
        width *= 2
    return dis


def spearman_rho(pred, truth):
    """Pearson correlation of average-ranked data (ties get mean rank); the
    same float as scipy.stats.spearmanr."""
    return float(np.corrcoef(*map(_average_ranks, _rank_input(pred, truth)))[1, 0])


def kendall_tau(pred, truth):
    """Tie-corrected tau-b over concordant/discordant pairs; the same float as
    scipy.stats.kendalltau(variant="b")."""
    (x, xcounts), (y, ycounts) = (np.unique(v, return_inverse=True, return_counts=True)[1:]
                                  for v in _rank_input(pred, truth))
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    joint = np.diff(np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]))
    tot = x.size * (x.size - 1) // 2
    xtie, ytie = _tied_pairs(xcounts), _tied_pairs(ycounts)
    con_minus_dis = tot - xtie - ytie + _tied_pairs(joint) - 2 * _discordant(y)
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _top_k(entries, key_idx, k):
    # sort by score descending, ties broken by ascending candidate id
    ranked = sorted(entries, key=lambda e: (-e[key_idx], e[0]))
    return {e[0] for e in ranked[:k]}


def precision_at_k(results, k):
    """Mean over queries of |top-k predicted ∩ top-k true| / k."""
    if k < 1:  # a caller's error, not an undefined metric
        raise ValueError(f"k must be >= 1, got {k!r}")
    if not results:
        raise MetricError("precision_at_k needs at least one query")
    vals = []
    for r in results:
        if len(r.candidates) < k:
            raise MetricError(
                f"query {r.query_id!r} has {len(r.candidates)} candidates, need >= {k}")
        if not np.isfinite([c[1:] for c in r.candidates]).all():
            raise MetricError(f"query {r.query_id!r} has a non-finite score")
        pred_top = _top_k(r.candidates, 1, k)
        true_top = _top_k(r.candidates, 2, k)
        vals.append(len(pred_top & true_top) / k)
    return float(np.mean(vals))
