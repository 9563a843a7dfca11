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


def auc(scores, labels):
    """Mann-Whitney AUC: P(random positive outscores a random negative),
    counting ties as one half. Threshold free."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC needs both classes present")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def mse_metric(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.size == 0:
        raise MetricError("mse of empty input")
    if pred.shape != truth.shape:
        raise MetricError("mse length mismatch")
    return float(np.mean((pred - truth) ** 2))


def _rank_input(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.size < 2:
        raise MetricError("rank correlation needs at least 2 points")
    if not (np.isfinite(pred).all() and np.isfinite(truth).all()):
        raise MetricError("rank correlation needs finite input")
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
    ranks = []
    for x in _rank_input(pred, truth):
        _, dense, counts = np.unique(x, return_inverse=True, return_counts=True)
        # c tied values from 1-based rank s on each get s + (c - 1) / 2
        ranks.append((np.cumsum(counts) - counts + 1 + (counts - 1) / 2)[dense])
    return float(np.corrcoef(*ranks)[1, 0])


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
    if not results:
        raise MetricError("precision_at_k needs at least one query")
    vals = []
    for r in results:
        if len(r.candidates) < k:
            raise MetricError(
                f"query {r.query_id!r} has {len(r.candidates)} candidates, need >= {k}")
        pred_top = _top_k(r.candidates, 1, k)
        true_top = _top_k(r.candidates, 2, k)
        vals.append(len(pred_top & true_top) / k)
    return float(np.mean(vals))
