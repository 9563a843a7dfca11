import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphmatch
from graphmatch import report
from graphmatch.data import GED_LABELS, gen_clone_dataset, gen_ged_dataset
from graphmatch.metrics import (MetricError, RankedQueryResult, auc,
                                kendall_tau, mse_metric, precision_at_k,
                                spearman_rho)
from graphmatch.model import Model, ModelConfig
from graphmatch.training import evaluate_pairs


# hand-rolled oracles, independent of the numpy rank code in graphmatch.metrics
def rank_average(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_oracle(a, b):
    ra, rb = rank_average(np.asarray(a)), rank_average(np.asarray(b))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


def kendall_oracle(a, b):
    conc = disc = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif da * db > 0:
            conc += 1
        else:
            disc += 1
    n0 = len(a) * (len(a) - 1) / 2
    return (conc - disc) / np.sqrt((n0 - ties_a) * (n0 - ties_b))


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, -1, -1]) == 1.0


def test_auc_constant_scores_half():
    assert auc([0.5] * 6, [1, -1, 1, -1, 1, -1]) == 0.5


def test_auc_hand_case():
    assert auc([0.9, 0.4, 0.6], [1, -1, 1]) == 1.0


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])


def test_auc_monotone_invariance(rng):
    scores = rng.normal(size=40)
    labels = np.where(rng.random(40) < 0.5, 1, -1)
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == base
    assert auc(3 * scores + 7, labels) == base


def test_auc_pairwise_counting_oracle(rng):
    scores = rng.normal(size=30).round(1)  # rounding forces some ties
    labels = np.where(rng.random(30) < 0.4, 1, -1)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    want = np.mean([(1.0 if p > n else 0.5 if p == n else 0.0)
                    for p in pos for n in neg])
    assert abs(auc(scores, labels) - want) < 1e-12


def test_auc_from_ranks_equals_the_pairwise_count_bit_for_bit():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(600):
        n = int(rng.integers(2, 80))
        scores = rng.normal(size=n)
        if trial % 2:
            scores = scores.round(0)  # heavy ties
        labels = rng.choice([1, -1, 0], size=n, p=[0.45, 0.45, 0.1])  # 0 is in no class
        pos, neg = scores[labels == 1], scores[labels == -1]
        if len(pos) == 0 or len(neg) == 0:
            continue
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        assert auc(scores, labels) == (wins + 0.5 * ties) / (len(pos) * len(neg))
        checked += 1
    assert checked > 550


def test_auc_builds_no_pairwise_matrix():
    import tracemalloc
    rng = np.random.default_rng(3)
    scores = rng.normal(size=20_000).round(2)
    labels = np.repeat([1, -1], 10_000)
    tracemalloc.start()
    try:
        value = auc(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1.0
    assert peak < 10_000_000  # one 10k x 10k boolean matrix alone is 100 MB


def test_mse_values():
    assert mse_metric([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(mse_metric([0.5], [0.4]) - 0.01) < 1e-12


def test_mse_order_invariant(rng):
    pred = rng.normal(size=10)
    truth = rng.normal(size=10)
    perm = rng.permutation(10)
    assert abs(mse_metric(pred, truth) - mse_metric(pred[perm], truth[perm])) < 1e-15


def test_mse_empty_rejected():
    with pytest.raises(MetricError):
        mse_metric([], [])


def test_spearman_identical_and_reversed():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0


def test_spearman_hand_value():
    assert abs(spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12


def test_spearman_constant_rejected():
    with pytest.raises(MetricError):
        spearman_rho([1, 1, 1], [1, 2, 3])


def test_spearman_matches_oracle_with_ties(rng):
    a = rng.integers(0, 5, size=25).astype(float)
    b = rng.integers(0, 5, size=25).astype(float)
    assert abs(spearman_rho(a, b) - spearman_oracle(a, b)) < 1e-12


def test_kendall_identical_and_reversed():
    assert kendall_tau([1, 2, 3], [4, 5, 6]) == 1.0
    assert kendall_tau([1, 2, 3], [6, 5, 4]) == -1.0


def test_kendall_hand_value():
    assert abs(kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) - 2.0 / 3.0) < 1e-12


def test_kendall_matches_oracle_with_ties(rng):
    a = rng.integers(0, 4, size=20).astype(float)
    b = rng.integers(0, 4, size=20).astype(float)
    assert abs(kendall_tau(a, b) - kendall_oracle(a, b)) < 1e-12


def _tied_or_spread(rng, n):
    if rng.random() < 0.5:
        levels = int(rng.integers(1, 6))  # heavy ties, sometimes a constant input
        return rng.integers(0, levels + 1, size=(2, n)).astype(float)
    a = rng.normal(size=n)
    return np.stack([a, rng.normal() * a + rng.normal(size=n)])


def _assert_same_as_scipy(a, b, stats):
    try:
        rho, tau = spearman_rho(a, b), kendall_tau(a, b)
    except MetricError:
        # scipy gives nan exactly where the metrics refuse
        assert np.isnan(stats.spearmanr(a, b).statistic)
        return False
    assert rho == float(stats.spearmanr(a, b).statistic)
    assert tau == float(stats.kendalltau(a, b, variant="b").statistic)
    return True


def test_rank_metrics_equal_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(400):
        a, b = _tied_or_spread(rng, int(rng.integers(2, 301)))
        checked += _assert_same_as_scipy(a, b, stats)
    assert checked > 350


def test_rank_metrics_equal_scipy_bit_for_bit_at_20000(rng):
    stats = pytest.importorskip("scipy.stats")
    a = rng.normal(size=20_000).round(2)
    assert _assert_same_as_scipy(a, a + rng.normal(size=20_000).round(1), stats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [spearman_rho, kendall_tau])
def test_rank_metrics_refuse_non_finite_input(fn, bad):
    good = [0.1, 0.5, 0.2, 0.9]
    with pytest.raises(MetricError, match="finite"):
        fn([0.1, bad, 0.3, 0.4], good)
    with pytest.raises(MetricError, match="finite"):
        fn(good, [0.1, 0.2, bad, 0.4])


def test_evaluate_model_reports_rank_correlations_of_a_nan_prediction_as_null(monkeypatch):
    ds = gen_ged_dataset(n_graphs=10, node_range=(4, 5), seed=2)
    model = Model(ModelConfig(feature_dim=GED_LABELS, gcn_layers=1, gcn_dim=4, perspectives=2,
                              sgnn_aggregator="max"), rng=np.random.default_rng(0))
    rep = report.evaluate_model(model, ds, ks=())
    assert isinstance(rep["spearman_rho"], float) and isinstance(rep["kendall_tau"], float)

    def one_nan(*args):
        preds, targets = evaluate_pairs(*args)
        preds[0] = np.nan
        return preds, targets

    monkeypatch.setattr(report, "evaluate_pairs", one_nan)
    rep = report.evaluate_model(model, ds, ks=())
    assert rep["spearman_rho"] is None and rep["kendall_tau"] is None


def test_evaluate_model_reports_every_metric_of_a_nan_prediction_as_null(monkeypatch,
                                                                         tmp_path):
    ds = gen_ged_dataset(n_graphs=10, node_range=(4, 5), seed=2, eval_candidates=3)
    model = Model(ModelConfig(feature_dim=GED_LABELS, gcn_layers=1, gcn_dim=4, perspectives=2,
                              sgnn_aggregator="max"), rng=np.random.default_rng(0))

    def one_nan(*args):
        preds, targets = evaluate_pairs(*args)
        preds[0] = np.nan
        return preds, targets

    monkeypatch.setattr(report, "evaluate_pairs", one_nan)
    rep = report.evaluate_model(model, ds, ks=(2,))
    assert set(rep) == {"split", "num_pairs", "mse", "spearman_rho", "kendall_tau", "p@2"}
    assert [rep[k] for k in ("mse", "spearman_rho", "kendall_tau", "p@2")] == [None] * 4
    path = tmp_path / "eval_report.json"
    report.write_report(path, rep, dataset_id="ds", checkpoint_id="c")
    json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in the report"))
    with pytest.raises(ValueError):
        report.write_report(path, {**rep, "mse": np.nan}, dataset_id="ds", checkpoint_id="c")


def test_evaluate_model_reports_the_auc_of_a_split_with_one_class_as_null(monkeypatch):
    ds = gen_clone_dataset(n_groups=8, variants_per_group=2, perturbation_budget=1, seed=3)
    model = Model(ModelConfig(feature_dim=ds.graph(next(iter(ds.graphs))).feature_dim,
                              gcn_layers=1, gcn_dim=4, perspectives=2, sgnn_aggregator="max",
                              task="classification"), rng=np.random.default_rng(0))

    def positives_only(*args):
        preds, targets = evaluate_pairs(*args)
        return preds, np.ones_like(targets)

    monkeypatch.setattr(report, "evaluate_pairs", positives_only)
    rep = report.evaluate_model(model, ds)
    assert rep["auc"] is None and isinstance(rep["mse"], float)


def test_evaluate_model_reports_p_at_k_without_k_candidates_as_null(tmp_path):
    ds = gen_ged_dataset(n_graphs=10, node_range=(4, 5), seed=2, eval_candidates=3)
    model = Model(ModelConfig(feature_dim=GED_LABELS, gcn_layers=1, gcn_dim=4, perspectives=2,
                              sgnn_aggregator="max"), rng=np.random.default_rng(0))
    rep = report.evaluate_model(model, ds, ks=(2, 10))  # every query has 3 candidates
    assert isinstance(rep["p@2"], float) and rep["p@10"] is None
    path = tmp_path / "eval_report.json"
    report.write_report(path, rep, dataset_id="ds", checkpoint_id="c")
    assert '"p@10": null' in path.read_text()


def test_importing_the_package_loads_no_scipy():
    # scipy is a test-only dependency; code that needs it imports it inside
    # the function that uses it
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphmatch.__file__)))
    code = ("import sys, graphmatch, graphmatch.cli, graphmatch.report\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, timeout=120, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_rank_metrics_monotone_invariance(rng):
    a = rng.normal(size=15)
    b = rng.normal(size=15)
    assert abs(spearman_rho(a, b) - spearman_rho(np.exp(a), b)) < 1e-12
    assert abs(kendall_tau(a, b) - kendall_tau(a, 5 * b + 2)) < 1e-12


def _query(cands):
    return RankedQueryResult("q", tuple(cands))


def test_precision_at_k_perfect():
    q = _query([("a", 0.9, 0.9), ("b", 0.5, 0.5), ("c", 0.1, 0.1)])
    assert precision_at_k([q], 2) == 1.0


def test_precision_at_k_disjoint():
    q = _query([("a", 0.9, 0.0), ("b", 0.8, 0.1), ("c", 0.1, 0.9), ("d", 0.2, 0.8)])
    assert precision_at_k([q], 2) == 0.0


def test_precision_at_k_half_overlap():
    # predicted top-2 {a, b}, true top-2 {b, c}
    q = _query([("a", 0.9, 0.2), ("b", 0.8, 0.9), ("c", 0.1, 0.8)])
    assert precision_at_k([q], 2) == 0.5


def test_precision_at_k_tie_break_by_id():
    # all scores tied: both sides pick the lexicographically first k ids
    q = _query([("b", 0.5, 0.5), ("a", 0.5, 0.5), ("c", 0.5, 0.5)])
    assert precision_at_k([q], 2) == 1.0


def test_precision_at_k_too_large_rejected():
    q = _query([("a", 0.9, 0.9)])
    with pytest.raises(MetricError):
        precision_at_k([q], 2)


@pytest.mark.parametrize("k", [0, -1])
def test_precision_at_k_refuses_k_below_1(k):
    """A plain ValueError, which report does not turn into a null metric."""
    q = _query([("a", 0.9, 0.9), ("b", 0.5, 0.5)])
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$") as err:
        precision_at_k([q], k)
    assert not isinstance(err.value, MetricError)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("metric, args", [
    (auc, lambda bad: ([0.1, bad, 0.3], [1, -1, 1])),
    (mse_metric, lambda bad: ([0.1, bad], [0.0, 0.0])),
    (mse_metric, lambda bad: ([0.1, 0.2], [bad, 0.0])),
    (precision_at_k, lambda bad: ([_query([("a", bad, 0.9), ("b", 0.5, 0.5)])], 1)),
    (precision_at_k, lambda bad: ([_query([("a", 0.9, 0.9), ("b", 0.5, bad)])], 1)),
])
def test_metrics_refuse_non_finite_input(metric, args, bad):
    with pytest.raises(MetricError, match="finite"):
        metric(*args(bad))
