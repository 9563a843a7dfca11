"""The benchmark's tracer patches package functions by module and name; a
rename in the package must fail here, not only in a traced benchmark run."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    return tracing


def test_tracer_targets_resolve_and_restore(tracing):
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    tracer = tracing.Tracer().install()
    try:
        for (owner, attr, *_), original in zip(tracing._TARGETS, originals):
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr, *_), original in zip(tracing._TARGETS, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_traced_train_eval_and_score_record_their_spans(tracing):
    import numpy as np

    from graphmatch import data, model, training

    ds = data.gen_ged_dataset(n_graphs=10, node_range=(4, 5), seed=3, max_train_pairs=6,
                              eval_candidates=1)
    cfg = model.ModelConfig(feature_dim=3, gcn_layers=2, gcn_dim=6, perspectives=4,
                            mode="mgmn", task="regression", sgnn_aggregator="bilstm")
    net = model.Model(cfg, rng=np.random.default_rng(0))
    tracer = tracing.Tracer().install()
    try:
        training.train(net, ds, training.TrainConfig(task="regression", iterations=2,
                                                     batch_size=4, seed=0, val_every=2))
        training.evaluate_pairs(net, ds, ds.pairs_for_split("test"))
        g1, g2 = list(ds.graphs.values())[:2]
        net.forward_pair(g1, g2)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    for want in ("model.predict", "model.aggregate.ngmn", "model.aggregate.sgnn",
                 "autodiff.bilstm_last", "autodiff.backward", "optim.Adam.step",
                 "model.forward_pair", "training.evaluate_pairs"):
        assert want in names, want
    assert not [s for s in tracer.spans if s.attrs and "error" in s.attrs]
    steps = [s for s in tracer.spans if s.name == "optim.Adam.step"]
    assert len(steps) == 2
