import base64
import ctypes
import hashlib
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmatch.data import gen_clone_dataset, gen_ged_dataset
from graphmatch.graphs import LabeledPair
from graphmatch.metrics import MetricError
from graphmatch.model import (AGGREGATORS, MODES, TASKS, ConfigError, Model, ModelConfig,
                              config_from_dict, encode_arrays, load_checkpoint,
                              save_checkpoint)
from graphmatch.optim import Adam
from graphmatch.training import (TrainConfig, TrainingError, _batch_step,
                                 _save_train_state, sample_classification_pairs, train)

from conftest import assert_parameters_untouched, record_predictions


def tiny_model(task="regression", feature_dim=3, **kw):
    cfg = dict(feature_dim=feature_dim, gcn_layers=2, gcn_dim=6, perspectives=4,
               mode="mgmn", task=task, sgnn_aggregator="max", dropout=0.1)
    cfg.update(kw)
    return Model(ModelConfig(**cfg), rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def reg_dataset():
    return gen_ged_dataset(n_graphs=14, node_range=(4, 5), seed=2)


@pytest.fixture(scope="module")
def clf_dataset():
    # 16 groups -> 13/2/1 group split, so the val split holds both classes
    return gen_clone_dataset(n_groups=16, variants_per_group=2,
                             perturbation_budget=2, seed=4)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_counts(rng):
    groups = {"a": ["a1", "a2"], "b": ["b1", "b2"]}
    pairs = sample_classification_pairs(groups, ["a1", "a2", "b1", "b2"], rng)
    pos = [p for p in pairs if p.target == 1.0]
    neg = [p for p in pairs if p.target == -1.0]
    assert len(pos) == 4 and len(neg) == 4


def test_sampling_group_membership(rng):
    groups = {"a": ["a1", "a2", "a3"], "b": ["b1", "b2"], "c": ["c1"]}
    train_ids = ["a1", "a2", "a3", "b1", "b2", "c1"]
    pairs = sample_classification_pairs(groups, train_ids, rng)
    member = {g: grp for grp, ms in groups.items() for g in ms}
    for p in pairs:
        same = member[p.g1] == member[p.g2]
        assert same == (p.target == 1.0)
    # the singleton group contributes no pairs
    assert not any(p.g1 == "c1" for p in pairs)


def test_sampling_deterministic():
    groups = {"a": ["a1", "a2"], "b": ["b1", "b2"]}
    ids = ["a1", "a2", "b1", "b2"]
    p1 = sample_classification_pairs(groups, ids, np.random.default_rng(9))
    p2 = sample_classification_pairs(groups, ids, np.random.default_rng(9))
    assert p1 == p2


def test_sampling_draw_order_pinned():
    # the draws of the original O(groups)-scan sampler on this input
    groups = {"a": ["a1", "a2", "a3"], "b": ["b1", "b2"], "c": ["c1", "c2"], "d": ["d1"]}
    ids = ["b2", "a1", "c1", "d1", "a3", "b1", "c2", "a2"]
    pairs = sample_classification_pairs(groups, ids, np.random.default_rng(3))
    assert [(p.g1, p.g2) for p in pairs] == [
        ("b2", "b1"), ("b2", "d1"), ("a1", "a2"), ("a1", "b1"), ("c1", "c2"),
        ("c1", "a3"), ("a3", "a2"), ("a3", "c1"), ("b1", "b2"), ("b1", "a1"),
        ("c2", "c1"), ("c2", "b2"), ("a2", "a1"), ("a2", "b1")]
    assert [p.target for p in pairs] == [1.0, -1.0] * 7


def test_sampling_ungrouped_graph_refused(rng):
    groups = {"a": ["x", "y"], "b": ["z", "w"]}
    with pytest.raises(TrainingError, match="'u' belongs to no group"):
        sample_classification_pairs(groups, ["x", "y", "z", "w", "u"], rng)


def test_sampling_needs_two_groups_with_train_members(rng):
    groups = {"a": ["x", "y"], "b": ["z"]}
    with pytest.raises(TrainingError, match="at least 2 groups, found 1"):
        sample_classification_pairs(groups, ["x", "y"], rng)


# ---------------------------------------------------------------------------
# training loop

def test_zero_learning_rate_leaves_params(reg_dataset):
    model = tiny_model()
    before = {k: p.data.copy() for k, p in model.params.items()}
    cfg = TrainConfig(task="regression", learning_rate=0.0, iterations=5,
                      batch_size=4, seed=1, val_every=5)
    train(model, reg_dataset, cfg)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k])


def test_overfit_small_regression_set(reg_dataset):
    # 10 fixed pairs must be driven to near-zero training error
    ds = reg_dataset
    pairs = ds.pairs_for_split("train")[:10]
    small = type(ds)(graphs=ds.graphs, pairs=pairs,
                     split={"train": list(ds.graphs), "val": [], "test": []})
    model = tiny_model(dropout=0.0, gcn_dim=12)
    cfg = TrainConfig(task="regression", learning_rate=0.01, iterations=500,
                      batch_size=10, seed=0, val_every=50)
    report = train(model, small, cfg)
    assert report.records[-1]["train_loss"] < 1e-3


def test_fixed_seed_reproduces_loss_log(reg_dataset):
    def run():
        model = tiny_model()
        cfg = TrainConfig(task="regression", iterations=30, batch_size=4,
                          seed=11, val_every=10)
        return train(model, reg_dataset, cfg).records

    assert run() == run()


def test_best_checkpoint_monotone_and_saved(tmp_path, reg_dataset):
    model = tiny_model()
    cfg = TrainConfig(task="regression", iterations=60, batch_size=4, seed=3,
                      val_every=10, checkpoint_dir=str(tmp_path),
                      log_path=str(tmp_path / "log.jsonl"))
    report = train(model, reg_dataset, cfg)
    best_seen = np.inf
    bests = []
    for rec in report.records:
        if rec["val_loss"] is not None and rec["val_loss"] < best_seen:
            best_seen = rec["val_loss"]
        bests.append(best_seen)
    assert bests == sorted(bests, reverse=True)
    assert os.path.exists(report.best_checkpoint)
    loaded, extra = load_checkpoint(report.best_checkpoint)
    assert extra["val_loss"] == best_seen
    # log file mirrors the records
    lines = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert lines == report.records


def acceptance_model():
    """The acceptance regression model (mgmn, bilstm, gcn_dim 64, 32 perspectives)."""
    return Model(ModelConfig(feature_dim=3, gcn_dim=64, perspectives=32, mode="mgmn",
                             task="regression", sgnn_aggregator="bilstm"),
                 rng=np.random.default_rng(0))


# sha256 of the run files of the 20-step run below, as every version so far wrote them.
# A trained parameter's last bits depend on the dgemm kernel BLAS picks at run time:
# these were pinned under numpy's bundled OpenBLAS with core SkylakeX (AVX-512).
RUN_FILE_SHA256 = {
    "best.ckpt": "f2b465d8fe77c15623563de38896a414dec8e5330c1ada7deed3be2e3515b89a",
    "train_state.json": "ab8a47d413428a00d0c9f4586fcbce6a1ce55b2e46982defe01aaf4e3a96063c",
}
RUN_FILE_BLAS_CORE = "SkylakeX"


def openblas_core():
    """The core numpy's bundled OpenBLAS picked at run time (np.show_config
    gives the build target instead), or None where numpy bundles none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def test_run_file_bytes_are_pinned(tmp_path, reg_dataset, monkeypatch):
    """Parameters, records, Adam's moments and the generator state of a fixed
    run, and the bytes that serialize them, stay what they were."""
    monkeypatch.chdir(tmp_path)  # the train state stores checkpoint_dir as given
    cfg = TrainConfig(iterations=20, val_every=10, batch_size=16, seed=0, checkpoint_dir="run")
    train(acceptance_model(), reg_dataset, cfg)
    for name, want in RUN_FILE_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == want, (
            f"{name}: pinned under OpenBLAS core {RUN_FILE_BLAS_CORE}, "
            f"ran under {openblas_core()}")


class CountedAt:
    """A ufunc whose ``at`` method counts its calls."""

    def __init__(self, ufunc):
        self.ufunc, self.at_calls = ufunc, 0

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def at(self, *args, **kwargs):
        self.at_calls += 1
        return self.ufunc.at(*args, **kwargs)


def test_train_steps_scatter_without_add_at(reg_dataset, monkeypatch):
    """No row is read twice in a train step, padding included, so no backward
    scatter takes the np.add.at path."""
    add = CountedAt(np.add)
    monkeypatch.setattr(np, "add", add)
    model = acceptance_model()
    optimizer = Adam(model.params, lr=5e-3)
    rng = np.random.default_rng(0)
    pairs = reg_dataset.pairs_for_split("train")
    for _ in range(10):
        batch = [pairs[int(i)] for i in rng.integers(0, len(pairs), size=16)]
        _batch_step(model, reg_dataset, batch, optimizer, rng)
    assert add.at_calls == 0


def test_writing_a_train_state_holds_little_beyond_the_file(tmp_path):
    """The train state is streamed to its file: the payloads are the only
    copy of the document in memory, never a joined string."""
    model = acceptance_model()
    optimizer = Adam(model.params, lr=5e-3)
    path = tmp_path / "train_state.json"
    records = [{"step": 10, "train_loss": 0.5, "val_loss": 0.25, "metric": None}]
    tracemalloc.start()
    try:
        _save_train_state(path, model, TrainConfig(), optimizer, np.random.default_rng(0),
                          10, 0.25, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * os.path.getsize(path)


def test_resume_matches_uninterrupted(tmp_path, reg_dataset):
    def fresh():
        return tiny_model()

    full_cfg = TrainConfig(task="regression", iterations=40, batch_size=4,
                           seed=5, val_every=10,
                           checkpoint_dir=str(tmp_path / "full"))
    full = train(fresh(), reg_dataset, full_cfg)

    half_cfg = TrainConfig(task="regression", iterations=20, batch_size=4,
                           seed=5, val_every=10,
                           checkpoint_dir=str(tmp_path / "half"))
    model = fresh()
    train(model, reg_dataset, half_cfg)
    resume_cfg = TrainConfig(task="regression", iterations=40, batch_size=4,
                             seed=5, val_every=10,
                             checkpoint_dir=str(tmp_path / "resumed"))
    resumed = train(model, reg_dataset, resume_cfg,
                    resume_from=os.path.join(tmp_path, "half", "train_state.json"))
    assert resumed.records == full.records


def test_resume_with_a_changed_val_every(tmp_path, reg_dataset):
    """A resumed regression run validates at the new cadence's multiples from
    where the saved run stopped, and reaches the uninterrupted parameters."""
    def run(iterations, val_every, out=None):
        return TrainConfig(task="regression", iterations=iterations, batch_size=4, seed=5,
                           val_every=val_every, checkpoint_dir=out)

    full_model = tiny_model()
    train(full_model, reg_dataset, run(20, 10))
    train(tiny_model(), reg_dataset, run(10, 10, str(tmp_path)))
    model = tiny_model()
    resumed = train(model, reg_dataset, run(20, 4),
                    resume_from=str(tmp_path / "train_state.json"))
    assert [r["step"] for r in resumed.records] == [10, 12, 16, 20]
    for k, p in full_model.params.items():
        assert np.array_equal(model.params[k].data, p.data), k


def test_resume_refuses_changed_config(tmp_path, reg_dataset):
    half_cfg = TrainConfig(task="regression", iterations=10, batch_size=4, seed=5,
                           val_every=10, checkpoint_dir=str(tmp_path / "half"))
    train(tiny_model(), reg_dataset, half_cfg)
    state = os.path.join(tmp_path, "half", "train_state.json")
    changed = TrainConfig(task="regression", iterations=20, batch_size=8, seed=6,
                          learning_rate=1e-3, val_every=10)
    with pytest.raises(TrainingError) as err:
        train(tiny_model(), reg_dataset, changed, resume_from=state)
    msg = str(err.value)
    for want in ("learning_rate: saved 0.005, current 0.001", "batch_size: saved 4, current 8",
                 "seed: saved 5, current 6"):
        assert want in msg
    assert "iterations" not in msg
    with pytest.raises(TrainingError, match="model.gcn_dim: saved 6, current 8"):
        train(tiny_model(gcn_dim=8), reg_dataset, half_cfg, resume_from=state)


def _v2_layout(doc):
    """A train state in the layout written before train states became
    checkpoints: one top-level document with its own version."""
    return {"version": 2, "config": doc["config"], "params": doc["params"],
            **doc["extra"]["train_state"]}


def test_resume_refuses_old_state_version(tmp_path, reg_dataset):
    cfg = TrainConfig(task="regression", iterations=10, batch_size=4, seed=5,
                      val_every=10, checkpoint_dir=str(tmp_path))
    train(tiny_model(), reg_dataset, cfg)
    path = tmp_path / "train_state.json"
    path.write_text(json.dumps(_v2_layout(json.loads(path.read_text()))))
    with pytest.raises(ConfigError, match="unsupported checkpoint format None; this "
                                          "reader takes format 1") as err:
        train(tiny_model(), reg_dataset, cfg, resume_from=str(path))
    assert str(err.value).startswith(f"{path}: ")


def _batch_pairs_layout(doc):
    """A train state whose train config keeps the classification batch in
    batch_pairs next to an unused batch_size, as states were written while
    the two schedules had separate batch fields; a state written that way
    is returned as it is. Such states also hold grad_clip null, as every
    state did while gradient clipping was a setting."""
    stored = doc["extra"]["train_state"]["train_config"]
    stored.setdefault("grad_clip", None)
    if "batch_pairs" not in stored:
        if stored["task"] == "classification":
            stored["batch_pairs"], stored["batch_size"] = stored["batch_size"], 128
        else:
            stored["batch_pairs"] = 10
    return doc


@pytest.mark.parametrize("task", TASKS)
def test_resume_from_a_batch_pairs_layout_state(tmp_path, reg_dataset, clf_dataset, task):
    """A train state of that layout resumes bit-identically: a stored
    batch_pairs is the classification batch size and is dropped for
    regression, and a grad_clip of null is dropped."""
    classification = task == "classification"
    ds = clf_dataset if classification else reg_dataset

    def run(length, out=None):
        schedule = ({"epochs": length} if classification
                    else {"iterations": 4 * length, "val_every": 4})
        model = tiny_model(task=task, feature_dim=6 if classification else 3)
        return model, TrainConfig(task=task, batch_size=4, seed=5, checkpoint_dir=out,
                                  **schedule)

    full_model, full_cfg = run(2)
    full = train(full_model, ds, full_cfg)
    half_model, half_cfg = run(1, str(tmp_path))
    train(half_model, ds, half_cfg)
    path = tmp_path / "train_state.json"
    path.write_text(json.dumps(_batch_pairs_layout(json.loads(path.read_text()))))
    model, cfg = run(2)
    resumed = train(model, ds, cfg, resume_from=str(path))
    assert resumed.records == full.records
    for k, p in full_model.params.items():
        assert np.array_equal(model.params[k].data, p.data), k


@pytest.fixture
def no_training_step(monkeypatch):
    import graphmatch.training as training_module

    def step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training_module, "_batch_step", step)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory, reg_dataset):
    out = tmp_path_factory.mktemp("saved_run")
    cfg = TrainConfig(task="regression", iterations=10, batch_size=4, seed=5,
                      val_every=5, checkpoint_dir=str(out))
    train(tiny_model(), reg_dataset, cfg)
    return out, cfg


def _row_record():
    return encode_arrays({"w": np.ones((1, 6))})["w"]


def _set(doc, keys, value):
    *inner, last = keys
    for k in inner:
        doc = doc[k]
    if value is None:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("source, keys, value, message", [
    ("train_state.json", ("params", "gcn.0.weight"), _row_record(),
     r"parameter 'gcn.0.weight' has shape \(1, 6\), but the config allocates \(3, 6\)"),
    ("train_state.json", ("params", "gcn.0.weight"), None,
     r"parameter 'gcn.0.weight' has shape nothing, but the config allocates \(3, 6\)"),
    ("train_state.json", ("extra", "train_state", "adam", "m", "gcn.0.weight"), _row_record(),
     r"Adam moment m of 'gcn.0.weight' has shape \(1, 6\), but the config allocates \(3, 6\)"),
    ("train_state.json", ("extra", "train_state", "adam", "m", "gcn.0.weight", "data"), None,
     r"Adam moment m of 'gcn.0.weight' lacks field 'data'"),
    ("train_state.json", ("extra", "train_state", "adam", "v", "gcn.0.weight", "data"), "@@@@",
     r"Adam moment v of 'gcn.0.weight': data is not base64"),
    ("train_state.json", ("extra", "train_state", "adam", "m", "gcn.0.weight", "shape"), [3, 5],
     r"Adam moment m of 'gcn.0.weight': data holds 144 bytes, but shape \[3, 5\] needs 15 "),
    ("train_state.json", ("extra", "train_state", "adam", "v", "gcn.0.weight", "data"),
     base64.b64encode(np.r_[np.zeros(17), -np.inf].tobytes()).decode(),
     r"Adam moment v of 'gcn.0.weight' holds a non-finite value"),
    ("train_state.json", ("config", "gcn_width"), 8,
     r"unknown model config key\(s\) gcn_width; valid fields: feature_dim"),
    ("train_state.json", ("extra", "train_state", "train_config", "val_every"), None,
     r"stored train config lacks field\(s\) val_every"),
    ("train_state.json", ("extra", "train_state", "train_config", "grad_clip"), 1.0,
     r"stored train config: grad_clip supports only None, got 1.0"),
    ("best.ckpt", (), None, r"no train_state section; --resume takes the train_state.json"),
    ("train_state.json", "v2", None, r"unsupported checkpoint format None"),
    *[("train_state.json", ("extra", "train_state", name), None,
       rf"train_state lacks field '{name}'")
      for name in ("adam", "step", "records", "rng_state", "best_val_loss")],
    ("train_state.json", ("extra", "train_state", "step"), -1,
     r"train_state field 'step' is not an int >= 0"),
    ("train_state.json", ("extra", "train_state", "adam", "step_count"), "3",
     r"train_state field 'adam' is not an object with an int step_count >= 0"),
    ("train_state.json", ("extra", "train_state", "rng_state", "bit_generator"), "MT19937",
     r"train_state field 'rng_state' is not the state of a numpy default_rng generator"),
], ids=["parameter_shape", "parameter_missing", "adam_moment_shape", "adam_moment_data_missing",
        "adam_moment_data_not_base64", "adam_moment_size_mismatch", "adam_moment_non_finite",
        "unknown_model_key",
        "train_config_field_missing", "train_config_grad_clip_set", "model_checkpoint",
        "v2_state", "adam_missing", "step_missing", "records_missing", "rng_state_missing", "best_val_loss_missing",
        "step_negative", "adam_step_count_not_int", "rng_state_other_generator"])
def test_resume_refuses_unusable_state_before_any_step(saved_run, reg_dataset, tmp_path,
                                                       no_training_step, source, keys, value,
                                                       message):
    run_dir, cfg = saved_run
    doc = json.loads((run_dir / source).read_text())
    if keys == "v2":
        doc = _v2_layout(doc)
    elif keys:
        _set(doc, keys, value)
    path = tmp_path / source
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message) as err:
        train(tiny_model(), reg_dataset, cfg, resume_from=str(path))
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("model_task, train_task", [("classification", "regression"),
                                                    ("regression", "classification")])
def test_train_refuses_a_task_other_than_the_models(reg_dataset, no_training_step,
                                                     model_task, train_task):
    cfg = TrainConfig(task=train_task, iterations=2, epochs=1, batch_size=4)
    with pytest.raises(TrainingError, match=f"train config task '{train_task}' differs "
                                            f"from the model's task '{model_task}'"):
        train(tiny_model(task=model_task), reg_dataset, cfg)


def test_split_hygiene_enforced(reg_dataset):
    from graphmatch.graphs import LabeledPair
    ds = reg_dataset
    test_graph = ds.split["test"][0]
    train_graph = ds.split["train"][0]
    bad = type(ds)(graphs=ds.graphs,
                   pairs=[LabeledPair(test_graph, train_graph, 0.5)],
                   split=dict(ds.split))
    # force the tainted pair into the training stream to show the trainer
    # still refuses to touch a held-out graph
    bad.pairs_for_split = lambda name: bad.pairs if name == "train" else []
    model = tiny_model()
    cfg = TrainConfig(task="regression", iterations=2, batch_size=2, seed=0)
    with pytest.raises(TrainingError, match="held-out"):
        train(model, bad, cfg)


def test_classification_training_runs(clf_dataset):
    model = tiny_model(task="classification", feature_dim=6)
    cfg = TrainConfig(task="classification", epochs=2, batch_size=10, seed=0)
    report = train(model, clf_dataset, cfg)
    assert len(report.records) == 2
    rec = report.records[-1]
    assert rec["val_loss"] is not None
    assert 0.0 <= rec["metric"] <= 1.0


def test_classification_epochs_without_pairs_still_record(no_training_step):
    """Singleton groups give no positive pair, so an epoch samples nothing and
    runs no step, but each epoch still ends with a record."""
    ds = gen_clone_dataset(10, 1, 1, seed=3)
    cfg = TrainConfig(task="classification", epochs=2, seed=0)
    report = train(tiny_model(task="classification", feature_dim=6), ds, cfg)
    assert [(r["step"], r["train_loss"]) for r in report.records] == [(1, None), (2, None)]


def test_no_best_checkpoint_without_validation(tmp_path, reg_dataset):
    ds = type(reg_dataset)(graphs=reg_dataset.graphs, pairs=reg_dataset.pairs,
                           split={**reg_dataset.split, "val": [],
                                  "test": reg_dataset.split["test"] + reg_dataset.split["val"]})
    cfg = TrainConfig(task="regression", iterations=4, batch_size=4, val_every=2,
                      checkpoint_dir=str(tmp_path))
    report = train(tiny_model(), ds, cfg)
    assert [r["val_loss"] for r in report.records] == [None, None]
    assert report.best_checkpoint is None and report.best_val_loss == np.inf
    assert sorted(os.listdir(tmp_path)) == ["train_state.json"]


def test_classification_needs_groups(reg_dataset):
    model = tiny_model(task="classification")
    cfg = TrainConfig(task="classification", epochs=1)
    with pytest.raises(TrainingError):
        train(model, reg_dataset, cfg)


@pytest.mark.parametrize("field, value", [
    ("task", "regresion"), ("val_every", 0), ("iterations", 0), ("epochs", 0),
    ("epochs", -1), ("learning_rate", -1e-3), ("seed", -1),
])
def test_train_config_refuses_values_it_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("task", "regresion"), ("learning_rate", -1.0),
                                          ("seed", -1), ("batch_size", 0)])
def test_train_config_refuses_with_the_error_model_config_uses(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{field}"):
        config_from_dict(TrainConfig, {field: value})


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_train_config_refuses_a_non_finite_learning_rate(value):
    with pytest.raises(ValueError, match=f"learning_rate must be a finite number >= 0, "
                                         f"got {value}"):
        TrainConfig(learning_rate=value)


def test_classification_without_a_train_split_names_its_cause(clf_dataset, no_training_step):
    held_out = {name: clf_dataset.split[name] for name in ("val", "test")}
    ds = type(clf_dataset)(graphs=clf_dataset.graphs, pairs=clf_dataset.pairs, split=held_out)
    assert ds.split["train"] == ()
    cfg = TrainConfig(task="classification", epochs=1)
    with pytest.raises(TrainingError, match="training graphs in at least 2 groups, found 0"):
        train(tiny_model(task="classification", feature_dim=6), ds, cfg)


def test_non_finite_validation_prediction_stops_the_run(reg_dataset, monkeypatch, tmp_path):
    import graphmatch.training as training_module
    real_evaluate = training_module.evaluate_pairs

    def one_nan(*args):
        preds, targets = real_evaluate(*args)
        preds[0] = np.nan
        return preds, targets

    monkeypatch.setattr(training_module, "evaluate_pairs", one_nan)
    log_path = tmp_path / "train_log.jsonl"
    cfg = TrainConfig(task="regression", iterations=3, batch_size=4, seed=1, val_every=3,
                      log_path=str(log_path))
    with pytest.raises(MetricError, match="mse needs finite input"):
        train(tiny_model(), reg_dataset, cfg)
    assert not log_path.exists()


def test_non_finite_gradient_refused_before_the_update(reg_dataset, monkeypatch):
    import graphmatch.training as training_module
    real_backward = training_module.backward

    def poisoning_backward(loss):
        real_backward(loss)
        model.params["gcn.1.weight"].grad[0, 0] = np.inf

    monkeypatch.setattr(training_module, "backward", poisoning_backward)
    model = tiny_model()
    before = {k: p.data.copy() for k, p in model.params.items()}
    cfg = TrainConfig(task="regression", iterations=3, batch_size=4, seed=1, val_every=3)
    with pytest.raises(TrainingError, match=r"non-finite gradient of parameter "
                                            r"'gcn.1.weight' on batch \[\('"):
        train(model, reg_dataset, cfg)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


def record_slices(monkeypatch):
    """The pair count of every per-pair stage call from here on, in order."""
    sliced = []
    real_pair_stage = Model.pair_stage
    monkeypatch.setattr(Model, "pair_stage", lambda self, enc, slots: sliced.append(len(slots))
                        or real_pair_stage(self, enc, slots))
    return sliced


def test_evaluate_pairs_slices_match_single_pairs(reg_dataset, monkeypatch):
    """Test queries against shared train candidates across slices, plus a
    self-pair: each distinct graph is encoded once per call, by per-graph
    stage calls of at most 2 * EVAL_SLICE graphs, and every prediction is
    forward_pair's."""
    import graphmatch.model as model_module
    import graphmatch.training as training_module
    # 4 pairs a slice, or 8 of these 4-5 node pairs at gcn_dim 6
    monkeypatch.setattr(training_module, "EVAL_SLICE", 4)
    monkeypatch.setattr(training_module, "EVAL_BUDGET", 8 * 5 * 5 * 6)
    model = tiny_model(sgnn_aggregator="bilstm")
    queries, candidates = reg_dataset.split["test"], reg_dataset.split["train"][:6]
    pairs = [LabeledPair(q, c, 0.05 * i)
             for i, (q, c) in enumerate((q, c) for q in queries for c in candidates)]
    pairs.append(LabeledPair(queries[1], queries[1], 1.0))
    adjacency, encoded, sliced = [], [], record_slices(monkeypatch)
    real_adjacency, real_gcn = model_module.normalized_adjacency, model_module.gcn_forward
    monkeypatch.setattr(model_module, "normalized_adjacency",
                        lambda g: adjacency.append(g.id) or real_adjacency(g))
    monkeypatch.setattr(model_module, "gcn_forward",
                        lambda graphs, *a: encoded.append(len(graphs)) or real_gcn(graphs, *a))
    preds, targets = training_module.evaluate_pairs(model, reg_dataset, pairs)
    assert sorted(adjacency) == sorted(set(queries) | set(candidates))  # once each
    assert encoded == [8, 1]  # 9 distinct graphs, at most 2 * EVAL_SLICE per call
    assert sum(sliced) == len(pairs) and min(sliced[:-1]) >= 4 and max(sliced) > 4
    single = [model.forward_pair(reg_dataset.graph(p.g1), reg_dataset.graph(p.g2)).item()
              for p in pairs]
    assert np.max(np.abs(preds - single)) <= 1e-12
    assert targets.tolist() == [p.target for p in pairs]


def retrieval_corpus():
    """Held-out 4-6 node queries against one shared list of train
    candidates, and a model of gcn_dim 64, as graphmatch eval meets them."""
    ds = gen_ged_dataset(n_graphs=30, node_range=(4, 6), seed=3, max_train_pairs=0,
                         eval_candidates=15)
    model = Model(ModelConfig(feature_dim=3, gcn_layers=3, gcn_dim=64, perspectives=32),
                  rng=np.random.default_rng(5))
    return model, ds, ds.pairs_for_split("test") + ds.pairs_for_split("val")


def clone_corpus():
    """Every pair of 14 clone graphs of 6-10 nodes, under a classification model."""
    ds = gen_clone_dataset(n_groups=7, variants_per_group=2, perturbation_budget=2, seed=4)
    ids = sorted(ds.graphs)
    model = tiny_model(task="classification", feature_dim=6, gcn_dim=16,
                       sgnn_aggregator="bilstm")
    return model, ds, [LabeledPair(a, b, 1.0) for a in ids for b in ids]


@pytest.mark.parametrize("corpus", [retrieval_corpus, clone_corpus])
def test_evaluate_pairs_gives_the_32_pair_slicing_bytes(corpus, monkeypatch):
    """On these corpora, slices past EVAL_SLICE under EVAL_BUDGET move no
    prediction's bits: a budget of 0 slices every 32 pairs."""
    import graphmatch.training as training_module
    model, ds, pairs = corpus()
    sliced = record_slices(monkeypatch)
    preds, _ = training_module.evaluate_pairs(model, ds, pairs)
    assert max(sliced) > training_module.EVAL_SLICE
    monkeypatch.setattr(training_module, "EVAL_BUDGET", 0)
    sliced.clear()
    floor, _ = training_module.evaluate_pairs(model, ds, pairs)
    whole, rest = divmod(len(pairs), 32)
    assert sliced == [32] * whole + [rest] * (rest > 0)
    assert preds.tobytes() == floor.tobytes()


def test_evaluate_pairs_keeps_values_and_leaves_the_parameters(monkeypatch):
    """Every score comes off the eval view with no tape, and the caller's
    parameters stay the same trainable objects, with no gradient and the
    same bytes."""
    import graphmatch.training as training_module
    model, ds, pairs = retrieval_corpus()
    before = {k: (p, p.data.tobytes()) for k, p in model.params.items()}
    scores = record_predictions(monkeypatch)
    training_module.evaluate_pairs(model, ds, pairs)
    assert scores and not any(t.requires_grad or t._parents for t in scores)
    assert_parameters_untouched(model, before)


def test_evaluate_pairs_of_no_pairs(reg_dataset):
    from graphmatch.training import evaluate_pairs
    preds, targets = evaluate_pairs(tiny_model(), reg_dataset, [])
    assert preds.shape == targets.shape == (0,)


# ---------------------------------------------------------------------------
# round trips over random configurations

@st.composite
def tiny_configs(draw):
    task = draw(st.sampled_from(TASKS))
    return ModelConfig(feature_dim=3 if task == "regression" else 6,
                       gcn_layers=draw(st.integers(1, 2)), gcn_dim=draw(st.integers(1, 5)),
                       perspectives=draw(st.integers(1, 4)),
                       dropout=draw(st.sampled_from([0.0, 0.3])),
                       mode=draw(st.sampled_from(MODES)), task=task,
                       sgnn_aggregator=draw(st.sampled_from(AGGREGATORS)))


@settings(max_examples=40, deadline=None)
@given(config=tiny_configs(), seed=st.integers(0, 2 ** 16))
def test_checkpoint_and_train_state_round_trip(reg_dataset, clf_dataset, config, seed):
    """A checkpoint reloads to an equal config and bit-identical parameters,
    and a run resumed from the train state written halfway reproduces the
    uninterrupted run's records and final parameters bit-identically."""
    def fresh(init_seed):
        return Model(config, rng=np.random.default_rng(init_seed))

    def run_config(length, out=None):
        schedule = {"epochs": length} if config.task == "classification" else {
            "iterations": 2 * length, "val_every": 2}
        return TrainConfig(task=config.task, batch_size=4, seed=seed,
                           checkpoint_dir=out, **schedule)

    ds = reg_dataset if config.task == "regression" else clf_dataset
    with tempfile.TemporaryDirectory() as tmp:
        model = fresh(seed)
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == config
        assert loaded.params.keys() == model.params.keys()
        for k, p in model.params.items():
            assert np.array_equal(loaded.params[k].data, p.data), k

        full = train(model, ds, run_config(2))
        train(fresh(seed), ds, run_config(1, tmp))
        resumed_model = fresh(seed + 1)  # parameters come from the state file
        resumed = train(resumed_model, ds, run_config(2),
                        resume_from=os.path.join(tmp, "train_state.json"))
    assert resumed.records == full.records
    for k, p in model.params.items():
        assert np.array_equal(resumed_model.params[k].data, p.data), k
