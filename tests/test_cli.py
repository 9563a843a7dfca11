import base64
import hashlib
import json
import os
from dataclasses import fields
from typing import get_args

import numpy as np
import pytest

from graphmatch.cli import main, openblas_core
from graphmatch.data import load_dataset
from graphmatch.model import ModelConfig, load_checkpoint
from graphmatch.training import TrainConfig

from conftest import assert_parameters_untouched, record_predictions


def write_graph_file(path, gid, nodes, edges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": gid, "nodes": nodes, "edges": edges}) + "\n")


@pytest.fixture
def triangle_path_files(tmp_path):
    tri = tmp_path / "triangle.jsonl"
    pth = tmp_path / "path.jsonl"
    write_graph_file(tri, "tri", [[1.0], [1.0], [1.0]], [[0, 1], [1, 2], [0, 2]])
    write_graph_file(pth, "path", [[1.0], [1.0], [1.0]], [[0, 1], [1, 2]])
    return str(tri), str(pth)


def test_gen_ged_writes_expected_files(tmp_path):
    out = tmp_path / "nested" / "ds"  # missing parent dirs get created
    rc = main(["gen", "ged", "--graphs", "10", "--node-range", "4", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    for name in ("graphs.jsonl", "pairs.jsonl", "split.json", "run_manifest.json"):
        assert (out / name).exists()


def test_gen_is_deterministic(tmp_path):
    argv = ["gen", "ged", "--graphs", "10", "--node-range", "4", "5",
            "--seed", "7", "--out", None]
    for sub in ("a", "b"):
        argv[-1] = str(tmp_path / sub)
        assert main(argv) == 0
    for name in ("graphs.jsonl", "pairs.jsonl", "split.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of each file a default-sized gen writes: a change to a generator's
# draws or to the file format changes every corpus drawn so far
CORPUS_SHA256 = {
    ("ged", "7"): {
        "graphs.jsonl": "6437dbc81ca2c86c9d6e546fa1adbe291f127944b9608f0db0ef503c53d1602a",
        "pairs.jsonl": "765ad0003eac5830623092ed8d36bb3eed986e095be8cd28606ff9c562de68f9",
        "split.json": "46fcbfd1ae9857fd071028069ef502fba80d7b4c18833dfdb5c163b2bcf3c183"},
    ("clone", "11"): {
        "graphs.jsonl": "9c052e3a2550857626324a12e581adaedf5570509844bad2868de5204d543a2c",
        "pairs.jsonl": "f06921a4d95bf94a7dee4cd64e1157b2c9bc61f3840734c0d803ad6b7ec986f3",
        "split.json": "77cb3987c91d8c3aa6729df657758f3042e16936190a82b94b999f94a50f0a81"},
}


@pytest.mark.parametrize("kind, seed", list(CORPUS_SHA256))
def test_gen_corpus_bytes_are_pinned(tmp_path, kind, seed):
    assert main(["gen", kind, "--seed", seed, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in CORPUS_SHA256[kind, seed]}
    assert got == CORPUS_SHA256[kind, seed]


def test_gen_ged_bad_node_range_refused(tmp_path, caplog):
    rc = main(["gen", "ged", "--graphs", "10", "--node-range", "5", "3",
               "--seed", "1", "--out", str(tmp_path / "ds")])
    assert rc == 1
    assert ("node_range must be (min, max) ints with 1 <= min <= max <= 10, got [5, 3]"
            in caplog.text)
    assert not (tmp_path / "ds").exists()  # refused before the manifest


def test_gen_ged_node_range_over_the_search_budget_refused(tmp_path, caplog):
    rc = main(["gen", "ged", "--graphs", "10", "--node-range", "4", "11",
               "--out", str(tmp_path / "ds")])
    assert rc == 1
    assert ("node_range must be (min, max) ints with 1 <= min <= max <= 10, got [4, 11]"
            in caplog.text)
    assert not (tmp_path / "ds").exists()


def case_id(value):
    """A refusal case's id part: pytest's default for its arguments, and its
    message without a count's "an int ", the id that test selections name
    the case by."""
    return None if isinstance(value, list) else value.replace("an int ", "")


@pytest.mark.parametrize("argv, message", [
    (["ged", "--graphs", "0"], "n_graphs must be an int >= 1, got 0"),
    (["clone", "--groups", "0"], "n_groups must be an int >= 1, got 0"),
    (["clone", "--variants", "0"], "variants_per_group must be an int >= 1, got 0"),
    (["ged", "--max-train-pairs", "-1"], "max_train_pairs must be an int >= 0 or None, got -1"),
    (["ged", "--eval-candidates", "-2"], "eval_candidates must be an int >= 0 or None, got -2"),
], ids=case_id)
def test_gen_empty_corpus_refused(tmp_path, caplog, argv, message):
    assert main(["gen", *argv, "--out", str(tmp_path / "ds")]) == 1
    assert message in caplog.text
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("kind", ["ged", "clone"])
def test_gen_negative_seed_refused(tmp_path, caplog, kind):
    assert main(["gen", kind, "--seed", "-1", "--out", str(tmp_path / "ds")]) == 1
    assert "seed must be an int >= 0, got -1" in caplog.text
    assert not (tmp_path / "ds").exists()  # refused before the manifest


def test_gen_clone_files(tmp_path):
    out = tmp_path / "clones"
    rc = main(["gen", "clone", "--groups", "5", "--variants", "2",
               "--budget", "1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    graphs = [json.loads(l) for l in (out / "graphs.jsonl").read_text().splitlines()]
    assert len(graphs) == 10
    assert all("group" in g for g in graphs)


def test_manifest_written_with_checksums(tmp_path):
    out = tmp_path / "ds"
    main(["gen", "ged", "--graphs", "8", "--node-range", "4", "4",
          "--seed", "2", "--out", str(out)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "gen ged"
    assert manifest["seed"] == 2
    assert "code_version" in manifest and "timestamp" in manifest
    assert manifest["config"] == {"n_graphs": 8, "node_range": [4, 4], "edge_prob": 0.25,
                                  "seed": 2, "max_train_pairs": None, "eval_candidates": None}


def test_manifest_names_the_blas_a_run_used(tmp_path, monkeypatch):
    """The manifest records numpy's BLAS build, the core it picked at run time
    and the thread variables, after the keys it held before."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "ds"
    assert main(["gen", "ged", "--graphs", "4", "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert list(manifest) == ["command", "config", "seed", "dataset_checksums", "code_version",
                              "timestamp", "blas"]
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {
        "name": built["name"], "version": built["version"], "core": openblas_core(),
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                    "MKL_NUM_THREADS": "2"}}
    assert manifest["blas"]["name"] and manifest["blas"]["version"]


def test_every_gen_flag_is_a_generator_parameter():
    """Each gen kind's flags are exactly its generator's parameters, so the
    manifest records only settings that shaped the corpus."""
    import argparse
    from inspect import signature

    from graphmatch.cli import build_parser
    from graphmatch.data import gen_clone_dataset, gen_ged_dataset

    def subparsers(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsers = subparsers(subparsers(build_parser())["gen"])
    assert sorted(parsers) == ["clone", "ged"]
    for kind, generator in (("ged", gen_ged_dataset), ("clone", gen_clone_dataset)):
        dests = {a.dest for a in parsers[kind]._actions
                 if not isinstance(a, argparse._HelpAction) and a.dest != "out"}
        assert dests == set(signature(generator).parameters), kind


def test_gen_flag_of_the_other_kind_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "clone", "--node-range", "20", "30", "--out", str(tmp_path / "ds")])
    assert err.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --node-range 20 30" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_ged_identical_graphs(tmp_path, capsys):
    f = tmp_path / "g.jsonl"
    write_graph_file(f, "g", [[1.0], [1.0], [1.0]], [[0, 1], [1, 2], [0, 2]])
    rc = main(["ged", str(f), str(f)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["distance"] == 0.0
    assert res["normalized_similarity"] == 1.0


def test_ged_triangle_vs_path(triangle_path_files, capsys):
    tri, pth = triangle_path_files
    rc = main(["ged", tri, pth])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["distance"] == 1.0
    assert abs(res["normalized_similarity"] - np.exp(-1.0 / 3.0)) < 1e-12


def test_ged_over_budget_refused(tmp_path):
    big = tmp_path / "big.jsonl"
    n = 12
    write_graph_file(big, "big", [[1.0]] * n, [[i, i + 1] for i in range(n - 1)])
    rc = main(["ged", str(big), str(big)])
    assert rc == 2


def test_ged_timeout_reports_lower_bound(triangle_path_files, capsys, monkeypatch):
    import itertools
    import types

    import graphmatch.ged as ged_module
    tri, pth = triangle_path_files
    # a clock one second on at every reading passes the deadline at the first pop
    clock = itertools.count()
    monkeypatch.setattr(ged_module, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    rc = main(["ged", tri, pth, "--timeout", "0.5"])
    assert rc == 3  # distinct from the budget refusal's 2 and a plain error's 1
    res = json.loads(capsys.readouterr().out)
    assert res["timed_out"] is True
    assert 0.0 <= res["best_lower_bound"] <= 1.0  # the exact distance is 1


@pytest.mark.parametrize("flags,message", [
    (["--timeout", "-1"], "--timeout must be a finite number > 0, got -1.0"),
    (["--timeout", "0"], "--timeout must be a finite number > 0, got 0.0"),
    (["--timeout", "nan"], "--timeout must be a finite number > 0, got nan"),
    (["--timeout", "inf"], "--timeout must be a finite number > 0, got inf"),
    (["--budget", "0"], "--budget must be an int >= 1, got 0"),
    (["--budget", "-1"], "--budget must be an int >= 1, got -1"),
], ids=case_id)
def test_ged_bad_flags_refused(triangle_path_files, capsys, caplog, flags, message):
    tri, pth = triangle_path_files
    assert main(["ged", tri, pth, *flags]) == 1
    assert caplog.records[-1].getMessage() == message
    assert capsys.readouterr().out == ""


def test_ged_rejects_multi_graph_file(tmp_path, triangle_path_files):
    tri, _ = triangle_path_files
    multi = tmp_path / "multi.jsonl"
    with open(multi, "w") as fh:
        fh.write(json.dumps({"id": "a", "nodes": [[1.0]], "edges": []}) + "\n")
        fh.write(json.dumps({"id": "b", "nodes": [[1.0]], "edges": []}) + "\n")
    assert main(["ged", str(multi), tri]) == 1


# the settings of trained_run's model and schedule, as train flags
TINY_RUN = ["--task", "regression", "--mode", "mgmn", "--sgnn-agg", "max", "--gcn-layers", "2",
            "--gcn-dim", "6", "--perspectives", "4", "--iterations", "20", "--batch-size", "4",
            "--seed", "0"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    ds = root / "ds"
    out = root / "out"
    main(["gen", "ged", "--graphs", "12", "--node-range", "4", "5",
          "--seed", "5", "--out", str(ds)])
    rc = main(["train", "--dataset", str(ds), *TINY_RUN, "--out", str(out)])
    assert rc == 0
    return ds, out


def test_train_outputs(trained_run):
    ds, out = trained_run
    for name in ("run_manifest.json", "final.ckpt", "best.ckpt",
                 "train_state.json", "train_log.jsonl"):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    # dataset inputs are checksummed in the manifest
    assert any(k.endswith("graphs.jsonl") for k in manifest["dataset_checksums"])


def test_eval_emits_regression_metrics(trained_run, tmp_path, capsys):
    ds, out = trained_run
    rc = main(["eval", "--checkpoint", str(out / "best.ckpt"),
               "--dataset", str(ds), "--split", "test", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "eval_report.json").read_text())
    assert "mse" in rep and "spearman_rho" in rep and "kendall_tau" in rep
    assert rep["split"] == "test"
    assert rep["dataset_id"] == str(ds)
    assert rep["seconds"] > 0 and rep["pairs_per_s"] == rep["num_pairs"] / rep["seconds"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    ckpt = str(out / "best.ckpt")
    assert manifest["config"] == {"checkpoint": ckpt, "dataset": str(ds), "split": "test"}
    assert sorted(manifest["dataset_checksums"]) == sorted(
        [ckpt] + [str(ds / f) for f in ("graphs.jsonl", "pairs.jsonl", "split.json")])


def test_eval_of_an_empty_split_refused(trained_run, tmp_path, caplog):
    ds, out = trained_run
    rc = main(["eval", "--checkpoint", str(out / "final.ckpt"), "--dataset", str(ds),
               "--split", "bogus", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no pairs in split 'bogus'" in caplog.text
    assert not (tmp_path / "out").exists()  # refused before the manifest


def test_eval_of_a_dataset_of_another_width_refused(trained_run, tmp_path, caplog):
    ds, out = trained_run
    clone = tmp_path / "clone"
    assert main(["gen", "clone", "--groups", "8", "--variants", "2", "--budget", "1",
                 "--seed", "3", "--out", str(clone)]) == 0
    ckpt = out / "final.ckpt"
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(clone),
               "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert (f"{ckpt}: model feature_dim 3 does not match dataset {clone}'s feature "
            f"width 6") in caplog.text
    assert not (tmp_path / "ev").exists()  # refused before the manifest


def test_eval_of_a_checkpoint_with_a_nan_weight_refused(trained_run, tmp_path, caplog):
    ds, out = trained_run
    doc = json.loads((out / "final.ckpt").read_text())
    rec = doc["params"]["gcn.0.weight"]
    data = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
    data[0] = np.nan
    rec["data"] = base64.b64encode(data.tobytes()).decode()
    ckpt = tmp_path / "nan.ckpt"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
               "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert f"{ckpt}: parameter 'gcn.0.weight' holds a non-finite value" in caplog.text
    assert not (tmp_path / "ev").exists()


def test_verbose_is_a_usage_error(triangle_path_files, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--verbose", "ged", *triangle_path_files])
    assert stop.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_score_identical_graphs_near_one(trained_run, tmp_path, capsys):
    _, out = trained_run
    f = tmp_path / "g.jsonl"
    write_graph_file(f, "g", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                     [[0, 1], [1, 2]])
    rc = main(["score", "--checkpoint", str(out / "final.ckpt"), str(f), str(f)])
    assert rc == 0
    score = float(capsys.readouterr().out.strip())
    assert 0.0 <= score <= 1.0


def test_score_keeps_values_and_leaves_the_models_parameters(trained_run, tmp_path,
                                                             monkeypatch, capsys):
    import graphmatch.cli as cli_module
    _, out = trained_run
    model, _ = load_checkpoint(out / "final.ckpt")
    f = tmp_path / "g.jsonl"
    write_graph_file(f, "g", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1]])
    g = load_dataset(f).graph("g")
    want = f"{model.forward_pair(g, g).item():.6f}\n"
    before = {k: (p, p.data.tobytes()) for k, p in model.params.items()}
    scores = record_predictions(monkeypatch)
    monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: (model, None))
    assert main(["score", "--checkpoint", "unread.ckpt", str(f), str(f)]) == 0
    assert capsys.readouterr().out == want
    assert len(scores) == 1 and not (scores[0].requires_grad or scores[0]._parents)
    assert_parameters_untouched(model, before)


def test_score_accepts_the_train_state(trained_run, tmp_path, capsys):
    _, out = trained_run
    one_hot = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    write_graph_file(tmp_path / "a.jsonl", "a", one_hot, [[0, 1], [1, 2], [0, 2]])
    write_graph_file(tmp_path / "b.jsonl", "b", one_hot, [[0, 1]])
    scores = []
    for ckpt in ("final.ckpt", "train_state.json"):
        rc = main(["score", "--checkpoint", str(out / ckpt),
                   str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert rc == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1]


def test_score_of_a_graph_of_another_width_refused(trained_run, tmp_path, caplog, capsys):
    _, out = trained_run
    narrow, wide = tmp_path / "narrow.jsonl", tmp_path / "wide.jsonl"
    write_graph_file(narrow, "n", [[1.0, 0.0, 0.0]], [])
    write_graph_file(wide, "w", [[1.0] * 6], [])
    ckpt = out / "final.ckpt"
    assert main(["score", "--checkpoint", str(ckpt), str(narrow), str(wide)]) == 1
    assert (f"{ckpt}: model feature_dim 3 does not match graph file {wide}'s feature "
            f"width 6") in caplog.text
    assert capsys.readouterr().out == ""


def _log_steps(run_dir):
    return [json.loads(line)["step"]
            for line in (run_dir / "train_log.jsonl").read_text().splitlines()]


@pytest.fixture
def validate_every_5(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {}, "train": {"val_every": 5}}))
    return ["--config", str(cfg)]


def test_train_log_of_a_rerun_into_the_same_out_holds_its_records_once(
        trained_run, tmp_path, validate_every_5):
    ds, _ = trained_run
    for _ in range(2):
        assert main(["train", "--dataset", str(ds), *TINY_RUN, *validate_every_5,
                     "--out", str(tmp_path / "run")]) == 0
    assert _log_steps(tmp_path / "run") == [5, 10, 15, 20]


def test_train_log_of_a_resumed_run_holds_the_resumed_records(trained_run, tmp_path,
                                                              validate_every_5):
    ds, _ = trained_run
    run = ["train", "--dataset", str(ds), *TINY_RUN, *validate_every_5]
    assert main([*run, "--out", str(tmp_path / "full")]) == 0
    assert main([*run, "--iterations", "10", "--out", str(tmp_path / "half")]) == 0
    assert main([*run, "--resume", str(tmp_path / "half" / "train_state.json"),
                 "--out", str(tmp_path / "resumed")]) == 0
    assert _log_steps(tmp_path / "resumed") == [5, 10, 15, 20]
    assert ((tmp_path / "resumed" / "train_log.jsonl").read_text()
            == (tmp_path / "full" / "train_log.jsonl").read_text())


def test_resume_from_a_model_checkpoint_refused(trained_run, tmp_path, caplog):
    ds, out = trained_run
    rc = main(["train", "--dataset", str(ds), *TINY_RUN,
               "--resume", str(out / "best.ckpt"), "--out", str(tmp_path / "again")])
    assert rc == 1
    assert f"{out / 'best.ckpt'}: no train_state section" in caplog.text
    assert not (tmp_path / "again").exists()  # refused before any output


def test_resume_from_an_incomplete_state_refused(trained_run, tmp_path, caplog):
    ds, out = trained_run
    doc = json.loads((out / "train_state.json").read_text())
    del doc["extra"]["train_state"]["records"]
    state = tmp_path / "train_state.json"
    state.write_text(json.dumps(doc))
    rc = main(["train", "--dataset", str(ds), *TINY_RUN,
               "--resume", str(state), "--out", str(tmp_path / "again")])
    assert rc == 1
    assert f"{state}: train_state lacks field 'records'" in caplog.text
    assert not (tmp_path / "again").exists()  # refused before any output


def test_missing_dataset_exits_nonzero(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 1


def test_config_file_flags_override(tmp_path):
    ds = tmp_path / "ds"
    main(["gen", "ged", "--graphs", "10", "--node-range", "4", "4",
          "--seed", "9", "--out", str(ds)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"mode": "sgnn", "task": "regression", "gcn_layers": 2,
                  "gcn_dim": 6, "perspectives": 4, "sgnn_aggregator": "max"},
        "train": {"iterations": 50, "batch_size": 4, "seed": 1},
    }))
    out = tmp_path / "out"
    # --iterations beats the config file value
    rc = main(["train", "--dataset", str(ds), "--config", str(cfg),
               "--iterations", "10", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["train"]["iterations"] == 10
    assert manifest["config"]["model"]["mode"] == "sgnn"


def test_train_config_unknown_model_key(tmp_path, caplog):
    ds = tmp_path / "ds"
    main(["gen", "ged", "--graphs", "10", "--node-range", "4", "4",
          "--seed", "9", "--out", str(ds)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"mode": "sgnn", "gcn_width": 8}}))
    rc = main(["train", "--dataset", str(ds), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown model config key(s) gcn_width; valid fields: feature_dim," in caplog.text


@pytest.fixture
def tiny_dataset(tmp_path):
    ds = tmp_path / "ds"
    assert main(["gen", "ged", "--graphs", "10", "--node-range", "4", "4",
                 "--seed", "9", "--out", str(ds)]) == 0
    return ds


def test_train_config_unknown_train_key(tiny_dataset, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"iterations": 2, "batch_sise": 4, "sed": 1}}))
    rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert (f"{cfg}: train section: unknown train config key(s) batch_sise, sed; "
            f"valid fields: task, learning_rate, epochs,") in caplog.text
    assert "TypeError" not in caplog.text and "__init__" not in caplog.text
    assert not (tmp_path / "out").exists()  # refused before any work


def test_train_config_model_error_names_the_file(tiny_dataset, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"mode": "simgnn"}}))
    rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{cfg}: model section: mode must be one of" in caplog.text


def test_train_config_task_conflict_refused(tiny_dataset, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"task": "regression", "gcn_dim": 4, "perspectives": 2},
                               "train": {"task": "classification", "iterations": 1,
                                         "batch_size": 2}}))
    rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert (f"{cfg}: the train section's task 'classification' differs from the "
            f"model's task 'regression'") in caplog.text
    assert not (tmp_path / "out").exists()


def test_train_refused_flag_value_names_the_flag(tiny_dataset, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"

    def refusal(doc, *flags):
        cfg.write_text(json.dumps(doc))
        rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg), *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"][-1]

    assert (refusal({"train": {"iterations": 2}}, "--batch-size", "0")
            == "--batch-size must be an int >= 1, got 0")
    assert refusal({}, "--seed", "-1") == "--seed must be an int >= 0, got -1"
    assert (refusal({"model": {"gcn_dim": 4}}, "--perspectives", "0")
            == "--perspectives must be an int >= 1, got 0")
    # a bad value that is in the file is still blamed on the file
    assert refusal({"train": {"batch_size": 0}}, "--iterations", "2").startswith(
        f"{cfg}: train section: batch_size must be an int >= 1, got 0")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("missing", ["pairs.jsonl", "split.json"])
def test_dataset_without_all_its_files_refused(trained_run, tmp_path, caplog, command,
                                               missing):
    ds, out = trained_run
    partial = tmp_path / "ds"
    partial.mkdir()
    for name in ("graphs.jsonl", "pairs.jsonl", "split.json"):
        if name != missing:
            (partial / name).write_bytes((ds / name).read_bytes())
    args = (["--iterations", "2"] if command == "train"
            else ["--checkpoint", str(out / "final.ckpt")])
    rc = main([command, "--dataset", str(partial), *args, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert str(partial / missing) in caplog.text
    assert not (tmp_path / "out").exists()  # refused before the manifest


def _rename_val(split):
    split["valid"] = split.pop("val")


@pytest.mark.parametrize("change,message", [
    (_rename_val, "unknown split 'valid'; valid splits: train, val, test"),
    (lambda split: split["test"].pop(0), "is in no split"),
])
def test_train_on_a_bad_split_refused(tiny_dataset, tmp_path, caplog, change, message):
    path = tiny_dataset / "split.json"
    split = json.loads(path.read_text())
    change(split)
    path.write_text(json.dumps(split))
    rc = main(["train", "--dataset", str(tiny_dataset), "--iterations", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{path}: " in caplog.text and message in caplog.text
    assert not (tmp_path / "out").exists()  # refused before the manifest


def test_train_without_validation_writes_no_best_checkpoint(tiny_dataset, tmp_path, capsys):
    split = json.loads((tiny_dataset / "split.json").read_text())
    split["test"] += split.pop("val")
    (tiny_dataset / "split.json").write_text(json.dumps(split))
    out = tmp_path / "out"
    rc = main(["train", "--dataset", str(tiny_dataset), "--gcn-dim", "4", "--perspectives",
               "2", "--iterations", "2", "--batch-size", "2", "--out", str(out)])
    assert rc == 0
    assert "best val loss inf; no best checkpoint was written" in capsys.readouterr().err
    assert not (out / "best.ckpt").exists() and (out / "final.ckpt").exists()


@pytest.mark.parametrize("text,message", [
    ('{model: {}}', "not JSON: Expecting property name"),
    ('[{"model": {}}]', "expected a JSON object with model and train sections, got list"),
    ('{"train": [1, 2]}', "the train section must be a JSON object, got list"),
    ('{"model": "sgnn"}', "the model section must be a JSON object, got str"),
    ('{"modle": {}}', "unknown section(s) modle; valid sections: model, train"),
    ('{"train": {"batch_size": 0}}', "train section: batch_size must be an int >= 1, got 0"),
    ('{"train": {"iterations": "5"}}',
     "train section: train config value of the wrong type: iterations takes int, got '5'"),
    ('{"train": {"grad_clip": 1.0}}', "train section: grad_clip supports only None, got 1.0"),
    ('{"model": {"normalize_attention": true}}',
     "model section: normalize_attention supports only False, got True"),
    ('{"train": {"checkpoint_dir": "elsewhere"}}',
     "train section: checkpoint_dir is set by --out"),
    ('{"model": {"feature_dim": 7, "gcn_dim": 4, "perspectives": 2},'
     ' "train": {"iterations": 1, "batch_size": 2}}',
     "model section: feature_dim is set by --dataset"),
])
def test_train_malformed_config_names_the_file(tiny_dataset, tmp_path, caplog, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors and errors[-1].startswith(f"{cfg}: {message}")
    assert not (tmp_path / "out").exists()


def number_fields(cls):
    """(name, int or float) of every field of cls that holds a number."""
    return [(f.name, kind) for f in fields(cls) for kind in (int, float)
            if kind in (get_args(f.type) or (f.type,))]


# values of the wrong type for a field of each number type: an int field takes
# no bool and no float, a float field no bool, and neither a string
WRONG_TYPE = {int: [True, 2.5, "2"], float: [False, "0.5"]}


@pytest.mark.parametrize("section, name, value", [
    (section, name, value)
    for section, cls in (("model", ModelConfig), ("train", TrainConfig))
    for name, kind in number_fields(cls) if name != "feature_dim"  # --dataset sets it
    for value in WRONG_TYPE[kind]])
def test_config_value_of_the_wrong_type_names_the_field(tiny_dataset, tmp_path, caplog,
                                                        section, name, value):
    doc = {"model": {"gcn_layers": 1, "gcn_dim": 4, "perspectives": 2},
           "train": {"iterations": 1, "batch_size": 2}}  # a short run, should one start
    doc[section][name] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors[-1].startswith(f"{cfg}: {section} section: {section} config value of the "
                                 f"wrong type: {name} takes ")
    assert errors[-1].endswith(f", got {value!r}")
    assert not (tmp_path / "out").exists()  # refused before any output


@pytest.mark.parametrize("name, value", [(name, value)
                                         for name, kind in number_fields(ModelConfig)
                                         for value in WRONG_TYPE[kind]])
def test_checkpoint_config_value_of_the_wrong_type_names_the_field(trained_run, tmp_path,
                                                                   caplog, name, value):
    ds, out = trained_run
    doc = json.loads((out / "final.ckpt").read_text())
    doc["config"][name] = value
    ckpt = tmp_path / "typed.ckpt"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
               "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert f"{ckpt}: model config value of the wrong type: {name} takes " in caplog.text
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("name, value", [(name, value)
                                         for name, kind in number_fields(TrainConfig)
                                         for value in WRONG_TYPE[kind]])
def test_stored_train_config_value_of_the_wrong_type_names_the_field(trained_run, tmp_path,
                                                                     caplog, name, value):
    ds, out = trained_run
    doc = json.loads((out / "train_state.json").read_text())
    doc["extra"]["train_state"]["train_config"][name] = value
    state = tmp_path / "train_state.json"
    state.write_text(json.dumps(doc))
    rc = main(["train", "--dataset", str(ds), *TINY_RUN,
               "--resume", str(state), "--out", str(tmp_path / "again")])
    assert rc == 1
    assert (f"{state}: stored train config: train config value of the wrong type: {name} "
            f"takes " in caplog.text)
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_learning_rate_flag_refused(tiny_dataset, tmp_path, caplog, value):
    rc = main(["train", "--dataset", str(tiny_dataset), "--learning-rate", value,
               "--gcn-dim", "4", "--perspectives", "2", "--iterations", "1",
               "--batch-size", "2", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert (f"--learning-rate must be a finite number >= 0, got {value}"
            in caplog.text)
    assert not (tmp_path / "out").exists()


def test_classification_on_a_split_without_train_names_its_cause(tmp_path, caplog):
    ds = tmp_path / "ds"
    assert main(["gen", "clone", "--groups", "6", "--variants", "2", "--budget", "1",
                 "--seed", "3", "--out", str(ds)]) == 0
    split = json.loads((ds / "split.json").read_text())
    del split["train"]
    (ds / "split.json").write_text(json.dumps(split))
    rc = main(["train", "--dataset", str(ds), "--task", "classification", "--gcn-dim", "4",
               "--perspectives", "2", "--epochs", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors[-1] == ("classification needs training graphs in at least 2 groups, "
                          "found 0")


def test_ged_of_a_file_that_is_not_utf8_names_the_line(triangle_path_files, tmp_path, caplog):
    tri, _ = triangle_path_files
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "\xff", "nodes": [[1.0]], "edges": []}\n')
    assert main(["ged", tri, str(bad)]) == 1
    assert f"{bad}:1: 'utf-8' codec can't decode byte 0xff in position 8" in caplog.text


def test_classification_batch_size_flag(tmp_path, monkeypatch):
    import graphmatch.training as training_module
    ds, out = tmp_path / "ds", tmp_path / "out"
    assert main(["gen", "clone", "--groups", "6", "--variants", "3", "--budget", "1",
                 "--seed", "3", "--out", str(ds)]) == 0
    sizes = []
    real_step = training_module._batch_step
    monkeypatch.setattr(training_module, "_batch_step",
                        lambda model, dataset, batch, *a: sizes.append(len(batch))
                        or real_step(model, dataset, batch, *a))
    rc = main(["train", "--dataset", str(ds), "--task", "classification",
               "--sgnn-agg", "max", "--gcn-layers", "2", "--gcn-dim", "6",
               "--perspectives", "4", "--batch-size", "4", "--epochs", "1",
               "--out", str(out)])
    assert rc == 0
    assert len(sizes) > 2 and set(sizes[:-1]) == {4} and 1 <= sizes[-1] <= 4
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["train"]["batch_size"] == 4


def test_every_train_flag_sets_a_config_field():
    """Flags reach the configs by field name, so a flag whose dest names no
    field of either config would be dropped without a word."""
    import argparse
    from dataclasses import fields

    from graphmatch.cli import build_parser
    from graphmatch.model import ModelConfig
    from graphmatch.training import TrainConfig
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    names = {f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)}
    for action in subparsers.choices["train"]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in (
                "dataset", "config", "resume", "out"):
            continue
        assert action.dest in names, action.option_strings
