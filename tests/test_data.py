import hashlib
import json
import logging
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmatch.data import (Dataset, DatasetError, _pair_at, _random_connected_edges,
                             gen_clone_dataset, gen_ged_dataset, load_dataset, load_dataset_dir,
                             save_dataset)
from graphmatch.graphs import LabeledPair, make_graph

from conftest import ged_bruteforce


def small_ged_dataset(**kw):
    args = dict(n_graphs=12, node_range=(4, 5), seed=3)
    args.update(kw)
    return gen_ged_dataset(**args)


def test_round_trip(tmp_path):
    ds = small_ged_dataset()
    save_dataset(ds, tmp_path)
    back = load_dataset_dir(tmp_path)
    assert set(back.graphs) == set(ds.graphs)
    assert back.split == ds.split
    assert len(back.pairs) == len(ds.pairs)
    for a, b in zip(ds.pairs, back.pairs):
        assert (a.g1, a.g2) == (b.g1, b.g2)
        assert a.target == b.target
    for gid in ds.graphs:
        assert np.array_equal(np.asarray(back.graphs[gid].features),
                              np.asarray(ds.graphs[gid].features))
        assert back.graphs[gid].edges == ds.graphs[gid].edges
        assert back.graphs[gid].labels == ds.graphs[gid].labels


def test_empty_pairs_warns(tmp_path, caplog):
    ds = small_ged_dataset()
    save_dataset(ds, tmp_path)
    (tmp_path / "pairs.jsonl").write_text("")
    with caplog.at_level(logging.WARNING):
        back = load_dataset_dir(tmp_path)
    assert back.pairs == []
    assert any("empty pairs" in r.message for r in caplog.records)


@pytest.mark.parametrize("name", ["pairs.jsonl", "split.json"])
def test_dataset_directory_needs_all_three_files(tmp_path, name):
    """Without split.json every graph would silently become a train graph,
    held-out ones included; without pairs.jsonl there would be nothing to train on."""
    save_dataset(small_ged_dataset(), tmp_path)
    (tmp_path / name).unlink()
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / name))):
        load_dataset_dir(tmp_path)


def test_dangling_pair_id_rejected(tmp_path):
    ds = small_ged_dataset()
    save_dataset(ds, tmp_path)
    with open(tmp_path / "pairs.jsonl", "a") as fh:
        fh.write(json.dumps({"g1": "nope", "g2": "g0001", "y": 0.5}) + "\n")
    with pytest.raises(DatasetError, match="nope"):
        load_dataset_dir(tmp_path)


def test_schema_violation_cites_line(tmp_path):
    ds = small_ged_dataset()
    save_dataset(ds, tmp_path)
    path = tmp_path / "graphs.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({"id": "broken", "nodes": [[1.0]]})  # no edges key
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=":3"):
        load_dataset_dir(tmp_path)


def test_inconsistent_feature_width_rejected(tmp_path):
    ds = small_ged_dataset()
    save_dataset(ds, tmp_path)
    with open(tmp_path / "graphs.jsonl", "a") as fh:
        fh.write(json.dumps({"id": "wide", "nodes": [[1.0, 2.0, 3.0, 4.0]],
                             "edges": []}) + "\n")
    with pytest.raises(DatasetError, match="feature width"):
        load_dataset_dir(tmp_path)


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_numeric_duplicate_ids_rejected(tmp_path):
    # "id": 5 twice is one graph id "5" twice, not two graphs
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": 5, "nodes": [[1.0]], "edges": []}] * 2)
    with pytest.raises(DatasetError, match=r"graphs.jsonl:2: duplicate id '5'"):
        load_dataset(tmp_path / "graphs.jsonl")


def test_boolean_edge_and_label_rejected(tmp_path):
    # true and false would otherwise load as edge (0, 1) and label 1
    path = tmp_path / "graphs.jsonl"
    write_jsonl(path, [{"id": "b", "nodes": [[1.0]], "edges": []},
                       {"id": "a", "nodes": [[1.0], [2.0]], "edges": [[True, False]],
                        "labels": [True, 2]}])
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: graph 'a': edge [True, False]")):
        load_dataset(path)


def test_boolean_features_rejected(tmp_path):
    # [[true, false]] would otherwise load as features [[1.0, 0.0]]
    path = tmp_path / "graphs.jsonl"
    write_jsonl(path, [{"id": "a", "nodes": [[True, False]], "edges": []}])
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}:1: graph 'a': features must be numbers, not bools")):
        load_dataset(path)


def test_numeric_split_ids_match_numeric_graph_ids(tmp_path):
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in (1, 2)])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": 1, "g2": 2, "y": 0.5}])
    (tmp_path / "split.json").write_text(json.dumps({"train": [1], "val": [], "test": [2]}))
    ds = load_dataset_dir(tmp_path)
    assert ds.split == {"train": ("1",), "val": (), "test": ("2",)}
    assert ds.pair_split(ds.pairs[0]) == "test"


def test_unknown_split_name_rejected(tmp_path):
    # a pair of an unknown split would otherwise count as a train pair
    save_dataset(small_ged_dataset(), tmp_path)
    split = json.loads((tmp_path / "split.json").read_text())
    split["valid"] = split.pop("val")
    (tmp_path / "split.json").write_text(json.dumps(split))
    with pytest.raises(DatasetError, match=re.escape(
            f"{tmp_path / 'split.json'}: unknown split 'valid'; valid splits: train, val, test")):
        load_dataset_dir(tmp_path)


def test_split_given_as_a_string_rejected(tmp_path):
    # "ab" would otherwise be read as the ids "a" and "b"
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in ("a", "b", "ab")])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "b", "y": 0.5}])
    (tmp_path / "split.json").write_text(json.dumps({"train": "ab", "val": [], "test": []}))
    with pytest.raises(DatasetError, match=re.escape(
            f"{tmp_path / 'split.json'}: split 'train' must be a list of ids, got str")):
        load_dataset_dir(tmp_path)


def test_pair_of_a_graph_in_no_split_rejected(tmp_path):
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in "abc"])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "b", "y": 0.5}])
    (tmp_path / "split.json").write_text(json.dumps({"train": ["a"], "val": [], "test": ["c"]}))
    with pytest.raises(DatasetError, match=re.escape(
            f"{tmp_path / 'split.json'}: graph 'b' of pair ('a', 'b') is in no split")):
        load_dataset_dir(tmp_path)
    # a graph in no split that no pair uses is allowed
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "c", "y": 0.5}])
    assert load_dataset_dir(tmp_path).pairs_for_split("test") == [LabeledPair("a", "c", 0.5)]


def test_a_split_not_given_is_empty(tmp_path):
    graphs = {g.id: g for g in (make_graph(i, [[1.0]], []) for i in "ab")}
    ds = Dataset(graphs=graphs, pairs=[], split={"test": ["b"], "train": ["a"]})
    assert ds.split == {"train": ("a",), "val": (), "test": ("b",)}
    assert list(ds.split) == ["train", "val", "test"]
    with pytest.raises(DatasetError, match=re.escape(
            "unknown split 'valid'; valid splits: train, val, test")):
        Dataset(graphs=graphs, pairs=[], split={"train": ["a"], "valid": ["b"]})
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in "ab"])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "b", "y": 0.5}])
    (tmp_path / "split.json").write_text(json.dumps({"train": ["a", "b"]}))
    ds = load_dataset_dir(tmp_path)
    assert ds.split == {"train": ("a", "b"), "val": (), "test": ()}
    assert ds.pairs_for_split("train") == ds.pairs


@pytest.mark.parametrize("split, pairs, message", [
    ({"train": ["a", "x"]}, [], "unknown graph id 'x' in train"),
    ({"train": ["a", "b"], "test": ["b"]}, [], "graph 'b' in multiple splits"),
    ({"train": ["a"]}, [LabeledPair("a", "b", 0.5)],
     "graph 'b' of pair ('a', 'b') is in no split"),
    ({"train": ["b"], "val": ["a", "a"]}, [], "graph 'a' listed twice in val"),
])
def test_a_misplaced_graph_is_refused_however_the_dataset_is_built(tmp_path, split, pairs,
                                                                  message):
    graphs = {g.id: g for g in (make_graph(i, [[1.0]], []) for i in "ab")}
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        Dataset(graphs=graphs, pairs=pairs, split=split)
    save_dataset(Dataset(graphs=graphs, pairs=[], split={"train": ["a", "b"]}), tmp_path)
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": p.g1, "g2": p.g2, "y": p.target}
                                           for p in pairs])
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split))
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_dataset_dir(tmp_path)


def test_a_split_cannot_change_after_it_is_checked(tmp_path):
    graphs = {g.id: g for g in (make_graph(i, [[1.0]], []) for i in "ab")}
    ds = Dataset(graphs=graphs, pairs=[LabeledPair("a", "b", 0.5)],
                 split={"train": ["a", "b"]})
    with pytest.raises(AttributeError):
        ds.split["test"].append("a")
    assert ds.split["test"] == () and ds.pair_split(ds.pairs[0]) == "train"
    save_dataset(ds, tmp_path)  # split.json keeps its lists
    assert (tmp_path / "split.json").read_text() == \
        '{"train": ["a", "b"], "val": [], "test": []}'


def test_a_split_cannot_be_replaced_after_it_is_checked():
    graphs = {g.id: g for g in (make_graph(i, [[1.0]], []) for i in "ab")}
    ds = Dataset(graphs=graphs, pairs=[LabeledPair("a", "b", 0.5)],
                 split={"train": ["a", "b"]})
    with pytest.raises(TypeError):
        ds.split["test"] = ("a",)
    assert ds.split["test"] == () and ds.pair_split(ds.pairs[0]) == "train"


@pytest.mark.parametrize("name", ["graphs.jsonl", "pairs.jsonl"])
def test_a_line_that_is_not_utf8_names_the_file_and_the_line(tmp_path, name):
    save_dataset(small_ged_dataset(), tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}:3: 'utf-8' codec can't decode byte 0xff in position 2")):
        load_dataset_dir(tmp_path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_jsonl_lines_end_at_any_newline(tmp_path, end):
    records = [{"id": i, "nodes": [[1.0]], "edges": []} for i in "ab"]
    (tmp_path / "graphs.jsonl").write_bytes("".join(json.dumps(r) + end for r in records).encode())
    assert list(load_dataset(tmp_path / "graphs.jsonl").graphs) == ["a", "b"]


def test_non_finite_target_rejected(tmp_path):
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in "ab"])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "b", "y": 0.5},
                                           {"g1": "a", "g2": "b", "y": float("nan")}])
    with pytest.raises(DatasetError, match=r"pairs.jsonl:2: target y must be finite"):
        load_dataset(tmp_path / "graphs.jsonl", tmp_path / "pairs.jsonl")


@pytest.mark.parametrize("field, value", [("id", None), ("id", True), ("id", 1.0),
                                          ("id", [1, 2]), ("group", [0])])
def test_graph_id_and_group_rule(tmp_path, field, value):
    # null, true and [1, 2] would otherwise load as graphs "None", "True" and "[1, 2]"
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": "a", "nodes": [[1.0]], "edges": [], field: value}])
    with pytest.raises(DatasetError, match=re.escape(
            f"graphs.jsonl:1: {field} {value!r} is not a string or an integer")):
        load_dataset(tmp_path / "graphs.jsonl")


@pytest.mark.parametrize("field, value, message", [
    ("g1", None, "g1 None is not a string or an integer"),  # would match graph "None"
    ("g2", False, "g2 False is not a string or an integer"),
    ("y", True, "target y True is not a number"),  # would load as 1.0
    ("y", "0.25", "target y '0.25' is not a number"),  # would load as 0.25
    ("y", 10 ** 400, "int too large to convert to float"),
], ids=["g1-null", "g2-false", "y-true", "y-string", "y-huge"])
def test_pair_id_and_target_rule(tmp_path, field, value, message):
    write_jsonl(tmp_path / "graphs.jsonl",
                [{"id": i, "nodes": [[1.0]], "edges": []} for i in ("a", "None")])
    write_jsonl(tmp_path / "pairs.jsonl", [{"g1": "a", "g2": "None", "y": 0.5},
                                           {"g1": "a", "g2": "None", "y": 0.5, field: value}])
    with pytest.raises(DatasetError, match=re.escape(f"pairs.jsonl:2: {message}")):
        load_dataset(tmp_path / "graphs.jsonl", tmp_path / "pairs.jsonl")


def test_split_id_that_is_no_string_or_integer_rejected(tmp_path):
    write_jsonl(tmp_path / "graphs.jsonl", [{"id": "None", "nodes": [[1.0]], "edges": []}])
    (tmp_path / "split.json").write_text(json.dumps({"train": [None]}))
    with pytest.raises(DatasetError, match=re.escape(
            "split.json: split 'train': id None is not a string or an integer")):
        load_dataset(tmp_path / "graphs.jsonl", split_path=tmp_path / "split.json")


def test_huge_integer_feature_names_its_line(tmp_path):
    write_jsonl(tmp_path / "graphs.jsonl", [{"id": "a", "nodes": [[10 ** 400]], "edges": []}])
    with pytest.raises(DatasetError, match=r"graphs.jsonl:1: int too large"):
        load_dataset(tmp_path / "graphs.jsonl")


VALID_GRAPHS = [
    {"id": "a", "group": "x", "labels": [0, 1], "nodes": [[1.0, 0.0], [0.0, 1.0]],
     "edges": [[0, 1]]},
    {"id": "b", "group": "y", "labels": [1, 1, 0],
     "nodes": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]], "edges": [[0, 1], [2, 1]]},
    {"id": "c", "nodes": [[2.0, -1.0]], "edges": []},
]
VALID_PAIRS = [{"g1": "a", "g2": "b", "y": 0.5}, {"g1": "b", "g2": "c", "y": -0.25}]


def numeric_paths(value, path=()):
    """Paths to every number (not bool) inside a JSON value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in numeric_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in numeric_paths(v, path + (i,))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@st.composite
def mutated_files(draw):
    """The valid graph and pair records, one line of one file mutated."""
    files = {"graphs": json.loads(json.dumps(VALID_GRAPHS)),
             "pairs": json.loads(json.dumps(VALID_PAIRS))}
    name = draw(st.sampled_from(sorted(files)))
    lines = files[name]
    i = draw(st.integers(0, len(lines) - 1))
    rec = lines[i]
    kind = draw(st.sampled_from(["drop", "truncate", "retype", "nan"]))
    if kind == "drop":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif kind == "retype":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(st.sampled_from(
            [None, True, 7, 2.5, "s", [], {}, [0], [[0]], [[0, 1.7]], [[True, "x"]]]))
    elif kind == "nan":
        *parent, last = draw(st.sampled_from(numeric_paths(rec)))
        holder = rec
        for key in parent:
            holder = holder[key]
        holder[last] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    text = {k: [json.dumps(r) for r in v] for k, v in files.items()}
    if kind == "truncate":
        text[name][i] = text[name][i][:draw(st.integers(0, len(text[name][i]) - 1))]
    return text


@settings(max_examples=300, deadline=None)
@given(files=mutated_files())
def test_mutated_record_loads_or_names_its_line(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, lines in files.items():
            paths[name] = os.path.join(tmp, f"{name}.jsonl")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        try:
            ds = load_dataset(paths["graphs"], paths["pairs"])
        except DatasetError as e:
            cited = "|".join(re.escape(p) for p in paths.values())
            assert re.match(rf"({cited}):\d+: ", str(e)), str(e)
            return
    for g in ds.graphs.values():
        assert np.isfinite(g.features).all()
        assert all(0 <= u < v < g.num_nodes for u, v in g.edges)
    for p in ds.pairs:
        assert math.isfinite(p.target)
        assert p.g1 in ds.graphs and p.g2 in ds.graphs


def test_split_disjoint_and_complete():
    ds = small_ged_dataset()
    ids = set()
    for name in ("train", "val", "test"):
        part = set(ds.split[name])
        assert not ids & part
        ids |= part
    assert ids == set(ds.graphs)


def test_generated_graphs_validate():
    ds = small_ged_dataset()
    for g in ds.graphs.values():
        assert make_graph(g.id, g.features, g.edges, g.labels, g.group).edges == g.edges


def test_ged_targets_in_unit_interval():
    ds = small_ged_dataset()
    assert ds.pairs
    for p in ds.pairs:
        assert 0.0 < p.target <= 1.0


def test_ged_targets_match_bruteforce():
    ds = small_ged_dataset()
    checked = 0
    for p in ds.pairs[:20]:
        g1, g2 = ds.graphs[p.g1], ds.graphs[p.g2]
        if max(g1.num_nodes, g2.num_nodes) <= 5:
            want = ged_bruteforce(g1, g2).normalized_similarity
            assert abs(p.target - want) < 1e-12
            checked += 1
    assert checked >= 10


def test_seeded_determinism_byte_identical(tmp_path):
    for sub, gen in (("a", lambda: small_ged_dataset()),
                     ("b", lambda: small_ged_dataset())):
        save_dataset(gen(), tmp_path / sub)
    for name in ("graphs.jsonl", "pairs.jsonl", "split.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of the three files save_dataset writes, computed with one scalar
# draw per tree node and per node pair and with the train pairs listed before
# sampling: the vector draws and the sampling by position must reproduce them
GENERATED_SHA256 = {
    "ged_sampled_pairs_eval_candidates": (
        lambda: gen_ged_dataset(30, node_range=(3, 7), edge_prob=0.3, seed=41,
                                max_train_pairs=25, eval_candidates=3),
        "857b3553afe698f977a31aad3d2e6bb149debaaefcedd7b86a7b39dbf63bbf5e"),
    "ged_sampled_pairs_every_candidate": (
        lambda: gen_ged_dataset(20, node_range=(2, 6), seed=43, max_train_pairs=12),
        "0ad020818d5f67bfce187072389fa91a10f96e95783ec9709e86627dce1d59de"),
    "ged_all_pairs_eval_candidates": (
        lambda: gen_ged_dataset(12, node_range=(1, 6), edge_prob=0.5, seed=47,
                                eval_candidates=2),
        "c47969be4893cf04ab0fbb734b8f07a3f32b999755e81ac82839d1f555cea7bb"),
    "ged_all_pairs_under_the_cap_every_candidate": (
        lambda: gen_ged_dataset(10, node_range=(4, 6), edge_prob=0.1, seed=53,
                                max_train_pairs=100, eval_candidates=None),
        "1934a7a6cca602de0b25d55af689df092c74c278b896fa761bccbfc63dd52d41"),
    "clone": (
        lambda: gen_clone_dataset(8, 3, 3, seed=59),
        "b0dd1d12dbddf2aa9eede9512a6e3f68c06d260f61cdfd610a049f4560db8843"),
}


@pytest.mark.parametrize("name", list(GENERATED_SHA256))
def test_generated_corpus_bytes_are_pinned(tmp_path, name):
    gen, want = GENERATED_SHA256[name]
    save_dataset(gen(), tmp_path)
    digest = hashlib.sha256()
    for f in ("graphs.jsonl", "pairs.jsonl", "split.json"):
        digest.update((tmp_path / f).read_bytes())
    assert digest.hexdigest() == want


def scalar_connected_edges(n, edge_prob, rng):
    """The generator's edges drawn one scalar call per tree node and per pair."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.add((u, v))
    return sorted(edges)


@pytest.mark.parametrize("n", range(1, 11))
def test_random_edges_draw_what_scalar_draws_would(n):
    for seed in range(300):
        edge_prob = (0.0, 0.2, 0.5, 1.0)[seed % 4]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _random_connected_edges(n, edge_prob, a) == scalar_connected_edges(n, edge_prob, b)
        assert a.integers(0, 2**62) == b.integers(0, 2**62), (n, seed)  # the same state after


def test_pair_positions_follow_the_row_major_listing():
    for t in range(2, 41):
        listing = [(i, j) for i in range(t) for j in range(i + 1, t)]
        assert [_pair_at(k, t) for k in range(len(listing))] == listing, t


def test_sampled_train_pairs_are_not_listed_first():
    # 1,200 train graphs have 719,400 pairs, tens of MB as a list of tuples;
    # drawing four of them must not build that list
    tracemalloc.start()
    try:
        ds = gen_ged_dataset(2000, node_range=(1, 2), seed=5, max_train_pairs=4,
                             eval_candidates=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds.pairs) == 4
    assert peak < 16e6, peak


def test_pair_split_assignment():
    ds = small_ged_dataset()
    train = set(ds.split["train"])
    for p in ds.pairs_for_split("train"):
        assert p.g1 in train and p.g2 in train
    for p in ds.pairs_for_split("test"):
        assert (p.g1 in ds.split["test"]) or (p.g2 in ds.split["test"])


def test_max_train_pairs_cap():
    ds = small_ged_dataset(max_train_pairs=5)
    assert len(ds.pairs_for_split("train")) == 5


def test_node_range_over_budget_rejected():
    with pytest.raises(DatasetError):
        gen_ged_dataset(n_graphs=4, node_range=(4, 20))


@pytest.mark.parametrize("kw, message", [
    ({"node_range": (5, 3)}, r"node_range must be \(min, max\) ints with 1 <= min <= max <= 10, "
                             r"got \(5, 3\)"),
    ({"node_range": (0, 3)}, r"node_range must be \(min, max\) ints with 1 <= min <= max <= 10, "
                             r"got \(0, 3\)"),
    ({"node_range": (4, 11)}, r"node_range must be \(min, max\) ints with 1 <= min <= max <= 10, "
                              r"got \(4, 11\)"),
    ({"edge_prob": -0.5}, r"edge_prob must be a number in \[0, 1\], got -0.5"),
    ({"edge_prob": 1.5}, r"edge_prob must be a number in \[0, 1\], got 1.5"),
    ({"n_graphs": 0}, r"n_graphs must be an int >= 1, got 0"),
    ({"n_graphs": -3}, r"n_graphs must be an int >= 1, got -3"),
    ({"seed": -1}, r"seed must be an int >= 0, got -1"),
], ids=["node_range_reversed", "node_range_from_zero", "node_range_over_budget",
        "edge_prob_negative", "edge_prob_above_one", "no_graphs", "negative_graphs",
        "negative_seed"])
def test_ged_generator_parameters_checked(kw, message):
    with pytest.raises(DatasetError, match=message):
        gen_ged_dataset(**{"n_graphs": 4, **kw})


def test_ged_generation_logs_its_cost(caplog):
    with caplog.at_level(logging.INFO, logger="graphmatch.data"):
        ds = small_ged_dataset()
    lines = [r.getMessage() for r in caplog.records if r.name == "graphmatch.data"]
    assert len(lines) == 1  # one line per corpus, not per pair
    m = re.fullmatch(r"exact GED: (\d+) pairs, (\d+) nodes expanded \(max (\d+) per pair\), "
                     r"ms per pair p50 ([\d.]+) p90 ([\d.]+) max ([\d.]+)", lines[0])
    assert m, lines[0]
    pairs, total, most = (int(x) for x in m.group(1, 2, 3))
    p50, p90, slowest = (float(x) for x in m.group(4, 5, 6))
    assert pairs == len(ds.pairs)
    assert 0 < most <= total
    assert p50 <= p90 <= slowest


# ---------------------------------------------------------------------------
# clone generator

def small_clone_dataset(**kw):
    args = dict(n_groups=6, variants_per_group=3, perturbation_budget=2, seed=5)
    args.update(kw)
    return gen_clone_dataset(**args)


@pytest.mark.parametrize("kw, message", [
    ({"n_groups": 0}, r"n_groups must be an int >= 1, got 0"),
    ({"variants_per_group": 0}, r"variants_per_group must be an int >= 1, got 0"),
    ({"perturbation_budget": -1}, r"perturbation_budget must be an int >= 0, got -1"),
    ({"seed": -1}, r"seed must be an int >= 0, got -1"),
], ids=["no_groups", "no_variants", "negative_budget", "negative_seed"])
def test_clone_generator_parameters_checked(kw, message):
    with pytest.raises(DatasetError, match=message):
        gen_clone_dataset(**{"n_groups": 4, "variants_per_group": 2,
                             "perturbation_budget": 1, **kw})


def test_clone_groups_and_split_by_group():
    ds = small_clone_dataset()
    groups = ds.groups
    assert len(groups) == 6
    for name in ("train", "val", "test"):
        for gid in ds.split[name]:
            grp = ds.graphs[gid].group
            # every member of this graph's group lives in the same split
            assert all(m in ds.split[name] for m in groups[grp])


def test_groups_round_trip(tmp_path):
    ds = small_clone_dataset()
    save_dataset(ds, tmp_path)
    back = load_dataset_dir(tmp_path)
    assert {g: x.group for g, x in back.graphs.items()} == \
        {g: x.group for g, x in ds.graphs.items()}
    assert back.groups == ds.groups
    assert len(back.groups) == 6


def test_clone_budget_zero_is_isomorphic_copy():
    ds = small_clone_dataset(perturbation_budget=0)
    for grp, members in ds.groups.items():
        seed_graph = ds.graphs[sorted(members)[0]]
        for gid in members:
            g = ds.graphs[gid]
            assert g.edges == seed_graph.edges
            assert np.array_equal(np.asarray(g.features),
                                  np.asarray(seed_graph.features))


def test_clone_variants_connected():
    from graphmatch.data import _connected
    ds = small_clone_dataset(perturbation_budget=4)
    for g in ds.graphs.values():
        assert _connected(g.num_nodes, set(g.edges))


def test_clone_eval_pairs_labels():
    ds = small_clone_dataset()
    for p in ds.pairs:
        same_group = ds.graphs[p.g1].group == ds.graphs[p.g2].group
        assert p.target == (1.0 if same_group else -1.0)
        assert same_group == (p.target == 1.0)


def test_clone_determinism():
    a = small_clone_dataset()
    b = small_clone_dataset()
    assert set(a.graphs) == set(b.graphs)
    for gid in a.graphs:
        assert a.graphs[gid].edges == b.graphs[gid].edges


def test_negative_budget_rejected():
    with pytest.raises(DatasetError):
        gen_clone_dataset(2, 2, -1)

