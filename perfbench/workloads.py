"""The four workloads: set-up, a timed closed loop of library calls, and the
output checks whose failures are counted against the operations attempted.

Every workload calls the same public functions the ``graphmatch`` CLI calls,
always through the module attribute, so the tracer's wrappers see them.
Each timed loop has one client: a request starts when the previous one ends.

A run does a fixed amount of work, sized from ``--seconds`` by a rate measured
on a 2-CPU x86-64 host, so that one seed gives the same inputs and the same
work on every version of the program; a faster program finishes sooner. Set-up ends with a short warm-up of the timed code path on a
throwaway model, so the timed phase does not pay first-use costs (allocator
growth, first calls) that a long run pays once.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import graphmatch.data as data
import graphmatch.ged as ged
import graphmatch.model as model
import graphmatch.report as report
import graphmatch.training as training

# the regression model the acceptance gate trains (mgmn, bilstm, 3 GCN layers)
ACCEPTANCE_MODEL = dict(feature_dim=3, gcn_layers=3, gcn_dim=64, perspectives=32,
                        mode="mgmn", task="regression", sgnn_aggregator="bilstm")


@dataclass
class Outcome:
    """What one timed phase did and how much of it passed its checks."""

    elapsed: float = 0.0
    pairs: int = 0
    request_s: list = field(default_factory=list)      # wall time per request
    request_pairs: list = field(default_factory=list)  # pairs per request
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, seconds, pairs):
        self.request_s.append(seconds)
        self.request_pairs.append(pairs)
        self.pairs += pairs
        self.attempted += pairs

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def derived_seed(*keys):
    """A seed drawn from non-negative integer keys, such as (run seed, call index)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def sized(rate, seconds, minimum=1):
    """Work items for a run of about `seconds` at `rate` items per second."""
    return max(minimum, round(rate * seconds))


def _in_unit_interval(x, closed_top):
    return math.isfinite(x) and x > 0.0 and (x <= 1.0 if closed_top else x < 1.0)


class GedGen:
    """Exact-GED target generation through ``data.gen_ged_dataset``.

    Each request generates a fresh corpus (graphs split 60/20/20, capped train
    pairs plus every held-out graph against two train graphs). Many graphs per
    pair keep one hard graph from weighing on many pairs. Set-up is one
    warm-up call on a fixed corpus.
    """

    name = "ged_gen"
    corpus = dict(n_graphs=40, node_range=(5, 7), max_train_pairs=30, eval_candidates=2)
    calls_per_second = 2.25  # 62 pairs per call
    warmup = dict(n_graphs=4, node_range=(5, 7), seed=0)
    swapped_sample = 3  # pairs of the first corpus recomputed with the graphs swapped

    def setup(self, seed, work_dir, seconds):
        data.gen_ged_dataset(**self.warmup)
        return seed

    def run(self, seed, seconds, tracer=None):
        out = Outcome()
        first = None
        t0 = time.perf_counter()
        for i in range(sized(self.calls_per_second, seconds)):
            if tracer is not None:
                tracer.request = f"gen-{i}"
            t = time.perf_counter()
            try:
                ds = data.gen_ged_dataset(seed=derived_seed(seed, i), **self.corpus)
            except (ged.GedTimeoutError, data.DatasetError) as e:
                out.attempted += 1
                out.fail(1, f"call {i}: {e}")
                continue
            out.record(time.perf_counter() - t, len(ds.pairs))
            for p in ds.pairs:
                if not _in_unit_interval(p.target, closed_top=True):
                    out.fail(1, f"call {i}: target {p.target} of ({p.g1}, {p.g2}) not in (0, 1]")
            if first is None:
                first = ds
        out.elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = "check"
        if first is not None:
            self.check_swapped(first, out)
        return out

    def check_swapped(self, ds, out):
        step = max(1, len(ds.pairs) // self.swapped_sample)
        for p in ds.pairs[::step][:self.swapped_sample]:
            res = ged.ged_exact(ds.graph(p.g2), ds.graph(p.g1))
            out.attempted += 1
            if abs(res.normalized_similarity - p.target) > 1e-12:
                out.fail(1, f"swapped ({p.g2}, {p.g1}) gives {res.normalized_similarity}, "
                            f"target {p.target}")


class TrainMgmn:
    """``training.train`` for regression with the acceptance model config.

    One train() call, validating and writing best.ckpt and train_state.json
    every ``val_every`` steps. The few distinct pairs keep exact targets cheap.
    """

    name = "train_mgmn"
    corpus = dict(n_graphs=12, node_range=(7, 8), max_train_pairs=10, eval_candidates=1)
    steps_per_second = 9.0
    val_every = 10
    batch_size = 16
    learning_rate = 5e-3

    def setup(self, seed, work_dir, seconds):
        ds = data.gen_ged_dataset(seed=seed, **self.corpus)
        warm = _new_model(seed + 1)
        training.train(warm, ds, training.TrainConfig(
            task="regression", learning_rate=self.learning_rate, iterations=2,
            batch_size=self.batch_size, seed=seed, val_every=2))
        return seed, ds, _new_model(seed), os.path.join(work_dir, "train")

    def run(self, state, seconds, tracer=None):
        seed, ds, net, ckpt_dir = state
        out = Outcome()
        steps = self.val_every * sized(self.steps_per_second / self.val_every, seconds, 2)
        cfg = training.TrainConfig(
            task="regression", learning_rate=self.learning_rate, iterations=steps,
            batch_size=self.batch_size, seed=seed, val_every=self.val_every,
            checkpoint_dir=ckpt_dir)
        pairs = steps * self.batch_size
        if tracer is not None:
            tracer.request = "train"
        t0 = time.perf_counter()
        try:
            rep = training.train(net, ds, cfg)
        except training.TrainingError as e:
            out.attempted += pairs
            out.fail(pairs, f"train: {e}")
            return out
        out.elapsed = time.perf_counter() - t0
        out.record(out.elapsed, pairs)
        losses = [r["train_loss"] for r in rep.records]
        if not all(math.isfinite(x) for x in losses):
            out.fail(pairs, f"non-finite train loss in {losses}")
        elif not losses[-1] < losses[0]:
            out.fail(pairs, f"final train loss {losses[-1]} is not below the first {losses[0]}")
        for name in ("best.ckpt", "train_state.json"):
            if not os.path.isfile(os.path.join(ckpt_dir, name)):
                out.fail(1, f"train wrote no {name}")
        return out


class EvalRetrieval:
    """``report.evaluate_model`` on the retrieval layout: every test graph is a
    query against one shared list of train graphs."""

    name = "eval_retrieval"
    corpus = dict(n_graphs=100, node_range=(4, 6), max_train_pairs=0, eval_candidates=30)
    calls_per_second = 0.85  # 20 queries x 30 candidates per call
    warmup_pairs = 50
    ks = (10, 20)

    def setup(self, seed, work_dir, seconds):
        ds = data.gen_ged_dataset(seed=seed, **self.corpus)
        net = _loaded_model(seed, os.path.join(work_dir, "eval.ckpt"))
        training.evaluate_pairs(_new_model(seed + 1), ds,
                                ds.pairs_for_split("test")[:self.warmup_pairs])
        return ds, net

    def run(self, state, seconds, tracer=None):
        ds, net = state
        out = Outcome()
        required = ["mse", "spearman_rho"] + [f"p@{k}" for k in self.ks]
        first = None
        t0 = time.perf_counter()
        for i in range(sized(self.calls_per_second, seconds)):
            if tracer is not None:
                tracer.request = f"eval-{i}"
            t = time.perf_counter()
            rep = report.evaluate_model(net, ds, split="test", ks=self.ks)
            out.record(time.perf_counter() - t, rep["num_pairs"])
            bad = [k for k in required
                   if not isinstance(rep.get(k), float) or not math.isfinite(rep[k])]
            if bad:
                out.fail(rep["num_pairs"], f"call {i}: report lacks finite {bad}")
            elif first is None:
                first = rep
            elif rep != first:
                out.fail(rep["num_pairs"], f"call {i}: report differs from the first call")
        out.elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = "check"
        preds, _ = training.evaluate_pairs(net, ds, ds.pairs_for_split("test"))
        out.attempted += len(preds)
        for p in preds:
            if not _in_unit_interval(float(p), closed_top=False):
                out.fail(1, f"eval prediction {p} not in (0, 1)")
        return out


class ScoreFresh:
    """What ``graphmatch score`` does after loading its checkpoint, once per
    request: parse two single-graph jsonl files with ``data.load_dataset`` and
    score them with ``Model.forward_pair``. Every request reads graphs no
    earlier request has seen."""

    name = "score_fresh"
    node_range = (6, 9)
    requests_per_second = 170  # about 0.4 of the rate, to bound the files set-up writes
    min_requests = 1000        # so p99 has at least ten requests beyond it
    warmup_requests = 50

    def setup(self, seed, work_dir, seconds):
        n = sized(self.requests_per_second, seconds, self.min_requests)
        req_dir = os.path.join(work_dir, "requests")
        os.makedirs(req_dir, exist_ok=True)
        paths = []
        for k, g in enumerate(self._graphs(seed, 2 * n)):
            gid = f"r{k // 2:05d}{'ab'[k % 2]}"
            path = os.path.join(req_dir, f"{gid}.jsonl")
            rec = {"id": gid, "labels": list(g.labels), "nodes": g.features.tolist(),
                   "edges": [list(e) for e in g.edges]}
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            paths.append(path)
        requests = list(zip(paths[0::2], paths[1::2]))
        warm = _new_model(seed + 1)
        for p1, p2 in requests[:self.warmup_requests]:
            warm.forward_pair(_single_graph(p1), _single_graph(p2), training=False).item()
        return requests, _loaded_model(seed, os.path.join(work_dir, "score.ckpt"))

    def _graphs(self, seed, count):
        """Random labelled graphs from the package's generator, with no GED work.

        Drawn in small batches: the generator lists every train-train pair
        before sampling, which for thousands of graphs costs seconds and GBs.
        """
        batch = 50
        for b in range(-(-count // batch)):
            ds = data.gen_ged_dataset(batch, node_range=self.node_range,
                                      seed=derived_seed(seed, b), max_train_pairs=0,
                                      eval_candidates=0)
            yield from list(ds.graphs.values())[:count - b * batch]

    def run(self, state, seconds, tracer=None):
        requests, net = state
        out = Outcome()
        t0 = time.perf_counter()
        for i, (p1, p2) in enumerate(requests):
            if tracer is not None:
                tracer.request = f"score-{i}"
            t = time.perf_counter()
            try:
                g1 = _single_graph(p1)
                g2 = _single_graph(p2)
                score = net.forward_pair(g1, g2, training=False).item()
            except ValueError as e:
                out.attempted += 1
                out.fail(1, f"request {i}: {e}")
                continue
            out.record(time.perf_counter() - t, 1)
            if not _in_unit_interval(score, closed_top=False):
                out.fail(1, f"request {i}: score {score} not in (0, 1)")
        out.elapsed = time.perf_counter() - t0
        return out


def _new_model(seed):
    return model.Model(model.ModelConfig(**ACCEPTANCE_MODEL), rng=np.random.default_rng(seed))


def _loaded_model(seed, path):
    """A fresh model round-tripped through a checkpoint file, as the CLI loads it."""
    model.save_checkpoint(path, _new_model(seed))
    return model.load_checkpoint(path)[0]


def _single_graph(path):
    ds = data.load_dataset(path)
    if len(ds.graphs) != 1:
        raise ValueError(f"{path}: expected exactly one graph, found {len(ds.graphs)}")
    return next(iter(ds.graphs.values()))


WORKLOADS = {w.name: w for w in (GedGen(), TrainMgmn(), EvalRetrieval(), ScoreFresh())}
