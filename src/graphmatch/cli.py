"""Command-line entry point: dataset generation, edit-distance queries,
training, evaluation, and pair scoring.

``gen``, ``train`` and ``eval`` resolve their full configuration and write a
run manifest into their ``--out`` directory before doing any work, then write
their results there. ``ged`` and ``score`` take no ``--out`` and write no file:
each prints its result to stdout. Every command exits nonzero on any error,
and progress goes to stderr.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields
from inspect import signature

import numpy as np

from . import __version__
from .data import (CLONE_BOUNDS, GED_BOUNDS, DatasetError, dataset_files, gen_clone_dataset,
                   gen_ged_dataset, load_dataset, load_dataset_dir, save_dataset)
from .ged import EditCostScheme, GedBudgetError, GedTimeoutError, ged_exact
from .model import (AGGREGATORS, AT_LEAST_1, FINITE_ABOVE_0, MODES, TASKS, ConfigError, Model,
                    ModelConfig, check_bounds, config_from_dict, load_checkpoint,
                    save_checkpoint)
from .report import evaluate_model, split_pairs, write_report
from .training import TrainConfig, load_train_state, train

log = logging.getLogger("graphmatch")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, config, seed, inputs=()):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "dataset_checksums": {p: _sha256(p) for p in inputs},
        "code_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _load_single_graph(path):
    ds = load_dataset(path)
    if len(ds.graphs) != 1:
        raise ValueError(f"{path}: expected exactly one graph, found {len(ds.graphs)}")
    return next(iter(ds.graphs.values()))


def cmd_gen(args):
    params = {name: getattr(args, name) for name in signature(args.generate).parameters}
    # before the manifest, so a refused run leaves no output directory
    check_bounds(params, args.bounds, DatasetError)
    write_manifest(args.out, f"gen {args.kind}", params, args.seed)
    ds = args.generate(**params)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds.graphs)} graphs, {len(ds.pairs)} pairs to {args.out}",
          file=sys.stderr)
    return 0


def cmd_ged(args):
    check_bounds(vars(args), args.bounds, ConfigError, {name: f"--{name}" for name in args.bounds})
    g1 = _load_single_graph(args.g1)
    g2 = _load_single_graph(args.g2)
    try:
        res = ged_exact(g1, g2, EditCostScheme(), node_budget=args.budget,
                        timeout=args.timeout)
    except GedBudgetError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except GedTimeoutError as e:
        print(json.dumps({"timed_out": True, "best_lower_bound": e.best_bound}))
        return 3
    print(json.dumps({"distance": res.distance,
                      "normalized_similarity": res.normalized_similarity,
                      "nodes_expanded": res.nodes_expanded}))
    return 0


def _read_config(path):
    """A --config file as {"model": dict, "train": dict}; every refusal is a
    ConfigError naming the file."""
    if path is None:
        return {"model": {}, "train": {}}
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path}: not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object with model and train sections, "
                          f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"model", "train"})
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {', '.join(unknown)}; "
                          f"valid sections: model, train")
    for name in ("model", "train"):
        if not isinstance(doc.setdefault(name, {}), dict):
            raise ConfigError(f"{path}: the {name} section must be a JSON object, "
                              f"got {type(doc[name]).__name__}")
    return doc


def _section_config(cls, path, name, section):
    try:
        return config_from_dict(cls, section)
    except ConfigError as e:
        raise (ConfigError(f"{path}: {name} section: {e}") if path else e) from None


def _flag_values(args, cls):
    """The flags given for cls's fields, checked against cls's bounds (argparse
    fixes each one's type), so a refused value names its flag and not the
    --config file."""
    given = {f.name: getattr(args, f.name) for f in fields(cls)
             if getattr(args, f.name, None) is not None}
    check_bounds(given, {k: cls.BOUNDS[k] for k in given}, ConfigError, args.flag_names)
    return given


def _feature_width(ds):
    return next(iter(ds.graphs.values())).feature_dim  # load_dataset keeps it uniform


def cmd_train(args):
    sections = _read_config(args.config)
    if "feature_dim" in sections["model"]:
        raise ConfigError(f"{args.config}: model section: feature_dim is set by --dataset")
    ds = load_dataset_dir(args.dataset)
    width = {"feature_dim": _feature_width(ds)}
    # each flag given overrides the same-named field in every section that has one
    sections["model"].update(_flag_values(args, ModelConfig), **width)
    sections["train"].update(_flag_values(args, TrainConfig))
    mcfg = _section_config(ModelConfig, args.config, "model", sections["model"])
    tkw = sections["train"]
    if tkw.setdefault("task", mcfg.task) != mcfg.task:
        raise ConfigError(f"{args.config}: the train section's task {tkw['task']!r} differs "
                          f"from the model's task {mcfg.task!r}")
    if "checkpoint_dir" in tkw:
        raise ConfigError(f"{args.config}: train section: checkpoint_dir is set by --out")
    tkw["checkpoint_dir"] = args.out
    tkw.setdefault("log_path", os.path.join(args.out, "train_log.jsonl"))
    tcfg = _section_config(TrainConfig, args.config, "train", tkw)
    model = Model(mcfg, rng=np.random.default_rng(tcfg.seed))
    # checked before the manifest, so a refused resume leaves no output directory
    resume = None if args.resume is None else load_train_state(args.resume, model, tcfg)
    write_manifest(args.out, "train", {"model": mcfg.__dict__, "train": tcfg.__dict__},
                   tcfg.seed, dataset_files(args.dataset))
    report = train(model, ds, tcfg, resume_from=resume)
    final = os.path.join(args.out, "final.ckpt")
    save_checkpoint(final, model)
    best = (f"best checkpoint {report.best_checkpoint}" if report.best_checkpoint
            else "no best checkpoint was written")
    print(f"best val loss {report.best_val_loss:.6g}; {best}", file=sys.stderr)
    return 0


def _check_width(checkpoint, model, width, source):
    """Refuse input whose feature width is not the model's, naming the
    checkpoint, the input and both widths."""
    if width != model.config.feature_dim:
        raise ConfigError(f"{checkpoint}: model feature_dim {model.config.feature_dim} "
                          f"does not match {source}'s feature width {width}")


def cmd_eval(args):
    model, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset_dir(args.dataset)
    # checked before the manifest, so a refused run leaves no output directory
    split_pairs(ds, args.split)
    _check_width(args.checkpoint, model, _feature_width(ds), f"dataset {args.dataset}")
    write_manifest(args.out, "eval", {"checkpoint": args.checkpoint, "dataset": args.dataset,
                                      "split": args.split}, 0,
                   [args.checkpoint, *dataset_files(args.dataset)])
    start = time.perf_counter()
    rep = evaluate_model(model, ds, split=args.split)
    seconds = time.perf_counter() - start
    rep.update(seconds=seconds, pairs_per_s=rep["num_pairs"] / seconds)
    out_path = os.path.join(args.out, "eval_report.json")
    write_report(out_path, rep, dataset_id=args.dataset, checkpoint_id=args.checkpoint)
    print(json.dumps(rep, indent=2))
    return 0


def cmd_score(args):
    model, _ = load_checkpoint(args.checkpoint)
    graphs = []
    for path in (args.g1, args.g2):
        graphs.append(_load_single_graph(path))
        _check_width(args.checkpoint, model, graphs[-1].feature_dim, f"graph file {path}")
    score = model.eval_view().forward_pair(*graphs).item()
    print(f"{score:.6f}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="graphmatch")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    kinds = g.add_subparsers(dest="kind", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True)
    # each kind's flags are exactly its generator's parameters, by dest
    ged = kinds.add_parser("ged", parents=[common], help="labelled graphs, exact GED targets")
    ged.add_argument("--graphs", dest="n_graphs", type=int, default=50)
    ged.add_argument("--node-range", type=int, nargs=2, default=[4, 9])
    ged.add_argument("--edge-prob", type=float, default=0.25)
    ged.add_argument("--max-train-pairs", type=int, default=None)
    ged.add_argument("--eval-candidates", type=int, default=None)
    ged.set_defaults(func=cmd_gen, bounds=GED_BOUNDS, generate=gen_ged_dataset)
    clone = kinds.add_parser("clone", parents=[common], help="groups of perturbed clones")
    clone.add_argument("--groups", dest="n_groups", type=int, default=100)
    clone.add_argument("--variants", dest="variants_per_group", type=int, default=4)
    clone.add_argument("--budget", dest="perturbation_budget", type=int, default=3)
    clone.set_defaults(func=cmd_gen, bounds=CLONE_BOUNDS, generate=gen_clone_dataset)

    d = sub.add_parser("ged", help="exact edit distance between two graph files")
    d.add_argument("g1")
    d.add_argument("g2")
    d.add_argument("--budget", type=int, default=10)
    d.add_argument("--timeout", type=float, default=10.0)
    d.set_defaults(func=cmd_ged, bounds={"timeout": FINITE_ABOVE_0, "budget": AT_LEAST_1})

    t = sub.add_parser("train", help="train a model on a dataset directory")
    t.add_argument("--dataset", required=True)
    t.add_argument("--config", help="JSON file with model/train sections")
    t.add_argument("--task", choices=TASKS)
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--sgnn-agg", dest="sgnn_aggregator", choices=AGGREGATORS)
    t.add_argument("--perspectives", type=int)
    t.add_argument("--gcn-layers", type=int)
    t.add_argument("--gcn-dim", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--iterations", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--learning-rate", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--resume", help="train_state.json to continue from")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train, flag_names={a.dest: a.option_strings[0]
                                               for a in t._actions if a.option_strings})

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--split", default="test")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("score", help="score one pair of graph files")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("g1")
    s.add_argument("g2")
    s.set_defaults(func=cmd_score)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO)
    try:
        return args.func(args)
    except Exception as e:  # surface a clean message, nonzero exit
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
