"""Pair sampling, training loops, validation, and resumable checkpoints."""

import json
import logging
import os
from dataclasses import dataclass, asdict, fields

import numpy as np

from .autodiff import backward
from .graphs import LabeledPair
from .metrics import auc, mse_metric
from .model import (AT_LEAST_0, AT_LEAST_1, FINITE_AT_LEAST_0, TASKS, ConfigError, Encoded,
                    Model, check_bounds, check_shapes, config_from_dict, decode_arrays,
                    encode_arrays, load_checkpoint, loss_mse, one_of, param_shapes,
                    save_checkpoint)
from .optim import Adam

log = logging.getLogger(__name__)

# TrainConfig fields a resumed run must share with the saved one; the rest
# (schedule length, validation cadence, output paths) may change on resume
RESUME_FIELDS = ("task", "learning_rate", "batch_size", "seed")


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    task: str = "regression"
    learning_rate: float | None = None  # default depends on task
    epochs: int = 100                   # classification schedule
    iterations: int = 10000             # regression schedule
    batch_size: int | None = None       # pairs per step; default depends on task
    seed: int = 0
    val_every: int = 100                # iterations between validations (regression)
    checkpoint_dir: str | None = None
    log_path: str | None = None
    BOUNDS = {"task": one_of(TASKS), "learning_rate": FINITE_AT_LEAST_0, "epochs": AT_LEAST_1,
              "iterations": AT_LEAST_1, "batch_size": AT_LEAST_1, "seed": AT_LEAST_0,
              "val_every": AT_LEAST_1}

    def __post_init__(self):
        if self.learning_rate is None:
            self.learning_rate = 0.5e-3 if self.task == "classification" else 5e-3
        if self.batch_size is None:  # classification: 5 positive + 5 negative
            self.batch_size = 10 if self.task == "classification" else 128
        check_bounds(vars(self), self.BOUNDS, ConfigError)


@dataclass
class TrainReport:
    records: list
    best_val_loss: float
    best_checkpoint: str | None  # None unless this run wrote best.ckpt


def sample_classification_pairs(groups, train_ids, rng):
    """One positive and one matching negative pair per training graph.

    Positives come from the graph's own group, negatives from any other
    group; graphs in singleton groups are skipped (no positive exists).
    Resampled fresh each epoch by the caller.
    """
    train_set = set(train_ids)
    eligible_groups = {gid: [m for m in members if m in train_set]
                       for gid, members in groups.items()}
    eligible_groups = {g: m for g, m in eligible_groups.items() if m}
    if len(eligible_groups) < 2:
        raise TrainingError(f"classification needs training graphs in at least 2 groups, "
                            f"found {len(eligible_groups)}")
    group_of = {m: g for g, members in eligible_groups.items() for m in members}
    pairs = []
    skipped = 0
    for gid in train_ids:
        own = group_of.get(gid)
        if own is None:
            raise TrainingError(f"training graph {gid!r} belongs to no group")
        mates = [m for m in eligible_groups[own] if m != gid]
        if not mates:
            skipped += 1
            continue
        pos = mates[int(rng.integers(0, len(mates)))]
        other_groups = [g for g in eligible_groups if g != own]
        og = other_groups[int(rng.integers(0, len(other_groups)))]
        members = eligible_groups[og]
        neg = members[int(rng.integers(0, len(members)))]
        pairs.append(LabeledPair(gid, pos, 1.0))
        pairs.append(LabeledPair(gid, neg, -1.0))
    if skipped:
        log.info("skipped %d graph(s) in singleton groups", skipped)
    return pairs


def _batch_step(model, dataset, batch, optimizer, rng):
    preds = model.forward_batch([(dataset.graph(p.g1), dataset.graph(p.g2)) for p in batch],
                                rng)
    loss = loss_mse(preds, [pair.target for pair in batch])
    value = loss.item()
    if not np.isfinite(value):
        norms = {k: float(np.linalg.norm(p.data)) for k, p in model.params.items()}
        raise TrainingError(
            f"non-finite loss on batch {[(p.g1, p.g2) for p in batch]}; "
            f"max parameter norm {max(norms.values()):.3g}")
    model.zero_grad()
    backward(loss)
    for name, p in model.params.items():
        if not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient of parameter {name!r} on batch "
                                f"{[(q.g1, q.g2) for q in batch]}")
    optimizer.step()
    return value


# pairs per per-pair stage call in evaluation, at least. A call takes more,
# in steps of 8, while its padded cross-attention product, pairs x longest
# first graph x longest second graph x gcn_dim values, stays within
# EVAL_BUDGET. A matrix-vector product rounds its last (rows mod 4) rows
# apart (OpenBLAS on x86-64, measured), so calls of 8k pairs, as of 32, give
# each row of the head the bits the 32-pair slicing gives it. The per-graph
# stage runs on at most 2 * EVAL_SLICE distinct graphs at a time
EVAL_SLICE = 32
EVAL_BUDGET = 2 ** 17


def _pair_slices(sizes, width):
    """(start, stop) of consecutive slices of the pairs whose sides have the
    (P, 2) node counts sizes, each as long as EVAL_SLICE and EVAL_BUDGET allow."""
    start = 0
    reach = max(EVAL_SLICE, EVAL_BUDGET // width)  # k pairs hold k * width values or more
    while start < len(sizes):
        longest = np.maximum.accumulate(sizes[start:start + reach], axis=0)
        product = np.arange(1, len(longest) + 1) * longest[:, 0] * longest[:, 1] * width
        fit = int(np.sum(product <= EVAL_BUDGET))
        stop = min(start + max(EVAL_SLICE, fit - fit % 8), len(sizes))
        yield start, stop
        start = stop


def evaluate_pairs(model, dataset, pairs):
    """Eval-mode predictions and targets for a list of pairs; each distinct
    graph id is encoded once per call, through the model's eval_view, so only
    values are kept."""
    targets = np.array([p.target for p in pairs], dtype=np.float64)
    if not pairs:
        return np.empty(0), targets
    view = model.eval_view()
    ids = list(dict.fromkeys(g for p in pairs for g in (p.g1, p.g2)))  # first appearance
    slot = {gid: k for k, gid in enumerate(ids)}
    slots = np.array([[slot[p.g1], slot[p.g2]] for p in pairs], dtype=np.intp)
    step = 2 * EVAL_SLICE
    enc = Encoded.stack(view.graph_stage([dataset.graph(g) for g in ids[s:s + step]])
                        for s in range(0, len(ids), step))
    sizes = np.array([len(rows) for rows in enc.nodes])[slots]
    preds = [view.pair_stage(enc, slots[start:stop]).data
             for start, stop in _pair_slices(sizes, model.config.gcn_dim)]
    return np.concatenate(preds), targets


def _check_split_hygiene(dataset, pairs):
    for p in pairs:
        if dataset.pair_split(p) != "train":
            raise TrainingError(f"held-out graph in training pair ({p.g1}, {p.g2})")


def _rounds(dataset, config, rng, start):
    """The task's schedule from step start on, one validation round at a time:
    yields (record step, batches). A classification round is one epoch of
    freshly sampled pairs, shuffled as (positive, negative) twins; a regression
    round runs to the next multiple of val_every, or to iterations, on batches
    drawn with replacement. Each regression batch is drawn just before its
    step, so rng is consumed in one order however the rounds fall."""
    if config.task == "classification":
        for epoch in range(start, config.epochs):
            pairs = sample_classification_pairs(dataset.groups, dataset.split["train"], rng)
            _check_split_hygiene(dataset, pairs)
            pairs = [p for k in rng.permutation(len(pairs) // 2) for p in pairs[2 * k:2 * k + 2]]
            yield epoch + 1, [pairs[s:s + config.batch_size]
                              for s in range(0, len(pairs), config.batch_size)]
        return
    train_pairs = dataset.pairs_for_split("train")
    if not train_pairs:
        raise TrainingError("no training pairs")
    _check_split_hygiene(dataset, train_pairs)
    step = start
    while step < config.iterations:
        end = min((step // config.val_every + 1) * config.val_every, config.iterations)
        yield end, ([train_pairs[int(i)]
                     for i in rng.integers(0, len(train_pairs), size=config.batch_size)]
                    for _ in range(step, end))
        step = end


def train(model: Model, dataset, config: TrainConfig, resume_from=None):
    """Run the task schedule, keeping the checkpoint with best validation loss.

    Emits one structured record per validation round; with a checkpoint_dir,
    writes best.ckpt whenever validation improves, plus train_state.json, a
    checkpoint whose train_state section resumes an interrupted run with an
    identical trajectory. resume_from is such a train state's path or what
    load_train_state read from one; it is checked before anything is
    written. The model config owns the task; a config.task other than the
    model's is refused.
    """
    if config.task != model.config.task:
        raise TrainingError(f"train config task {config.task!r} differs from the "
                            f"model's task {model.config.task!r}")
    if resume_from is not None and not isinstance(resume_from, tuple):
        resume_from = load_train_state(resume_from, model, config)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, lr=config.learning_rate)
    records = []
    best_val = np.inf
    start_step = 0
    if resume_from is not None:
        saved_model, moments, state = resume_from
        for k, p in model.params.items():
            p.data[...] = saved_model.params[k].data
            p.grad = None
        optimizer.step_count = state["adam"]["step_count"]
        optimizer.m, optimizer.v = moments["m"], moments["v"]
        rng.bit_generator.state = state["rng_state"]
        start_step, records = state["step"], list(state["records"])
        if state["best_val_loss"] is not None:
            best_val = state["best_val_loss"]
    if config.checkpoint_dir:
        os.makedirs(config.checkpoint_dir, exist_ok=True)
    best_checkpoint = None
    logged = 0  # records in the log: its first write holds resumed ones too
    val_pairs = dataset.pairs_for_split("val")
    for step, batches in _rounds(dataset, config, rng, start_step):
        losses = [_batch_step(model, dataset, batch, optimizer, rng) for batch in batches]
        rec = {"step": step, "train_loss": float(np.mean(losses)) if losses else None,
               "val_loss": None, "metric": None}
        if val_pairs:
            preds, targets = evaluate_pairs(model, dataset, val_pairs)
            rec["val_loss"] = mse_metric(preds, targets)
            if config.task == "classification" and 0 < np.sum(targets > 0) < len(targets):
                rec["metric"] = auc(preds, np.where(targets > 0, 1, -1))
        records.append(rec)
        if config.log_path:
            with open(config.log_path, "a" if logged else "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in records[logged:])
            logged = len(records)
        if rec["val_loss"] is not None and rec["val_loss"] < best_val:
            best_val = rec["val_loss"]
            if config.checkpoint_dir:
                best_checkpoint = os.path.join(config.checkpoint_dir, "best.ckpt")
                save_checkpoint(best_checkpoint, model, extra={"step": step, "val_loss": best_val})
        if config.checkpoint_dir:
            _save_train_state(os.path.join(config.checkpoint_dir, "train_state.json"), model,
                              config, optimizer, rng, step, best_val, records)
    return TrainReport(records=records, best_val_loss=float(best_val),
                       best_checkpoint=best_checkpoint)


# ---------------------------------------------------------------------------
# resumable training state: a checkpoint whose extra dict holds a train_state
# section (schedule position, records, train config, Adam's moments, RNG)

def _save_train_state(path, model, config, optimizer, rng, step, best_val, records):
    save_checkpoint(path, model, extra={"train_state": {
        "step": step,
        "best_val_loss": None if not np.isfinite(best_val) else best_val,
        "records": records,
        "train_config": asdict(config),
        "adam": {"step_count": optimizer.step_count,
                 "m": encode_arrays(optimizer.m),
                 "v": encode_arrays(optimizer.v)},
        "rng_state": rng.bit_generator.state,
    }})


def _resume_config(model_config, train_config):
    out = {f"model.{k}": v for k, v in asdict(model_config).items()}
    out.update({k: getattr(train_config, k) for k in RESUME_FIELDS})
    return out


def _loads_into_a_generator(rng_state):
    try:
        np.random.default_rng().bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError):
        return False
    return True


# train_state field -> (what a resumable value is, its check)
STATE_FIELDS = {
    "step": ("an int >= 0", lambda v: type(v) is int and v >= 0),
    "best_val_loss": ("a finite number or null",
                      lambda v: v is None or type(v) in (int, float) and np.isfinite(v)),
    "records": ("a list", lambda v: isinstance(v, list)),
    "train_config": ("an object", lambda v: isinstance(v, dict)),
    "adam": ("an object with an int step_count >= 0 and objects m and v",
             lambda v: isinstance(v, dict) and type(v.get("step_count")) is int
             and v["step_count"] >= 0 and all(isinstance(v.get(k), dict) for k in "mv")),
    "rng_state": ("the state of a numpy default_rng generator", _loads_into_a_generator),
}


def load_train_state(path, model, config):
    """Read a train state and check it against this run's model and config;
    every refusal names the file. Returns the saved model, Adam's decoded
    moments and the train_state section."""
    saved_model, extra = load_checkpoint(path)
    state = extra.get("train_state") if isinstance(extra, dict) else None
    if not isinstance(state, dict):
        raise ConfigError(f"{path}: no train_state section; --resume takes the "
                          f"train_state.json a run writes, not a model checkpoint")
    for name, (want, usable) in STATE_FIELDS.items():
        if name not in state:
            raise ConfigError(f"{path}: train_state lacks field {name!r}")
        if not usable(state[name]):
            raise ConfigError(f"{path}: train_state field {name!r} is not {want}")
    moments = {}
    for k in ("m", "v"):
        what = f"Adam moment {k} of"
        moments[k] = decode_arrays(path, what, state["adam"][k])
        check_shapes(path, what, moments[k], param_shapes(saved_model.config))
    stored = dict(state["train_config"])
    # older states keep the classification batch in batch_pairs
    batch_pairs = stored.pop("batch_pairs", None)
    if batch_pairs is not None and stored.get("task") == "classification":
        stored["batch_size"] = batch_pairs
    missing = [f.name for f in fields(TrainConfig) if f.name not in stored]
    if missing:
        raise ConfigError(f"{path}: stored train config lacks field(s) {', '.join(missing)}")
    try:
        stored_config = config_from_dict(TrainConfig, stored)
    except ConfigError as e:
        raise ConfigError(f"{path}: stored train config: {e}") from None
    saved = _resume_config(saved_model.config, stored_config)
    current = _resume_config(model.config, config)
    diff = [f"{k}: saved {saved[k]!r}, current {current[k]!r}"
            for k in saved if saved[k] != current[k]]
    if diff:
        raise TrainingError(f"{path}: resumed run differs from the saved one in "
                            + "; ".join(diff))
    return saved_model, moments, state
