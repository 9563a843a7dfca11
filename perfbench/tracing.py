"""In-memory span tracing installed from outside the package.

Each wrapper replaces a public function at the name its caller looks it up
(``graphmatch.data.ged_exact`` for the generator, ``graphmatch.training.backward``
for the trainer, and so on), records a span around the call and restores the
original on ``uninstall``. Spans stay in memory and are written once, at the end.
"""

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field

import graphmatch.autodiff as autodiff
import graphmatch.data as data
import graphmatch.model as model
import graphmatch.optim as optim
import graphmatch.report as report
import graphmatch.training as training


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    request: str
    attrs: dict | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    request: str = "setup"
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, name, fn, attrs=None):
        """Return fn wrapped in a span; attrs(args, result) adds fields.

        name is a string or a function of the call's positional arguments.
        """
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name_of(args), time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.request)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.attrs = {"error": type(e).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, attrs in _TARGETS:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _ged_attrs(args, result):
    return {"nodes_expanded": result.nodes_expanded}


def _encode_attrs(args, result):
    return {"graph": args[1].id}


def _bilstm_attrs(args, result):
    return {"steps": args[0].shape[0]}


def _bytes_written(args, result):
    # save_checkpoint and _save_train_state take the file path first
    return {"bytes": os.path.getsize(args[0])}


def _aggregate_name(args):
    # aggregate(h, aggregator, params, prefix, ...): the prefix names the branch
    return "model.aggregate.ngmn" if args[3] == "ngmn_lstm" else "model.aggregate.sgnn"


# (owner, attribute, span name, attrs) — the owner is the module or class the
# caller resolves the name through.
_TARGETS = [
    (data, "gen_ged_dataset", "data.gen_ged_dataset", None),
    (data, "ged_exact", "ged.ged_exact", _ged_attrs),
    (data, "load_dataset", "data.load_dataset", None),
    (model, "normalized_adjacency", "graphs.normalized_adjacency", None),
    (model.Model, "forward_pair", "model.forward_pair", None),
    (model.Model, "encode", "model.encode", _encode_attrs),
    (model, "node_graph_match", "model.node_graph_match", None),
    (model, "aggregate", _aggregate_name, None),
    (model, "predict", "model.predict", None),
    (model, "save_checkpoint", "model.save_checkpoint", _bytes_written),
    (autodiff, "weighted_cosine", "autodiff.weighted_cosine", None),
    (autodiff, "bilstm_last", "autodiff.bilstm_last", _bilstm_attrs),
    (optim.Adam, "step", "optim.Adam.step", None),
    (training, "train", "training.train", None),
    (training, "loss_mse", "model.loss_mse", None),
    (training, "backward", "autodiff.backward", None),
    (training, "evaluate_pairs", "training.evaluate_pairs", None),
    (training, "save_checkpoint", "model.save_checkpoint", _bytes_written),
    (training, "_save_train_state", "training.save_train_state", _bytes_written),
    (training, "mse_metric", "metrics.mse_metric", None),
    (training, "auc", "metrics.auc", None),
    (report, "evaluate_model", "report.evaluate_model", None),
    (report, "evaluate_pairs", "training.evaluate_pairs", None),
    (report, "mse_metric", "metrics.mse_metric", None),
    (report, "spearman_rho", "metrics.spearman_rho", None),
    (report, "kendall_tau", "metrics.kendall_tau", None),
    (report, "precision_at_k", "metrics.precision_at_k", None),
    (report, "auc", "metrics.auc", None),
]
