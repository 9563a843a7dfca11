"""Per-layer metrics computed from the spans of a traced run.

Each entry names the end-to-end metric it is predicted to move and the
workloads on which it should move it; on every other workload the prediction
is no change. BENCHMARK.json lists the same names and units.
"""

from collections import defaultdict

# (name, unit, better, predicted to move, on workloads)
PER_LAYER = [
    ("ged.ged_exact.calls", "count", "lower", "pairs_per_s, setup_s", "ged_gen; setup of train_mgmn, eval_retrieval"),
    ("ged.ged_exact.s", "s", "lower", "pairs_per_s, setup_s", "ged_gen; setup of train_mgmn, eval_retrieval"),
    ("ged.ged_exact.ms_p50", "ms", "lower", "pairs_per_s", "ged_gen"),
    ("ged.ged_exact.ms_p90", "ms", "lower", "pairs_per_s", "ged_gen"),
    ("ged.ged_exact.ms_max", "ms", "lower", "pairs_per_s", "ged_gen"),
    ("ged.nodes_expanded.sum", "count", "lower", "pairs_per_s, setup_s", "ged_gen; setup of train_mgmn, eval_retrieval"),
    ("ged.nodes_expanded.p50", "count", "lower", "pairs_per_s", "ged_gen"),
    ("ged.nodes_expanded.max", "count", "lower", "pairs_per_s", "ged_gen"),
    ("ged.us_per_expansion", "us", "lower", "pairs_per_s", "ged_gen"),
    ("ged.timeouts", "count", "lower", "pairs_per_s", "ged_gen"),
    ("data.gen_ged_dataset.self_s", "s", "lower", "pairs_per_s", "ged_gen"),
    ("data.load_dataset.calls", "count", "lower", "pairs_per_s", "score_fresh"),
    ("data.load_dataset.s", "s", "lower", "pairs_per_s", "score_fresh"),
    ("graphs.normalized_adjacency.calls", "count", "lower", "pairs_per_s, peak_rss_mb", "score_fresh"),
    ("graphs.normalized_adjacency.s", "s", "lower", "pairs_per_s", "score_fresh"),
    ("model.adj_cache_hit_ratio", "ratio", "higher", "pairs_per_s, peak_rss_mb", "score_fresh"),
    ("model.forward_pair.calls", "count", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.forward_pair.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.forward_pair.ms_p50", "ms", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.forward_pair.ms_p90", "ms", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.encode.calls", "count", "lower", "pairs_per_s", "eval_retrieval"),
    ("model.encode.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.encode_useful_ratio", "ratio", "higher", "pairs_per_s", "eval_retrieval"),
    ("model.node_graph_match.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("autodiff.weighted_cosine.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.aggregate.ngmn.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.aggregate.sgnn.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("autodiff.bilstm_last.calls", "count", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("autodiff.bilstm_last.steps", "count", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("autodiff.bilstm_last.fwd_s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.predict.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval, score_fresh"),
    ("model.loss_mse.s", "s", "lower", "pairs_per_s", "train_mgmn"),
    ("autodiff.backward.calls", "count", "lower", "pairs_per_s", "train_mgmn"),
    ("autodiff.backward.s", "s", "lower", "pairs_per_s", "train_mgmn"),
    ("autodiff.tape_nodes_per_pair", "count", "lower", "pairs_per_s", "train_mgmn"),
    ("optim.Adam.step.calls", "count", "lower", "pairs_per_s", "train_mgmn"),
    ("optim.Adam.step.s", "s", "lower", "pairs_per_s", "train_mgmn"),
    ("training.step_ms_p50", "ms", "lower", "pairs_per_s", "train_mgmn"),
    ("training.step_ms_p90", "ms", "lower", "pairs_per_s", "train_mgmn"),
    ("training.forward_share", "ratio", "lower", "pairs_per_s", "train_mgmn"),
    ("training.backward_share", "ratio", "lower", "pairs_per_s", "train_mgmn"),
    ("training.adam_share", "ratio", "lower", "pairs_per_s", "train_mgmn"),
    ("training.train.self_s", "s", "lower", "pairs_per_s", "train_mgmn"),
    ("training.evaluate_pairs.s", "s", "lower", "pairs_per_s", "train_mgmn, eval_retrieval"),
    ("model.save_checkpoint.s", "s", "lower", "pairs_per_s", "train_mgmn"),
    ("training.bytes_written", "bytes", "lower", "pairs_per_s", "train_mgmn"),
    ("report.evaluate_model.self_s", "s", "lower", "pairs_per_s", "eval_retrieval"),
    ("metrics.s", "s", "lower", "pairs_per_s", "eval_retrieval"),
    ("trace.spans", "count", "lower", "none (tracing cost)", "all"),
    ("trace.slowdown", "ratio", "lower", "none (tracing cost)", "all"),
]


def percentile(values, q):
    """Linear-interpolated percentile q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def compute(spans, tape_nodes_per_pair, slowdown):
    """Per-layer metric values, in PER_LAYER order, from a list of Span."""
    by_name = defaultdict(list)
    own = [s.end - s.start for s in spans]  # becomes self time: minus direct children
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start

    def dur(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def total(*names):
        return sum(sum(dur(n)) for n in names)

    def self_time(name):
        return sum(own[i] for i in by_name[name])

    def attr(name, key):
        return [spans[i].attrs[key] for i in by_name[name]
                if spans[i].attrs and key in spans[i].attrs]

    ged_ms = [1e3 * d for d in dur("ged.ged_exact")]
    expanded = attr("ged.ged_exact", "nodes_expanded")
    n_forward = len(by_name["model.forward_pair"])
    under_train = [spans[i] for n in ("model.forward_pair", "model.loss_mse",
                                      "model.save_checkpoint", "training.save_train_state")
                   for i in by_name[n] if spans[i].parent >= 0
                   and spans[spans[i].parent].name == "training.train"]
    encoded = attr("model.encode", "graph")
    steps = step_intervals(spans)
    step_total = sum(end - start for start, end in steps)
    train_forward = [s for s in under_train if s.name in ("model.forward_pair", "model.loss_mse")]
    written = [s.attrs["bytes"] for s in under_train if s.attrs and "bytes" in s.attrs]
    metric_names = [n for n in by_name if n.startswith("metrics.")]

    values = {
        "ged.ged_exact.calls": len(ged_ms),
        "ged.ged_exact.s": total("ged.ged_exact"),
        "ged.ged_exact.ms_p50": percentile(ged_ms, 0.5),
        "ged.ged_exact.ms_p90": percentile(ged_ms, 0.9),
        "ged.ged_exact.ms_max": max(ged_ms, default=0.0),
        "ged.nodes_expanded.sum": sum(expanded),
        "ged.nodes_expanded.p50": percentile(expanded, 0.5),
        "ged.nodes_expanded.max": max(expanded, default=0),
        "ged.us_per_expansion": _ratio(1e6 * total("ged.ged_exact"), sum(expanded)),
        "ged.timeouts": attr("ged.ged_exact", "error").count("GedTimeoutError"),
        "data.gen_ged_dataset.self_s": self_time("data.gen_ged_dataset"),
        "data.load_dataset.calls": len(by_name["data.load_dataset"]),
        "data.load_dataset.s": total("data.load_dataset"),
        "graphs.normalized_adjacency.calls": len(by_name["graphs.normalized_adjacency"]),
        "graphs.normalized_adjacency.s": total("graphs.normalized_adjacency"),
        "model.adj_cache_hit_ratio":
            1.0 - _ratio(len(by_name["graphs.normalized_adjacency"]), 2 * n_forward)
            if n_forward else 0.0,
        "model.forward_pair.calls": n_forward,
        "model.forward_pair.s": total("model.forward_pair"),
        "model.forward_pair.ms_p50": percentile([1e3 * d for d in dur("model.forward_pair")], 0.5),
        "model.forward_pair.ms_p90": percentile([1e3 * d for d in dur("model.forward_pair")], 0.9),
        "model.encode.calls": len(encoded),
        "model.encode.s": total("model.encode"),
        "model.encode_useful_ratio": _ratio(len(set(encoded)), len(encoded)),
        "model.node_graph_match.s": total("model.node_graph_match"),
        "autodiff.weighted_cosine.s": total("autodiff.weighted_cosine"),
        "model.aggregate.ngmn.s": total("model.aggregate.ngmn"),
        "model.aggregate.sgnn.s": total("model.aggregate.sgnn"),
        "autodiff.bilstm_last.calls": len(by_name["autodiff.bilstm_last"]),
        "autodiff.bilstm_last.steps": sum(attr("autodiff.bilstm_last", "steps")),
        "autodiff.bilstm_last.fwd_s": total("autodiff.bilstm_last"),
        "model.predict.s": total("model.predict"),
        "model.loss_mse.s": total("model.loss_mse"),
        "autodiff.backward.calls": len(by_name["autodiff.backward"]),
        "autodiff.backward.s": total("autodiff.backward"),
        "autodiff.tape_nodes_per_pair": tape_nodes_per_pair,
        "optim.Adam.step.calls": len(by_name["optim.Adam.step"]),
        "optim.Adam.step.s": total("optim.Adam.step"),
        "training.step_ms_p50": percentile([1e3 * (e - s) for s, e in steps], 0.5),
        "training.step_ms_p90": percentile([1e3 * (e - s) for s, e in steps], 0.9),
        "training.forward_share": _ratio(sum(s.end - s.start for s in train_forward), step_total),
        "training.backward_share": _ratio(total("autodiff.backward"), step_total),
        "training.adam_share": _ratio(total("optim.Adam.step"), step_total),
        "training.train.self_s": self_time("training.train"),
        "training.evaluate_pairs.s": total("training.evaluate_pairs"),
        "model.save_checkpoint.s": total("model.save_checkpoint"),
        "training.bytes_written": sum(written),
        "report.evaluate_model.self_s": self_time("report.evaluate_model"),
        "metrics.s": total(*metric_names),
        "trace.spans": len(spans),
        "trace.slowdown": slowdown,
    }
    return {name: (values[name], unit) for name, unit, *_ in PER_LAYER}


def step_intervals(spans):
    """(start, end) of each training step: from the previous Adam.step's end
    (or the start of its train call) to the end of the next Adam.step."""
    out = []
    start = None
    for s in spans:
        if s.name == "training.train":
            start = s.start
        elif s.name == "optim.Adam.step" and start is not None:
            out.append((start, s.end))
            start = s.end
    return out
