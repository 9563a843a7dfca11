"""Fast self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness emits, that
every workload emits every end-to-end metric (untraced) and every per-layer
metric (traced) with its unit, and that a corrupted output is counted as a
failure: the run reports correct=false and exits nonzero.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

BENCH = Path(__file__).resolve().parent
TINY = {
    "ged_gen": dict(corpus=dict(n_graphs=6, node_range=(4, 5), max_train_pairs=4,
                                eval_candidates=2), calls_per_second=4.0,
                    warmup=dict(n_graphs=3, node_range=(4, 4), seed=0)),
    "train_mgmn": dict(corpus=dict(n_graphs=8, node_range=(4, 5), max_train_pairs=4,
                                   eval_candidates=1), steps_per_second=20.0, val_every=5,
                       batch_size=4),
    "eval_retrieval": dict(corpus=dict(n_graphs=12, node_range=(4, 5), max_train_pairs=0,
                                       eval_candidates=None), calls_per_second=2.0, ks=(2, 4),
                           warmup_pairs=5),
    "score_fresh": dict(requests_per_second=40, min_requests=20, warmup_requests=2),
}
SECONDS = "0.5"


def invoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(result, expected, where):
    got = result["metrics"]
    assert set(got) == set(expected), f"{where}: metrics {sorted(set(got) ^ set(expected))}"
    for name, unit in expected.items():
        m = got[name]
        assert m["unit"] == unit, f"{where}: {name} unit {m['unit']!r} != {unit!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{where}: {name} = {m['value']!r}"


@contextlib.contextmanager
def corrupted_run(workload, owner, attr, replacement):
    """Replace owner.attr while the workload's timed phase runs (set-up stays sound)."""
    timed = workload.run

    def run_corrupted(*args, **kwargs):
        original = getattr(owner, attr)
        setattr(owner, attr, replacement(original))
        try:
            return timed(*args, **kwargs)
        finally:
            setattr(owner, attr, original)

    workload.run = run_corrupted
    try:
        yield
    finally:
        del workload.run


def corruptions():
    """(workload, owner, attribute, wrapper) that make one output wrong."""
    import numpy as np
    from graphmatch import autodiff, data, ged, model

    def bad_similarity(ged_exact):
        def wrapper(g1, g2, **kw):
            r = ged_exact(g1, g2, **kw)
            return ged.GedResult(r.distance, 1.5, r.nodes_expanded)
        return wrapper

    def nan_prediction(predict):
        def wrapper(*args):
            return autodiff.mul(predict(*args), autodiff.Tensor(np.nan))
        return wrapper

    return [("ged_gen", data, "ged_exact", bad_similarity),
            ("train_mgmn", model, "predict", nan_prediction),
            ("eval_retrieval", model, "predict", nan_prediction),
            ("score_fresh", model, "predict", nan_prediction)]


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    run.import_package()
    import layers
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names"
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    table = {name: unit for name, unit, *_ in layers.PER_LAYER}
    assert per_layer == table, f"per_layer differs from layers.PER_LAYER: {per_layer.keys() ^ table.keys()}"
    assert [m["better"] for m in spec["per_layer"]] == [b for _, _, b, *_ in layers.PER_LAYER]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for name, sizes in TINY.items():
        for attr, value in sizes.items():
            setattr(WORKLOADS[name], attr, value)

    for name in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result = invoke(name, trace)
            assert code == 0 and result["correct"], f"{name} trace {trace}: {result}"
            assert result["attempted"] >= 1 and result["failed"] == 0
            check_metrics(result, expected, f"{name} trace {trace}")
        print(f"ok   {name}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics")

    for name, owner, attr, wrapper in corruptions():
        with corrupted_run(WORKLOADS[name], owner, attr, wrapper):
            code, result = invoke(name, 0)
        assert code != 0 and not result["correct"] and result["failed"] >= 1, \
            f"{name}: corrupted output not counted: {result}"
        check_metrics(result, end_to_end, f"{name} corrupted")
        print(f"ok   {name}: corrupted {attr} counted as {result['failed']} failed "
              f"of {result['attempted']}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
