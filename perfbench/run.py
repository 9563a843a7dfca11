"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ged_gen --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports the package from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
repeat the metrics for a reader, with sample counts and provenance. The full
result (and, when traced, every span) is written under ``perfbench/.run/``.
The exit code is 0 only when every output check passed.
"""

import os
import sys

# one BLAS thread, pinned before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".run"
SETUP_REPEATS = 5
SETUP_SALT = 1 << 20  # keeps set-up seeds apart from the per-call seeds

# the name each workload's pairs_per_s has in the project's own vocabulary
THROUGHPUT_ALIAS = {"ged_gen": "ged_pairs_per_s", "train_mgmn": "train_pairs_per_s",
                    "eval_retrieval": "eval_pairs_per_s", "score_fresh": "score_requests_per_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import graphmatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'graphmatch'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import graphmatch
    if Path(graphmatch.__file__).resolve().parent != SRC / "graphmatch":
        raise SystemExit(f"error: imported graphmatch from {graphmatch.__file__}, not {SRC}")


def tail_quantile(n):
    """Highest percentile with at least ten samples beyond it, within [p50, p99]."""
    return min(0.99, max(0.5, 1.0 - 10.0 / n)) if n else 0.5


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(outcome, setup_s):
    per_pair_ms = [1e3 * s / p for s, p in zip(outcome.request_s, outcome.request_pairs) if p]
    q = tail_quantile(len(per_pair_ms))
    metrics = {
        "pairs_per_s": (outcome.pairs / outcome.elapsed if outcome.elapsed else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # latency percentiles are reported, not gated: over ten seeds their spread
    # on a shared 2-CPU host came close to the largest bound a metric may have
    counts = {"requests": len(per_pair_ms), "pairs": outcome.pairs,
              "elapsed_s": outcome.elapsed, "pair_ms_p50": layers.percentile(per_pair_ms, 0.5),
              "tail_percentile": round(100 * q, 2),
              "pair_ms_tail": layers.percentile(per_pair_ms, q)}
    return metrics, counts


def tape_nodes_per_pair(workload):
    """Tape size of one prediction on a fixed pair, built outside any span."""
    import numpy as np
    from graphmatch import autodiff, data, model
    from workloads import ACCEPTANCE_MODEL
    g1, g2 = data.gen_ged_dataset(2, node_range=(7, 8), seed=0, max_train_pairs=0,
                                  eval_candidates=0).graphs.values()
    net = model.Model(model.ModelConfig(**ACCEPTANCE_MODEL), rng=np.random.default_rng(0))
    pred = net.forward_pair(g1, g2, training=workload == "train_mgmn",
                            rng=np.random.default_rng(0))
    return len(autodiff.Tape(pred).nodes)


def provenance(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        content = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + content)
        lines += content.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "src_py_lines": lines, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "setup_repeats": SETUP_REPEATS,
    }


def run(args, work_dir):
    from workloads import WORKLOADS, derived_seed
    wl = WORKLOADS[args.workload]
    # the last set-up builds the seed's own inputs for the timed phase; the
    # others build inputs of the same distribution from derived seeds, so the
    # median covers several draws of the input distribution
    setup_times = []
    for k in range(SETUP_REPEATS):
        seed = args.seed if k == SETUP_REPEATS - 1 else derived_seed(args.seed, SETUP_SALT, k)
        t = time.perf_counter()
        state = wl.setup(seed, work_dir, args.seconds)
        setup_times.append(time.perf_counter() - t)
    outcome = wl.run(state, args.seconds)
    metrics, counts = end_to_end(outcome, statistics.median(setup_times))
    result = {"attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "counts": counts,
              "setup_times_s": setup_times, "end_to_end": metrics}
    if not args.trace:
        result["metrics"] = metrics
        return result, None

    from tracing import Tracer
    tracer = Tracer().install()
    try:
        state = wl.setup(args.seed, work_dir, args.seconds)
        traced = wl.run(state, args.seconds, tracer)
    finally:
        tracer.uninstall()
    traced_metrics, traced_counts = end_to_end(traced, statistics.median(setup_times))
    slowdown = (metrics["pairs_per_s"][0] / traced_metrics["pairs_per_s"][0]
                if traced_metrics["pairs_per_s"][0] else 0.0)
    result.update({
        "attempted": outcome.attempted + traced.attempted,
        "failed": outcome.failed + traced.failed,
        "problems": outcome.problems + traced.problems,
        "traced_counts": traced_counts, "traced_end_to_end": traced_metrics,
        "metrics": layers.compute(tracer.spans, tape_nodes_per_pair(args.workload), slowdown),
    })
    return result, tracer


def report_lines(args, result):
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    metrics = result["end_to_end"]
    counts = result["counts"]
    lines.append(f"  {THROUGHPUT_ALIAS[args.workload]} = {metrics['pairs_per_s'][0]:.6g} 1/s "
                 f"({counts['pairs']} pairs in {counts['elapsed_s']:.3f} s, "
                 f"{counts['requests']} requests)")
    lines.append(f"  ms per pair over {counts['requests']} requests: p50 "
                 f"{counts['pair_ms_p50']:.6g} ms, p{counts['tail_percentile']:g} "
                 f"{counts['pair_ms_tail']:.6g} ms (the highest percentile with ten "
                 f"requests beyond it)")
    attempted, failed = result["attempted"], result["failed"]
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  failed_ratio = {ratio:.6g} ({failed} failed of {attempted} attempted)")
    for why in result["problems"]:
        lines.append(f"  check failed: {why}")
    if args.trace:
        slow = result["metrics"]["trace.slowdown"][0]
        lines.append(f"  tracing overhead: untraced {metrics['pairs_per_s'][0]:.6g} pairs/s, "
                     f"traced {result['traced_end_to_end']['pairs_per_s'][0]:.6g} pairs/s "
                     f"(slowdown x{slow:.4f})")
    shown = result["metrics"]
    width = max(len(n) for n in shown)
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<{width}}  {value:.6g} {unit}")
    lines.append("  provenance " + json.dumps(result["provenance"], sort_keys=True))
    return lines


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be > 0")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = run(args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["provenance"] = provenance(args)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for line in report_lines(args, result):
        print(line)
    correct = result["failed"] == 0 and result["attempted"] >= 1
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
