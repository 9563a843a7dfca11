"""Every table of value bounds, entry by entry: a value just outside an
entry's bound is refused by the entry point that owns the table, naming the
field or flag and the value, and a value on its edge is accepted."""

import inspect
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from graphmatch.cli import build_parser, cmd_ged
from graphmatch.data import (CLONE_BOUNDS, GED_BOUNDS, DatasetError, gen_clone_dataset,
                             gen_ged_dataset)
from graphmatch.ged import EditCostScheme
from graphmatch.model import AGGREGATORS, MODES, TASKS, ConfigError, ModelConfig
from graphmatch.training import TrainConfig

# per bound phrase: values on its edge (or, for an open edge, just inside it),
# all accepted, and values just outside it, all refused
EDGES = {
    "an int >= 0": ([0], [-1]),
    "an int >= 1": ([1], [0]),
    "an int >= 0 or None": ([0, None], [-1]),
    "a finite number >= 0": ([0.0], [-1e-12, math.inf, math.nan]),
    "a finite number > 0": ([1e-12], [0.0, math.inf, math.nan]),
    "a number in [0, 1]": ([0.0, 1.0], [-1e-12, 1.0 + 1e-12]),
    "a number in [0, 1)": ([0.0], [-1e-12, 1.0]),
    "(min, max) ints with 1 <= min <= max <= 10": ([(1, 1), (1, 10), (10, 10)],
                                                   [(0, 1), (5, 4), (1, 11), (1, 2, 3)]),
    **{f"one of {choices}": (list(choices), ["x"]) for choices in (MODES, TASKS, AGGREGATORS)},
}

# per bound phrase that compares numbers: values it cannot compare (a str) or
# whose comparison has no truth value (an array), refused all the same; argparse
# types the ged flags, so only the other tables can be given one. Two numbers in
# an array are a valid (min, max), so the range bound gets no array.
ARRAY = np.array([3, 4])
UNCOMPARABLE = {"an int >= 0": ["0", ARRAY], "an int >= 1": ["1", ARRAY],
                "an int >= 0 or None": ["0", ARRAY],
                "a finite number >= 0": ["0", ARRAY], "a finite number > 0": ["1", ARRAY],
                "a number in [0, 1]": ["0", ARRAY], "a number in [0, 1)": ["0", ARRAY],
                "(min, max) ints with 1 <= min <= max <= 10": [("1", 2)]}

# per bound phrase: a bool, and for a count a float, even an integral one,
# refused all the same where only library calls can pass them (argparse types
# the ged flags, and config_from_dict refuses them in JSON); numpy integers
# are counts, accepted
NOT_OF_ITS_TYPE = {"an int >= 0": [False, True, 0.0, 2.5], "an int >= 1": [True, 1.0, 4.5],
                   "an int >= 0 or None": [False, True, 0.0, 2.5],
                   "a finite number >= 0": [False, True, np.True_],
                   "a finite number > 0": [True, np.True_],
                   "a number in [0, 1]": [False, True, np.False_], "a number in [0, 1)": [False],
                   "(min, max) ints with 1 <= min <= max <= 10": [(True, 2), (4.5, 6), (1.0, 2)]}
NUMPY_COUNTS = {"an int >= 0": [np.int64(0)], "an int >= 1": [np.int64(1)],
                "an int >= 0 or None": [np.int32(0)],
                "(min, max) ints with 1 <= min <= max <= 10": [(np.int64(4), np.int64(6))]}


def run_ged(tmp_path, flags):
    """cmd_ged on two one-node graphs, with the given flag values."""
    one = tmp_path / "one.jsonl"
    one.write_text(json.dumps({"id": "a", "nodes": [[1.0]], "edges": []}) + "\n")
    argv = [x for name, value in flags.items() for x in (f"--{name}", str(value))]
    cmd_ged(build_parser().parse_args(["ged", str(one), str(one), *argv]))


# per table: its entries, the error a refusal raises, and the entry point that
# checks the table, run with some of its values set
TABLES = {
    "ModelConfig": (ModelConfig.BOUNDS, ConfigError,
                    lambda tmp_path, kw: ModelConfig(**{"feature_dim": 1, **kw})),
    "TrainConfig": (TrainConfig.BOUNDS, ConfigError, lambda tmp_path, kw: TrainConfig(**kw)),
    "EditCostScheme": (EditCostScheme.BOUNDS, ValueError,
                       lambda tmp_path, kw: EditCostScheme(**kw)),
    "gen_ged_dataset": (GED_BOUNDS, DatasetError,
                        lambda tmp_path, kw: gen_ged_dataset(**{"n_graphs": 1, **kw})),
    "gen_clone_dataset": (CLONE_BOUNDS, DatasetError, lambda tmp_path, kw: gen_clone_dataset(
        **{"n_groups": 1, "variants_per_group": 1, "perturbation_budget": 0, **kw})),
    "ged": (build_parser().parse_args(["ged", "a", "b"]).bounds, ConfigError, run_ged),
}


@pytest.mark.parametrize("table, name", [(table, name) for table, (bounds, _, _) in TABLES.items()
                                         for name in bounds])
def test_each_bound_refuses_outside_and_accepts_its_edge(tmp_path, table, name):
    bounds, error, run = TABLES[table]
    shown = f"--{name}" if table == "ged" else name  # ged's refusals name the flag
    phrase = bounds[name][0]
    inside, outside = EDGES[phrase]
    if table != "ged":
        outside = outside + UNCOMPARABLE.get(phrase, []) + NOT_OF_ITS_TYPE.get(phrase, [])
        inside = inside + NUMPY_COUNTS.get(phrase, [])
    for value in outside:
        message = f"{shown} must be {phrase}, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run(tmp_path, {name: value})
    for value in inside:
        run(tmp_path, {name: value})


def test_every_field_and_parameter_has_a_bound():
    """A new config field, edit cost or generator parameter cannot arrive
    unbounded; the run's output paths are the only fields free of a bound."""
    for cls in (ModelConfig, TrainConfig, EditCostScheme):
        assert set(cls.BOUNDS) == {f.name for f in fields(cls)} - {"checkpoint_dir", "log_path"}
    for generate, bounds in ((gen_ged_dataset, GED_BOUNDS), (gen_clone_dataset, CLONE_BOUNDS)):
        assert set(bounds) == set(inspect.signature(generate).parameters)
    # `gen` checks each kind's table before its manifest; `ged` bounds both its numbers
    parser = build_parser()
    assert parser.parse_args(["gen", "ged", "--out", "x"]).bounds is GED_BOUNDS
    assert parser.parse_args(["gen", "clone", "--out", "x"]).bounds is CLONE_BOUNDS
    assert set(parser.parse_args(["ged", "a", "b"]).bounds) == {"budget", "timeout"}
