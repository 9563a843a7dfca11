"""The package keeps freed heap memory on glibc, so train steps stop
re-faulting their temporaries, and glibc's own malloc variables still win."""

import os
import subprocess
import sys

import pytest

import graphmatch

try:
    GLIBC = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
except (AttributeError, ValueError, OSError):  # no confstr, or no such name
    GLIBC = False

# minor page faults over 10 train steps of the acceptance regression model,
# after 5 warm-up steps; printed as the last line
FAULT_SCRIPT = """
import resource
import numpy as np
from graphmatch import Model, ModelConfig
from graphmatch.data import gen_ged_dataset
from graphmatch.optim import Adam
from graphmatch.training import _batch_step

ds = gen_ged_dataset(n_graphs=12, node_range=(7, 8), seed=0, max_train_pairs=10,
                     eval_candidates=1)
cfg = ModelConfig(feature_dim=3, gcn_dim=64, perspectives=32, mode="mgmn",
                  task="regression", sgnn_aggregator="bilstm")
model = Model(cfg, rng=np.random.default_rng(0))
optimizer = Adam(model.params, lr=5e-3)
rng = np.random.default_rng(0)
pairs = ds.pairs_for_split("train")

def step():
    batch = [pairs[int(i)] for i in rng.integers(0, len(pairs), size=16)]
    _batch_step(model, ds, batch, optimizer, rng)

for _ in range(5):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _train_step_faults(**env):
    base = {k: v for k, v in os.environ.items()
            if k not in graphmatch.GLIBC_MALLOC_VARS and k != "GLIBC_TUNABLES"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphmatch.__file__)))
    base.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", **env)
    out = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=base, check=True, timeout=300,
                         capture_output=True, text=True).stdout
    return int(out.split()[-1])


@pytest.mark.skipif(not GLIBC, reason="the heap settings apply only on glibc")
def test_train_steps_stop_refaulting_the_heap():
    faults = _train_step_faults()
    assert faults < 1000, f"{faults} minor faults over 10 train steps"


@pytest.mark.skipif(not GLIBC, reason="the heap settings apply only on glibc")
def test_glibc_malloc_variables_win():
    faults = _train_step_faults(MALLOC_TRIM_THRESHOLD_="131072",
                                MALLOC_MMAP_THRESHOLD_="131072")
    assert faults > 1000, f"only {faults} minor faults over 10 train steps"


@pytest.mark.parametrize("environ", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"MALLOC_TOP_PAD_": "0"},
    {"GLIBC_TUNABLES": "glibc.rtld.nns=2:glibc.malloc.trim_threshold=131072"},
])
def test_malloc_settings_in_the_environment_opt_out(environ):
    assert graphmatch._keep_freed_heap(environ) is False


def test_other_libcs_are_left_alone(monkeypatch):
    def no_such_name(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "confstr", no_such_name)
    assert graphmatch._keep_freed_heap({}) is False
    monkeypatch.setattr(os, "confstr", lambda name: None)  # musl: no value
    assert graphmatch._keep_freed_heap({}) is False
