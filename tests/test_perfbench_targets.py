"""The benchmark's tracer patches package functions by module and name; a
rename in the package must fail here, not only in a traced benchmark run."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    return tracing


def test_tracer_targets_resolve_and_restore(tracing):
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    tracer = tracing.Tracer().install()
    try:
        for (owner, attr, *_), original in zip(tracing._TARGETS, originals):
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr, *_), original in zip(tracing._TARGETS, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
