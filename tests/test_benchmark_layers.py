"""The benchmark's tracer patches functions by the names `perfbench/tracing.py`
lists in `LAYERS`; each of those names must resolve in the package."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_every_layer_name_resolves(tracing):
    for module, attr, span in tracing.LAYERS:
        owner, name = tracing._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr} ({span})"
    assert tracing.layer_codes()
