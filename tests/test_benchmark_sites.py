"""The benchmark's tracer wraps names that the package looks up at call
time; a refactor that drops one of those lookup sites must fail here,
not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "span, site, attr, how", tracer.SITES, ids=[f"{s}.{a}" for _, s, a, _ in tracer.SITES]
)
def test_every_traced_site_resolves(span, site, attr, how):
    owner = tracer._owner(site)
    assert attr in owner.__dict__, f"{span}: {site} no longer defines {attr}"
    if how == "classmethod":
        assert isinstance(owner.__dict__[attr], classmethod)
    else:
        assert callable(owner.__dict__[attr])
