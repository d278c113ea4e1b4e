"""The benchmark's traced names resolve in kronldp.

`bench/tracer.py` patches the functions listed in its TARGETS when a run is
traced; a function renamed or deleted in the library would break the traced
run only. This reads the list (the file uses the standard library only) and
imports nothing else from bench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, name", _targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
