"""The benchmark's names resolve in kronldp.

`bench/tracer.py` patches the functions listed in its TARGETS when a run is
traced; a function renamed or deleted in the library would break the traced
run only. This reads the list (the file uses the standard library only) and
imports nothing else from bench/. `bench/workloads.py` reads the library
as `K.<name>` (and `K.OptConfig().max_rungs`) in traced and untraced runs
alike; those names are read from its text, without importing it.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import kronldp
import kronldp.cli  # noqa: F401  (binds kronldp.cli, which workloads.py calls)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = (BENCH / "workloads.py").read_text(encoding="utf-8")


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, name", _targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("path", sorted(set(re.findall(r"\bK\.(\w+(?:\.\w+)*)", WORKLOADS))))
def test_workload_name_resolves(path):
    obj = kronldp
    for name in path.split("."):
        obj = getattr(obj, name)


@pytest.mark.parametrize("cls, field", sorted(set(re.findall(r"\bK\.(\w+)\(\)\.(\w+)", WORKLOADS))))
def test_workload_default_field_resolves(cls, field):
    # K.OptConfig().max_rungs: the rate workload infers stability from it
    getattr(getattr(kronldp, cls)(), field)
