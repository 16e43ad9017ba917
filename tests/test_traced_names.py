"""Every function the benchmark's per-layer metrics name stays traceable.

The tracer in ``perfbench/tracer.py`` wraps the public module-level
functions of each ``cubeclaw`` layer: a name without a ``_`` prefix that
is not a class and whose ``__module__`` is that layer.  A metric of
``BENCHMARK.json`` whose function no longer fits that rule reads null.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SUFFIXES = ("calls", "s", "self_s", "bytes")
# functions whose results the tracer observes for its derived metrics
OBSERVED = [
    "detect.find_claw",
    "witness.find_witness_inductive",
    "verify.extremal_search",
    "hypercube.neighbor_masks",
    "verify.verify_theorem_exhaustive",
    "verify.verify_proposition_exhaustive",
    "verify.verify_case_claims",
    "verify.random_agreement_test",
]


def traced_functions() -> list[str]:
    names = set(OBSERVED)
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        qual, _, suffix = metric["name"].rpartition(".")
        if suffix in SUFFIXES and qual.count(".") >= 1:
            names.add(qual)
    return sorted(names)


def test_benchmark_names_per_function_metrics():
    names = traced_functions()
    assert "detect.classify_five_set" in names
    assert "hypercube.VertexSet.members" in names


@pytest.mark.parametrize("qual", traced_functions())
def test_traced_function_is_public_in_its_layer(qual):
    layer, *path = qual.split(".")
    module = importlib.import_module(f"cubeclaw.{layer}")
    if len(path) == 2:
        cls, name = path
        owner = vars(module)[cls]
        assert inspect.isclass(owner) and owner.__module__ == module.__name__
        assert name in vars(owner) and not name.startswith("_")
        return
    (name,) = path
    obj = vars(module).get(name)
    assert not name.startswith("_")
    assert callable(obj) and not inspect.isclass(obj)
    assert obj.__module__ == module.__name__
