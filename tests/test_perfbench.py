"""The benchmark harness reaches into the package by name: its tracer
rebinds the functions listed in ``perfbench/tracer.py``'s ``TRACED``,
and its traced jobs read the sizes of two memo tables.  A name removed
from the package would break ``--trace 1`` runs only, so it is checked
here."""

import importlib
import importlib.util
from pathlib import Path

from vertexfock import ope, verma

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for layer, functions in tracer.TRACED.items():
        module = importlib.import_module(f"vertexfock.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert isinstance(ope._MEMO, dict) and isinstance(verma._ACT_MEMO, dict)
