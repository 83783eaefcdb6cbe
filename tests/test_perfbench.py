"""The benchmark harness reaches into the package by name: its tracer
rebinds the functions listed in ``perfbench/tracer.py``'s ``TRACED``,
and its traced jobs read the sizes of two memo tables.  A name removed
from the package would break ``--trace 1`` runs only, so it is checked
here."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_cli_import_loads_every_traced_layer_and_no_dataclasses():
    # every CLI job pays for what ``import vertexfock.cli`` loads; the
    # tracer looks each TRACED layer up in sys.modules, so all must load
    layers = {f"vertexfock.{layer}" for layer in _load_tracer().TRACED}
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", "import sys, vertexfock.cli; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert len(layers) == 9 and layers <= loaded
