"""The benchmark's tracer (``bench/tracer.py``) rebinds package functions by
name, layer by layer; a name that no longer exists makes every traced run
fail when the tracer installs.  The tracer is loaded here from its file,
without importing the benchmark package or writing bytecode next to it."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def test_every_traced_layer_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"penner.{layer}.{name}"
        for layer, names in tracer.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"penner.{layer}"), name, None))
    ]
    assert tracer.LAYER_FUNCTIONS and missing == []
