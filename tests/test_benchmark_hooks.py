"""The benchmark's per-layer tracer wraps package functions by name, and a
name it cannot find reads 0 instead of failing; every name must resolve."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, fn_name, layer in tracer.TARGETS:
        module = importlib.import_module(f"sscavi.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name, layer)
