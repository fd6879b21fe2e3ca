"""The names the benchmark's tracer looks up in the package still exist.

bench/layers.py wraps every function in each traced module's `__all__`,
reports the functions of FUNCTION_METRICS by name and reads `cache_info()`
from the caches of HIT_RATIOS.  A name dropped from the package shows up
there only as a KeyError under `bench/run.py --trace 1`, so this test reads
the tracer's tables and checks them against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers_contract", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(layer: str):
    return importlib.import_module(f"cuspidal.{layer}")


def test_every_exported_name_resolves(layers):
    for layer in layers.LAYERS:
        module = _module(layer)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], layer


def test_function_metrics_name_exported_functions(layers):
    for key in layers.FUNCTION_METRICS:
        layer, name = key.split(".")
        module = _module(layer)
        assert name in module.__all__, key
        fn = getattr(module, name)
        assert callable(fn) and not isinstance(fn, type), key


def test_hit_ratio_functions_keep_their_cache(layers):
    for key in layers.HIT_RATIOS:
        layer, name = key.split(".")
        module = _module(layer)
        fn = getattr(module, name)
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), key
        assert fn.__module__ == module.__name__, key
