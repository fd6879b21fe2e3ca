"""The benchmark's names and bytes still hold for the package.

bench/layers.py wraps every function in each traced module's `__all__`,
reports the functions of FUNCTION_METRICS by name and reads `cache_info()`
from the caches of HIT_RATIOS.  A name dropped from the package shows up
there only as a KeyError under `bench/run.py --trace 1`, so this test reads
the tracer's tables and checks them against the package.

bench/pool.json pins the SHA-256 of every request's stdout, and a request
whose bytes move counts as failed; the first request of every stratum of
each workload is replayed here in-process, so a change to the JSON
rendering, the series, the divisors, the coverings or the sweep's checks
fails tier-1 before it fails the benchmark.

The package's four caches are pinned with their `maxsize`, and none is
unbounded: `factor` and `divisors_of` (4096 each, whose hit ratios the
tracer reads), `parts` and the per-level table.  The
coverings on (P_d) sums are closed forms, cusp lists are built afresh on
every call, and a datum's divisor, class order and residues read one closed
local table per prime power (`heckediv.local_tables`), so none of them needs
a cache; adding, removing or resizing a cache is an edit here.

`classifier.index_n` is one of the reported functions.  It is defined in
`classlattice` beside the other two class orders and kept out of that
module's `__all__`, so the tracer wraps it once, under the name
`classifier.index_n`.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import pytest

import cuspidal
from cuspidal.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS_PATH = BENCH / "layers.py"
POOL_PATH = BENCH / "pool.json"


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


def test_every_name_at_the_package_root_resolves():
    missing = [name for name in cuspidal.__all__ if not hasattr(cuspidal, name)]
    assert missing == []


def test_function_metrics_name_exported_functions(layers):
    for key in layers.FUNCTION_METRICS:
        layer, name = key.split(".")
        module = _module(layer)
        assert name in module.__all__, key
        fn = getattr(module, name)
        assert callable(fn) and not isinstance(fn, type), key


def test_each_function_is_exported_by_one_layer(layers):
    # The tracer names a function after the last layer that exports it.
    owners: dict[int, list[str]] = {}
    for layer in layers.LAYERS:
        module = _module(layer)
        for name in module.__all__:
            owners.setdefault(id(getattr(module, name)), []).append(f"{layer}.{name}")
    assert [names for names in owners.values() if len(names) > 1] == []


def test_hit_ratio_functions_keep_their_cache(layers):
    for key in layers.HIT_RATIOS:
        layer, name = key.split(".")
        module = _module(layer)
        fn = getattr(module, name)
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), key
        assert fn.__module__ == module.__name__, key


def _replay_first_of_each_stratum(workload: str) -> tuple[int, list]:
    """Run the first request of each stratum of a pool workload through
    `main`; the stratum count and the argv of every request whose exit code
    or stdout SHA-256 differs from the pool."""
    with open(POOL_PATH) as fh:
        strata = json.load(fh)["workloads"][workload]
    mismatched = []
    for stratum in strata:
        request = stratum[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(request["argv"]))
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != request["sha256"]:
            mismatched.append(request["argv"])
    return len(strata), mismatched


def test_series_pool_bytes():
    assert _replay_first_of_each_stratum("series") == (40, [])


def test_sweep_pool_bytes():
    assert _replay_first_of_each_stratum("sweep") == (3, [])


def test_classify_smooth_pool_bytes():
    assert _replay_first_of_each_stratum("classify_smooth") == (32, [])


def test_hecke_deep_pool_bytes():
    assert _replay_first_of_each_stratum("hecke_deep") == (87, [])


def test_every_cache_is_bounded_at_its_pinned_size():
    sizes = {}
    for info in pkgutil.iter_modules(cuspidal.__path__):
        module = importlib.import_module(f"cuspidal.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = fn.cache_parameters()["maxsize"]
    assert sizes == {
        "arith.factor": 4096,
        "arith.divisors_of": 4096,
        "arith.parts": 1024,
        "classlattice._level_table": 64,
    }
