"""Per-layer tracing: spans around every public function of the cuspidal modules.

The traced run executes the request list in-process through
`cuspidal.cli.main(argv)` with stdout captured.  Before each request it clears
every package `lru_cache`, so a request starts as cold as a fresh process.
`Tracer.install` wraps each function named in a module's `__all__` and
rebinds that name in every package module that holds it; nothing in `src/`
is changed.  Each call leaves a span (name, layer, start, end, parent span,
request id) in memory; the spans of the last traced pass are written to
`.bench_out/` when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

LAYERS = ("arith", "cusps", "heckediv", "classlattice", "eisq", "classifier", "cli")

# Functions each named in the per-layer metrics, with the statistics kept for them.
FUNCTION_METRICS = {
    "classlattice.lambda_inverse": ("self_s", "calls"),
    "classlattice.mat_vec": ("self_s",),
    "classlattice.class_order": ("self_s",),
    "classlattice.solve_lambda": ("self_s",),
    "classlattice.r_vector": ("self_s",),
    "cusps.normalize_fraction": ("calls", "self_s"),
    "cusps.enumerate_cusps": ("calls",),
    "cusps.beta_image": ("calls",),
    "heckediv.hecke_delta": ("self_s",),
    "heckediv.build_c_divisor": ("calls",),
    "classifier.index_n": ("calls",),
    "eisq.base_epp": ("self_s",),
    "eisq.build_qexp": ("self_s",),
    "eisq.residue_table": ("self_s",),
    "eisq.eigen_check": ("self_s",),
    "cli.to_json": ("self_s",),
    "arith.factor": ("calls",),
}
HIT_RATIOS = ("arith.factor", "arith.divisors_of")

_STAT_UNITS = {"calls": "count", "self_s": "s", "share": "ratio"}
UNITS = {
    **{f"{layer}.{stat}": _STAT_UNITS[stat] for layer in LAYERS for stat in ("calls", "self_s", "share")},
    **{f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stats in FUNCTION_METRICS.items() for stat in stats},
    **{f"{fn}.hit_ratio": "ratio" for fn in HIT_RATIOS},
    "cache.entries": "count",
    "trace.overhead_s": "s",
}


def run_inprocess(main, argv: list[str]) -> tuple[int, bytes, str]:
    """(exit code, stdout bytes, stderr text) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed request, as in a real process
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue()


class Tracer:
    """Wraps the public functions of one imported cuspidal package."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self._originals: dict[int, tuple[object, int]] = {}
        self.caches: dict[str, object] = {}
        for layer, module in self.modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    self._originals[id(fn)] = (fn, len(self.names))
                    self.names.append(f"{layer}.{name}")
            for name, fn in vars(module).items():
                if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__:
                    self.caches[f"{layer}.{name}"] = fn
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.functions = array("H")
        self.request_ids = array("l")
        self.request = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self.cache_stats = {fn: [0, 0] for fn in HIT_RATIOS}
        self.cache_entries = 0

    def _wrap(self, fn, index: int):
        starts, ends, parents = self.starts, self.ends, self.parents
        functions, request_ids, stack, clock = self.functions, self.request_ids, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1] if stack else -1)
            functions.append(index)
            request_ids.append(tracer.request)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {key: self._wrap(fn, index) for key, (fn, index) in self._originals.items()}
        for module in (self.package, *self.modules.values()):
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, wrappers[id(value)])
                    self._rebound.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, value in self._rebound:
            setattr(module, name, value)
        self._rebound.clear()

    def clear_spans(self) -> None:
        for spans in (self.starts, self.ends, self.parents, self.functions, self.request_ids):
            del spans[:]

    def clear_caches(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()

    def end_request(self) -> None:
        """Fold the cache statistics of the request that just ended into the totals."""
        for fn, stat in self.cache_stats.items():
            info = self.caches[fn].cache_info()
            stat[0] += info.hits
            stat[1] += info.misses
        self.cache_entries = max(
            self.cache_entries, sum(c.cache_info().currsize for c in self.caches.values())
        )

    def function_totals(self) -> tuple[list[int], list[float]]:
        """Calls and self time per wrapped function over the spans held now."""
        starts, ends, parents, functions = self.starts, self.ends, self.parents, self.functions
        covered = array("d", bytes(8 * len(starts)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, index in enumerate(functions):
            calls[index] += 1
            self_s[index] += ends[i] - starts[i] - covered[i]
        return calls, self_s

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tlayer\tstart\tend\n")
            for i, index in enumerate(self.functions):
                name = self.names[index]
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.request_ids[i]}\t{name}\t{name.split('.')[0]}"
                    f"\t{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import cuspidal

    if Path(cuspidal.__file__).resolve().parent != (src / "cuspidal").resolve():
        raise ImportError(f"cuspidal imported from {cuspidal.__file__}, not {src}")
    return cuspidal


def traced_run(reqs: list[dict], seconds: float, tally, src: Path, out: Path, label: str):
    """Pairs of passes, untraced then traced, until the next pair would overrun
    `seconds`; per-layer metrics are per pass, averaged over the traced passes."""
    package = _import_package(src)
    tracer = Tracer(package)
    cli = tracer.modules["cli"]

    def one_pass(traced: bool) -> float:
        started = time.perf_counter()
        for rid, req in enumerate(reqs):
            tracer.request = rid
            tracer.clear_caches()
            code, stdout, stderr = run_inprocess(cli.main, req["argv"])
            if traced:
                tracer.end_request()
            tally.check(req["sha256"], code, stdout, stderr, rid)
        return time.perf_counter() - started

    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        untraced_walls.append(one_pass(traced=False))
        tracer.clear_spans()
        tracer.install()
        try:
            traced_walls.append(one_pass(traced=True))
        finally:
            tracer.uninstall()
        pass_calls, pass_self = tracer.function_totals()
        calls = [a + b for a, b in zip(calls, pass_calls)]
        self_s = [a + b for a, b in zip(self_s, pass_self)]
        pair = time.perf_counter() - pair_started
        if time.perf_counter() - started + pair > seconds:
            break

    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{label}.tsv.gz"
    tracer.write_spans(spans_path)

    passes = len(traced_walls)
    by_function = {
        name: (calls[i] // passes, self_s[i] / passes) for i, name in enumerate(tracer.names)
    }
    total_self = sum(s for _, s in by_function.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        members = [v for name, v in by_function.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(c for c, _ in members)
        metrics[f"{layer}.self_s"] = sum(s for _, s in members)
        metrics[f"{layer}.share"] = metrics[f"{layer}.self_s"] / total_self
    for fn, stats in FUNCTION_METRICS.items():
        c, s = by_function[fn]
        metrics.update({f"{fn}.{stat}": {"calls": c, "self_s": s}[stat] for stat in stats})
    for fn, (hits, misses) in tracer.cache_stats.items():
        metrics[f"{fn}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.entries"] = tracer.cache_entries
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    info = {
        "passes": passes,
        "spans": len(tracer.functions),
        "spans_file": str(spans_path.relative_to(out.parent)),
    }
    return metrics, info
