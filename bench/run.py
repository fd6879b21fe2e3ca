"""End-to-end benchmark of the cuspidal command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify_smooth --seed 1 --seconds 30 --trace 0

Each request runs as `cuspidal <argv>` in a fresh interpreter, one at a time,
so every request starts with cold caches, exactly as a user runs it.  The
request list comes from the seed (see `requests`); every output is checked
against the SHA-256 stored for it in pool.json.  With `--trace 0` the run
reports the end-to-end metrics, scaled to a reference machine speed; with
`--trace 1` it runs the same list in-process, untraced and traced, and reports
the per-layer metrics of layers.py.  The last line of stdout is the JSON
result; the line before it carries the run's context and `digest`, a SHA-256
over the outputs of the request list in order.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
POOL = BENCH / "pool.json"

# What the `cuspidal` console script runs.
ENTRY = "import sys; from cuspidal.cli import main; sys.exit(main())"
SETUP_ARGV = ["cusps", "1", "--format", "json"]
# A shared virtual machine can change speed by a third for tens of seconds at a
# time.  A fixed stdlib-only task, independent of src/, is timed in a fresh
# interpreter between requests; every end-to-end time is reported scaled by
# CALIBRATION_REF_S / (its median in the run), that is, in seconds of a machine
# on which the task takes CALIBRATION_REF_S.
CALIBRATION = """
import argparse, json, math
from fractions import Fraction
rows = [[Fraction(math.gcd(i, j) ** 2, i * j + 1) for j in range(1, 49)] for i in range(1, 49)]
v = [Fraction(1, k) for k in range(1, 49)]
json.dumps([str(sum((a * b for a, b in zip(r, v)), Fraction(0))) for r in rows])
"""
CALIBRATION_REF_S = 0.08
# Set-up and calibration samples per run, spread evenly over it.
SAMPLES = 16
# A run never outlasts this, whatever the program does.
HARD_LIMIT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class Overrun(BaseException):
    """The run reached HARD_LIMIT_S; raised from the alarm handler."""


def _on_alarm(signum, frame):
    raise Overrun


def load_pool() -> dict:
    with open(POOL) as fh:
        return json.load(fh)


def requests(pool: dict, workload: str, seed: int) -> list[dict]:
    """The seeded request list: one request drawn from each stratum, shuffled.

    pool.json cuts each workload's candidates into strata of similar cost, so
    every seed gives a list of about the same total cost.
    """
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(stratum) for stratum in pool["workloads"][workload]]
    rng.shuffle(picked)
    return picked


def child_env() -> dict:
    """The caller's environment, importing cuspidal from SRC and caching bytecode
    as an installed package does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], code: str = ENTRY) -> dict:
    """Run `python -c code argv...` in a fresh interpreter; time it from spawn to exit."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "stdout", OUT / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        cmd = [sys.executable, "-c", code, *argv]
        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, child_env(), file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        latency = time.perf_counter() - started
    return {
        "latency_s": latency,
        "code": os.waitstatus_to_exitcode(status),
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(errors="replace"),
        "rss_mb": usage.ru_maxrss / 1024,
    }


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


CALIBRATION_SHA256 = digest(b"")


def judge(code: int, stdout: bytes, stderr: str, expected_sha256: str) -> bool:
    """A request succeeds on exit 0, no traceback and the reference stdout."""
    return code == 0 and "Traceback" not in stderr and digest(stdout) == expected_sha256


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it,
    or the maximum when there are fewer than 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    """Commit, Python version, CPU count and src/ line count of this run."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "commit": commit or "unknown",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


class Tally:
    """Requests attempted and failed, and the first output of each request in
    the list, for a digest that does not depend on how many passes ran."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[int, str] = {}

    def check(
        self, expected_sha256: str, code: int, stdout: bytes, stderr: str, index: int | None = None
    ) -> bool:
        ok = judge(code, stdout, stderr, expected_sha256)
        self.attempted += 1
        self.failed += not ok
        if index is not None:
            self.outputs.setdefault(index, digest(stdout))
        return ok

    def digest(self) -> str:
        return digest("".join(self.outputs[i] for i in sorted(self.outputs)).encode())


def end_to_end(
    pool: dict, reqs: list[dict], seconds: float, tally: Tally
) -> tuple[dict, dict]:
    """Whole passes over the request list while the next would end within `seconds`.

    A request's latency is the median over its passes, so the number of
    latencies, and with it the tail percentile, is fixed by the workload.
    Set-up and calibration samples are spread evenly over the run and left out
    of the pass they interrupt.
    """
    spawn(SETUP_ARGV)  # writes the bytecode caches of a fresh checkout
    setup_times: list[float] = []
    calibration_times: list[float] = []
    samples: list[list[float]] = [[] for _ in reqs]
    walls: list[float] = []
    peak_rss = 0.0
    ok_count = 0
    started = time.perf_counter()
    next_sample = started
    while True:
        t0 = time.perf_counter()
        in_samples = 0.0
        for index, (req, latencies) in enumerate(zip(reqs, samples)):
            if time.perf_counter() >= next_sample:
                r = spawn(SETUP_ARGV)
                tally.check(pool["setup"]["sha256"], r["code"], r["stdout"], r["stderr"])
                setup_times.append(r["latency_s"])
                c = spawn([], CALIBRATION)
                tally.check(CALIBRATION_SHA256, c["code"], c["stdout"], c["stderr"])
                calibration_times.append(c["latency_s"])
                in_samples += r["latency_s"] + c["latency_s"]
                next_sample = time.perf_counter() + seconds / SAMPLES
            r = spawn(req["argv"])
            ok_count += tally.check(req["sha256"], r["code"], r["stdout"], r["stderr"], index)
            latencies.append(r["latency_s"])
            peak_rss = max(peak_rss, r["rss_mb"])
        walls.append(time.perf_counter() - t0 - in_samples)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            break
    per_request = [statistics.median(latencies) for latencies in samples]
    tail_s, tail_pct = tail(per_request)
    measured = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "request_p50_s": statistics.median(per_request),
        "request_tail_s": tail_s,
    }
    calibration_s = statistics.median(calibration_times)
    scale = CALIBRATION_REF_S / calibration_s
    metrics = {name: value * scale for name, value in measured.items()}
    metrics["peak_rss_mb"] = peak_rss
    metrics["success_rate"] = ok_count / (len(reqs) * len(walls))
    info = {
        "passes": len(walls),
        "requests": len(reqs),
        "samples": len(setup_times),
        "tail_percentile": tail_pct,
        "calibration_s": calibration_s,
        "measured": measured,
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cuspidal" / "cli.py").is_file():
        print(f"bench: no cuspidal sources under {SRC}", file=sys.stderr)
        return 2
    pool = load_pool()
    if args.workload not in pool["workloads"]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reqs = requests(pool, args.workload, args.seed)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    tally = Tally()
    try:
        if args.trace:
            import layers

            label = f"{args.workload}-seed{args.seed}"
            metrics, info = layers.traced_run(reqs, args.seconds, tally, SRC, OUT, label)
            units = layers.UNITS
        else:
            metrics, info = end_to_end(pool, reqs, args.seconds, tally)
            units = END_TO_END_UNITS
    except Overrun:
        print(f"bench: no result, the run passed {HARD_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    info.update(environment(), workload=args.workload, seed=args.seed, digest=tally.digest())
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
