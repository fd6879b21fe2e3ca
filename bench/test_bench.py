"""Self-tests of the benchmark: python3 -m pytest bench"""

from __future__ import annotations

import layers
import run

SMALL = [
    ["classify", "60", "--format", "json"],
    ["hecke", "12", "--p", "2", "--divisor", "1:1,12:-1", "--format", "json"],
    ["qexp", "60", "--M", "3", "--prec", "50", "--format", "json"],
    ["residues", "60", "--M", "3", "--format", "json"],
    ["sweep", "--max-N", "8", "--format", "json"],
]


def test_fixed_seed_gives_identical_argv_lists():
    pool = run.load_pool()
    for workload in pool["workloads"]:
        first = [r["argv"] for r in run.requests(pool, workload, 7)]
        assert first == [r["argv"] for r in run.requests(pool, workload, 7)]
        assert len(first) == len(pool["workloads"][workload])
    assert any(
        run.requests(pool, w, 7) != run.requests(pool, w, 8) for w in pool["workloads"]
    )


def test_reference_output_passes_and_corrupted_output_fails():
    expected = run.load_pool()["setup"]["sha256"]
    r = run.spawn(run.SETUP_ARGV)
    tally = run.Tally()
    assert tally.check(expected, r["code"], r["stdout"], r["stderr"])
    corrupted = r["stdout"].replace(b"1", b"2", 1)
    assert not tally.check(expected, r["code"], corrupted, r["stderr"])
    assert not tally.check(expected, r["code"], r["stdout"], "Traceback (most recent call last):")
    assert (tally.attempted, tally.failed) == (3, 2)


def test_request_exiting_1_fails():
    r = run.spawn(["classify", "0", "--format", "json"])
    assert r["code"] == 1
    assert not run.judge(r["code"], r["stdout"], r["stderr"], run.digest(r["stdout"]))


def test_traced_outputs_are_byte_identical_to_untraced():
    package = layers._import_package(run.SRC)
    tracer = layers.Tracer(package)
    main = tracer.modules["cli"].main
    untraced = []
    for argv in SMALL:
        tracer.clear_caches()
        untraced.append(layers.run_inprocess(main, argv))
    tracer.install()
    try:
        traced = []
        for argv in SMALL:
            tracer.clear_caches()
            traced.append(layers.run_inprocess(tracer.modules["cli"].main, argv))
    finally:
        tracer.uninstall()
    assert tracer.modules["cli"].main is main
    assert traced == untraced
    assert all(code == 0 for code, _, _ in traced)
    calls, _ = tracer.function_totals()
    assert {tracer.names[i].split(".")[0] for i, c in enumerate(calls) if c} == set(layers.LAYERS)
    for argv, (_, stdout, _) in zip(SMALL, untraced):
        assert run.spawn(argv)["stdout"] == stdout


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
