"""Tests of the benchmark itself: seeded inputs, tracer transparency, failure
counting and exact counts.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_library()

import probnorm  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from probnorm import distfn  # noqa: E402

COUNTS = (
    "triangle.mask_cells",
    "operators.vertices",
    "pnspace.band_evals",
    "distfn.levy_condition.calls_per_metric",
)


def _input_digest(name, seed, workdir):
    wl = workloads.build(name, seed, workdir)
    try:
        return worker.digest(workloads.input_texts(wl))
    finally:
        wl.close()


def _small(name, seed, workdir, step=9):
    """Every step-th query of pass 0: every kind of call, at a fraction of the cost."""
    wl = workloads.build(name, seed, workdir)
    return wl, workloads.Workload(wl.queries[::step])


def _traced(wl):
    tracer = tr.Tracer()
    tracer.install()
    try:
        run = worker.run_loop(wl, passes=1, tracer=tracer)
    finally:
        tracer.remove()
    return run, tracer.spans


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_other_seeds_differ(name, tmp_path):
    a = _input_digest(name, 5, tmp_path / "a")
    assert a == _input_digest(name, 5, tmp_path / "b")
    assert a != _input_digest(name, 6, tmp_path / "c")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracer_is_transparent_and_restores_bindings(name, tmp_path):
    full, wl = _small(name, 3, tmp_path)
    originals = {k: v for k, v in vars(probnorm.checks).items() if callable(v)}
    try:
        plain = worker.run_loop(wl, passes=1)
        traced, spans = _traced(wl)
    finally:
        full.close()
    assert spans
    assert worker.output_digest(plain, workloads.canon) == worker.output_digest(traced, workloads.canon)
    assert {k: v for k, v in vars(probnorm.checks).items() if callable(v)} == originals
    assert probnorm.levy_metric is distfn.levy_metric
    assert not hasattr(distfn.levy_condition, "__wrapped__")
    assert not hasattr(probnorm.PNSpace.prob_norm, "__wrapped__")


def test_tracer_sees_names_bound_by_import_and_globals():
    tracer = tr.Tracer()
    tracer.install()
    try:
        F = distfn.unit_step(1.0)
        probnorm.checks.levy_metric(F, distfn.unit_step(1.5))  # imported by name
        P = probnorm.single_band_space(probnorm.WeightedNorm("l1", (1.0, 2.0)))
        P.prob_norm([1.0, 1.0])  # class attribute
    finally:
        tracer.remove()
    names = [rec[tr.NAME] for rec in tracer.spans]
    assert "distfn.levy_metric" in names
    assert "distfn.levy_condition" in names  # reached through a module global
    assert "pnspace.PNSpace.prob_norm" in names
    parents = {tracer.spans[r[tr.PARENT]][tr.NAME] for r in tracer.spans if r[tr.NAME] == "distfn.levy_condition"}
    assert parents == {"distfn.levy_metric"}


def test_self_times_add_up_to_root_durations():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None, None],
        ["b", 1.0, 4.0, 0, 0, None, None],
        ["c", 2.0, 3.0, 1, 0, None, None],
        ["d", 5.0, 9.0, 0, 0, None, None],
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_injected_wrong_result_is_counted_as_failed(tmp_path):
    _, wl = _small("dfalg", 2, tmp_path)
    run = worker.run_loop(wl, passes=2)
    assert worker.check_run(run, workloads.canon)[0] == 0
    i = next(i for i, q in enumerate(run.queries) if q.label.startswith("qf_add"))
    run.results[i] = distfn.qf_scale(run.results[i], 2.0)
    failed, failures = worker.check_run(run, workloads.canon)
    assert failed == run.passes == 2
    assert [f["query"] for f in failures] == [run.queries[i].label]


def test_symmetric_but_wrong_pm_distance_is_counted_as_failed(tmp_path):
    _, wl = _small("space", 2, tmp_path, step=1)
    wl = workloads.Workload([q for q in wl.queries if q.label.startswith("pm_distance")][:4])
    run = worker.run_loop(wl, passes=1)
    assert worker.check_run(run, workloads.canon)[0] == 0
    P, p, q = wl.queries[0].args
    run.results[0] = P.prob_norm(p + q)  # nu_(p+q) is symmetric in p and q too
    failed, failures = worker.check_run(run, workloads.canon)
    assert failed == 1
    assert "nu_(p-q)" in failures[0]["problem"]


def test_result_that_changes_on_a_repeated_call_is_counted_as_failed():
    calls = []

    def drifting():
        calls.append(None)
        return 1.0 if len(calls) < 3 else 1.0 + 2.0**-52

    wl = workloads.Workload([workloads.Query("drift", drifting, (), lambda result: None)])
    run = worker.run_loop(wl, passes=4)
    failed, failures = worker.check_run(run, workloads.canon)
    assert failed == 2  # passes 2 and 3 differ from pass 0 in the last bit
    assert failures[0]["problem"] == "pass 2 differs from pass 0"


def test_segment_is_compared_with_the_checked_segments_hashes(tmp_path):
    _, wl = _small("dfalg", 2, tmp_path)
    run = worker.run_loop(wl, passes=2)
    hashes = worker.output_hashes(run, workloads.canon)
    assert worker.check_run(run, workloads.canon, hashes)[0] == 0
    wrong = [*hashes]
    wrong[1] = "0" * 64
    failed, failures = worker.check_run(run, workloads.canon, wrong)
    assert failed == 2
    assert failures[0]["index"] == 1
    hashes[2] = None  # the checked segment's result failed there
    assert worker.check_run(run, workloads.canon, hashes)[0] == 2


def test_injected_wrong_cli_output_is_counted_as_failed(tmp_path):
    full, wl = _small("cli", 2, tmp_path, step=5)
    try:
        run = worker.run_loop(wl, passes=1)
        assert worker.check_run(run, workloads.canon)[0] == 0
        code, out = run.results[0]
        run.results[0] = (code, out + " ")
        assert worker.check_run(run, workloads.canon)[0] == 1
    finally:
        full.close()


@pytest.mark.parametrize("name", ("dfalg", "space"))
def test_computed_counts_repeat_exactly(name, tmp_path):
    results = []
    for _ in range(2):
        full, wl = _small(name, 4, tmp_path)
        plain = worker.run_loop(wl, passes=1)
        traced, spans = _traced(wl)
        metrics = worker.per_layer(spans, [], traced, plain)
        results.append({k: metrics[k][0] for k in COUNTS})
    assert results[0] == results[1]
    layer = "triangle.mask_cells" if name == "dfalg" else "pnspace.band_evals"
    assert results[0][layer] > 0


@pytest.mark.parametrize("trace, kind", ((0, "end_to_end"), (1, "per_layer")))
def test_run_prints_every_metric_and_a_result_line(trace, kind):
    argv = ["--workload", "space", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[kind])


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_raising_query_is_counted_as_failed_in_every_pass():
    def boom():
        raise ValueError("injected")

    wl = workloads.Workload([workloads.Query("boom", boom, (), lambda result: None)])
    run = worker.run_loop(wl, passes=3)
    failed, failures = worker.check_run(run, workloads.canon)
    assert failed == 3
    assert "injected" in failures[0]["problem"]


def test_latencies_are_scaled_by_the_reference_times_around_them():
    ref = worker.REFERENCE_S
    run = worker.Run([None, None])
    run.starts = [[0.0, 0.1], [5.0, 5.1]]
    run.latencies = [[0.001, 0.003], [0.002, 0.006]]  # pass 1 ran at half speed
    run.reference = [(0.05, ref), (0.15, ref), (5.05, 2 * ref), (5.15, 2 * ref)]
    scaled = worker.scaled_latencies(run)
    assert scaled[0] == pytest.approx([0.001, 0.003], rel=1e-12)
    assert scaled[1] == pytest.approx([0.001, 0.003], rel=1e-12)
