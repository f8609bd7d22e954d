"""Run one probnorm benchmark workload and print its metrics.

    python3 bench/run.py --workload dfalg|space|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  An untraced run splits its
``--seconds`` into SEGMENTS equal loop segments, each in a fresh worker
process started after the last one ended.  Each worker's set-up, from
process start to its first query, is one sample of ``setup_s``, so the
samples are spread over the whole run.  The first segment's outputs are
checked; the later ones must match them bit for bit.  With ``--trace 1``
one worker runs the whole time and the per-layer metrics are printed
instead of the end-to-end ones.

The human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = BENCH / ".work"
WORKLOADS = ("dfalg", "space", "cli")
SEGMENTS = 8
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time (start to READY) and the rest of its stdout."""
    env = dict(os.environ, **SINGLE_THREAD)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return setup, rest


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "probnorm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(reports: list[dict], setups: list[float]) -> tuple[dict, dict, dict]:
    """Loop statistics over each query's median scaled latency.

    On a shared machine the speed of all code, the library's and the
    reference loop's alike, drifts by tens of percent over seconds to
    minutes.  The workers scale each latency by the reference loop's times
    around it (``worker.scaled_latencies``), and each segment's set-up time
    is scaled by that segment's median reference time, so the metrics read
    as if the machine ran at the nominal speed.  A query's latency is the
    median over all its executions in the run; ``setup_s`` is the median of
    the segments' scaled set-up times.  The unscaled figures are returned
    too, for the human-readable lines.
    """

    def loop(key, setup):
        lat = [statistics.median(t) for t in zip(*(row for r in reports for row in r[key]))]
        return {
            "queries_per_s": (len(lat) / math.fsum(lat), "1/s"),
            "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "query_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }, lat

    scaled_setups = [t * REFERENCE_S / r["reference_median"] for t, r in zip(setups, reports)]
    metrics, lat = loop("latencies", scaled_setups)
    raw, _ = loop("unscaled", setups)
    p90 = statistics.quantiles(lat, n=10)[-1]
    samples = {
        "passes": sum(len(r["latencies"]) for r in reports),
        "queries_per_pass": len(lat),
        "beyond_p90": sum(1 for t in lat if t > p90),
        "setup_runs": len(setups),
        "reference_loops": sum(r["reference_loops"] for r in reports),
    }
    return metrics, raw, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="probnorm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "probnorm" / "__init__.py").is_file():
        print(f"error: no probnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.perf_counter() + TIME_LIMIT_S
    segments = 1 if args.trace else SEGMENTS
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    base += ["--seconds", repr(args.seconds / segments)]
    expect = WORK / f"expect-{args.workload}-{os.getpid()}.json"
    setups, reports = [], []
    try:
        for k in range(segments):
            setup, out = _worker([*base, *(["--expect", str(expect)] if k else [])], deadline)
            setups.append(setup)
            reports.append(json.loads(out.strip().splitlines()[-1]))
            if k == 0 and segments > 1:
                WORK.mkdir(exist_ok=True)
                expect.write_text(json.dumps(reports[0]["output_hashes"]))
    finally:
        expect.unlink(missing_ok=True)

    first = reports[0]
    if args.trace:
        metrics = first["metrics"]
        samples = {
            "passes": first["passes"],
            "queries_per_pass": first["queries_per_pass"],
            "spans_in_first_pass": first["spans_in_first_pass"],
        }
    else:
        metrics, raw, samples = end_to_end(reports, setups)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    same_inputs = len({r["input_digest"] for r in reports}) == 1
    correct = failed == 0 and first["trace_transparent"] and same_inputs
    print(
        f"env python={sys.version.split()[0]} numpy={first['numpy']} nproc={len(os.sched_getaffinity(0))} "
        f"git={_git_sha()} src_sha256={_source_sha()}"
    )
    print(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"segments={segments} measured_s={sum(r['measured_s'] for r in reports):.3f}"
    )
    print(f"digest input={first['input_digest']} output={first['output_digest']}")
    if not same_inputs:
        print("segments built different inputs from the same seed")
    if args.trace:
        print(f"trace transparent={first['trace_transparent']}")
    print(f"samples {' '.join(f'{k}={v}' for k, v in samples.items())}")
    if not args.trace:
        print(f"setup_s of each segment, unscaled: {' '.join(f'{t:.4f}' for t in setups)}")
        refs = " ".join(f"{r['reference_median'] * 1e3:.4f}" for r in reports)
        print(f"reference loop median of each segment, ms: {refs} (nominal {REFERENCE_S * 1e3:.4f})")
        print(f"unscaled {' '.join(f'{name}={value:.6g}' for name, (value, _) in raw.items())}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} queries)")
    for f in failures:
        print(f"FAILED {f['query']}: {f['problem']} (x{f['executions']}; input sha256 {f['input_sha256']})")
        print(f"  input: {f['input']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
