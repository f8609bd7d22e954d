"""One loop segment of a workload in one process: set up, run, check, report.

    python3 bench/worker.py --workload dfalg --seed 1 --seconds 3 --trace 0

``bench/run.py`` starts this script, with BLAS pinned to one thread through
the environment.  It prints ``READY`` once set-up is done, then runs whole
passes for ``--seconds`` and prints one JSON line with the raw results.  One
client, one thread: the next query starts only after the previous one
returns.  Between queries, outside their timed intervals, the loop times
a fixed reference loop every REFERENCE_EVERY_S, which measures
how fast the machine runs at that moment; each latency is also reported
scaled by the reference times around it.  With ``--expect FILE`` the pass-0
results are compared with the per-query output hashes of an already checked
segment instead of being checked again.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
REFERENCE_EVERY_S = 0.02
REFERENCE_WINDOW_S = 0.3
# the reference loop's typical time on a 2-core shared VM (python 3.11,
# numpy 2.4); latencies are scaled to a machine on which it takes this long
REFERENCE_S = 0.5e-3
_REFERENCE_ARRAY = np.arange(8.0)


def reference_loop() -> float:
    """Fixed work that calls no library code.

    It mixes what the library's calls spend their time on: interpreted
    arithmetic, and numpy calls on small arrays.  On a shared machine the
    two slow down by different amounts, and the queries follow their
    mix more closely than either alone.
    """
    total = 0.0
    for i in range(3000):
        total += i * i % 7
    for i in range(60):
        total += float(np.maximum(_REFERENCE_ARRAY * i, 0.5).sum())
    return total


def import_library() -> None:
    """Import probnorm from this checkout's ``src/`` and refuse any other copy."""
    init = SRC / "probnorm" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"probnorm sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import probnorm

    if Path(probnorm.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported probnorm from {probnorm.__file__}, expected {init}")


class Run:
    """Per-pass latencies of one closed loop, with pass 0's results, any errors
    and the reference loop's times.

    The result of every later pass is compared with pass 0's, bit for bit,
    so a call that goes wrong only when repeated is counted as failed too.
    """

    def __init__(self, queries):
        self.queries = queries
        self.latencies: list[list[float]] = []  # seconds, one list per pass
        self.starts: list[list[float]] = []  # clock at each query's start, one list per pass
        self.pass_walls: list[float] = []  # without the reference loops
        self.wall = 0.0
        self.reference: list[tuple[float, float]] = []  # (clock at start, seconds) of each reference loop
        self.results: list = []  # pass 0's result of each query, or its error text
        self.pickles: list[bytes] = []  # the same, pickled
        self.errors: dict[int, tuple[int, str]] = {}  # query index -> (raising runs, first error)
        self.repeats: dict[int, tuple[int, int]] = {}  # query index -> (passes unlike pass 0, first one)

    @property
    def passes(self) -> int:
        return len(self.latencies)


def run_loop(workload, *, seconds=None, passes=None, tracer=None) -> Run:
    """Run whole passes until ``seconds`` have gone by, or exactly ``passes`` of them."""
    run = Run(workload.queries)
    clock = time.perf_counter
    start = next_reference = clock()
    while True:
        pass_start = clock()
        in_reference = 0.0
        latencies, starts = [], []
        for i, q in enumerate(run.queries):
            if tracer is not None:
                tracer.qid = run.passes * len(run.queries) + i
            error = None
            t0 = clock()
            starts.append(t0)
            try:
                result = q.call(*q.args)
            except Exception as e:  # a raising query counts as failed, the loop goes on
                error = f"{type(e).__name__}: {e}"
            latencies.append(clock() - t0)
            if error is not None:
                count, first = run.errors.get(i, (0, error))
                run.errors[i] = (count + 1, first)
                result = error
            if not run.latencies:
                run.results.append(result)
                run.pickles.append(pickle.dumps(result))
            elif error is None and differs(result, run.results[i], run.pickles[i]):
                count, first = run.repeats.get(i, (0, run.passes))
                run.repeats[i] = (count + 1, first)
            if clock() >= next_reference:
                r0 = clock()
                reference_loop()
                r1 = clock()
                run.reference.append((r0, r1 - r0))
                in_reference += r1 - r0
                next_reference = r1 + REFERENCE_EVERY_S
        run.latencies.append(latencies)
        run.starts.append(starts)
        run.pass_walls.append(clock() - pass_start - in_reference)
        if passes is not None:
            if run.passes >= passes:
                break
        elif clock() - start >= seconds:
            break
    run.wall = math.fsum(run.pass_walls)
    return run


def scaled_latencies(run: Run) -> list[list[float]]:
    """Each latency times REFERENCE_S over the median time of the reference
    loops that started within REFERENCE_WINDOW_S of the query's start.

    The machine's speed drifts within seconds, and the reference loop slows
    down with the library's code, so the scaled latency reads as if the
    machine ran at the nominal speed throughout.
    """
    at = [t for t, _ in run.reference]
    took = [d for _, d in run.reference]
    scaled = []
    for starts, latencies in zip(run.starts, run.latencies):
        row = []
        for start, latency in zip(starts, latencies):
            lo = min(bisect.bisect_left(at, start - REFERENCE_WINDOW_S), len(at) - 1)
            hi = max(bisect.bisect_right(at, start + REFERENCE_WINDOW_S), lo + 1)
            row.append(latency * REFERENCE_S / statistics.median(took[lo:hi]))
        scaled.append(row)
    return scaled


def differs(result, first, first_pickle: bytes) -> bool:
    """Whether a repeated call's result differs from pass 0's, bit for bit.

    Pickles are compared first because that is cheap.  Equal results can
    still pickle differently when they share sub-objects differently, so a
    mismatch is confirmed on the full-precision text.
    """
    import workloads

    return pickle.dumps(result) != first_pickle and workloads.canon(result) != workloads.canon(first)


def output_hashes(run: Run, canon) -> list[str]:
    return [hashlib.sha256(canon(r).encode()).hexdigest() for r in run.results]


def check_run(run: Run, canon, expected: list | None = None) -> tuple[int, list[dict]]:
    """Check each query's pass-0 result; a wrong result counts in every pass.

    With ``expected`` (per-query output hashes of a checked segment, None
    where that segment's result failed) the result is compared with it
    instead of being checked.  A pass whose result differs from pass 0's
    counts as failed.
    """
    failed, failures = 0, []
    hashes = output_hashes(run, canon) if expected is not None else None
    for i, q in enumerate(run.queries):
        if i in run.errors:
            executions, problem = run.errors[i]
        else:
            executions = run.passes
            if expected is None:
                try:
                    problem = q.check(*q.args, run.results[i])
                except Exception as e:  # a check that raises is a failed check
                    problem = f"check raised {type(e).__name__}: {e}"
            elif expected[i] is None:
                problem = "failed in the checked segment"
            else:
                problem = None if hashes[i] == expected[i] else "differs from the checked segment's result"
            if not problem and i in run.repeats:
                executions, first = run.repeats[i]
                problem = f"pass {first} differs from pass 0"
        if problem:
            failed += executions
            text = canon(q.args)
            failures.append(
                {
                    "query": q.label,
                    "index": i,
                    "problem": problem,
                    "executions": executions,
                    "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "input": text[:400],
                }
            )
    return failed, failures


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def output_digest(run: Run, canon) -> str:
    return digest(f"{q.label}={canon(r)}" for q, r in zip(run.queries, run.results))


def per_layer(spans, setup_spans, traced: Run, untraced: Run) -> dict:
    """Per-layer metrics from the traced run's spans, per pass of the schedule."""
    from probnorm import operators

    import tracer as tr

    selfs = tr.self_times(spans)
    self_by, calls = defaultdict(float), Counter()
    for rec, s in zip(spans, selfs):
        name = rec[tr.NAME]
        if name.startswith("triangle."):
            self_by[f"{name}.{rec[tr.ARGS][0].name}"] += s
        self_by[name] += s
        calls[name] += 1

    cands = bp_out = mask = band_evals = vertices = 0
    cond_in_metric = 0
    mc_ratios = []
    for rec in spans:
        name, args = rec[tr.NAME], rec[tr.ARGS]
        if name.startswith("triangle."):
            _, F, G = args
            n, m = len(F.breakpoints), len(G.breakpoints)
            distinct = len(np.unique(np.add.outer(F.breakpoints, G.breakpoints)))
            cands += n * m
            bp_out += len(rec[tr.OUT].breakpoints)
            mask += (n + 1) * (m + 1) * (distinct + 1)
        elif name == "pnspace.PNSpace.prob_norm":
            P = args[0]
            band_evals += len(P.family.bands) * P.dimension
        elif name == "operators.operator_norm_exact":
            T, w = args[0], args[1]
            vertices += _vertex_count(T.domain.family.bands[T.domain.family.band_index_left(w)].norm)
        elif name == "operators.norm_profile":
            T = args[0]
            per_dom = sum(_vertex_count(b.norm) for b in T.domain.family.bands)
            vertices += per_dom * len(T.codomain.family.bands)
        elif name == "operators.operator_norm_mc":
            T, w, wp = args[:3]
            mc_ratios.append(rec[tr.OUT] / operators.operator_norm_exact(T, w, wp))
        elif name == "distfn.levy_condition" and rec[tr.PARENT] >= 0:
            cond_in_metric += spans[rec[tr.PARENT]][tr.NAME] == "distfn.levy_metric"

    per = 1.0 / traced.passes
    traced_wall = traced.wall
    out = {}

    def sec(metric, *names):
        out[metric] = (sum(self_by[n] for n in names) * per, "s")

    sec("distfn.levy_metric.self_s", "distfn.levy_metric")
    sec("distfn.levy_condition.self_s", "distfn.levy_condition")
    levy = calls["distfn.levy_metric"]
    out["distfn.levy_condition.calls_per_metric"] = (cond_in_metric / levy if levy else 0.0, "count")
    sec("distfn.quasi_inverse.self_s", "distfn.quasi_inverse")
    sec("distfn.qf_add.self_s", "distfn.qf_add")
    for kind in ("tau_sup_conv", "tau_inf_conv"):
        sec(f"triangle.{kind}.self_s", f"triangle.{kind}")
        for T in ("W", "PROD", "MIN"):
            sec(f"triangle.{kind}.{T}.self_s", f"triangle.{kind}.{T}")
    out["triangle.candidate_sums"] = (cands * per, "count")
    out["triangle.bp_out"] = (bp_out * per, "count")
    out["triangle.bp_out_per_candidate"] = (bp_out / cands if cands else 0.0, "ratio")
    out["triangle.mask_cells"] = (mask * per, "count")
    sec("pnspace.prob_norm.self_s", "pnspace.PNSpace.prob_norm")
    out["pnspace.prob_norm.calls"] = (calls["pnspace.PNSpace.prob_norm"] * per, "count")
    out["pnspace.band_evals"] = (band_evals * per, "count")
    sec("pnspace.norm_at.self_s", "pnspace.PNSpace.norm_at")
    setup_self = tr.self_times(setup_spans)
    out["pnspace.SeminormFamily.init_s"] = (
        math.fsum(s for rec, s in zip(setup_spans, setup_self) if rec[tr.NAME] == "pnspace.SeminormFamily.__post_init__"),
        "s",
    )
    sec("pnspace.validate_pn_axioms.self_s", "pnspace.validate_pn_axioms")
    sec("operators.operator_norm_exact.self_s", "operators.operator_norm_exact")
    out["operators.vertices"] = (vertices * per, "count")
    sec("operators.norm_profile.self_s", "operators.norm_profile")
    sec("operators.operator_norm_mc.self_s", "operators.operator_norm_mc")
    out["operators.mc_ratio"] = (statistics.fmean(mc_ratios) if mc_ratios else 0.0, "ratio")
    sec("cli.main.self_s", "cli.main")
    sec("serialize.from_json.self_s", *(n for n in self_by if n.startswith("serialize.") and n.endswith("_from_json")))
    sec("serialize.to_json.self_s", *(n for n in self_by if n.startswith("serialize.") and n.endswith("_to_json")))
    sec("checks.run_suites.self_s", "checks.run_suites")
    sec("testkit.oracle.self_s", *(n for n in self_by if n.startswith("testkit.oracle_")))

    layer_self = defaultdict(float)
    for rec, s in zip(spans, selfs):
        layer_self[tr.layer_of(rec[tr.NAME])] += s
    for layer in dict.fromkeys(tr.layer_of(name) for name in tr.ENTRY_POINTS):
        out[f"share.{layer}"] = (layer_self[layer] / traced_wall, "frac")
    out["unattributed_s"] = ((traced_wall - sum(layer_self.values())) * per, "s")
    out["traced_wall_s"] = (traced_wall * per, "s")
    # pass 0 of the untraced run also pays first-call costs, so it is left out
    skip = 1 if traced.passes > 1 else 0
    overhead = math.fsum(traced.pass_walls[skip:]) / math.fsum(untraced.pass_walls[skip:]) - 1.0
    out["trace_overhead_frac"] = (overhead, "frac")
    return out


def _vertex_count(norm) -> int:
    from probnorm.pnspace import NormKind

    n = norm.dimension
    return 2 * n if norm.kind is NormKind.L1 else 2**n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expect", type=Path)
    args = parser.parse_args(argv)

    import_library()

    import tracer as tr
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tr.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up is traced only for pnspace.SeminormFamily.init_s
    workload = workloads.build(args.workload, args.seed, workdir)
    try:
        setup_spans = []
        if tracer is not None:
            tracer.remove()
            setup_spans = tracer.spans
            tracer.reset()
        print("READY", flush=True)

        report = {}
        if tracer is None:
            run = run_loop(workload, seconds=args.seconds)
            report["latencies"] = scaled_latencies(run)
            report["unscaled"] = run.latencies
            report["reference_median"] = statistics.median(d for _, d in run.reference)
            report["reference_loops"] = len(run.reference)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            runs = [run]
        else:
            # the untraced half measures the overhead; the traced half replays its passes
            run = run_loop(workload, seconds=args.seconds / 2)
            tracer.install()
            try:
                traced = run_loop(workload, passes=run.passes, tracer=tracer)
            finally:
                tracer.remove()
            report["metrics"] = per_layer(tracer.spans, setup_spans, traced, run)
            # the first pass's spans go to disk; all passes repeat its calls
            first = [rec for rec in tracer.spans if rec[tr.QID] < len(run.queries)]
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            WORK.mkdir(exist_ok=True)
            tr.write_spans(first, spans_path)
            report["spans_in_first_pass"] = len(first)
            runs = [run, traced]

        expected = json.loads(args.expect.read_text()) if args.expect else None
        failed, failures = 0, []
        for r in runs:
            f, fs = check_run(r, workloads.canon, expected)
            failed += f
            failures += fs
        digests = [output_digest(r, workloads.canon) for r in runs]
        hashes = output_hashes(runs[0], workloads.canon)
        bad = {f["index"] for f in failures}
        report.update(
            {
                "passes": sum(r.passes for r in runs),
                "queries_per_pass": len(workload.queries),
                "attempted": sum(r.passes * len(r.queries) for r in runs),
                "failed": failed,
                "failures": failures,
                "measured_s": sum(r.wall for r in runs),
                "input_digest": digest(workloads.input_texts(workload)),
                "output_digest": digests[0],
                "trace_transparent": len(set(digests)) == 1,
                "output_hashes": [None if i in bad else h for i, h in enumerate(hashes)],
                "numpy": np.__version__,
            }
        )
        print(json.dumps(report))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
