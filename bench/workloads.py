"""Seeded inputs, query schedules and output checks of the three workloads.

Inputs are drawn with numpy's RNG from the run seed, never with
``probnorm.testkit``'s generators, so a change to the library cannot change a
workload.  Each workload is a closed loop over *passes*.  A pass is a fixed
schedule of query kinds and sizes, the same for every seed; the seed draws
only the values, and every pass repeats them.  A fixed schedule keeps the
size mix, and with it the latency quantiles, steady from seed to seed.

A query's ``check(*args, result)`` returns ``None`` when the result is right
and a message otherwise.  Checks run after the timed loop.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from probnorm import checks, cli, distfn, operators, pnspace, serialize, testkit, triangle
from probnorm.distfn import StepDF
from probnorm.operators import LinearOperator
from probnorm.pnspace import Band, BlockSumNorm, NormKind, PNSpace, SeminormFamily, WeightedNorm
from probnorm.triangle import TNormKind

WORKLOADS = ("dfalg", "space", "cli")


class Query(NamedTuple):
    label: str
    call: Callable
    args: tuple
    check: Callable


class Workload:
    """The queries of one pass, and the directory of any input files they read."""

    def __init__(self, queries: list[Query], workdir: Path | None = None):
        self.queries = queries
        self._workdir = workdir

    def close(self) -> None:
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "dfalg":
        return _dfalg(seed)
    if name == "space":
        return _space(seed)
    if name == "cli":
        return _cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _rng(name: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(name), *key])


def canon(obj) -> str:
    """Full-precision text of a result or input, for the digests."""
    if isinstance(obj, np.ndarray):
        return repr(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(canon(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (tuple, list)):
        if all(type(v) is float for v in obj):
            return repr(tuple(obj))
        return "(" + ",".join(canon(v) for v in obj) + ")"
    if isinstance(obj, np.floating):
        return repr(float(obj))
    return repr(obj)


# ---------------------------------------------------------------------------
# dfalg: step d.f. algebra on pairs of 8-128 breakpoints

DF_SIZES = (8, 16, 32, 64, 128)
CONTINUOUS_MAX_CANDIDATES = 64 * 64  # caps the O(n^2 m^2) cost of one pass
DF_SPAN = 10.0
LATTICE_STEP = 0.0625  # dyadic, so equal lattice sums are equal floats
MIN_GAP = 0.01  # continuous breakpoints stay resolvable by the oracle's 1e-4 grid
ORACLE_MARGIN = 2e-3  # oracle abscissae keep this far from every breakpoint sum
ORACLE_EVERY = 3  # the convolution oracle runs on every third pair
IMPROPER_EVERY = 4  # every fourth pair has an improper second d.f.


def _stepdf(rng, n: int, lattice: bool, proper: bool) -> StepDF:
    if lattice:
        slots = rng.choice(np.arange(1, int(DF_SPAN / LATTICE_STEP) + 1), n, replace=False)
        bps = np.sort(slots) * LATTICE_STEP
    else:
        gaps = rng.uniform(0.0, 1.0, n)
        bps = np.cumsum(MIN_GAP + gaps * ((DF_SPAN - n * MIN_GAP) / gaps.sum()))
    vals = np.sort(rng.uniform(0.0, 1.0, n))
    if proper:
        vals[-1] = 1.0
    else:
        vals *= 0.9
    return StepDF(bps.tolist(), [0.0, *vals.tolist()])


def _tau_sup(T, F, G):
    return triangle.tau_sup_conv(T, F, G)


def _tau_inf(T, F, G):
    return triangle.tau_inf_conv(T, F, G)


def _levy(F, G):
    return distfn.levy_metric(F, G)


def _hat_sum(F, G):
    return distfn.qf_add(distfn.quasi_inverse(F), distfn.quasi_inverse(G))


def _oracle_xs(F: StepDF, G: StepDF, seed: int, count: int) -> list[float]:
    """Abscissae at least ORACLE_MARGIN away from every breakpoint sum."""
    cands = np.unique(np.add.outer(F.breakpoints, G.breakpoints))
    edges = np.concatenate(([0.0], cands, [cands[-1] + 0.5]))
    wide = np.flatnonzero(np.diff(edges) > 2.0 * ORACLE_MARGIN)
    rng = np.random.default_rng(seed)
    xs = []
    for i in rng.choice(wide, size=min(count, len(wide)), replace=False):
        lo, hi = edges[i] + ORACLE_MARGIN, edges[i + 1] - ORACLE_MARGIN
        xs.append(float(rng.uniform(lo, hi)))
    return xs


def _check_conv(T, F, G, result, *, sup: bool, oracle_seed: int | None):
    if sup and T is TNormKind.MIN:
        hat = distfn.quasi_inverse(result)
        if hat != distfn.qf_add(distfn.quasi_inverse(F), distfn.quasi_inverse(G)):
            return "hat additivity for tau_M fails"
    if oracle_seed is None:
        return None
    oracle = testkit.oracle_sup_conv if sup else testkit.oracle_inf_conv
    for x in _oracle_xs(F, G, oracle_seed, 2):
        got, want = distfn.df_eval(result, x), oracle(T, F, G, x)
        # 1e-12 rather than bitwise: the oracle's textbook t-norm formulas
        # round differently at boundary arguments
        if abs(got - want) > 1e-12:
            return f"differs from the grid oracle at x = {x!r}: {got!r} vs {want!r}"
    return None


def _check_levy(F, G, result):
    want = testkit.oracle_levy(F, G)
    # the oracle grid is 1e-5; the bisection bracket adds LEVY_TOL
    if abs(result.value - want) > testkit.LEVY_GRID + 1.1 * distfn.LEVY_TOL:
        return f"levy {result.value!r} vs grid oracle {want!r}"
    return None


def _hat_at(F: StepDF, w: float) -> float:
    # quasi-inverse by linear scan: first breakpoint whose value reaches w
    for b, v in zip(F.breakpoints, F.values[1:]):
        if v >= w:
            return b
    return math.inf


def _check_hat_sum(F, G, result):
    ws = sorted(set(F.values[1:]) | set(G.values[1:]) | {1.0})
    for w in ws:
        if w <= 0.0:
            continue
        got, want = distfn.qf_eval(result, w), _hat_at(F, w) + _hat_at(G, w)
        if got != want:
            return f"hat sum at w = {w!r}: {got!r} vs {want!r}"
    return None


def _dfalg(seed: int) -> Workload:
    rng = _rng("dfalg", seed)
    shapes = [
        (lattice, n, m)
        for lattice in (True, False)
        for i, n in enumerate(DF_SIZES)
        for m in DF_SIZES[i:]
        if lattice or n * m <= CONTINUOUS_MAX_CANDIDATES
    ]
    queries = []
    for k, (lattice, n, m) in enumerate(shapes):
        F = _stepdf(rng, n, lattice, proper=True)
        G = _stepdf(rng, m, lattice, proper=k % IMPROPER_EVERY != IMPROPER_EVERY - 1)
        tag = f"{'lattice' if lattice else 'continuous'} {n}x{m}"
        oracle_seed = int(rng.integers(2**31)) if k % ORACLE_EVERY == 0 else None
        for sup, call in ((True, _tau_sup), (False, _tau_inf)):
            name = "tau_sup_conv" if sup else "tau_inf_conv"
            check = functools.partial(_check_conv, sup=sup, oracle_seed=oracle_seed)
            for T in TNormKind:
                queries.append(Query(f"{name}.{T.name} {tag}", call, (T, F, G), check))
        queries.append(Query(f"levy_metric {tag}", _levy, (F, G), _check_levy))
        queries.append(Query(f"qf_add(hats) {tag}", _hat_sum, (F, G), _check_hat_sum))
    return Workload(queries)


# ---------------------------------------------------------------------------
# space: PN-space and operator queries

SPACE_COUNT = 28
SPACE_BANDS = (16, 1024)  # band counts run geometrically between these
SPACE_DIMS = (2, 4, 8, 16)
BAND_GRID = 4096  # band ends are multiples of 1/BAND_GRID, exact dyadic floats
SPACE_KINDS = ("l1", "linf", "product")
NONMONOTONE = ((64, 4, "l1"), (256, 8, "linf"))  # diagnostic prob_norm path
OP_BANDS = 4
L1_OPS = ((4, 3), (8, 8), (16, 4), (16, 16))  # (n, m): 2n vertices
LINF_OPS = ((6, 4), (8, 8), (10, 3), (11, 5), (12, 6), (13, 3), (14, 4))  # (n, m): 2^n vertices
PROFILE_OPS = (("l1", 8, 6), ("linf", 4, 4), ("linf", 6, 8), ("linf", 8, 3))  # 8x8 bands
MC_SAMPLES = 3000


def _uptos(rng, bands: int) -> list[float]:
    cuts = np.sort(rng.choice(np.arange(1, BAND_GRID), bands - 1, replace=False)) / BAND_GRID
    return [*cuts.tolist(), 1.0]


def _family(rng, bands: int, n: int, kind: str, monotone: bool = True) -> SeminormFamily:
    weights = rng.uniform(0.5, 2.0, n)
    out = []
    for u in _uptos(rng, bands):
        out.append(Band(u, WeightedNorm(kind, weights.tolist())))
        if monotone:
            weights = weights * rng.uniform(1.0, 1.004, n)
        else:
            weights = rng.uniform(0.5, 2.0, n)
    return SeminormFamily(n, tuple(out), enforce_monotone=monotone)


def _space_of(rng, bands: int, n: int, kind: str) -> PNSpace:
    if kind != "product":
        return PNSpace(_family(rng, bands, n, kind))
    half = max(1, n // 2)
    P = PNSpace(_family(rng, bands // 2, half, "l1"))
    Q = PNSpace(_family(rng, bands // 2, n - half, "linf"))
    return pnspace.product_space(P, Q)


def _norm_value(norm, x) -> float:
    """Plain-Python twin of the band norms' eval, independent of numpy's reductions."""
    if isinstance(norm, BlockSumNorm):
        total, off = 0.0, 0
        for part, d in zip(norm.parts, norm.dims):
            total += _norm_value(part, x[off : off + d])
            off += d
        return total
    terms = [w * abs(float(v)) for w, v in zip(norm.weights, x)]
    return sum(terms) if norm.kind is NormKind.L1 else max(terms)


def _band_at(P: PNSpace, w: float):
    # w is a band midpoint, so it lies strictly inside exactly one band
    for band, start in zip(P.family.bands, P.family.starts()):
        if start < w < band.upto:
            return band.norm
    raise ValueError(f"{w!r} is not inside a band")


def _is_monotone(P: PNSpace) -> bool:
    return P.family.monotone_report()[0]


def _prob_norm(P, x):
    return P.prob_norm(x)


def _norm_at(P, x, w):
    return P.norm_at(x, w)


def _pm_distance(P, p, q):
    return P.pm_distance(p, q)


def _neighborhood(P, p, t, q):
    return P.neighborhood_contains(p, t, q)


def _in_ball(P, c, r, w, x):
    return P.in_ball(c, r, w, x)


def _check_prob_norm(P, x, result):
    values = [_norm_value(b.norm, x) for b in P.family.bands]
    if _is_monotone(P):
        hat = distfn.quasi_inverse(result)
        for w, v in zip(P.family.midpoints(), values):
            got = distfn.qf_eval(hat, w)
            # the twin sums in another order than numpy, so allow rounding
            if abs(got - v) > 1e-12 * (1.0 + v):
                return f"quantile at w = {w!r} is {got!r}, band norm {v!r}"
        return None
    lengths = [u - s for s, u in zip(P.family.starts(), P.family.uptos)]
    for c in sorted(set(values)):
        got = testkit.scan_eval(result.breakpoints, result.values, math.nextafter(c, math.inf))
        want = sum(l for v, l in zip(values, lengths) if v <= c)
        if abs(got - want) > 1e-12 and not (c == max(values) and got == 1.0):
            return f"measure below {c!r}: {got!r} vs {want!r}"
    return None


def _check_norm_at(P, x, w, result):
    if _is_monotone(P):
        want = distfn.qf_eval(distfn.quasi_inverse(P.prob_norm(x)), w)
        if result != want:
            return f"norm_at {result!r} vs quantile of nu_x {want!r}"
    want = _norm_value(_band_at(P, w), x)
    if abs(result - want) > 1e-12 * (1.0 + want):
        return f"norm_at {result!r} vs band norm {want!r}"
    return None


def _check_pm_distance(P, p, q, result):
    problem = _check_prob_norm(P, np.asarray(p) - np.asarray(q), result)
    if problem:
        return f"as nu_(p-q): {problem}"
    if result != P.pm_distance(q, p):
        return "pm_distance is not symmetric"
    return None


def _check_neighborhood(P, p, t, q, result):
    nu = P.prob_norm(np.asarray(p) - np.asarray(q))
    want = testkit.scan_eval(nu.breakpoints, nu.values, t) > 1.0 - t
    return None if result == want else f"membership {result!r}, scan says {want!r}"


def _check_in_ball(P, c, r, w, x, result):
    want = _norm_value(_band_at(P, w), np.asarray(x) - np.asarray(c)) < r
    return None if result == want else f"in_ball {result!r}, direct norm says {want!r}"


def _op_norm(T, w, wp):
    return operators.operator_norm_exact(T, w, wp)


def _op_profile(T):
    return operators.norm_profile(T)


def _op_mc(T, w, wp, seed):
    return operators.operator_norm_mc(T, w, wp, MC_SAMPLES, seed)


def _best_column(T: LinearOperator, dom: WeightedNorm, cod) -> float:
    # L1 unit-ball vertices are +-e_j / w_j, so the norm is the best column
    return max(_norm_value(cod, T.matrix[:, j] / wj) for j, wj in enumerate(dom.weights))


def _mc_bound(T, w, wp) -> float:
    return operators.operator_norm_mc(T, w, wp, 500, 7)


def _check_op_norm(T, w, wp, result):
    dom, cod = _band_at(T.domain, w), _band_at(T.codomain, wp)
    if dom.kind is NormKind.L1:
        want = _best_column(T, dom, cod)
        if abs(result - want) > 1e-12 * want:
            return f"L1-domain norm {result!r} vs best column {want!r}"
    if _mc_bound(T, w, wp) > result:
        return "Monte-Carlo bound exceeds the exact norm"
    return None


def _check_profile(T, result):
    table = result.table
    if not np.all(np.isfinite(table)):
        return "non-finite profile entry"
    if np.any(np.diff(table, axis=0) > 1e-12) or np.any(np.diff(table, axis=1) < -1e-12):
        return "profile is not monotone in the band indices"
    for i, db in enumerate(T.domain.family.bands):
        if db.norm.kind is not NormKind.L1:
            continue
        for j, cb in enumerate(T.codomain.family.bands):
            want = _best_column(T, db.norm, cb.norm)
            if abs(table[i, j] - want) > 1e-12 * want:
                return f"profile[{i}, {j}] {table[i, j]!r} vs best column {want!r}"
    return None


def _check_mc(T, w, wp, seed, result):
    exact = operators.operator_norm_exact(T, w, wp)
    return None if result <= exact else f"MC bound {result!r} exceeds exact norm {exact!r}"


def _operator(rng, n: int, m: int, dom_kind: str, cod_kind: str, bands: int) -> LinearOperator:
    dom = PNSpace(_family(rng, bands, n, dom_kind))
    cod = _space_of(rng, bands, m, cod_kind)
    return LinearOperator(rng.uniform(-2.0, 2.0, (cod.dimension, n)), dom, cod)


def _midpoint(rng, P: PNSpace) -> float:
    mids = P.family.midpoints()
    return mids[int(rng.integers(len(mids)))]


def _space_queries(rng, P: PNSpace, tag: str) -> list[Query]:
    n = P.dimension
    p, q, x, c = (rng.uniform(-3.0, 3.0, n) for _ in range(4))
    w = _midpoint(rng, P)
    r = _norm_value(_band_at(P, w), x - c) * float(rng.choice((0.8, 1.25)))
    t = float(rng.uniform(0.5, 12.0))
    return [
        Query(f"prob_norm {tag}", _prob_norm, (P, x), _check_prob_norm),
        Query(f"norm_at {tag}", _norm_at, (P, x, w), _check_norm_at),
        Query(f"pm_distance {tag}", _pm_distance, (P, p, q), _check_pm_distance),
        Query(f"neighborhood_contains {tag}", _neighborhood, (P, p, t, q), _check_neighborhood),
        Query(f"in_ball {tag}", _in_ball, (P, c, r, w, x), _check_in_ball),
    ]


def _space(seed: int) -> Workload:
    rng = _rng("space", seed)
    queries = []
    # geometric band counts: a smooth cost mix keeps p50 and p90 off the
    # edge between two size classes
    lo, hi = SPACE_BANDS
    for i in range(SPACE_COUNT):
        bands = round(lo * (hi / lo) ** (i / (SPACE_COUNT - 1)))
        n = SPACE_DIMS[i % len(SPACE_DIMS)]
        kind = SPACE_KINDS[i % len(SPACE_KINDS)]
        queries += _space_queries(rng, _space_of(rng, bands, n, kind), f"{kind} {bands}b n={n}")
    for bands, n, kind in NONMONOTONE:
        P = PNSpace(_family(rng, bands, n, kind, monotone=False))
        queries += _space_queries(rng, P, f"non-monotone {kind} {bands}b n={n}")
    for dom_kind, shapes in (("l1", L1_OPS), ("linf", LINF_OPS)):
        for i, (n, m) in enumerate(shapes):
            T = _operator(rng, n, m, dom_kind, SPACE_KINDS[i % len(SPACE_KINDS)], OP_BANDS)
            w, wp = _midpoint(rng, T.domain), _midpoint(rng, T.codomain)
            tag = f"{dom_kind} n={n} m={T.codomain.dimension}"
            queries.append(Query(f"operator_norm_exact {tag}", _op_norm, (T, w, wp), _check_op_norm))
            mc_seed = int(rng.integers(2**31))
            queries.append(Query(f"operator_norm_mc {tag}", _op_mc, (T, w, wp, mc_seed), _check_mc))
    for i, (dom_kind, n, m) in enumerate(PROFILE_OPS):
        T = _operator(rng, n, m, dom_kind, SPACE_KINDS[i % 2], 8)
        queries.append(Query(f"norm_profile {dom_kind} n={n} m={m}", _op_profile, (T,), _check_profile))
    return Workload(queries)


# ---------------------------------------------------------------------------
# cli: many tiny inputs through probnorm.cli.main, stdout captured

CLI_COMMANDS = (
    "df-eval", "df-conv", "df-levy", "df-qinv", "space-nu", "space-norm", "op-norm", "op-profile", "op-delta",
)  # every subcommand but check
CLI_FILES = 6  # of each kind: d.f.s, spaces, operators
CLI_PER_COMMAND = 10  # instances of each non-check subcommand per pass
CLI_CHECK_CASES = (1, 2)
CLI_CHECKS_PER_SUITE = 6  # a fifth of the queries: p90 falls inside the spread of check costs


def _cli_call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, buf.getvalue()


def _df_json(rng) -> dict:
    nb = int(rng.integers(1, 6))
    bps = np.sort(rng.choice(np.arange(1, 49), nb, replace=False)) / 16.0
    vals = np.sort(rng.uniform(0.05, 1.0, nb))
    if rng.random() < 0.75:
        vals[-1] = 1.0
    return {"breakpoints": bps.tolist(), "values": [0.0, *vals.tolist()]}


def _space_json(rng, n: int) -> dict:
    nbands = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.arange(1, 16), nbands - 1, replace=False)) / 16.0
    kind = "l1" if rng.random() < 0.5 else "linf"
    weights = rng.uniform(0.5, 2.0, n)
    bands = []
    for u in [*cuts.tolist(), 1.0]:
        bands.append({"upto": u, "kind": kind, "weights": weights.tolist()})
        weights = weights * rng.uniform(1.0, 1.5, n)
    return {"dimension": n, "bands": bands}


def _op_json(rng, square: bool) -> dict:
    n = int(rng.integers(1, 5))
    m = n if square else int(rng.integers(1, 5))
    while True:
        matrix = rng.uniform(-2.0, 2.0, (m, n))
        if not square or np.linalg.cond(matrix) < 1e4:
            break
    return {"matrix": matrix.tolist(), "domain": _space_json(rng, n), "codomain": _space_json(rng, m)}


def _emit(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _expected_stdout(argv) -> str:
    """The library's own result for a CLI call, encoded through serialize."""
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd == "df-eval":
        F = serialize.stepdf_from_json(_load(opts["--f"]))
        return _emit({"value": distfn.df_eval(F, float(opts["--x"]))})
    if cmd == "df-conv":
        F = serialize.stepdf_from_json(_load(opts["--f"]))
        G = serialize.stepdf_from_json(_load(opts["--g"]))
        conv = triangle.tau_inf_conv if opts["--kind"] == "inf" else triangle.tau_sup_conv
        return _emit(serialize.stepdf_to_json(conv(serialize.tnorm_from_json(opts["--tnorm"]), F, G)))
    if cmd == "df-levy":
        F = serialize.stepdf_from_json(_load(opts["--f"]))
        G = serialize.stepdf_from_json(_load(opts["--g"]))
        d = distfn.levy_metric(F, G)
        return _emit({"value": d.value, "tolerance": d.tolerance})
    if cmd == "df-qinv":
        F = serialize.stepdf_from_json(_load(opts["--f"]))
        return _emit(serialize.quantile_to_json(distfn.quasi_inverse(F)))
    if cmd in ("space-nu", "space-norm"):
        P = serialize.space_from_json(_load(opts["--space"]))
        x = json.loads(opts["--x"])
        if cmd == "space-nu":
            return _emit(serialize.stepdf_to_json(P.prob_norm(x)))
        return _emit({"value": P.norm_at(x, float(opts["--w"]))})
    T = serialize.operator_from_json(_load(opts["--op"]))
    if cmd == "op-norm":
        return _emit({"value": operators.operator_norm_exact(T, float(opts["--w"]), float(opts["--wp"]))})
    if cmd == "op-delta":
        res = operators.open_mapping_delta(T, float(opts["--w"]))
        return _emit({"delta": res.delta, "condition_number": res.condition_number})
    prof = operators.norm_profile(T)
    if "--csv" in argv:
        return prof.to_csv()
    return _emit(
        {
            "domain_midpoints": list(prof.domain_midpoints),
            "codomain_midpoints": list(prof.codomain_midpoints),
            "table": [list(map(float, row)) for row in prof.table],
        }
    )


def _check_cli(argv, result):
    code, out = result
    if code != 0:
        return f"exit code {code}: {out.strip()[:200]}"
    want = _expected_stdout(argv)
    return None if out == want else f"stdout {out[:200]!r} differs from the library's {want[:200]!r}"


def _check_check(argv, result):
    code, out = result
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if code != 0 or not last.startswith("0 failed"):
        return f"exit code {code}, report ends {last!r}"
    return None


def _cli(seed: int, workdir: Path) -> Workload:
    rng = _rng("cli", seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, obj) -> str:
        path = workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    dfs = [write(f"df{i}.json", _df_json(rng)) for i in range(CLI_FILES)]
    spaces = []
    for i in range(CLI_FILES):
        obj = _space_json(rng, int(rng.integers(1, 5)))
        spaces.append((write(f"space{i}.json", obj), obj))
    ops = []
    for i in range(CLI_FILES):
        obj = _op_json(rng, square=i % 2 == 0)
        ops.append((write(f"op{i}.json", obj), obj))

    def pick(items):
        return items[int(rng.integers(len(items)))]

    def mid(space_obj) -> str:
        ends = [0.0] + [b["upto"] for b in space_obj["bands"]]
        k = int(rng.integers(len(ends) - 1))
        return repr(0.5 * (ends[k] + ends[k + 1]))

    def vec(space_obj) -> str:
        return json.dumps(rng.uniform(-3.0, 3.0, space_obj["dimension"]).tolist())

    def argv_for(cmd: str) -> tuple:
        if cmd == "df-eval":
            return ("--f", pick(dfs), "--x", repr(float(rng.uniform(0.0, 4.0))))
        if cmd == "df-conv":
            tnorm, kind = pick(["W", "prod", "min"]), pick(["sup", "inf"])
            return ("--tnorm", tnorm, "--kind", kind, "--f", pick(dfs), "--g", pick(dfs))
        if cmd == "df-levy":
            return ("--f", pick(dfs), "--g", pick(dfs))
        if cmd == "df-qinv":
            return ("--f", pick(dfs))
        if cmd in ("space-nu", "space-norm"):
            path, obj = pick(spaces)
            w = ("--w", mid(obj)) if cmd == "space-norm" else ()
            return ("--space", path, "--x", vec(obj), *w)
        path, obj = pick(ops[::2] if cmd == "op-delta" else ops)  # even ones are square
        if cmd == "op-norm":
            return ("--op", path, "--w", mid(obj["domain"]), "--wp", mid(obj["codomain"]))
        if cmd == "op-delta":
            return ("--op", path, "--w", mid(obj["domain"]))
        return ("--op", path, *(("--csv",) if rng.random() < 0.5 else ()))

    queries = []
    for _ in range(CLI_PER_COMMAND):
        for cmd in CLI_COMMANDS:
            queries.append(Query(cmd, _cli_call, ((cmd, *argv_for(cmd)),), _check_cli))
    # the suite seeds are fixed: a check's oracle cost swings by about 40%
    # from one suite seed to the next, which would swamp the per-call
    # overhead this workload measures
    for k in range(CLI_CHECKS_PER_SUITE):
        cases = str(CLI_CHECK_CASES[k % len(CLI_CHECK_CASES)])
        for suite in checks.SUITES:
            argv = ("check", "--suite", suite, "--seed", str(k), "--cases", cases)
            queries.append(Query(f"check {suite}", _cli_call, (argv,), _check_check))
    return Workload(queries, workdir)


def input_texts(workload: Workload) -> list[str]:
    """What the program receives: call arguments and, for cli, file contents."""
    texts = [canon(q.args) for q in workload.queries]
    if workload._workdir is not None:
        texts += [p.read_text() for p in sorted(workload._workdir.iterdir())]
        # file paths name the per-process work directory; the digest must not
        texts = [t.replace(str(workload._workdir), "WORK") for t in texts]
    return texts
