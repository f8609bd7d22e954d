"""Brute-force oracles and seeded random generators for the property suites.

The oracles evaluate step semantics by their own linear scan; they never call
the exact code paths they are used to validate, with two deliberate
exceptions.  The convolution oracles take each pair value from triangle's
t-norm and conorm formulas, so sampled and exact extrema share floats; the
formulas themselves are checked against exact Fraction arithmetic in the
tests.  The Levy oracle reuses the exact per-h feasibility check and only
replaces levy_metric's candidate search with a fixed 1e-5 grid.
"""

from __future__ import annotations

import itertools

import numpy as np

from .distfn import StepDF, levy_condition
from .pnspace import Band, NormKind, PNSpace, SeminormFamily, WeightedNorm
from .operators import LinearOperator
from .triangle import TNormKind, _tconorm, _tnorm


def scan_eval(breakpoints, values, x: float) -> float:
    """Step evaluation by explicit linear scan (independent of df_eval)."""
    i = 0
    while i < len(breakpoints) and breakpoints[i] < x:
        i += 1
    return values[i]


def _scan_eval_many(F: StepDF, xs: np.ndarray) -> np.ndarray:
    counts = np.zeros(len(xs), dtype=int)
    for b in F.breakpoints:
        counts += b < xs
    return np.array(F.values)[counts]


def _oracle_conv(T: TNormKind, F: StepDF, G: StepDF, x: float, sup: bool) -> float:
    # (F(s), G(x - s)) is constant between consecutive events, F's breakpoints
    # a and the points x - b for G's breakpoints b, so s at each event, at the
    # midpoint of each gap and beyond each end meets every pair that occurs,
    # up to the rounding of x - s, which callers avoid by keeping x off sums
    events = np.unique(np.concatenate((F.breakpoints, x - np.array(G.breakpoints))))
    s = np.concatenate(([-np.inf], events, 0.5 * (events[:-1] + events[1:]), [np.inf]))
    pair = _tnorm if sup else _tconorm
    vals = pair(T, _scan_eval_many(F, s), _scan_eval_many(G, x - s))
    return float(vals.max() if sup else vals.min())


def oracle_sup_conv(T: TNormKind, F: StepDF, G: StepDF, x: float) -> float:
    """sup over s of T(F(s), G(x-s)), sampled at each event and each gap."""
    return _oracle_conv(T, F, G, x, sup=True)


def oracle_inf_conv(T: TNormKind, F: StepDF, G: StepDF, x: float) -> float:
    """inf over s of T*(F(s), G(x-s)), sampled at each event and each gap."""
    return _oracle_conv(T, F, G, x, sup=False)


def oracle_operator_norm(matrix: np.ndarray, dom_norm: WeightedNorm, cod_norm) -> float:
    """sup of cod_norm(matrix x) over dom_norm's unit ball, from the weights alone.

    An L1 domain: the best column, scaled by 1 / w_j.  An Linf domain: brute
    force over the sign hypercube, x = signs / weights.
    """
    weights = np.array(dom_norm.weights)
    if dom_norm.kind is NormKind.L1:
        return max(cod_norm.eval(matrix[:, j] / w) for j, w in enumerate(weights))
    return max(
        cod_norm.eval(matrix @ (np.array(signs) / weights))
        for signs in itertools.product((-1.0, 1.0), repeat=len(weights))
    )


LEVY_GRID = 1e-5


def oracle_levy(F: StepDF, G: StepDF) -> float:
    """Smallest h on the 1e-5 grid over (0, 1] satisfying both exact conditions.

    Located by binary search over the grid, which is valid because the
    condition is monotone in h, as levy_metric's search also assumes.
    """

    def ok(k: int) -> bool:
        h = min(k * LEVY_GRID, 1.0)
        return levy_condition(F, G, h) and levy_condition(G, F, h)

    lo, hi = 0, 100000  # h = hi * LEVY_GRID is 1.0, always feasible on Delta+
    if not ok(hi):
        raise AssertionError("Levy condition must hold at h = 1")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return min(hi * LEVY_GRID, 1.0)


# ---------------------------------------------------------------------------
# generators (deterministic per seed; outputs always satisfy type invariants)

BP_GRID = 0.01  # breakpoint lattice
BP_SLOTS = 300  # breakpoints live in (0, 3]
MAX_BREAKS = 5  # a generated d.f. has 1 to MAX_BREAKS breakpoints


def gen_stepdf(seed: int, proper: bool = True) -> StepDF:
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, MAX_BREAKS + 1))
    slots = np.sort(rng.choice(np.arange(1, BP_SLOTS + 1), size=nb, replace=False))
    bps = tuple(float(k) * BP_GRID for k in slots)
    vals = np.sort(rng.uniform(0.0, 1.0, nb))
    if proper:
        vals[-1] = 1.0
    else:
        vals = vals * 0.9  # keep the terminal value clear of 1
    return StepDF(bps, (0.0, *map(float, vals)))


W_GRID = 0.05  # band ends live on this lattice in (0, 1)


def gen_space(seed: int, n: int, max_bands: int = 4) -> PNSpace:
    rng = np.random.default_rng(seed)
    nbands = int(rng.integers(1, max_bands + 1))
    cuts = np.sort(rng.choice(np.arange(1, 20), size=nbands - 1, replace=False))
    uptos = [float(k) * W_GRID for k in cuts] + [1.0]
    kind = NormKind.L1 if rng.random() < 0.5 else NormKind.LINF
    weights = rng.uniform(0.5, 2.0, n)
    bands = []
    for u in uptos:
        bands.append(Band(u, WeightedNorm(kind, tuple(weights))))
        weights = weights * rng.uniform(1.0, 1.5, n)
    return PNSpace(SeminormFamily(n, tuple(bands)))


def gen_operator(seed: int, domain: PNSpace, codomain: PNSpace) -> LinearOperator:
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-2.0, 2.0, (codomain.dimension, domain.dimension))
    return LinearOperator(matrix, domain, codomain)


def gen_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-3.0, 3.0, n)
