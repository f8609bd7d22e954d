"""Reference convolutions for the exact sort-once kernel in triangle._conv.

Each computes the extremum of the pair values over the achievable band pairs
of every interval between consecutive breakpoint sums, from the same float
sums as the kernel, but without its premise that the grid of pair values is
monotone: the dense mask tests every pair on every interval, and the
range-reduce reduces every achievable range.  The exact variant takes the
extremum of the exact rational t-norm or conorm values instead of the floats.

The dense-grid oracle is the reference for testkit's event-point oracles: it
samples s every grid step over [-step, x + step], and at each event and its
two neighbours a step away, which meets every pair when distinct events lie
at least two steps apart.
"""

import math
from fractions import Fraction

import numpy as np

from probnorm.distfn import StepDF
from probnorm.testkit import _scan_eval_many
from probnorm.triangle import TNormKind, _tconorm, _tnorm


def _band_ends(F: StepDF, G: StepDF):
    # low and high band ends of F, then of G, and the distinct sums a_i + b_j
    a = np.array(F.breakpoints)
    b = np.array(G.breakpoints)
    return (
        np.concatenate(([-math.inf], a)),
        np.concatenate((a, [math.inf])),
        np.concatenate(([-math.inf], b)),
        np.concatenate((b, [math.inf])),
        np.unique(a[:, None] + b[None, :]),
    )


def achievable_masks(F: StepDF, G: StepDF):
    """The distinct sums, and per interval between them the boolean
    (n+1) x (m+1) mask of the band pairs achievable there."""
    a_lo, a_hi, b_lo, b_hi, cands = _band_ends(F, G)
    lows = a_lo[:, None] + b_lo[None, :]
    highs = a_hi[:, None] + b_hi[None, :]
    fences = np.concatenate(([-math.inf], cands, [math.inf]))
    return cands, [(lows <= f0) & (highs >= f1) for f0, f1 in zip(fences[:-1], fences[1:])]


def oracle_conv_dense(T: TNormKind, F: StepDF, G: StepDF, sup: bool) -> StepDF:
    """tau_T (sup) or tau_{T*} (inf) of F and G by a per-interval dense mask,
    O(n^2 m^2) in all.  It must agree with the kernel bit for bit."""
    vals = (_tnorm if sup else _tconorm)(T, np.array(F.values)[:, None], np.array(G.values))
    pick = np.max if sup else np.min
    cands, masks = achievable_masks(F, G)
    return StepDF(tuple(cands), tuple(pick(vals[mask]) for mask in masks))


def conv_range(F: StepDF, G: StepDF, pair_vals: np.ndarray, take_max: bool) -> StepDF:
    """The convolution of triangle._conv by range-reduce, O((n+1) K log m).

    For a fixed F-band i both rows of sums a_i + b_j and a_{i+1} + b_{j+1}
    are nondecreasing in j (float addition is monotone), so the achievable
    G-bands of each interval form one contiguous range [lo, hi), found by
    two searchsorted calls on those same float sums.  The range is reduced
    with one reduceat per row -- not read off its end, since the grid need
    not be monotone -- and the rows are folded by max (or min).  The rows run
    over the d.f. with fewer breakpoints.
    """
    if len(F.breakpoints) > len(G.breakpoints):
        # loop over the shorter d.f.; sums commute exactly, so this is a transpose
        F, G, pair_vals = G, F, pair_vals.T
    a_lo, a_hi, b_lo, b_hi, cands = _band_ends(F, G)
    lows = a_lo[:, None] + b_lo[None, :]
    highs = a_hi[:, None] + b_hi[None, :]
    fences = np.concatenate(([-math.inf], cands, [math.inf]))
    fold = np.maximum if take_max else np.minimum
    pad = -math.inf if take_max else math.inf
    # column m+1 (the identity of fold) keeps hi == m+1 a valid reduceat index
    padded = np.concatenate((pair_vals, np.full((len(a_lo), 1), pad)), axis=1)
    out_vals = np.full(len(cands) + 1, pad)
    for i in range(len(a_lo)):
        hi = np.searchsorted(lows[i], fences[:-1], "right")
        lo = np.searchsorted(highs[i], fences[1:], "left")
        # lo < hi always: for the last j with a_i + b_j <= f_k, either j = m
        # or a_{i+1} + b_{j+1} >= a_i + b_{j+1} > f_k is itself a candidate
        # sum (or +inf), hence >= f_{k+1}.  reduceat over the interleaved
        # bounds reduces [lo_k, hi_k) at the even positions; the odd
        # positions span the gaps and are dropped
        bounds = np.array((lo, hi)).T.ravel()
        fold(out_vals, fold.reduceat(padded[i], bounds)[::2], out=out_vals)
    return StepDF(cands.tolist(), out_vals.tolist())


def _s_grid(F: StepDF, G: StepDF, x: float, step: float) -> np.ndarray:
    if not step > 0:
        raise ValueError("grid_step must be > 0")
    pts = [np.arange(-step, x + 2.0 * step, step)]
    for a in F.breakpoints:
        pts.append(np.array([a - step, a, a + step]))
    for b in G.breakpoints:
        pts.append(np.array([x - b - step, x - b, x - b + step]))
    return np.concatenate(pts)


def oracle_conv_grid(T: TNormKind, F: StepDF, G: StepDF, x: float, grid_step: float, sup: bool) -> float:
    """Dense-grid sup of T(F(s), G(x-s)) (or inf of T*) with breakpoint
    neighborhoods included."""
    s = _s_grid(F, G, x, grid_step)
    pair = _tnorm if sup else _tconorm
    vals = pair(T, _scan_eval_many(F, s), _scan_eval_many(G, x - s))
    return float(vals.max() if sup else vals.min())


def exact_tnorm(T: TNormKind, a: float, b: float) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    if T is TNormKind.W:
        return max(a + b - 1, Fraction(0))
    return a * b if T is TNormKind.PROD else min(a, b)


def exact_tconorm(T: TNormKind, a: float, b: float) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    if T is TNormKind.W:
        return min(a + b, Fraction(1))
    return a + b - a * b if T is TNormKind.PROD else max(a, b)


def exact_conv_values(T: TNormKind, F: StepDF, G: StepDF, sup: bool) -> list:
    """Per interval between the distinct sums, the exact rational extremum of
    T (sup) or T* (inf) of the float values over the achievable pairs."""
    exact = exact_tnorm if sup else exact_tconorm
    grid = [[exact(T, v, u) for u in G.values] for v in F.values]
    # rank the distinct exact values so numpy can take the extremum per mask
    ranked = sorted({x for row in grid for x in row})
    rank = {x: k for k, x in enumerate(ranked)}
    ranks = np.array([[rank[x] for x in row] for row in grid])
    pick = np.max if sup else np.min
    return [ranked[pick(ranks[mask])] for mask in achievable_masks(F, G)[1]]


def ulp(y: Fraction) -> Fraction:
    """The spacing of the doubles at |y|: 2**(e - 52) for 2**e <= |y| < 2**(e + 1),
    and 2**-1074 among the subnormals."""
    y = abs(y)
    if y == 0:
        return Fraction(1, 2**1074)
    e = y.numerator.bit_length() - y.denominator.bit_length()
    if Fraction(2) ** e > y:
        e -= 1
    return Fraction(2) ** (max(e, -1022) - 52)


def ulps_off(got: float, exact: Fraction) -> Fraction:
    """|got - exact| in units of ulp(exact)."""
    return abs(Fraction(got) - exact) / ulp(exact)
