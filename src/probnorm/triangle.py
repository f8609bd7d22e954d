"""t-norms, t-conorms and exact triangle-function convolutions on step d.f.'s."""

from __future__ import annotations

import enum
import math

import numpy as np

from .distfn import StepDF


class TNormKind(enum.Enum):
    """The three built-in continuous t-norms (and their dual conorms)."""

    W = "W"  # Lukasiewicz: max(a + b - 1, 0)
    PROD = "prod"  # product: a * b
    MIN = "min"  # minimum


def _grid_at(grid, T: TNormKind, a: float, b: float) -> float:
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"t-norm arguments must lie in [0, 1], got {a}, {b}")
    return float(grid(T, np.array([a], dtype=float), np.array([b], dtype=float))[0, 0])


def tnorm_eval(T: TNormKind, a: float, b: float) -> float:
    """T(a, b), read off the grid formula used by the convolutions.

    It agrees bit for bit with the scalar closed form of each kind, except
    for the sign of a zero result when the arguments mix 0.0 and -0.0.
    """
    return _grid_at(_tnorm_grid, T, a, b)


def tconorm_eval(T: TNormKind, a: float, b: float) -> float:
    """Dual conorm T*(a, b) = 1 - T(1-a, 1-b), read off the grid formula
    (same zero-sign caveat as tnorm_eval)."""
    return _grid_at(_tconorm_grid, T, a, b)


def _tnorm_grid(T: TNormKind, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # outer T(v_i, u_j); W's boundary cases are split off so the unit law
    # T(a, 1) = a is exact
    vv, uu = v[:, None], u[None, :]
    if T is TNormKind.W:
        out = np.maximum(vv + uu - 1.0, 0.0)
        out = np.where(vv == 1.0, uu, out)
        return np.where(uu == 1.0, np.broadcast_to(vv, out.shape), out)
    if T is TNormKind.PROD:
        return vv * uu
    return np.minimum(vv, uu)


def _tconorm_grid(T: TNormKind, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # outer T*(v_i, u_j) in closed form per kind; PROD's boundary cases are
    # split off so T*(a, 0) = a and T*(a, 1) = 1 are exact
    vv, uu = v[:, None], u[None, :]
    if T is TNormKind.W:
        return np.minimum(vv + uu, 1.0)
    if T is TNormKind.PROD:
        out = vv + uu - vv * uu
        out = np.where(vv == 0.0, uu, out)
        out = np.where(uu == 0.0, np.broadcast_to(vv, out.shape), out)
        return np.where((vv == 1.0) | (uu == 1.0), 1.0, out)
    return np.maximum(vv, uu)


def _conv(F: StepDF, G: StepDF, pair_vals: np.ndarray, take_max: bool) -> StepDF:
    """Shared exact convolution: sup (take_max) or inf of pair_vals over the
    achievable band pairs, by one sort of all band pairs.

    F splits the line into bands (a_i, a_{i+1}] with value v_i (a_0 = -inf,
    a_{n+1} = +inf), likewise G with bands (b_j, b_{j+1}].  The output
    breakpoints are the K distinct sums a_i + b_j.  For x in an open interval
    (f_k, f_{k+1}) between consecutive fences (-inf, the sums, +inf), the pair
    (i, j) is achievable iff its low sum a_i + b_j <= f_k and its high sum
    a_{i+1} + b_{j+1} >= f_{k+1}, and the output there is the max (or min) of
    pair_vals over the achievable pairs.

    sup: every pair with low sum <= f_k is dominated by an achievable one.  If
    (i, j) is not achievable its high sum is a finite sum, so <= f_k, and
    i < n.  Then (i+1, j) has low sum a_{i+1} + b_j <= a_{i+1} + b_{j+1} <= f_k
    (float addition is monotone) and value >= that of (i, j); repeat until
    the high sum passes f_k, which it does by i = n.  So the output is the max
    over all pairs whose low sum is <= f_k: a running max in the order of the
    low sums, read at the last pair <= f_k.

    inf, the mirror image: every pair with high sum >= f_{k+1} is dominated by
    an achievable one, found by stepping i down: if (i, j) is not achievable
    its low sum is a finite sum, so >= f_{k+1}, and i > 0; then (i-1, j) has
    high sum a_i + b_{j+1} >= a_i + b_j >= f_{k+1} and value <= that of (i, j).
    The output is a suffix min in the order of the high sums, read at the
    first pair >= f_{k+1}.

    Both steps move along F's axis alone, so they need pair_vals nondecreasing
    in i for each j, in floats and not just in exact arithmetic.  That holds
    for every t-norm grid and for the W and MIN conorm grids, but PROD's conorm
    a + b - ab is not monotone a few ulps below 1, so the premise is tested on
    the grid itself, in O(nm).  A grid that fails it goes to _conv_range,
    which needs no monotonicity.  The sort costs O(nm log nm), against
    O((n+1) K log m) for the range-reduce.
    """
    if not (pair_vals[1:] >= pair_vals[:-1]).all():
        return _conv_range(F, G, pair_vals, take_max)
    a_lo, a_hi, b_lo, b_hi, cands = _band_ends(F, G)
    fences = np.concatenate(([-math.inf], cands, [math.inf]))
    if take_max:
        keys = (a_lo[:, None] + b_lo[None, :]).ravel()
        order = np.argsort(keys)
        best = np.maximum.accumulate(pair_vals.ravel()[order])
        at = np.searchsorted(keys[order], fences[:-1], "right") - 1
    else:
        keys = (a_hi[:, None] + b_hi[None, :]).ravel()
        order = np.argsort(keys)
        best = np.minimum.accumulate(pair_vals.ravel()[order][::-1])[::-1]
        at = np.searchsorted(keys[order], fences[1:], "left")
    return _step_df(cands, best[at])


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


def _step_df(cands: np.ndarray, out_vals: np.ndarray) -> StepDF:
    # out_vals is nondecreasing.  StepDF drops the sums that carry no jump, one
    # Python step per sum, and most carry none, so they go here first; the
    # first sum stays so that an all-zero result keeps its mute breakpoint.
    # Adding 0.0 turns the -0.0 that an input's values[0] = -0.0 can leave
    # into 0.0, so the sign of a zero does not depend on the order of ties
    keep = out_vals[1:] > out_vals[:-1]
    keep[0] = True
    vals = np.concatenate((out_vals[:1], out_vals[1:][keep])) + 0.0
    return StepDF(cands[keep].tolist(), vals.tolist())


def _conv_range(F: StepDF, G: StepDF, pair_vals: np.ndarray, take_max: bool) -> StepDF:
    """The convolution of _conv by range-reduce, which needs no monotone grid.

    For a fixed F-band i both rows of sums a_i + b_j and a_{i+1} + b_{j+1}
    are nondecreasing in j (float addition is monotone), so the achievable
    G-bands of each interval form one contiguous range [lo, hi), found by
    two searchsorted calls on those same float sums.  The range is reduced
    with one reduceat per row -- not read off its end, since the grid need
    not be monotone -- and the rows are folded by max (or min).  The rows run
    over the d.f. with fewer breakpoints.

    The exact extrema are nondecreasing in x, but their floats need not be:
    PROD's conorm a + b - ab is not monotone a few ulps below 1, so one
    interval's minimum can fall below the previous one's.  A running max
    repairs that; it changes no value of an output that was already
    nondecreasing.
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
    return _step_df(cands, np.maximum.accumulate(out_vals))


def tau_sup_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_T(F, G)(x) = sup{T(F(s), G(t)) : s + t = x}, exactly."""
    vals = _tnorm_grid(T, np.array(F.values), np.array(G.values))
    return _conv(F, G, vals, take_max=True)


def tau_inf_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_{T*}(F, G)(x) = inf{T*(F(s), G(t)) : s + t = x}, exactly."""
    vals = _tconorm_grid(T, np.array(F.values), np.array(G.values))
    return _conv(F, G, vals, take_max=False)
