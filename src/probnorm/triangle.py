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
    """Shared exact convolution machinery.

    F splits the line into bands (a_i, a_{i+1}] with value v_i (a_0 = -inf,
    a_{n+1} = +inf), likewise G.  For x in an open interval between candidate
    output breakpoints (sums a_i + b_j), the pair (i, j) is achievable iff
    x > a_i + b_j and x <= a_{i+1} + b_{j+1}; achievability is constant on
    the interval, so the output value is the max (or min) of pair_vals over
    the achievable set, evaluated once per interval.

    For a fixed F-band i both rows of sums a_i + b_j and a_{i+1} + b_{j+1}
    are nondecreasing in j (float addition is monotone), so the achievable
    G-bands of each interval form one contiguous range [lo, hi), found by
    two searchsorted calls on those same float sums.  The range is reduced
    with one reduceat per row -- not read off its end, since the conorm grid
    of PROD is not monotone in floats near 1 -- and the rows are folded by
    max (or min).  The rows run over the d.f. with fewer breakpoints, so with
    n <= m and K distinct breakpoint sums the searches cost O((n+1) K log m),
    against O(n^2 m^2) for a per-interval mask.

    The exact extrema are nondecreasing in x, but their floats need not be:
    PROD's conorm a + b - ab is not monotone a few ulps below 1, so one
    interval's minimum can fall below the previous one's.  A running max
    repairs that; it changes no value of an output that was already
    nondecreasing.
    """
    if len(F.breakpoints) > len(G.breakpoints):
        # loop over the shorter d.f.; sums commute exactly, so this is a transpose
        F, G, pair_vals = G, F, pair_vals.T
    a = np.array(F.breakpoints)
    b = np.array(G.breakpoints)
    a_lo = np.concatenate(([-math.inf], a))
    a_hi = np.concatenate((a, [math.inf]))
    b_lo = np.concatenate(([-math.inf], b))
    b_hi = np.concatenate((b, [math.inf]))
    lows = a_lo[:, None] + b_lo[None, :]
    highs = a_hi[:, None] + b_hi[None, :]

    cands = np.unique(a[:, None] + b[None, :])
    fences = np.concatenate(([-math.inf], cands, [math.inf]))
    fold = np.maximum if take_max else np.minimum
    pad = -math.inf if take_max else math.inf
    # column m+1 (the identity of fold) keeps hi == m+1 a valid reduceat index
    padded = np.concatenate((pair_vals, np.full((len(a) + 1, 1), pad)), axis=1)
    out_vals = np.full(len(cands) + 1, pad)
    for i in range(len(a) + 1):
        hi = np.searchsorted(lows[i], fences[:-1], "right")
        lo = np.searchsorted(highs[i], fences[1:], "left")
        # lo < hi always: for the last j with a_i + b_j <= f_k, either j = m
        # or a_{i+1} + b_{j+1} >= a_i + b_{j+1} > f_k is itself a candidate
        # sum (or +inf), hence >= f_{k+1}.  reduceat over the interleaved
        # bounds reduces [lo_k, hi_k) at the even positions; the odd
        # positions span the gaps and are dropped
        bounds = np.array((lo, hi)).T.ravel()
        fold(out_vals, fold.reduceat(padded[i], bounds)[::2], out=out_vals)
    return StepDF(tuple(cands), tuple(np.maximum.accumulate(out_vals)))


def tau_sup_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_T(F, G)(x) = sup{T(F(s), G(t)) : s + t = x}, exactly."""
    vals = _tnorm_grid(T, np.array(F.values), np.array(G.values))
    return _conv(F, G, vals, take_max=True)


def tau_inf_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_{T*}(F, G)(x) = inf{T*(F(s), G(t)) : s + t = x}, exactly."""
    vals = _tconorm_grid(T, np.array(F.values), np.array(G.values))
    return _conv(F, G, vals, take_max=False)
