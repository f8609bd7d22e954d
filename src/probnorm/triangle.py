"""t-norms, t-conorms and exact triangle-function convolutions on step d.f.'s."""

from __future__ import annotations

import enum
import math

import numpy as np

from .distfn import StepDF, _df_of_hat, qf_add, quasi_inverse


class TNormKind(enum.Enum):
    """The three built-in continuous t-norms (and their dual conorms)."""

    W = "W"  # Lukasiewicz: max(a + b - 1, 0)
    PROD = "prod"  # product: a * b
    MIN = "min"  # minimum


def _eval_at(formula, T: TNormKind, a: float, b: float) -> float:
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"t-norm arguments must lie in [0, 1], got {a}, {b}")
    return float(formula(T, np.float64(a), np.float64(b)))


def tnorm_eval(T: TNormKind, a: float, b: float) -> float:
    """T(a, b), by the formula the convolutions use.

    W's max(a + b - 1, 0) is computed as max(hi - 1 + lo, 0), correctly
    rounded.  PROD and MIN agree bit for bit with their scalar closed forms,
    except for the sign of a zero result when the arguments mix 0.0 and -0.0.
    """
    return _eval_at(_tnorm, TNormKind(T), a, b)


def tconorm_eval(T: TNormKind, a: float, b: float) -> float:
    """Dual conorm T*(a, b) = 1 - T(1-a, 1-b), by the formula the
    convolutions use; PROD's a + b - ab is computed as hi + lo (1 - hi)."""
    return _eval_at(_tconorm, TNormKind(T), a, b)


def _tnorm(T: TNormKind, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # T(v, u) elementwise, broadcasting.  W's max(a + b - 1, 0) is computed as
    # max(hi - 1 + lo, 0), hi = max and lo = min: hi - 1 is exact for
    # hi >= 1/2 and the sum is then rounded once, so it is correctly rounded
    # (hence <= PROD's correctly rounded a b) and T(a, 1) = a exactly
    if T is TNormKind.W:
        return np.maximum(np.maximum(v, u) - 1.0 + np.minimum(v, u), 0.0)
    if T is TNormKind.PROD:
        return v * u
    return np.minimum(v, u)


def _tconorm(T: TNormKind, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # T*(v, u) elementwise, broadcasting.  PROD's a + b - ab is computed as
    # hi + lo (1 - hi), hi = max and lo = min: in floats it is symmetric,
    # exact at 0 and 1, and monotone in each argument (see _conv)
    if T is TNormKind.W:
        return np.minimum(v + u, 1.0)
    if T is TNormKind.PROD:
        hi = np.maximum(v, u)
        return hi + np.minimum(v, u) * (1.0 - hi)
    return np.maximum(v, u)


def _conv(F: StepDF, G: StepDF, pair_vals: np.ndarray, take_max: bool) -> StepDF:
    """Exact convolution for W and PROD: sup (take_max) or inf of pair_vals
    over the achievable band pairs, by one sort of all band pairs.  MIN runs
    the O(n + m) _min_conv instead; on MIN's pair values this gives the same
    d.f., and the tests keep it as that merge's oracle.

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

    inf: every pair with high sum >= f_{k+1} is dominated by an achievable
    one, by the same argument with F's axis reversed.  Negation is exact, so
    those are the pairs whose negated high sum (-a_{i+1}) + (-b_{j+1}) is
    <= -f_{k+1}, and their min is minus the max of their negated values: the
    sup pass on the negated high band ends, values and fences.

    Both steps move along F's axis alone, so they need pair_vals nondecreasing
    in v = v_i for each u = v_j, in floats and not just in exact arithmetic.
    Rounding is monotone, and each kind keeps the premise:

    - PROD's t-norm v * u and MIN's min(v, u), and MIN's conorm max(v, u),
      are one monotone operation each; so is W's conorm min(v + u, 1).
    - W's t-norm max(hi - 1 + lo, 0), whose two cases meet at v = u.  Where
      v is lo, hi - 1 is fixed and the sum rounds monotonically; where v is
      hi, hi - 1 and then the sum each round monotonically.
    - PROD's conorm hi + lo (1 - hi), whose two cases below meet at v = u.
      Where v is lo, hi is fixed and the product and the sum each round
      monotonically.  Where v is hi >= 1/2,
      1 - hi is exact and the sum lies in [hi, 1], on the grid of step
      2**-53 that hi lies on.  One ulp more in hi adds 2**-53; for the sum
      to fall, the rounded product would have to drop across two midpoints
      of that grid (both floats), a drop of more than 2**-53, while the
      exact product drops by lo 2**-53.  The shortfall (1 - lo) 2**-53 is
      at least the product's rounding error, at most 2**-53 (1 - hi), and
      where it is only just met, at a tie, both sums are the same real.
      Where v is hi < 1/2, one ulp more in hi lowers 1 - hi by at most one
      of its own ulps, 2**-53, so the exact product falls by at most
      lo 2**-53 < ulp(hi); the tests probe this case on the values where
      1 - hi steps.

    The sort costs O(nm log nm).  A breakpoint sum beyond the float range is
    a ValueError; the sum of the last breakpoints is the largest.
    """
    if F.breakpoints[-1] + G.breakpoints[-1] == math.inf:
        raise ValueError("breakpoint sum overflows the float range")
    sign = 1 if take_max else -1

    def ends(x):
        # sup: the low ends (-inf, x); inf: the negated high ends -(x, +inf)
        return np.concatenate(([-math.inf], x) if take_max else (np.negative(x), [-math.inf]))

    keys = (ends(F.breakpoints)[:, None] + ends(G.breakpoints)[None, :]).ravel()
    order = np.argsort(keys)
    best = np.maximum.accumulate((sign * pair_vals).ravel()[order])
    keys = keys[order]
    # each run of equal keys ends at a fence: the -inf run, then one run per
    # distinct sum, ascending for sup; for inf the negated sums ascend, so
    # the sums and values are read backwards, into x order
    at = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
    return _step_df((sign * keys[at[1:]])[::sign], (sign * best[at])[::sign])


def _step_df(cands: np.ndarray, out_vals: np.ndarray) -> StepDF:
    # canonical as built: the sums are finite, >= 0 and strictly increasing
    # (one per run of sorted keys), and out_vals is nondecreasing from 0 in
    # [0, 1], so the sums that carry a jump, with their values (each above
    # one >= 0, so never -0.0), are the canonical d.f.; with no jump it is
    # the mute one, whose one breakpoint is 0.0 as in StepDF
    keep = out_vals[1:] > out_vals[:-1]
    if keep.any():
        bps, vals = tuple(cands[keep].tolist()), (0.0, *out_vals[1:][keep].tolist())
    else:
        bps, vals = (0.0,), (0.0, 0.0)
    return StepDF._canonical(bps, vals)


def _min_conv(F: StepDF, G: StepDF) -> StepDF:
    """tau_M(F, G), which is also tau_{M*}(F, G), exactly, off the sum of
    the hats.

    With the hat q_F(w) = sup{t : F(t) < w}: tau_M(F, G)(x) < w iff every s
    has F(s) < w or G(x - s) < w, and tau_{M*}(F, G)(x) < w iff some s has
    F(s) < w and G(x - s) < w; each holds iff x <= q_F(w) + q_G(w).  In
    floats the sum is the rounded q_F(w) (+) q_G(w), the breakpoint sum that
    _conv forms, and float addition is monotone, so both d.f.s are the one
    whose hat is qf_add of the hats.

    O(n + m) time and memory.  A breakpoint sum beyond the float range is a
    ValueError, decided first as in _conv: on an improper pair the hat sum
    may never form it, the other hat being +inf by then.
    """
    if F.breakpoints[-1] + G.breakpoints[-1] == math.inf:
        raise ValueError("breakpoint sum overflows the float range")
    return _df_of_hat(qf_add(quasi_inverse(F), quasi_inverse(G)))


def tau_sup_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_T(F, G)(x) = sup{T(F(s), G(t)) : s + t = x}, exactly."""
    T = TNormKind(T)
    if T is TNormKind.MIN:
        return _min_conv(F, G)
    vals = _tnorm(T, np.array(F.values)[:, None], np.array(G.values))
    return _conv(F, G, vals, take_max=True)


def tau_inf_conv(T: TNormKind, F: StepDF, G: StepDF) -> StepDF:
    """tau_{T*}(F, G)(x) = inf{T*(F(s), G(t)) : s + t = x}, exactly; for MIN
    the same d.f. as tau_M (see _min_conv)."""
    T = TNormKind(T)
    if T is TNormKind.MIN:
        return _min_conv(F, G)
    vals = _tconorm(T, np.array(F.values)[:, None], np.array(G.values))
    return _conv(F, G, vals, take_max=False)
