"""Reference nu_x: PNSpace.prob_norm as it was before a family that is not
monotone kept its band lengths, and the distance and neighbourhood read
from it.

Each call reads as_integer_ratio of every band end again, sums the sorted
band lengths as Python ints and builds its StepDF through the validating
constructor.  The library's nu_x, and every verdict read from it, must match
these bit for bit, errors included.
"""

import numpy as np

from probnorm.distfn import StepDF, df_eval
from probnorm.pnspace import PNSpace, _check_vector, _difference, _finite, _proper_rows


def ratio_prob_norm(P: PNSpace, x) -> StepDF:
    """nu_x(t) = m({w in (0,1) : p(x, w) < t}), exactly."""
    vals = P.family.band_values(_check_vector(P.family, x))
    if _proper_rows(vals):
        last = np.append(vals[1:] > vals[:-1], True)
        return StepDF(vals[last].tolist(), (0.0, *P.family._ends[last].tolist()))
    _finite(vals.max())
    # sorted once; below each distinct value the measure is the exact sum of
    # the band lengths so far, in whole units of 1/D, D the largest
    # denominator of the band ends, divided by D once
    order = np.argsort(vals, kind="stable")
    ratios = [u.as_integer_ratio() for u in (0.0, *P.family._ends.tolist())]
    D = max(den for _, den in ratios)
    ends = np.array([num * (D // den) for num, den in ratios], dtype=object)
    vals, sums = vals[order], np.cumsum(np.diff(ends)[order])
    last = np.append(vals[1:] > vals[:-1], True)
    return StepDF(vals[last].tolist(), [0.0, *(sums[last] / D).tolist()])


def ratio_pm_distance(P: PNSpace, p, q) -> StepDF:
    return ratio_prob_norm(P, _difference(P.family, p, q))


def ratio_neighborhood_contains(P: PNSpace, p, t: float, q) -> bool:
    """Membership q in N_p(t) = {q : nu_{p-q}(t) > 1 - t}, read off the whole nu."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return df_eval(ratio_pm_distance(P, p, q), t) > 1.0 - t
