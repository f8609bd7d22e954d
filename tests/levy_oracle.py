"""Reference Levy metric: plain bisection of (0, 1] on the joint condition.

This is the bisection that levy_metric's candidate search replaced, kept
verbatim.  Every bracket it visits is dyadic, so it checks only grid points
k * 2^-29 and stops at the width 2^-29; the candidate search must return
its LevyDistance bit for bit.  It reaches levy_condition through this
module's global, so a test can count its calls.
"""

from probnorm.distfn import LEVY_TOL, LevyDistance, StepDF, levy_condition


def bisection_levy_metric(F: StepDF, G: StepDF) -> LevyDistance:
    """Modified Levy metric by bisection on the monotone joint condition.

    The condition holds at h = 1 for any pair in Delta+ (asserted), and the
    feasibility check per h is exact, so bisection brackets the infimum to
    an absolute half-width of LEVY_TOL.
    """

    def ok(h: float) -> bool:
        return levy_condition(F, G, h) and levy_condition(G, F, h)

    if not ok(1.0):
        raise AssertionError("Levy condition must hold at h = 1 on Delta+")
    lo, hi = 0.0, 1.0
    while hi - lo > 2.0 * LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return LevyDistance(0.5 * (lo + hi), 0.5 * (hi - lo))
