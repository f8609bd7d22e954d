"""Reference PN-axiom check: one prob_norm StepDF per sampled vector.

This is the sample loop that validate_pn_axioms's band-value rows replaced.
It draws the same blocks in the same order (N1's x, N3's (x, y), (S)'s x,
(S)'s general scalars), builds nu_x for every vector of them, and decides
N1, N3 and (S) on the StepDFs and their hats; the row decision must return
its PNAxiomReport, or raise its error, on every family that does not reach
the subnormal range.  N3 sums the hats inside _hat_le, so that a sum past
the float range is +inf, where N3 holds, and not qf_add's ValueError.
"""

import numpy as np

from probnorm.distfn import df_scale, quasi_inverse, unit_step
from probnorm.pnspace import CheckResult, PNAxiomReport, PNSpace, _hat_le

from band_values import band_values

# every power-of-two scalar the loop checks, signs included: the reference
# decides each on its own StepDF
EXACT_SCALARS = (0.5, 2.0, 4.0, 0.25, -0.5, -2.0, -1.0)


def _first_failure(witnesses) -> CheckResult:
    """FAIL at the first witness; else PASS."""
    for witness in witnesses:
        return CheckResult(False, witness)
    return CheckResult(True)


def stepdf_validate_pn_axioms(P: PNSpace, samples: int = 50, seed: int = 0) -> PNAxiomReport:
    """Sampled checks of N1, N2, N3 (with tau_M), and the scaling law.

    N3 is decided on hats, with no convolution: hat tau_M(F, G) = hat F +
    hat G, and nu_{x+y} >= tau_M(nu_x, nu_y) iff hat nu_{x+y} <= hat nu_x +
    hat nu_y on (0, 1].

    Scaling is asserted as exact StepDF equality for power-of-two scalars
    (where float scaling commutes with the norm evaluation) and to 1e-12
    relative at the seminorm level for general scalars.  N2 draws nothing:
    it compares the band values of -x and x on N1's samples, which never
    raises, as nu_x is a function of that row.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = np.random.default_rng(seed)
    n = P.dimension
    x1 = rng.uniform(-3.0, 3.0, (samples, n))
    x3 = rng.uniform(-3.0, 3.0, (samples, 2, n))
    xs = rng.uniform(-3.0, 3.0, (samples, n))
    alphas = rng.uniform(0.1, 5.0, samples) * rng.choice((-1.0, 1.0), samples)
    h0 = unit_step(0.0)

    def n1():
        if P.prob_norm(np.zeros(n)) != h0:
            yield "nu at the null vector is not H_0"
            return
        for x in x1:
            # x = 0 is no counterexample: nu_0 = H_0 is N1 itself
            if np.any(x != 0.0) and P.prob_norm(x) == h0:
                yield f"nu_x = H_0 at x = {x.tolist()}"

    def n2():
        for x in x1:
            if band_values(P, -x) != band_values(P, x):
                yield f"nu_-x != nu_x at x = {x.tolist()}"

    def n3():
        for x, y in x3:
            lhs = quasi_inverse(P.prob_norm(x + y))
            if not _hat_le(lhs, quasi_inverse(P.prob_norm(x)), quasi_inverse(P.prob_norm(y))):
                yield f"N3 fails at x = {x.tolist()}, y = {y.tolist()}"

    def scaling():
        for x, alpha in zip(xs, alphas.tolist()):
            nu = P.prob_norm(x)
            for a in EXACT_SCALARS:
                if P.prob_norm(a * x) != df_scale(nu, abs(a)):
                    yield f"(S) fails at alpha = {a}"
            for v, sv in zip(band_values(P, x), band_values(P, alpha * x)):
                if abs(sv - abs(alpha) * v) > 1e-12 * (1.0 + abs(alpha) * v):
                    yield f"(S) off tolerance at alpha = {alpha}"

    ok, msg = P.family.monotone_report()
    monotone = CheckResult(ok, None if ok else msg)
    return PNAxiomReport(monotone, *map(_first_failure, (n1(), n2(), n3(), scaling())))
