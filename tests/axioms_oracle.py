"""Reference PN-axiom check: one prob_norm StepDF per sampled vector.

This is the sample loop that validate_pn_axioms's band-value rows replaced,
kept verbatim.  It builds nu_x for every vector it draws and decides N1,
N2, N3 and (S) on the StepDFs and their hats; the row decision must return
its PNAxiomReport, or raise its error, on every family that does not reach
the subnormal range.
"""

import numpy as np

from probnorm.distfn import df_scale, qf_add, quasi_inverse, unit_step
from probnorm.pnspace import (
    _EXACT_SCALARS,
    CheckResult,
    PNAxiomReport,
    PNSpace,
    _hat_le,
    _nonzero,
)


def _first_failure(witnesses) -> CheckResult:
    """FAIL at the first witness, without advancing the generator past it; else PASS."""
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
    relative at the seminorm level for general scalars.  One rng is drawn
    in the order N1, N2, N3, (S).
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = np.random.default_rng(seed)
    n = P.dimension
    h0 = unit_step(0.0)

    def n1():
        if P.prob_norm(np.zeros(n)) != h0:
            yield "nu at the null vector is not H_0"
            return
        for _ in range(samples):
            x = _nonzero(rng, n)
            if P.prob_norm(x) == h0:
                yield f"nu_x = H_0 at x = {x.tolist()}"

    def n2():
        for _ in range(samples):
            x = _nonzero(rng, n)
            if P.prob_norm(-x) != P.prob_norm(x):
                yield f"nu_-x != nu_x at x = {x.tolist()}"

    def n3():
        for _ in range(samples):
            x, y = _nonzero(rng, n), _nonzero(rng, n)
            lhs = quasi_inverse(P.prob_norm(x + y))
            rhs = qf_add(quasi_inverse(P.prob_norm(x)), quasi_inverse(P.prob_norm(y)))
            if not _hat_le(lhs, rhs):
                yield f"N3 fails at x = {x.tolist()}, y = {y.tolist()}"

    def scaling():
        for _ in range(samples):
            x = _nonzero(rng, n)
            nu = P.prob_norm(x)
            for alpha in _EXACT_SCALARS:
                if P.prob_norm(alpha * x) != df_scale(nu, abs(alpha)):
                    yield f"(S) fails at alpha = {alpha}"
            alpha = float(rng.uniform(0.1, 5.0)) * float(rng.choice((-1.0, 1.0)))
            for v, sv in zip(P.band_values(x), P.band_values(alpha * x)):
                if abs(sv - abs(alpha) * v) > 1e-12 * (1.0 + abs(alpha) * v):
                    yield f"(S) off tolerance at alpha = {alpha}"

    ok, msg = P.family.monotone_report()
    monotone = CheckResult(ok, None if ok else msg)
    return PNAxiomReport(monotone, *map(_first_failure, (n1(), n2(), n3(), scaling())))
