"""Reference strong-neighbourhood membership: nu_{p-q} built whole, read at t.

This is PNSpace.neighborhood_contains as it was before its one-band
decision, kept verbatim.  The decision must return its verdict, or raise
its error, on every family.
"""

from probnorm.distfn import df_eval
from probnorm.pnspace import PNSpace


def stepdf_neighborhood_contains(P: PNSpace, p, t: float, q) -> bool:
    """Membership q in N_p(t) = {q : nu_{p-q}(t) > 1 - t}."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return df_eval(P.pm_distance(p, q), t) > 1.0 - t
