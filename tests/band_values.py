"""The band values of one vector, checked first, as the tests read them."""

from probnorm.pnspace import PNSpace, _check_vector


def band_values(P: PNSpace, x) -> list[float]:
    """p(x, w) on every band of P, in band order; x must be a finite vector of P's dimension."""
    return P.family.band_values(_check_vector(P.family, x)).tolist()
