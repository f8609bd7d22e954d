"""Reference unit-ball vertices: every vertex of a weighted L1 / Linf ball.

This is the full enumeration that `operators._vertex_blocks` replaced,
kept as it was: 2n rows for L1, and for Linf the 2^n sign vectors from a bit
matrix, in itertools.product((1, -1), repeat=n) order.  The half set and its
blocks must reproduce its first half byte for byte, and an exact norm taken
over it must equal the library's bit for bit.
"""

import numpy as np

from probnorm.operators import LINF_VERTEX_DIM_CAP
from probnorm.pnspace import NormKind


def unit_ball_vertices(norm) -> np.ndarray:
    """Vertices of the closed unit ball (the polytope {x : norm(x) <= 1}).

    Linf vertices come in itertools.product((1, -1), repeat=n) order: row
    r has sign -1 at coordinate j iff bit n-1-j of r is set.
    """
    n = norm.dimension
    inv = 1.0 / np.array(norm.weights)
    if norm.kind is NormKind.L1:
        return np.concatenate((np.diag(inv), -np.diag(inv)))
    if n > LINF_VERTEX_DIM_CAP:
        raise ValueError(
            f"Linf vertex enumeration rejected for n = {n} > {LINF_VERTEX_DIM_CAP}; "
            "use the Monte-Carlo bound instead"
        )
    minus = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(minus, -inv, inv)


def oracle_norm(matrix, dom_norm, cod_norm) -> float:
    """One exact norm as the max of cod_norm over the images of every vertex:
    inf or nan where an image overflows, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(cod_norm.eval_many(unit_ball_vertices(dom_norm) @ matrix.T).max())
