"""Linear operators between PN-spaces: exact (w, w') norms and the derived
open-mapping / norm-equivalence / uniform-boundedness computations.

Exact operator norms rely on the band norms' unit balls being polytopes: the
sup of a convex function over a polytope sits at a vertex.  The vertices come
in +-pairs and a band norm is even, so one vertex of each pair suffices: n for
a weighted-L1 domain and 2^(n-1) sign vectors for a weighted-Linf domain
(capped at n = 20), built column by column in blocks of at most 2^16 rows.
Every exact quantity is read from `_norm_table`, which enumerates one domain
band's vertices and returns a table over matrices x codomain bands.  A duck
codomain norm must be even in floats, eval_many(-Y) == eval_many(Y) bit for
bit (N2 with alpha = -1), for the tables to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pnspace import PNSpace, WeightedNorm, _check_vector

MC_JITTER = 3e-4
_SINGULAR_COND = 1e12
_OPEN_MAPPING_SHRINK = 0.999  # sampled radius as a share of delta


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A dense real matrix acting between two PN-spaces."""

    matrix: np.ndarray
    domain: PNSpace
    codomain: PNSpace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if m.shape != (self.codomain.dimension, self.domain.dimension):
            raise ValueError(
                f"matrix shape {m.shape} does not match spaces "
                f"({self.codomain.dimension} x {self.domain.dimension})"
            )
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ _check_vector(self.domain.family, x)


def compose(S: LinearOperator, T: LinearOperator) -> LinearOperator:
    """S after T; the middle space must agree."""
    if S.domain != T.codomain:
        raise ValueError("composition needs S.domain == T.codomain")
    return LinearOperator(S.matrix @ T.matrix, T.domain, S.codomain)


def _band_norm(space: PNSpace, w: float):
    """The band norm in force at w, as a left limit (the band of norm_at)."""
    return space.family.bands[space.family.band_index_left(w)].norm


def _apply_rows(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """matrix @ x per row x of X, bit for bit as apply (X @ matrix.T rounds otherwise)."""
    return (matrix @ X[:, :, None])[..., 0]


def _norm_table(dom_norm, matrices, cod_norms) -> np.ndarray:
    """Exact norms from one domain band: entry (i, j) is the sup of
    cod_norms[j] over matrices[i] applied to the unit ball of dom_norm.

    The sup sits at a vertex, and the vertices come in +-pairs, so one of
    each pair is enumerated, block by block, and each block's images are
    formed once per matrix.  Negation is exact and the product accumulates
    every image entry in one order, so the image of -v is -(image of v) bit
    for bit, and a norm that is even in floats takes one value on both.  A
    weighted-L1 ball's vertices are +-e_j / w_j, so from an L1 domain the
    norm is the best of n columns scaled by 1 / w_j.  A norm beyond the float
    range is a ValueError, with no numpy warning.
    """
    if not isinstance(dom_norm, WeightedNorm):
        raise ValueError("exact operator norms need a weighted L1/Linf domain band")
    table = None
    # an image past the float range holds inf, or nan from inf - inf (which
    # numpy's one-row product reports as invalid); np.maximum keeps a nan
    with np.errstate(over="ignore", invalid="ignore"):
        for verts in dom_norm._vertex_blocks():
            images = (verts @ matrix.T for matrix in matrices)
            block = np.array([[cod.eval_many(im).max() for cod in cod_norms] for im in images])
            table = block if table is None else np.maximum(table, block)
    if not (table < np.inf).all():
        raise ValueError("operator norm overflows the float range")
    return table


def operator_norm_exact(T: LinearOperator, w: float, wp: float) -> float:
    """||T||_(w,w') = sup{||Tx||_w' : ||x||_w <= 1} by vertex enumeration."""
    dom_norm, cod_norm = _band_norm(T.domain, w), _band_norm(T.codomain, wp)
    return float(_norm_table(dom_norm, (T.matrix,), (cod_norm,))[0, 0])


def _mc_directions(rng, n: int, samples: int, dom_norm) -> np.ndarray:
    """Stratified sample of directions: dense Gaussians, sparse-support
    Gaussians and sign patterns, the latter two with a small dense jitter so
    near-vertex values are seen without ever reproducing a vertex exactly."""
    k1 = samples // 3
    k2 = samples // 3
    k3 = samples - k1 - k2
    dense = rng.standard_normal((k1, n))
    sizes = rng.integers(1, n + 1, k2)
    mask = rng.random((k2, n)).argsort(axis=1) < sizes[:, None]
    sparse = rng.standard_normal((k2, n)) * mask + MC_JITTER * rng.standard_normal((k2, n))
    base = rng.choice((-1.0, 1.0), (k3, n))
    if isinstance(dom_norm, WeightedNorm):
        base = base / np.array(dom_norm.weights)
    signs = base + MC_JITTER * rng.standard_normal((k3, n))
    return np.concatenate((dense, sparse, signs))


def operator_norm_mc(T: LinearOperator, w: float, wp: float, samples: int, seed: int) -> float:
    """Lower bound on the operator norm from points on the unit sphere of ||.||_w.

    Deterministic per seed (counter-based Philox stream, single batch).
    Always <= operator_norm_exact.
    """
    n = T.domain.dimension
    dom_norm = _band_norm(T.domain, w)
    cod_norm = _band_norm(T.codomain, wp)
    rng = np.random.Generator(np.random.Philox(seed))
    X = _mc_directions(rng, n, samples, dom_norm)
    # a norm that overflows is inf, with no numpy warning: it is skipped or
    # rescaled below
    with np.errstate(over="ignore"):
        den = dom_norm.eval_many(X)
        # zero norms have no direction, and overflowed ones no finite ratio
        keep = (den > 0) & (den < np.inf)
        X, den = X[keep], den[keep]
        images = X @ T.matrix.T
        # same homogeneous quantity through two float paths; the min plus a
        # 1e-14 relative shave keeps each sampled value a true lower bound even
        # where the ratio is exactly flat and rounding goes the wrong way
        ratio = cod_norm.eval_many(images) / den
        rescaled = cod_norm.eval_many(images / den[:, None])
    return float(np.minimum(ratio, rescaled).max(initial=0.0) * (1.0 - 1e-14))


@dataclass(frozen=True, eq=False)
class NormProfile:
    """Exact operator norms over every (domain band, codomain band) pair."""

    domain_midpoints: tuple[float, ...]
    codomain_midpoints: tuple[float, ...]
    table: np.ndarray  # rows: domain bands, cols: codomain bands

    def to_csv(self) -> str:
        header = "w\\w'," + ",".join(repr(float(w)) for w in self.codomain_midpoints)
        lines = [header]
        for w, row in zip(self.domain_midpoints, self.table):
            lines.append(repr(float(w)) + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def norm_profile(T: LinearOperator) -> NormProfile:
    cod_norms = [b.norm for b in T.codomain.family.bands]
    table = np.concatenate(
        [_norm_table(b.norm, (T.matrix,), cod_norms) for b in T.domain.family.bands]
    )
    return NormProfile(
        T.domain.family.midpoints(), T.codomain.family.midpoints(), table
    )


@dataclass(frozen=True)
class BoundCheckReport:
    bound: float
    max_ratio: float
    passed: bool


def bound_check(T: LinearOperator, w: float, wp: float, trials: int, seed: int) -> BoundCheckReport:
    """Verify ||Tx||_w' <= ||T||_(w,w') ||x||_w on trials >= 0 random x (and x = 0).

    A sample whose norm ||x||_w overflows is skipped; one whose image norm
    overflows has its ratio measured as ||T(x / ||x||_w)||_w'.
    """
    bound = operator_norm_exact(T, w, wp)
    dom_norm, cod_norm = _band_norm(T.domain, w), _band_norm(T.codomain, wp)
    rng = np.random.Generator(np.random.Philox(seed))
    zero = cod_norm.eval_many(T.apply(np.zeros(T.domain.dimension)))
    X = rng.uniform(-3.0, 3.0, (trials, T.domain.dimension))
    with np.errstate(over="ignore"):  # as in operator_norm_mc
        nx = dom_norm.eval_many(X)
        keep = (nx > 0) & (nx < np.inf)
        X, nx = X[keep], nx[keep]
        images = cod_norm.eval_many(_apply_rows(T.matrix, X))
        ratios = images / nx
        over = images == np.inf
        ratios[over] = cod_norm.eval_many(_apply_rows(T.matrix, X[over] / nx[over, None]))
    max_ratio = float(ratios.max(initial=0.0))
    return BoundCheckReport(bound, max_ratio, bool(zero == 0.0 and max_ratio <= bound + 1e-9))


def functional_norm(f: LinearOperator, w: float) -> float:
    """||f||_w for a functional: inf over w' > w of the (w', .) operator norm.

    With band-constant families the inf is the entry of the band sitting just
    to the right of w, so the band lookup is right-continuous here (unlike
    norm_at's left limit).
    """
    cod = f.codomain.family
    ok = (
        f.codomain.dimension == 1
        and len(cod.bands) == 1
        and isinstance(cod.bands[0].norm, WeightedNorm)
        and cod.bands[0].norm.weights == (1.0,)
    )
    if not ok:
        raise ValueError("functional_norm needs the 1-dim single-band codomain with weight 1")
    dom = f.domain.family
    dom_norm = dom.bands[dom.band_index(w)].norm
    return float(_norm_table(dom_norm, (f.matrix,), (cod.bands[0].norm,))[0, 0])


def graph_norm(T: LinearOperator, x, w: float, wp: float) -> float:
    """||x||' = ||x||_{V,w} + ||Tx||_{W,w'} (the closed-graph norm)."""
    return T.domain.norm_at(x, w) + T.codomain.norm_at(T.apply(x), wp)


@dataclass(frozen=True)
class OpenMappingDelta:
    delta: float
    condition_number: float


def open_mapping_delta(T: LinearOperator, w: float) -> OpenMappingDelta:
    """Radius delta with B_{W,w}(0; delta) inside T(B_{V,w}(0; 1)).

    delta = 1 / ||T^{-1}||_(w,w); requires a square invertible matrix.  A
    radius beyond the float range (||T^{-1}|| below 1 / float max) is a
    ValueError.
    """
    m, n = T.matrix.shape
    if m != n:
        raise ValueError("open mapping radius needs a square matrix")
    cond = float(np.linalg.cond(T.matrix))
    if not np.isfinite(cond) or cond > _SINGULAR_COND:
        raise ValueError("matrix is singular (open mapping needs surjectivity)")
    inverse = LinearOperator(np.linalg.inv(T.matrix), T.codomain, T.domain)
    delta = 1.0 / operator_norm_exact(inverse, w, w)
    if delta == np.inf:
        raise ValueError("open mapping radius overflows the float range")
    return OpenMappingDelta(delta, cond)


@dataclass(frozen=True)
class OpenMappingCheck:
    delta: float
    max_preimage_norm: float
    passed: bool


def open_mapping_check(T: LinearOperator, w: float, samples: int, seed: int) -> OpenMappingCheck:
    """Sample y with ||y||_{W,w} just below delta and verify ||T^{-1} y||_w < 1."""
    res = open_mapping_delta(T, w)
    radius = res.delta * _OPEN_MAPPING_SHRINK * (1.0 - 1e-9)
    inv = np.linalg.inv(T.matrix)
    rng = np.random.Generator(np.random.Philox(seed))
    D = rng.standard_normal((samples, T.codomain.dimension))
    ny = _band_norm(T.codomain, w).eval_many(D)
    Y = D[ny > 0] * (radius / ny[ny > 0])[:, None]
    worst = float(_band_norm(T.domain, w).eval_many(_apply_rows(inv, Y)).max(initial=0.0))
    return OpenMappingCheck(res.delta, worst, worst < 1.0)


@dataclass(frozen=True, eq=False)
class NormEquivalenceReport:
    forward: NormProfile  # identity P1 -> P2
    backward: NormProfile  # identity P2 -> P1
    max_violation: float
    passed: bool


def norm_equivalence_constants(
    P1: PNSpace, P2: PNSpace, trials: int, seed: int
) -> NormEquivalenceReport:
    """Two-sided equivalence constants via the identity map, verified on trials >= 0 samples."""
    if P1.dimension != P2.dimension:
        raise ValueError("spaces must share a dimension")
    eye = np.eye(P1.dimension)
    forward = norm_profile(LinearOperator(eye, P1, P2))
    backward = norm_profile(LinearOperator(eye, P2, P1))
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.uniform(-3.0, 3.0, (trials, P1.dimension))
    # (trials, bands) norms at the band midpoints, checked over every band pair at once
    nx1, nx2 = P1.family.band_values(X), P2.family.band_values(X)
    # band_values reports no overflow, and inf - inf would read as a violation
    if not (np.isfinite(nx1).all() and np.isfinite(nx2).all()):
        raise ValueError("a sample's band norm overflows the float range")
    nx1, nx2 = nx1[:, :, None], nx2[:, None, :]
    worst = float(max(
        (nx2 - forward.table * nx1).max(initial=0.0),
        (nx1 - backward.table.T * nx2).max(initial=0.0),
    ))
    return NormEquivalenceReport(forward, backward, worst, worst <= 1e-9)


@dataclass(frozen=True)
class UniformBoundResult:
    w: float
    bound: float
    band_sups: tuple[float, ...]
    probe_sups: tuple[float, ...]


def uniform_bound(family, wp: float, probes=()) -> UniformBoundResult:
    """Smallest per-band sup of ||T_n||_(w,w') over a finite operator family.

    Returns the domain band (midpoint) minimizing the family sup, plus the
    pointwise premise sup_n ||T_n x||_w' for any supplied probe vectors.
    The members must share one domain and one codomain.
    """
    family = list(family)
    if not family:
        raise ValueError("operator family must be nonempty")
    if any(T.domain != family[0].domain or T.codomain != family[0].codomain for T in family):
        raise ValueError("operator family members must share a domain and a codomain")
    dom = family[0].domain.family
    cod_norm = _band_norm(family[0].codomain, wp)
    matrices = [T.matrix for T in family]
    band_sups = [float(_norm_table(b.norm, matrices, (cod_norm,)).max()) for b in dom.bands]
    best = min(range(len(band_sups)), key=band_sups.__getitem__)
    X = np.array([_check_vector(dom, x) for x in probes]).reshape(-1, dom.dimension)
    sups = np.max([cod_norm.eval_many(_apply_rows(M, X)) for M in matrices], axis=0).tolist()
    return UniformBoundResult(dom.midpoints()[best], band_sups[best], tuple(band_sups), tuple(sups))
