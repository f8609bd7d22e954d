"""Linear operators between PN-spaces: exact (w, w') norms and the derived
open-mapping / norm-equivalence / uniform-boundedness computations.

Exact operator norms rely on the band norms' unit balls being polytopes: the
sup of a convex function over a polytope sits at a vertex, so a weighted-L1
domain needs 2n evaluations and a weighted-Linf domain 2^n (capped).  Every
exact quantity is read from `_norm_table`, which enumerates one domain band's
vertices and returns a table over matrices x codomain bands.
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

    The vertices are enumerated once and each matrix's images formed once.
    A weighted-L1 ball's vertices are +-e_j / w_j, so from an L1 domain the
    norm is the best of n columns scaled by 1 / w_j.
    """
    if not isinstance(dom_norm, WeightedNorm):
        raise ValueError("exact operator norms need a weighted L1/Linf domain band")
    verts = dom_norm.unit_ball_vertices()
    images = (verts @ matrix.T for matrix in matrices)
    return np.array([[cod.eval_many(im).max() for cod in cod_norms] for im in images])


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
    den = dom_norm.eval_many(X)
    X = X[den > 0]
    den = den[den > 0]
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
    """Verify ||Tx||_w' <= ||T||_(w,w') ||x||_w on trials >= 0 random x (and x = 0)."""
    bound = operator_norm_exact(T, w, wp)
    dom_norm, cod_norm = _band_norm(T.domain, w), _band_norm(T.codomain, wp)
    rng = np.random.Generator(np.random.Philox(seed))
    zero = cod_norm.eval(T.apply(np.zeros(T.domain.dimension)))
    X = rng.uniform(-3.0, 3.0, (trials, T.domain.dimension))
    nx = dom_norm.eval_many(X)
    ratios = cod_norm.eval_many(_apply_rows(T.matrix, X[nx > 0])) / nx[nx > 0]
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

    delta = 1 / ||T^{-1}||_(w,w); requires a square invertible matrix.
    """
    m, n = T.matrix.shape
    if m != n:
        raise ValueError("open mapping radius needs a square matrix")
    cond = float(np.linalg.cond(T.matrix))
    if not np.isfinite(cond) or cond > _SINGULAR_COND:
        raise ValueError("matrix is singular (open mapping needs surjectivity)")
    inverse = LinearOperator(np.linalg.inv(T.matrix), T.codomain, T.domain)
    return OpenMappingDelta(1.0 / operator_norm_exact(inverse, w, w), cond)


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
    nx1 = np.array([b.norm.eval_many(X) for b in P1.family.bands]).T[:, :, None]
    nx2 = np.array([b.norm.eval_many(X) for b in P2.family.bands]).T[:, None, :]
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
