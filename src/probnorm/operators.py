"""Linear operators between PN-spaces: exact (w, w') norms and the derived
open-mapping / norm-equivalence / uniform-boundedness computations.

Exact operator norms rely on the band norms' unit balls being polytopes: the
sup of a convex function over a polytope sits at a vertex.  That is why a
band norm is a weighted L1/Linf norm or a block sum of them, nothing else.
Every exact quantity is read from `_norm_table`, which returns a table over
matrices x codomain bands for one domain band.  It enumerates one vertex of
each +-pair of the domain ball (n for a weighted-L1 domain, 2^(n-1) sign
vectors for a weighted-Linf one, capped at n = 20, which `_vertex_blocks`
builds by doubling whole rows in blocks of at most 2^16 rows), or, for an
Linf domain where that is fewer coordinates to read, of the codomain's dual
ball (`_dual_blocks`), by ||T|| = ||T^T||_(Y*, X*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pnspace import (
    NormKind,
    PNSpace,
    WeightedNorm,
    _check_count,
    _check_vector,
    _stacked_values,
    _structure,
)

LINF_VERTEX_DIM_CAP = 20
_VERTEX_BLOCK_BITS = 16  # a block of Linf sign vertices, or of dual vertices over all bands, holds at most 2^16 rows
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
        return _product(self.matrix, _check_vector(self.domain.family, x), "the image T x")


def compose(S: LinearOperator, T: LinearOperator) -> LinearOperator:
    """S after T; the middle space must agree."""
    if S.domain != T.codomain:
        raise ValueError("composition needs S.domain == T.codomain")
    return LinearOperator(_product(S.matrix, T.matrix, "the product S T"), T.domain, S.codomain)


def _product(A: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """A @ B of finite factors, or a ValueError naming what overflows, with
    no numpy warning: past the float range it holds inf, or nan from inf - inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = A @ B
    if not np.isfinite(out).all():
        raise ValueError(f"{what} overflows the float range")
    return out


def _band_norm(space: PNSpace, w: float):
    """The band norm in force at w, as a left limit (the band of norm_at)."""
    return space.family.bands[space.family.band_index_left(w)].norm


def _apply_rows(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """matrix @ x per row x of X, bit for bit as apply (X @ matrix.T rounds otherwise)."""
    return (matrix @ X[:, :, None])[..., 0]


def _check_linf_cap(n: int) -> None:
    if n > LINF_VERTEX_DIM_CAP:
        raise ValueError(
            f"Linf vertex enumeration rejected for n = {n} > {LINF_VERTEX_DIM_CAP}; "
            "use the Monte-Carlo bound instead"
        )


def _vertex_blocks(norm: WeightedNorm):
    """One vertex of each +-pair of norm's closed unit ball, in blocks of rows.

    L1: the n rows of diag(1 / w).  Linf: the 2^(n-1) sign vectors whose
    coordinate 0 is positive, the first half of
    itertools.product((1, -1), repeat=n) order (row r has sign -1 at
    coordinate j iff bit n-1-j of r is set), in blocks of at most
    2^_VERTEX_BLOCK_BITS rows.  The low bits, which run within a block, are
    built once by doubling: row 0 is +1/w, and rows [s, 2s) are rows [0, s)
    with coordinate n-1-log2(s) negated, so each step copies whole rows.
    The high bits, one set per block, are written per block.  Every block
    is the one array, rewritten in place, so a block must be used before
    the next is drawn.
    """
    n = norm.dimension
    inv = 1.0 / np.array(norm.weights)
    if norm.kind is NormKind.L1:
        yield np.diag(inv)
        return
    _check_linf_cap(n)
    b = min(n - 1, _VERTEX_BLOCK_BITS)
    block = np.empty((2**b, n))
    block[0] = inv
    for k in range(b):
        s = 2**k
        block[s : 2 * s] = block[:s]
        block[s : 2 * s, n - 1 - k] = -inv[n - 1 - k]
    # coordinate j < n - b has sign -1 iff bit n-1-b-j of the block index is
    # set: all +1/w in block 0, as row 0 left them
    high = np.arange(n - 1 - b, -1, -1)
    for q in range(2 ** (n - 1 - b)):
        if q:
            block[:, : n - b] = np.where((q >> high) & 1, -inv[: n - b], inv[: n - b])
        yield block


def _leaves(key, m: int, off: int = 0) -> list:
    """(kind, offset, dimension) of each weighted part of a band norm
    structure on R^m, in coordinate order, at any block-sum depth."""
    if isinstance(key, NormKind):
        return [(key, off, m)]
    parts = []
    for part, d in key:
        parts += _leaves(part, d, off)
        off += d
    return parts


def _dual_parts(key, m: int) -> list:
    """(kind, offset, dimension, count) of each weighted part of a codomain
    structure, count its dual-ball vertices, the first part's halved.

    The dual ball of a weighted L1 part is the box |z_i| <= w'_i, with the
    2^d vertices u * w' (u in {+-1}^d); that of a weighted Linf part is the
    cross-polytope with the 2d vertices +-w'_i e_i.  A block sum's dual norm
    is the max of its parts', so its dual ball is the product of theirs and
    a vertex takes one vertex of each part.  Halving the first part's count
    keeps one vertex of each +-pair.
    """
    parts = [(kind, off, d, 2**d if kind is NormKind.L1 else 2 * d) for kind, off, d in _leaves(key, m)]
    kind, off, d, count = parts[0]
    parts[0] = (kind, off, d, count // 2)
    return parts


def _dual_blocks(parts, m: int, rows: int):
    """The coefficients c in {-1, 0, 1}^m of the dual vertices z = c * w',
    in blocks of at most rows rows.  Vertex r reads one digit of r per part,
    the last part's fastest: an L1 part's digit k sets sign -1 on its
    coordinate j iff bit d-1-j of k is set, and an Linf part's digit k
    picks its coordinate k mod d, with sign -1 iff k >= d.  The halved first
    digit keeps the first part's first vertex coordinate positive.
    """
    total = math.prod(count for *_, count in parts)
    for lo in range(0, total, rows):
        r = np.arange(lo, min(lo + rows, total))
        C = np.zeros((len(r), m))
        for kind, off, d, count in parts[::-1]:
            r, k = np.divmod(r, count)
            if kind is NormKind.L1:
                C[:, off : off + d] = 1 - 2 * ((k[:, None] >> np.arange(d - 1, -1, -1)) & 1)
            else:
                C[np.arange(len(k)), off + k % d] = np.where(k < d, 1.0, -1.0)
        yield C


def _primal_tables(dom_norm, matrices, key, W):
    """Per block of domain vertices, every matrix's sup over the block of
    each codomain band (a row of W), all bands read in one reduction."""
    for verts in _vertex_blocks(dom_norm):
        yield np.array([_stacked_values(key, W, verts @ M.T).max(axis=0) for M in matrices])


def _dual_tables(dom_norm, matrices, parts, W):
    """Per block of dual vertices, every matrix's sup over the block of
    sum_j |(z^T T)_j| / w_j, for the dual vertices z = c * w' of each
    codomain band (a row of W).  The rows w'_i T_i / w are formed once per
    matrix and band; c^T takes their signed sums in one matrix product per
    band, of the block's shape whatever the bands stacked with it, over as
    many bands at once as keep the products within 2^_VERTEX_BLOCK_BITS
    rows."""
    w = np.array(dom_norm.weights)
    # (bands, m, n) per matrix: row i of band k is w'_ki T_i / w
    scaled = [W[:, :, None] * (M / w) for M in matrices]
    for C in _dual_blocks(parts, W.shape[1], 2**_VERTEX_BLOCK_BITS):
        step = max(1, 2**_VERTEX_BLOCK_BITS // len(C))
        yield np.array([
            np.concatenate([np.abs(C @ R[k : k + step]).sum(axis=-1).max(axis=-1) for k in range(0, len(R), step)])
            for R in scaled
        ])


def _norm_table(dom_norm, matrices, cod) -> np.ndarray:
    """Exact norms from one domain band: entry (i, j) is the sup of the
    codomain norm with weights cod[1][j], of structure cod[0], over
    matrices[i] applied to the unit ball of dom_norm.

    The sup sits at a vertex of the domain ball (primal side), and equally,
    by ||T|| = ||T^T||_(Y*, X*), at a vertex z of the codomain's dual ball,
    read as the domain's dual norm of T^T z (dual side).  Both vertex sets
    come in +-pairs on which the value is the same, so one of each pair is
    enumerated, in blocks.  A weighted-L1 domain takes its n columns scaled
    by 1 / w_j (primal).  A weighted-Linf domain (n <= 20) takes the side
    with less to read: its 2^(n-1) sign vertices, each image m coordinates
    long, or the D dual pairs, each read on n coordinates,
    with D = m for an Linf codomain, 2^(m-1) for an L1 codomain and half
    the product of the parts' counts for a block sum (see _dual_parts).
    The dual is taken iff D n < 2^(n-1) m.  The rule reads only the
    structure, which every band of a family shares, so a profile entry and
    the single norm of the same band pair take one side, and one
    arithmetic, bit for bit.

    Primal: negation is exact and the product accumulates every image entry
    in one order, so the image of -v is -(image of v) bit for bit, and a
    band norm, a function of |image|, takes one value on both.  Dual:
    sum_j |g_j| is even in g, so -z gives z's value.

    Error bound.  Let A = || |T| (1 / w) ||_cod, the codomain norm of |T|
    applied to the all-positive vertex (A >= ||T||, with equality when no
    image entry cancels), and gamma_k as in _gamma.  A primal vertex value
    carries at most k = n + m + 1 roundings per term: 1 in fl(1 / w_j), n
    in an image entry (a product and n - 1 sums), and m in the codomain
    norm (a weight product and at most m - 1 sums, whatever the block
    split; a max rounds nothing).  A dual value carries at most k = n + m:
    1 in T_ij / w_j, 1 in the product with w'_i, m - 1 in the signed sum over
    i (c is 0 or +-1, so the matrix product's own products are exact, in
    whatever order it sums) and n - 1 in the sum over j (n + 1 for an Linf
    codomain, whose c has one nonzero coordinate).  By Higham's Lemma 3.1 and (1 + gamma_a)(1 +
    gamma_b) <= 1 + gamma_(a+b), each computed vertex value is within
    gamma_k times its sum of |terms| of its exact value; that sum is at
    most A on either side (the dual's is |z|^T |T| (1 / w), and |z| lies in
    the dual ball), and the exact sups over both sets are ||T||.  So the
    table entry is within gamma_(n+m+1) A of ||T|| on the primal side and
    gamma_(n+m) A on the dual side, barring underflow.

    A norm beyond the float range is a ValueError, with no numpy warning.
    """
    if not isinstance(dom_norm, WeightedNorm):
        raise ValueError("exact operator norms need a weighted L1/Linf domain band")
    key, W = cod
    n, m = dom_norm.dimension, W.shape[1]
    dual = False
    if dom_norm.kind is NormKind.LINF:
        _check_linf_cap(n)
        parts = _dual_parts(key, m)
        dual = math.prod(count for *_, count in parts) * n < 2 ** (n - 1) * m
    tables = _dual_tables(dom_norm, matrices, parts, W) if dual else _primal_tables(dom_norm, matrices, key, W)
    table = None
    # a value past the float range is inf, or nan from inf - inf (which
    # numpy's one-row product reports as invalid); np.maximum keeps a nan
    with np.errstate(over="ignore", invalid="ignore"):
        for block in tables:
            table = block if table is None else np.maximum(table, block)
    if not (table < np.inf).all():
        raise ValueError("operator norm overflows the float range")
    return table


def _codomain_band(norm):
    """(structure key, 1 x m weights) of one codomain band norm."""
    key, weights = _structure(norm)
    return key, np.array([weights])


def operator_norm_exact(T: LinearOperator, w: float, wp: float) -> float:
    """||T||_(w,w') = sup{||Tx||_w' : ||x||_w <= 1}, exact up to the
    roundings bounded in _norm_table."""
    dom_norm, cod_norm = _band_norm(T.domain, w), _band_norm(T.codomain, wp)
    return float(_norm_table(dom_norm, (T.matrix,), _codomain_band(cod_norm))[0, 0])


def _philox(seed) -> np.random.Generator:
    """The seeded counter-based Philox stream of the sampled checks."""
    return np.random.Generator(np.random.Philox(_check_count(seed, "seed")))


def _mc_strata(rng, n: int, samples: int, dom_norm):
    """Stratified sample of directions: dense Gaussians, sparse-support
    Gaussians and sign patterns, the latter two with a small dense jitter so
    near-vertex values are seen without ever reproducing a vertex exactly.

    The strata are yielded in that order, each as soon as it is drawn, so
    the caller evaluates one before the next is drawn; the draws, their
    order and their arithmetic are those of drawing all three and stacking
    them.  Each stratum's temporaries are a third of the stack's.
    """
    k1 = k2 = samples // 3
    yield rng.standard_normal((k1, n))
    sizes = rng.integers(1, n + 1, k2)
    mask = rng.random((k2, n)).argsort(axis=1) < sizes[:, None]
    sparse = rng.standard_normal((k2, n))
    sparse *= mask
    sparse += MC_JITTER * rng.standard_normal(sparse.shape)
    yield sparse
    signs = rng.choice((-1.0, 1.0), (samples - k1 - k2, n))
    if isinstance(dom_norm, WeightedNorm):
        signs /= dom_norm.weights
    signs += MC_JITTER * rng.standard_normal(signs.shape)
    yield signs


def _mc_best(X: np.ndarray, matrix: np.ndarray, dom_norm, cod_norm):
    """The largest sampled ratio ||T x||_w' / ||x||_w over the rows x of X
    (0.0 for none); inf or nan where it is still not finite."""
    # a norm that overflows is inf, and an image past the float range may
    # hold nan from inf - inf, with no numpy warning: both are handled below
    with np.errstate(over="ignore", invalid="ignore"):
        den = dom_norm.eval_many(X)
        # zero norms have no direction, and overflowed ones no finite ratio
        keep = (den > 0) & (den < np.inf)
        if not keep.all():
            X, den = X[keep], den[keep]
        images = X @ matrix.T
        # same homogeneous quantity through two float paths; the min plus a
        # 1e-14 relative shave keeps each sampled value a true lower bound even
        # where the ratio is exactly flat and rounding goes the wrong way
        ratio = cod_norm.eval_many(images) / den
        ratio = np.minimum(ratio, cod_norm.eval_many(images / den[:, None]))
        # an image norm that overflowed (inf, or nan) is measured on x / ||x||_w
        bad = ~(ratio < np.inf)
        if bad.any():
            ratio[bad] = cod_norm.eval_many((X[bad] / den[bad, None]) @ matrix.T)
    return ratio.max(initial=0.0)


def operator_norm_mc(T: LinearOperator, w: float, wp: float, samples: int, seed: int) -> float:
    """Lower bound on the operator norm from points on the unit sphere of ||.||_w.

    Deterministic per seed (counter-based Philox stream).  Each stratum of
    _mc_strata is evaluated as soon as it is drawn, and the bound is the
    max over the three.  Always <= operator_norm_exact: a sampled image
    norm that overflows is measured on x / ||x||_w, as in bound_check, and
    a bound still beyond the float range is the exact norm's ValueError.
    """
    dom_norm = _band_norm(T.domain, w)
    cod_norm = _band_norm(T.codomain, wp)
    strata = _mc_strata(_philox(seed), T.domain.dimension, _check_count(samples, "samples"), dom_norm)
    # np.max keeps a nan
    best = np.max([_mc_best(X, T.matrix, dom_norm, cod_norm) for X in strata])
    if not best < np.inf:
        raise ValueError("operator norm overflows the float range")
    return float(best * (1.0 - 1e-14))


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
    cod = (T.codomain.family._key, T.codomain.family._weights)
    table = np.concatenate([_norm_table(b.norm, (T.matrix,), cod) for b in T.domain.family.bands])
    return NormProfile(
        T.domain.family.midpoints(), T.codomain.family.midpoints(), table
    )


@dataclass(frozen=True)
class BoundCheckReport:
    bound: float
    max_ratio: float
    passed: bool


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: a value that carries k
    roundings, each a factor (1 + delta)^(+-1) with |delta| <= u, is its
    exact value times (1 + theta) with |theta| <= gamma_k (Higham, Accuracy
    and Stability of Numerical Algorithms, Lemma 3.1)."""
    ku = k * 2.0**-53
    return ku / (1.0 - ku)


def bound_check(T: LinearOperator, w: float, wp: float, trials: int, seed: int) -> BoundCheckReport:
    """Verify ||Tx||_w' <= ||T||_(w,w') ||x||_w on trials >= 0 random x (x = 0
    passes as it must: a band norm of 0 is 0.0).

    A sample whose norm ||x||_w overflows is skipped; one whose image norm
    overflows has its ratio measured as ||T(x / ||x||_w)||_w'.

    The check passes when max_ratio <= bound (1 + gamma_k) + 1e-9, with
    k = 3n + 2m + 2 for an n-dim domain and an m-dim codomain.  A band
    norm of a d-vector takes at most d roundings per term (a product and
    d - 1 sums), and so does each entry of a d-column matrix product.  A
    sampled ratio carries 2n + m + 1: n in ||x||_w, n in Tx, m in its norm
    and 1 in the division (or n + 1 in x / ||x||_w, then n and m).  The
    bound carries 1 + n + m on the primal side of _norm_table (the norm of
    the image of a vertex whose entries are 1 / w_j rounded once) and n + m
    on its dual side (1 in T_ij / w_j, 1 in the product with w'_i, m - 1
    and n - 1 in the two sums), so k covers either.  Where the terms of each
    image entry share a sign (on the dual side, the terms z_i T_ij of each
    entry of T^T z at the maximizing z), both are their exact values times
    (1 + theta), so their ratio is within gamma_k of the exact one and an
    exactly tight sample passes at any scale; the 1e-9 is the slack left
    for cancelling entries.
    """
    rng, trials = _philox(seed), _check_count(trials, "trials")
    bound = operator_norm_exact(T, w, wp)
    dom_norm, cod_norm = _band_norm(T.domain, w), _band_norm(T.codomain, wp)
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
    limit = bound * (1.0 + _gamma(3 * T.domain.dimension + 2 * T.codomain.dimension + 2)) + 1e-9
    return BoundCheckReport(bound, max_ratio, max_ratio <= limit)


def functional_norm(f: LinearOperator, w: float) -> float:
    """||f||_w for a functional: the (w', .) operator norm in the limit
    w' -> w+, read on the band whose [start, upto) holds w, the band just
    right of w.

    The lookup is right-continuous here, unlike norm_at's left limit.  On a
    monotone domain family this is the inf over w' > w; on any other it is
    that one band's norm, not the inf.
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
    return float(_norm_table(dom_norm, (f.matrix,), _codomain_band(cod.bands[0].norm))[0, 0])


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
    """Sample y with ||y||_{W,w} just below delta and verify ||T^{-1} y||_w < 1.

    A sample whose norm ||y||_{W,w} overflows is skipped, as in bound_check.
    """
    rng, samples = _philox(seed), _check_count(samples, "samples")
    res = open_mapping_delta(T, w)
    radius = res.delta * _OPEN_MAPPING_SHRINK * (1.0 - 1e-9)
    inv = np.linalg.inv(T.matrix)
    D = rng.standard_normal((samples, T.codomain.dimension))
    with np.errstate(over="ignore"):
        ny = _band_norm(T.codomain, w).eval_many(D)
    keep = (ny > 0) & (ny < np.inf)
    Y = D[keep] * (radius / ny[keep])[:, None]
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
    """Two-sided equivalence constants via the identity map, verified on trials >= 0 samples.

    max_violation is the largest q(x) - c p(x) over samples, band pairs and
    both directions, with p and q the band norms of P1 and P2 (swapped for
    the backward direction) and c the profile entry.  The check passes when
    every q(x) - c p(x) is at most gamma_k c p(x) + 1e-9, with k = 3n + 2
    for dimension n: n roundings in each of p(x) and q(x), 1 + n in c and 1
    in the product, counted as in bound_check.  On the primal side c is a
    vertex rounded once, its image under the identity exact, then its norm;
    on the dual side it is 1 / w_j rounded once, its product with w'_j
    (the identity's c^T R has one nonzero term per entry), then the sum
    over j, n + 1 at most either way.
    """
    if P1.dimension != P2.dimension:
        raise ValueError("spaces must share a dimension")
    rng, trials = _philox(seed), _check_count(trials, "trials")
    eye = np.eye(P1.dimension)
    forward = norm_profile(LinearOperator(eye, P1, P2))
    backward = norm_profile(LinearOperator(eye, P2, P1))
    X = rng.uniform(-3.0, 3.0, (trials, P1.dimension))
    # (trials, bands) norms at the band midpoints, checked over every band pair at once
    nx1, nx2 = P1.family.band_values(X), P2.family.band_values(X)
    # band_values reports no overflow, and inf - inf would read as a violation
    if not (np.isfinite(nx1).all() and np.isfinite(nx2).all()):
        raise ValueError("a sample's band norm overflows the float range")
    nx1, nx2 = nx1[:, :, None], nx2[:, None, :]
    fwd, bwd = forward.table * nx1, backward.table.T * nx2
    sides = ((nx2 - fwd, fwd), (nx1 - bwd, bwd))  # (q(x) - c p(x), c p(x)) per direction
    worst = float(max(diff.max(initial=0.0) for diff, _ in sides))
    gamma = _gamma(3 * P1.dimension + 2)
    passed = all((diff <= gamma * rhs + 1e-9).all() for diff, rhs in sides)
    return NormEquivalenceReport(forward, backward, worst, passed)


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
    The members must share one domain and one codomain.  A probe image whose
    norm overflows is a ValueError, as in norm_at.
    """
    family = list(family)
    if not family:
        raise ValueError("operator family must be nonempty")
    if any(T.domain != family[0].domain or T.codomain != family[0].codomain for T in family):
        raise ValueError("operator family members must share a domain and a codomain")
    dom = family[0].domain.family
    cod_norm = _band_norm(family[0].codomain, wp)
    matrices = [T.matrix for T in family]
    cod = _codomain_band(cod_norm)
    band_sups = [float(_norm_table(b.norm, matrices, cod).max()) for b in dom.bands]
    best = min(range(len(band_sups)), key=band_sups.__getitem__)
    X = np.array([_check_vector(dom, x) for x in probes]).reshape(-1, dom.dimension)
    # an image past the float range holds inf, or nan from inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        sups = np.max([cod_norm.eval_many(_apply_rows(M, X)) for M in matrices], axis=0)
    if not (sups < np.inf).all():
        raise ValueError("a probe's image norm overflows the float range")
    sups = tuple(sups.tolist())
    return UniformBoundResult(dom.midpoints()[best], band_sups[best], tuple(band_sups), sups)
