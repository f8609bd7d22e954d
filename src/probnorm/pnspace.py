"""Finite-dimensional PN-spaces built from piecewise-constant seminorm families.

A space is a dimension n together with a partition of (0, 1) into half-open
bands [w_k, w_{k+1}), each carrying a concrete norm on R^n.  The band norms
are weighted L1 / Linf (or block sums of those, for product spaces), which
keeps the probabilistic norm, the w-indexed norm family and the operator
norms downstream exactly computable.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass

import numpy as np

from .distfn import StepDF, StepQuantile, df_eval, df_scale, qf_add, qf_eval, quasi_inverse, unit_step


class NormKind(enum.Enum):
    L1 = "l1"
    LINF = "linf"


LINF_VERTEX_DIM_CAP = 20
_MASK_CELLS = 2**16  # cells of one block of band_values' products or prob_norm's mask
_VERTEX_BLOCK_BITS = 16  # a block of Linf sign vertices holds at most 2^16 rows


@dataclass(frozen=True)
class WeightedNorm:
    """A weighted L1 or Linf norm with strictly positive weights."""

    kind: NormKind
    weights: tuple[float, ...]

    def __init__(self, kind, weights):
        kind = NormKind(kind)
        w = tuple(float(x) for x in weights)
        # 1 / w is a unit-ball vertex coordinate, so it must be finite too
        if not w or any(not 0.0 < x < math.inf or 1.0 / x == math.inf for x in w):
            raise ValueError("weights must be finite and > 0, with finite reciprocals")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def eval(self, x: np.ndarray) -> float:
        return float(self.eval_many(x))

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return _reduce(self.kind, np.abs(np.asarray(X, dtype=float)) * self.weights)

    def _vertex_blocks(self):
        """One vertex of each +-pair of the closed unit ball, in blocks of rows.

        L1: the n rows of diag(1 / w).  Linf: the 2^(n-1) sign vectors whose
        coordinate 0 is positive, the first half of
        itertools.product((1, -1), repeat=n) order (row r has sign -1 at
        coordinate j iff bit n-1-j of r is set), in blocks of at most
        2^_VERTEX_BLOCK_BITS rows.  Every block is the one array, rewritten
        in place, so a block must be used before the next is drawn.
        """
        n = self.dimension
        inv = 1.0 / np.array(self.weights)
        if self.kind is NormKind.L1:
            yield np.diag(inv)
            return
        if n > LINF_VERTEX_DIM_CAP:
            raise ValueError(
                f"Linf vertex enumeration rejected for n = {n} > {LINF_VERTEX_DIM_CAP}; "
                "use the Monte-Carlo bound instead"
            )
        b = min(n - 1, _VERTEX_BLOCK_BITS)
        block = np.empty((2**b, n))
        # the sign of coordinate j flips every 2^(n-1-j) rows: within a block
        # for the low columns, written once; per block for the high ones
        for j in range(n - b, n):
            step = 2 ** (n - 1 - j)
            pairs = block.reshape(2**b // (2 * step), 2, step, n)
            pairs[:, 0, :, j] = inv[j]
            pairs[:, 1, :, j] = -inv[j]
        for q in range(2 ** (n - 1 - b)):
            for j in range(n - b):
                block[:, j] = -inv[j] if (q >> (n - 1 - b - j)) & 1 else inv[j]
            yield block


@dataclass(frozen=True)
class BlockSumNorm:
    """Sum of norms over a direct-sum split of the coordinates.

    This is the band norm of a product space: p((x, y), w) = p_V(x, w) + p_W(y, w).
    """

    parts: tuple
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.dims) or not self.parts:
            raise ValueError("parts and dims must be nonempty and equal length")
        for part, d in zip(self.parts, self.dims):
            if part.dimension != d:
                raise ValueError("part dimension mismatch")

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    def _splits(self):
        off = 0
        for part, d in zip(self.parts, self.dims):
            yield part, off, off + d
            off += d

    def eval(self, x: np.ndarray) -> float:
        return float(self.eval_many(x))

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return sum(part.eval_many(X[..., a:b]) for part, a, b in self._splits())


@dataclass(frozen=True)
class Band:
    """One band of a seminorm family: the norm in force on [start, upto)."""

    upto: float
    norm: object


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    arr.flags.writeable = False
    return arr


def _structure(norm) -> tuple:
    """(key, weights) of a band norm, or (None, None) for one evaluated by its own eval_many.

    A weighted norm's key is its kind; a block sum of weighted norms, at any
    depth, has its parts' (key, dim) pairs, with their weights concatenated.
    """
    if type(norm) is WeightedNorm:
        return norm.kind, norm.weights
    if type(norm) is BlockSumNorm:
        parts = [_structure(part) for part in norm.parts]
        if all(key is not None for key, _ in parts):
            key = tuple((part_key, d) for (part_key, _), d in zip(parts, norm.dims))
            return key, sum((w for _, w in parts), ())
    return None, None


def _reduce(key, wx: np.ndarray) -> np.ndarray:
    """Norm values of one structure from wx = |x| * weights, along the last axis.

    numpy reduces each row along the last axis the way it reduces one vector
    (pairwise for the sum), so a stacked row is bit for bit its norm's own
    eval; block sums add their parts left to right from 0.0, as sum() does.
    """
    if key is NormKind.L1:
        return wx.sum(axis=-1)
    if key is NormKind.LINF:
        return wx.max(axis=-1)
    vals, off = 0.0, 0
    for part, d in key:
        vals = vals + _reduce(part, wx[..., off : off + d])
        off += d
    return vals


@dataclass(frozen=True)
class SeminormFamily:
    """Partition of (0, 1) into bands, each carrying a norm on R^n.

    The band weights are stacked once in one read-only (bands x n) array,
    which decides both evaluation and monotonicity in w: band k+1 dominates
    band k when both share a structure and its weights are coordinatewise
    >=; a band kept for its own eval_many has a zero row and dominates nothing.
    Monotonicity is enforced at construction; enforce_monotone=False admits
    an externally supplied family for validate_pn_axioms to report on.
    """

    dimension: int
    bands: tuple[Band, ...]
    enforce_monotone: InitVar[bool] = True

    def __post_init__(self, enforce_monotone: bool):
        bands = tuple(self.bands)
        object.__setattr__(self, "bands", bands)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not bands:
            raise ValueError("at least one band required")
        uptos = tuple(b.upto for b in bands)
        if any(u2 <= u1 for u1, u2 in zip(uptos, uptos[1:])) or uptos[-1] != 1.0:
            raise ValueError("band ends must be strictly increasing and finish at 1")
        if any(not 0.0 < u <= 1.0 for u in uptos):
            raise ValueError("band ends must lie in (0, 1]")
        for b in bands:
            if b.norm.dimension != self.dimension:
                raise ValueError("band norm dimension mismatch")
        # built once for every band lookup and evaluation; not dataclass
        # fields, so not in ==, repr or hash
        object.__setattr__(self, "uptos", uptos)
        object.__setattr__(self, "_ends", _frozen(uptos))
        keys, weights = zip(*(_structure(b.norm) for b in bands))
        # band k+1 has band k's structure; a band kept for its own eval_many has none
        same = tuple(key is not None and key == prev for prev, key in zip(keys, keys[1:]))
        object.__setattr__(self, "_same", same)
        # the structure every band shares, or None: bands then use their own eval_many
        object.__setattr__(self, "_key", keys[0] if all(same) else None)
        zero = (0.0,) * self.dimension
        object.__setattr__(self, "_weights", _frozen([w or zero for w in weights]))
        if enforce_monotone:
            ok, msg = self.monotone_report()
            if not ok:
                raise ValueError(msg)

    def __reduce__(self):
        # pickle the fields alone; the arrays are rebuilt, read-only again
        return type(self), (self.dimension, self.bands, False)

    def band_values(self, X: np.ndarray) -> np.ndarray:
        """p(x, w) on every band, in band order, for each checked vector x
        along the last axis of X; the result has one value per band there.

        A family of one structure reduces the stack in blocks of at most
        _MASK_CELLS weighted products (one vector at least), bit for bit each
        vector's own values; any other family stacks one eval_many per band.
        A value that overflows is inf, with no numpy warning: prob_norm
        reports it as _finite's ValueError.
        """
        with np.errstate(over="ignore"):
            if self._key is None:
                values = np.stack([b.norm.eval_many(X) for b in self.bands], axis=-1)
                return values.astype(float, copy=False)  # a duck may return ints or bools
            rows = np.abs(X).reshape(-1, 1, self.dimension)
            out = np.empty((len(rows), len(self.bands)))
            step = max(1, _MASK_CELLS // self._weights.size)
            for i in range(0, len(rows), step):
                out[i : i + step] = _reduce(self._key, rows[i : i + step] * self._weights)
            return out.reshape(X.shape[:-1] + (len(self.bands),))

    def monotone_report(self) -> tuple[bool, str]:
        """(ok, message) naming the first band that does not dominate the one before."""
        W = self._weights
        dominates = np.array(self._same, dtype=bool) & (W[1:] >= W[:-1]).all(axis=1)
        if dominates.all():
            return True, "monotone"
        k = int(dominates.argmin())
        return False, f"band {k + 1} does not dominate band {k}"

    def starts(self) -> tuple[float, ...]:
        return (0.0,) + self.uptos[:-1]

    def midpoints(self) -> tuple[float, ...]:
        return tuple(0.5 * (s + u) for s, u in zip(self.starts(), self.uptos))

    def band_index(self, w: float) -> int:
        """Index of the band whose [start, upto) contains w in (0, 1)."""
        if not 0.0 < w < 1.0:
            raise ValueError("w must lie in (0, 1)")
        return bisect_right(self.uptos, w)

    def band_index_left(self, w: float) -> int:
        """Band giving the left-limit norm at w: the previous band exactly at a start.

        Defined on (0, 1]; at w = 1 the left limit is the last band.
        """
        if not 0.0 < w <= 1.0:
            raise ValueError("w must lie in (0, 1]")
        return bisect_left(self.uptos, w)


def seminorm_eval(S: SeminormFamily, x: np.ndarray, w: float) -> float:
    """p(x, w): the band norm of x for the band containing w."""
    x = _check_vector(S, x)
    return _band_eval(S, S.band_index(w), x)


def _check_vector(S: SeminormFamily, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (S.dimension,):
        raise ValueError(f"expected vector of dimension {S.dimension}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def _finite(value):
    if not math.isfinite(value):
        raise ValueError(f"band norm of x is {value}: the weighted sum overflows the float range")
    return value


def _band_eval(S: SeminormFamily, k: int, x: np.ndarray) -> float:
    """Band k's norm of a checked x; an overflow is _finite's ValueError, with no numpy warning."""
    with np.errstate(over="ignore"):
        return _finite(float(S.bands[k].norm.eval_many(x)))


@dataclass(frozen=True)
class PNSpace:
    """A PN-space derived from a seminorm family (probabilistic norm included)."""

    family: SeminormFamily

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def band_values(self, x) -> list[float]:
        return self.family.band_values(_check_vector(self.family, x)).tolist()

    def prob_norm(self, x) -> StepDF:
        """nu_x(t) = m({w in (0,1) : p(x, w) < t}), exactly.

        For a row of band values that is nondecreasing, >= 0 and finite (see
        _proper_rows) the measure below each distinct value is a band end
        itself, so the step d.f. is assembled from the family's own floats
        with no summation error.  An inf or nan value is _finite's ValueError,
        and a negative one StepDF's.
        """
        vals = self.family.band_values(_check_vector(self.family, x))
        if _proper_rows(vals):
            # the last band of each distinct value ends where nu_x reaches it.
            # Canonical as built: those values rise strictly, finite and >= 0
            # (+ 0.0 clears a duck norm's -0.0), and the band ends they carry
            # rise strictly in (0, 1], so every breakpoint has a jump
            last = np.append(vals[1:] > vals[:-1], True)
            return StepDF._canonical(
                tuple((vals[last] + 0.0).tolist()), (0.0, *self.family._ends[last].tolist())
            )
        _finite(vals.max())
        # any other row (diagnostic path): per distinct value c, the
        # lengths of the bands with p <= c, summed in band order; a running
        # sum adds them in the order sum() would, a block of values at a time
        lengths = np.diff(self.family._ends, prepend=0.0)
        distinct = np.unique(vals)
        step = max(1, _MASK_CELLS // len(vals))
        dfv = np.concatenate([
            np.cumsum(np.where(vals <= c[:, None], lengths, 0.0), axis=1)[:, -1]
            for c in (distinct[i : i + step] for i in range(0, len(distinct), step))
        ])
        dfv[-1] = 1.0
        return StepDF(distinct.tolist(), [0.0, *dfv.tolist()])

    def norm_at(self, x, w: float) -> float:
        """The left-limit band norm ||x||_w = sup_{w' < w} p(x, w')."""
        x = _check_vector(self.family, x)
        return _band_eval(self.family, self.family.band_index_left(w), x)

    def pm_distance(self, p, q) -> StepDF:
        """Probabilistic distance of the derived PM space: nu_{p-q}."""
        p = _check_vector(self.family, p)
        q = _check_vector(self.family, q)
        return self.prob_norm(p - q)

    def neighborhood_contains(self, p, t: float, q) -> bool:
        """Membership q in N_p(t) = {q : nu_{p-q}(t) > 1 - t}."""
        if not t > 0:
            raise ValueError("t must be > 0")
        return df_eval(self.pm_distance(p, q), t) > 1.0 - t

    def in_ball(self, center, r: float, w: float, x) -> bool:
        """Membership in the norm ball B_w(center; r) = {x : ||x - center||_w < r}."""
        if not r > 0:
            raise ValueError("radius must be > 0")
        x = _check_vector(self.family, x)
        center = _check_vector(self.family, center)
        return self.norm_at(x - center, w) < r


def single_band_space(norm: WeightedNorm) -> PNSpace:
    """The PN-space with a single constant band norm (nu_x = H_{||x||})."""
    return PNSpace(SeminormFamily(norm.dimension, (Band(1.0, norm),)))


def product_space(P: PNSpace, Q: PNSpace) -> PNSpace:
    """Product PN-space on the merged band partition.

    Each merged band carries the block sum of the covering band norms, so the
    probabilistic norm of a pair equals tau_M of the component norms.
    """
    merged = sorted(set(P.family.uptos) | set(Q.family.uptos))
    bands = []
    for u in merged:
        pn = P.family.bands[P.family.band_index_left(u)].norm
        qn = Q.family.bands[Q.family.band_index_left(u)].norm
        bands.append(Band(u, BlockSumNorm((pn, qn), (P.dimension, Q.dimension))))
    return PNSpace(SeminormFamily(P.dimension + Q.dimension, tuple(bands)))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class PNAxiomReport:
    monotone: CheckResult
    n1: CheckResult
    n2: CheckResult
    n3: CheckResult
    scaling: CheckResult

    @property
    def ok(self) -> bool:
        return all(
            c.passed for c in (self.monotone, self.n1, self.n2, self.n3, self.scaling)
        )


def _hat_le(Q1: StepQuantile, Q2: StepQuantile) -> bool:
    """Q1 <= Q2 on (0, 1], up to 1e-12 relative to Q2 for sums that differ by rounding.

    Both are constant on each band between consecutive wbreaks of either, so
    the wbreaks cover every band.  For left-continuous d.f.s, F >= G
    everywhere iff hat F <= hat G, so this decides F >= G on their hats.
    """
    for w in set(Q1.wbreaks) | set(Q2.wbreaks):
        q2 = qf_eval(Q2, w)
        if qf_eval(Q1, w) > q2 + 1e-12 * (1.0 + q2):
            return False
    return True


_EXACT_SCALARS = (0.5, 2.0, 4.0, 0.25, -0.5, -2.0, -1.0)


def _proper_rows(V: np.ndarray) -> np.ndarray:
    """Which band-value rows (last axis) are nondecreasing, >= 0 and finite.

    prob_norm turns such a row into nu_x without raising: its breakpoints
    are the row's distinct values, each reached at the end of its last
    band.  So nu_x and its hat are the row read over the band ends, and
    two such rows give equal d.f.s iff they are equal.
    """
    return (V[..., 0] >= 0.0) & (V[..., -1] < math.inf) & (V[..., 1:] >= V[..., :-1]).all(axis=-1)


def validate_pn_axioms(P: PNSpace, samples: int = 50, seed: int = 0) -> PNAxiomReport:
    """Sampled checks of N1, N2, N3 (with tau_M), and the scaling law.

    One rng is drawn in the order N1, N2, N3, (S), one vector at a time.
    Each axiom draws all its samples, evaluates their band values in one
    stacked pass and decides from the rows; the first failing sample, in
    order, decides the axiom, and the rng is rewound to just past it.

    Where a sample's rows are nondecreasing, >= 0 and finite (see
    _proper_rows), the rows decide it exactly as the StepDFs would:
    - N1 fails iff x's row is all 0 (nu_x = H_0);
    - N2 fails iff the rows of -x and x differ;
    - N3 fails iff on some band V(x+y) > s + 1e-12 * (1 + s), with
      s = V(x) + V(y): hat nu_{x+y} > hat nu_x + hat nu_y, the sum of hats
      being hat tau_M(nu_x, nu_y), up to _hat_le's slack for rounding;
    - (S) for the power-of-two scalars fails iff V(alpha x) != |alpha| V(x).
    Any other sample (non-monotone, mixed or duck-typed families, or a row
    that overflows and so raises prob_norm's ValueError) is decided on
    prob_norm's StepDFs and their hats, and df_scale for (S).  (S) for a
    general scalar compares every sample's rows to 1e-12 relative.

    Power-of-two scaling commutes with the float norm evaluation only while
    the band values stay normal; near the subnormal range (S) can fail.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = np.random.default_rng(seed)
    n = P.dimension
    h0 = unit_step(0.0)

    def first_failure(per, failures) -> CheckResult:
        """FAIL at the first (i, witness) of failures(X) on samples x per x n
        fresh vectors, with the rng left just past sample i; else PASS."""
        state = rng.bit_generator.state
        X = np.array([_nonzero(rng, n) for _ in range(samples * per)]).reshape(samples, per, n)
        for i, witness in failures(X):
            rng.bit_generator.state = state
            for _ in range((i + 1) * per):
                _nonzero(rng, n)
            return CheckResult(False, witness)
        return CheckResult(True)

    def n1(X):
        x = X[:, 0]
        V = P.family.band_values(x)
        zero = V[:, -1] == 0.0  # a proper row's largest value is its last
        proper = _proper_rows(V)
        for i in np.flatnonzero(zero | ~proper):
            if zero[i] if proper[i] else P.prob_norm(x[i]) == h0:
                yield i, f"nu_x = H_0 at x = {x[i].tolist()}"

    def n2(X):
        x = X[:, 0]
        V = P.family.band_values(np.stack((-x, x), axis=1))
        differ = (V[:, 0] != V[:, 1]).any(axis=1)
        proper = _proper_rows(V).all(axis=1)
        for i in np.flatnonzero(differ | ~proper):
            if differ[i] if proper[i] else P.prob_norm(-x[i]) != P.prob_norm(x[i]):
                yield i, f"nu_-x != nu_x at x = {x[i].tolist()}"

    def n3(X):
        x, y = X[:, 0], X[:, 1]
        V = P.family.band_values(np.stack((x + y, x, y), axis=1))
        # s overflows to inf on large proper rows; rows that are not proper
        # may hold inf and nan, and fall back
        with np.errstate(over="ignore", invalid="ignore"):
            s = V[:, 1] + V[:, 2]
            above = (V[:, 0] > s + 1e-12 * (1.0 + s)).any(axis=1)
        proper = _proper_rows(V).all(axis=1)
        for i in np.flatnonzero(above | ~proper):
            if above[i] if proper[i] else not _hat_le(
                quasi_inverse(P.prob_norm(x[i] + y[i])),
                qf_add(quasi_inverse(P.prob_norm(x[i])), quasi_inverse(P.prob_norm(y[i]))),
            ):
                yield i, f"N3 fails at x = {x[i].tolist()}, y = {y[i].tolist()}"

    def scaling():
        # each sample draws x, then its general scalar; (S) is drawn last,
        # so no later check reads the rng
        xs, alphas = [], []
        for _ in range(samples):
            xs.append(_nonzero(rng, n))
            alphas.append(float(rng.uniform(0.1, 5.0)) * float(rng.choice((-1.0, 1.0))))
        x = np.array(xs).reshape(samples, n)
        # one scalar per sample: each exact scalar in turn, then the general ones
        scalars = [[a] * samples for a in _EXACT_SCALARS] + [alphas]
        A = np.array(scalars).reshape(len(scalars), samples, 1)
        V = P.family.band_values(np.concatenate(([x], A * x)))
        with np.errstate(over="ignore", invalid="ignore"):  # as in n3
            scaled = np.abs(A) * V[0]
            exact = (V[1:-1] == scaled[:-1]).all(axis=2)
            off = (np.abs(V[-1] - scaled[-1]) > 1e-12 * (1.0 + scaled[-1])).any(axis=1)
        proper = _proper_rows(V[:-1]).all(axis=0)
        for i in np.flatnonzero(~exact.all(axis=0) | off | ~proper):
            if proper[i]:
                failed = (a for a, ok in zip(_EXACT_SCALARS, exact[:, i]) if not ok)
            else:
                nu = P.prob_norm(x[i])
                failed = (a for a in _EXACT_SCALARS if P.prob_norm(a * x[i]) != df_scale(nu, abs(a)))
            alpha = next(failed, None)
            if alpha is not None:
                return CheckResult(False, f"(S) fails at alpha = {alpha}")
            if off[i]:
                return CheckResult(False, f"(S) off tolerance at alpha = {alphas[i]}")
        return CheckResult(True)

    ok, msg = P.family.monotone_report()
    monotone = CheckResult(ok, None if ok else msg)
    if P.prob_norm(np.zeros(n)) != h0:
        n1_result = CheckResult(False, "nu at the null vector is not H_0")
    else:
        n1_result = first_failure(1, n1)
    return PNAxiomReport(monotone, n1_result, first_failure(1, n2), first_failure(2, n3), scaling())


def _nonzero(rng, n: int) -> np.ndarray:
    while True:
        x = rng.uniform(-3.0, 3.0, n)
        if np.any(x != 0.0):
            return x
