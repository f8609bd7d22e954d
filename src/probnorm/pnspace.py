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
_MASK_CELLS = 2**16  # cells of one block of prob_norm's non-monotone mask


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
        wx = np.abs(np.asarray(x, dtype=float)) * self.weights
        return float(wx.sum() if self.kind is NormKind.L1 else wx.max())

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        wx = np.abs(np.asarray(X, dtype=float)) * self.weights
        return wx.sum(axis=-1) if self.kind is NormKind.L1 else wx.max(axis=-1)

    def unit_ball_vertices(self) -> np.ndarray:
        """Vertices of the closed unit ball (the polytope {x : norm(x) <= 1}).

        Linf vertices come in itertools.product((1, -1), repeat=n) order: row
        r has sign -1 at coordinate j iff bit n-1-j of r is set.
        """
        n = self.dimension
        inv = 1.0 / np.array(self.weights)
        if self.kind is NormKind.L1:
            return np.concatenate((np.diag(inv), -np.diag(inv)))
        if n > LINF_VERTEX_DIM_CAP:
            raise ValueError(
                f"Linf vertex enumeration rejected for n = {n} > {LINF_VERTEX_DIM_CAP}; "
                "use the Monte-Carlo bound instead"
            )
        minus = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return np.where(minus, -inv, inv)


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
        x = np.asarray(x, dtype=float)
        return float(sum(part.eval(x[a:b]) for part, a, b in self._splits()))

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
    """(key, weights) of a band norm, or (None, None) for one kept for its own eval.

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


def _stack(norms) -> tuple:
    """Band norms of one dimension, grouped by structure for evaluation in one pass.

    Returns (count, groups), one group (rows, key, data) per key: the norms
    of one structure share a read-only (rows x n) weight array, and any other
    norm is kept (key None) and evaluated by its own eval.  rows is
    slice(None) when there is one group.
    """
    groups = {}
    for k, norm in enumerate(norms):
        key, weights = _structure(norm)
        rows, data = groups.setdefault(key, ([], []))
        rows.append(k)
        data.append(norm if key is None else weights)
    return len(norms), tuple(
        (np.array(rows) if len(groups) > 1 else slice(None), key,
         tuple(data) if key is None else _frozen(data))
        for key, (rows, data) in groups.items()
    )


def _reduce(key, wx: np.ndarray) -> np.ndarray:
    """Row values of the norms of one structure from wx = |x| * weights.

    numpy reduces each row along the last axis the way it reduces one vector
    (pairwise for the sum), so each row is bit for bit its norm's own eval;
    block sums add their parts left to right from 0.0, as sum() does.
    """
    if key is NormKind.L1:
        return wx.sum(axis=1)
    if key is NormKind.LINF:
        return wx.max(axis=1)
    vals, off = 0.0, 0
    for part, d in key:
        vals = vals + _reduce(part, wx[:, off : off + d])
        off += d
    return vals


@dataclass(frozen=True)
class SeminormFamily:
    """Partition of (0, 1) into bands, each carrying a norm on R^n.

    The weights of each band structure are stacked once in one read-only
    array, which decides both evaluation and monotonicity in w: band k+1
    dominates band k when both share a structure and its weights are
    coordinatewise >=; a band kept for its own eval dominates nothing.
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
        object.__setattr__(self, "_stack", _stack([b.norm for b in bands]))
        if enforce_monotone:
            ok, msg = self.monotone_report()
            if not ok:
                raise ValueError(msg)

    def __reduce__(self):
        # pickle the fields alone; the arrays are rebuilt, read-only again
        return type(self), (self.dimension, self.bands, False)

    def band_values(self, x: np.ndarray) -> np.ndarray:
        """p(x, w) on every band, in band order, for a checked vector x."""
        count, groups = self._stack
        out, ax = np.empty(count), np.abs(x)
        for rows, key, data in groups:
            out[rows] = [norm.eval(x) for norm in data] if key is None else _reduce(key, ax * data)
        return out

    def monotone_report(self) -> tuple[bool, str]:
        """(ok, message) naming the first band that does not dominate the one before."""
        count, groups = self._stack
        dominates = np.zeros(count - 1, dtype=bool)
        for rows, key, data in groups:
            if key is None:
                continue
            le = (data[1:] >= data[:-1]).all(axis=1)
            if type(rows) is slice:
                dominates = le
            else:
                dominates[rows[:-1]] = le & (np.diff(rows) == 1)
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
        idx = bisect_right(self.uptos, w)
        if idx > 0 and w == self.uptos[idx - 1]:
            return idx - 1
        return idx


def seminorm_eval(S: SeminormFamily, x: np.ndarray, w: float) -> float:
    """p(x, w): the band norm of x for the band containing w."""
    x = _check_vector(S, x)
    return S.bands[S.band_index(w)].norm.eval(x)


def _check_vector(S: SeminormFamily, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (S.dimension,):
        raise ValueError(f"expected vector of dimension {S.dimension}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


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

        For a monotone family the measure below each distinct band value is a
        band end itself, so the step d.f. is assembled from the family's own
        floats with no summation error.
        """
        vals = self.family.band_values(_check_vector(self.family, x))
        if (vals[1:] >= vals[:-1]).all():
            # the last band of each distinct value ends where nu_x reaches it
            last = np.append(vals[1:] > vals[:-1], True)
            return StepDF(vals[last].tolist(), [0.0, *self.family._ends[last].tolist()])
        # non-monotone families (diagnostic path): per distinct value c, the
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
        return self.family.bands[self.family.band_index_left(w)].norm.eval(x)

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
        pn = P.family.bands[bisect_left(P.family.uptos, u)].norm
        qn = Q.family.bands[bisect_left(Q.family.uptos, u)].norm
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


def _first_failure(witnesses) -> CheckResult:
    """FAIL at the first witness, without advancing the generator past it; else PASS."""
    for witness in witnesses:
        return CheckResult(False, witness)
    return CheckResult(True)


def validate_pn_axioms(P: PNSpace, samples: int = 50, seed: int = 0) -> PNAxiomReport:
    """Sampled checks of N1, N2, N3 (with tau_M), and the scaling law.

    N3 is decided on hats, with no convolution: hat tau_M(F, G) = hat F +
    hat G, and nu_{x+y} >= tau_M(nu_x, nu_y) iff hat nu_{x+y} <= hat nu_x +
    hat nu_y on (0, 1].

    Scaling is asserted as exact StepDF equality for power-of-two scalars
    (where float scaling commutes with the norm evaluation) and to 1e-12
    relative at the seminorm level for general scalars.  One rng is drawn
    in the order N1, N2, N3, (S).
    """
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


def _nonzero(rng, n: int) -> np.ndarray:
    while True:
        x = rng.uniform(-3.0, 3.0, n)
        if np.any(x != 0.0):
            return x
