"""Finite-dimensional PN-spaces built from piecewise-constant seminorm families.

A space is a dimension n together with a partition of (0, 1) into half-open
bands [w_k, w_{k+1}), each carrying a concrete norm on R^n.  The band norms
are weighted L1 / Linf (or block sums of those, for product spaces), which
keeps the probabilistic norm, the w-indexed norm family and the operator
norms downstream exactly computable: their unit balls are polytopes, so
`operators` finds each sup at a vertex.  No other band norm is accepted, and
every band of a family shares one structure, so a family is one stacked
weight array read by one reduction.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass

import numpy as np

from .distfn import StepDF, StepQuantile, _walk, quasi_inverse


class NormKind(enum.Enum):
    L1 = "l1"
    LINF = "linf"


_MASK_CELLS = 2**16  # cells of one block of band_values' weighted products


def _check_count(n, what: str, least: int = 0):
    """n, if it is an int or a numpy integer (not a bool) no less than least;
    else a ValueError.  Every count and seed is checked here where it enters."""
    if type(n) is bool or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n


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

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return _reduce(self.kind, np.abs(np.asarray(X, dtype=float)) * self.weights)


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
        for d in self.dims:
            _check_count(d, "a block dimension")
        structures = [_structure(part) for part in self.parts]
        if any(len(w) != d for (_, w), d in zip(structures, self.dims)):
            raise ValueError("part dimension mismatch")
        # not a dataclass field, so not in ==, repr or hash
        key = tuple((part_key, d) for (part_key, _), d in zip(structures, self.dims))
        object.__setattr__(self, "_structure", (key, sum((w for _, w in structures), ())))

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        key, weights = self._structure
        return _reduce(key, np.abs(np.asarray(X, dtype=float)) * weights)


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
    """(key, weights) of a band norm.

    A weighted norm's key is its kind; a block sum of weighted norms, at any
    depth, has its parts' (key, dim) pairs, with their weights concatenated.
    Any other object is a ValueError: exact norms need polytope unit balls.
    """
    if type(norm) is WeightedNorm:
        return norm.kind, norm.weights
    if type(norm) is BlockSumNorm:
        return norm._structure
    raise ValueError("a band norm must be a WeightedNorm or a BlockSumNorm of them")


def _reduce(key, wx: np.ndarray) -> np.ndarray:
    """Norm values of one structure from wx = |x| * weights, along the last axis.

    The L1 sum stays on the rows: numpy sums each row along the last axis
    the way it sums one vector (pairwise from 8 terms on), so a stacked row
    is bit for bit its norm's eval_many of that one vector.  A max is exact
    in any order, and a nan (from inf - inf in an operator image) wins
    either way, so the Linf max runs across the coordinates instead: one
    contiguous copy with the coordinate axis first, then elementwise maxima
    of whole rows, rather than one short inner reduction per vector.  Block
    sums add their parts left to right from 0.0, as sum() does.
    """
    if key is NormKind.L1:
        return wx.sum(axis=-1)
    if key is NormKind.LINF:
        return np.ascontiguousarray(wx.transpose(-1, *range(wx.ndim - 1))).max(axis=0)
    vals, off = 0.0, 0
    for part, d in key:
        vals = vals + _reduce(part, wx[..., off : off + d])
        off += d
    return vals


def _stacked_values(key, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The norms of structure key with each row of weights W, for each
    vector along the last axis of X; the result has one value per row of W
    there.  Reduced in blocks of at most _MASK_CELLS weighted products (one
    vector at least), bit for bit each norm's own eval_many of each vector."""
    rows = np.abs(X).reshape(-1, 1, W.shape[1])
    out = np.empty((len(rows), len(W)))
    step = max(1, _MASK_CELLS // W.size)
    for i in range(0, len(rows), step):
        out[i : i + step] = _reduce(key, rows[i : i + step] * W)
    return out.reshape(X.shape[:-1] + (len(W),))


@dataclass(frozen=True)
class SeminormFamily:
    """Partition of (0, 1) into bands, each carrying a norm on R^n.

    Every band norm is a WeightedNorm or a block sum of them, and all bands
    share one structure (kinds and block splits), or the family is a
    ValueError.  The band weights are stacked once in one read-only
    (bands x n) array, which decides both evaluation and monotonicity in w:
    band k+1 dominates band k when its weights are coordinatewise >=.
    Monotonicity is decided once, at construction, and enforced there, before
    the structure check; enforce_monotone=False admits an externally supplied
    family for validate_pn_axioms to report on.  Either way the verdict is
    kept for monotone_report and for neighborhood_contains's one-band decision,
    and a family that is not monotone keeps its exact band lengths, which
    prob_norm reads where a row decreases and neighborhood_contains always.
    """

    dimension: int
    bands: tuple[Band, ...]
    enforce_monotone: InitVar[bool] = True

    def __post_init__(self, enforce_monotone: bool):
        bands = tuple(self.bands)
        object.__setattr__(self, "bands", bands)
        _check_count(self.dimension, "dimension", 1)
        if not bands:
            raise ValueError("at least one band required")
        uptos = tuple(b.upto for b in bands)
        if any(u2 <= u1 for u1, u2 in zip(uptos, uptos[1:])) or uptos[-1] != 1.0:
            raise ValueError("band ends must be strictly increasing and finish at 1")
        if any(not 0.0 < u <= 1.0 for u in uptos):
            raise ValueError("band ends must lie in (0, 1]")
        keys, weights = zip(*(_structure(b.norm) for b in bands))
        if any(len(w) != self.dimension for w in weights):
            raise ValueError("band norm dimension mismatch")
        # built once for every band lookup and evaluation; not dataclass
        # fields, so not in ==, repr or hash
        object.__setattr__(self, "uptos", uptos)
        object.__setattr__(self, "_ends", _frozen(uptos))
        object.__setattr__(self, "_key", keys[0])
        W = _frozen(weights)
        object.__setattr__(self, "_weights", W)
        # band k+1 has band k's structure
        same = np.array([key == prev for prev, key in zip(keys, keys[1:])], dtype=bool)
        # decided whatever enforce_monotone says, so that a family rebuilt
        # by __reduce__ has it too
        dominates = same & (W[1:] >= W[:-1]).all(axis=1)
        if dominates.all():
            verdict = (True, "monotone")
        else:
            k = int(dominates.argmin())
            verdict = (False, f"band {k + 1} does not dominate band {k}")
        object.__setattr__(self, "_monotone", verdict)
        if enforce_monotone and not verdict[0]:
            raise ValueError(verdict[1])
        if not same.all():
            k = int(same.argmin())
            raise ValueError(f"band {k + 1} does not share the structure of band {k}")
        lengths = None
        if not verdict[0]:
            # only here can a finite row decrease: keep the exact band
            # lengths, in whole units of 1/D (D the largest denominator of
            # the band ends, a power of two), and D.  int64 while D <= 2^53:
            # every partial sum and D are then exact floats, and one float
            # division rounds as Python's int / int does
            ratios = [u.as_integer_ratio() for u in (0.0, *self._ends.tolist())]
            D = max(den for _, den in ratios)
            ends = [num * (D // den) for num, den in ratios]
            lengths = (np.diff(np.array(ends, dtype=np.int64 if D <= 2**53 else object)), D)
        object.__setattr__(self, "_lengths", lengths)

    def __reduce__(self):
        # pickle the fields alone; the arrays are rebuilt, read-only again,
        # and the monotone verdict decided again
        return type(self), (self.dimension, self.bands, False)

    def band_values(self, X: np.ndarray) -> np.ndarray:
        """p(x, w) on every band, in band order, for each checked vector x
        along the last axis of X; the result has one value per band there.

        One _stacked_values reduction of the stacked weights, bit for bit
        each vector's own values.  A value that overflows is inf, with no
        numpy warning: prob_norm reports it as _finite's ValueError.
        """
        with np.errstate(over="ignore"):
            return _stacked_values(self._key, self._weights, X)

    def monotone_report(self) -> tuple[bool, str]:
        """(ok, message) naming the first band that does not dominate the one before."""
        return self._monotone

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


def _difference(S: SeminormFamily, p, q) -> np.ndarray:
    """p - q of two checked vectors, inf past the float range with no numpy
    warning; the caller checks it next, so that is _check_vector's ValueError."""
    p, q = _check_vector(S, p), _check_vector(S, q)
    with np.errstate(over="ignore"):
        return p - q


@dataclass(frozen=True)
class PNSpace:
    """A PN-space derived from a seminorm family (probabilistic norm included)."""

    family: SeminormFamily

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def prob_norm(self, x) -> StepDF:
        """nu_x(t) = m({w in (0,1) : p(x, w) < t}), exactly.

        Band values are +0.0, positive or inf.  Each value of nu_x is the
        exact measure of its bands, rounded once.  For a row that is
        nondecreasing and finite (see _proper_rows) that measure is a band
        end itself, so the step d.f. is assembled from the family's own
        floats.  Only a family that is not monotone has any other finite
        row: it is sorted once, and its measures are exact integer sums of
        the band lengths the family keeps, each divided once.  An inf value
        is _finite's ValueError.
        """
        vals = self.family.band_values(_check_vector(self.family, x))
        if _proper_rows(vals):
            # the last band of each distinct value ends where nu_x reaches it.
            # Canonical as built: those values rise strictly, finite and >= 0,
            # and the band ends they carry rise strictly in (0, 1], so every
            # breakpoint has a jump
            last = np.append(vals[1:] > vals[:-1], True)
            return StepDF._canonical(
                tuple(vals[last].tolist()), (0.0, *self.family._ends[last].tolist())
            )
        _finite(vals.max())
        # below each distinct value the measure is the sum of the band
        # lengths so far over D (the last sum is D: 1.0 exactly).  Canonical
        # as built: the last band of each distinct value carries a finite
        # breakpoint >= 0, rising strictly, and of those only the ones where
        # the rounded measure rises (from 0.0) are kept, as StepDF keeps them
        lengths, D = self.family._lengths
        order = np.argsort(vals, kind="stable")
        vals, measures = vals[order], np.asarray(np.cumsum(lengths[order]) / D, dtype=float)
        last = np.append(vals[1:] > vals[:-1], True)
        vals, measures = vals[last], measures[last]
        rise = measures > np.append(0.0, measures[:-1])
        return StepDF._canonical(tuple(vals[rise].tolist()), (0.0, *measures[rise].tolist()))

    def norm_at(self, x, w: float) -> float:
        """The left-limit band norm ||x||_w = lim_{w' -> w-} p(x, w'): the
        band that holds the w' just below w, the previous one exactly at a
        start.  On a monotone family this is sup_{w' < w} p(x, w'); on any
        other it is that one band's norm, not the sup."""
        x = _check_vector(self.family, x)
        return _band_eval(self.family, self.family.band_index_left(w), x)

    def pm_distance(self, p, q) -> StepDF:
        """Probabilistic distance of the derived PM space: nu_{p-q}."""
        return self.prob_norm(_difference(self.family, p, q))

    def neighborhood_contains(self, p, t: float, q) -> bool:
        """Membership q in N_p(t) = {q : nu_{p-q}(t) > 1 - t}, with no nu built.

        On a monotone family of one structure the bands with p(x, w) < t
        form a prefix, and nu_x(t) is the end of its last band.  So with
        x = p - q, s = fl(1 - t) and k = bisect_right(uptos, s), the first
        band that ends past s, q lies in N_p(t) iff
        - s < 0 (t > 1): always;
        - s >= 1 (t <= 2**-54): never, as no band ends past 1;
        - otherwise: p_k(x) < t.
        Band k and the last band are reduced together as band_values reduces
        them, so the verdict is nu_x's bit for bit, and an overflow in any
        band is still _finite's ValueError, whatever t is: the last band
        holds the largest value.  A family that is not monotone reads
        nu_{p-q}(t) as prob_norm would: the kept lengths of the bands whose
        value is below t, summed exactly and divided once, after the same
        overflow check on every band.
        """
        if not t > 0:
            raise ValueError("t must be > 0")
        F = self.family
        x = _check_vector(F, _difference(F, p, q))
        if F._lengths is not None:
            vals = F.band_values(x)
            _finite(vals.max())
            lengths, D = F._lengths
            return bool(lengths[vals < t].sum() / D > 1.0 - t)
        s = 1.0 - t
        k = min(bisect_right(F.uptos, s), len(F.uptos) - 1)
        with np.errstate(over="ignore"):
            pk, last = _reduce(F._key, np.abs(x) * F._weights[[k, -1]]).tolist()
        _finite(last)
        return s < 0.0 or (s < 1.0 and pk < t)

    def in_ball(self, center, r: float, w: float, x) -> bool:
        """Membership in the norm ball B_w(center; r) = {x : ||x - center||_w < r}."""
        if not r > 0:
            raise ValueError("radius must be > 0")
        return self.norm_at(_difference(self.family, x, center), w) < r


def single_band_space(norm: WeightedNorm) -> PNSpace:
    """The PN-space with a single constant band norm (nu_x = H_{||x||})."""
    return PNSpace(SeminormFamily(norm.dimension, (Band(1.0, norm),)))


def product_space(P: PNSpace, Q: PNSpace) -> PNSpace:
    """Product PN-space on the merged band partition.

    Each merged band carries the block sum of the covering band norms, so the
    probabilistic norm of a pair equals tau_M of the component norms.
    """
    dims = (P.dimension, Q.dimension)
    walk = _walk(P.family.uptos, P.family.bands, Q.family.uptos, Q.family.bands)
    bands = [Band(u, BlockSumNorm((p.norm, q.norm), dims)) for u, p, q in walk]
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


def _hat_le(Q1: StepQuantile, *Q2: StepQuantile) -> bool:
    """Q1 <= the sum of Q2 on (0, 1], up to 1e-12 relative to the sum for
    sums that differ by rounding; a sum past the float range is +inf.

    All are constant on each band between consecutive wbreaks of any, so
    the wbreaks cover every band.  For left-continuous d.f.s, F >= G
    everywhere iff hat F <= hat G, so this decides F >= G on their hats, and
    F >= tau_M(G, H) on hat F and the addends hat G, hat H of its hat.
    """
    ends, sums = Q2[0].wbreaks, Q2[0].qvalues
    for Q in Q2[1:]:
        ends, sums = zip(*[(w, a + b) for w, a, b in _walk(ends, sums, Q.wbreaks, Q.qvalues)])
    walk = _walk(Q1.wbreaks, Q1.qvalues, ends, sums)
    return not any(q1 > q2 + 1e-12 * (1.0 + q2) for _, q1, q2 in walk)


_EXACT_SCALARS = (0.5, 2.0, 4.0, 0.25)


def _proper_rows(V: np.ndarray) -> np.ndarray:
    """Which band-value rows (last axis) are nondecreasing and finite.

    prob_norm turns such a row into nu_x without raising: its breakpoints
    are the row's distinct values, each reached at the end of its last
    band.  So nu_x and its hat are the row read over the band ends, and
    two such rows give equal d.f.s iff they are equal.
    """
    return (V[..., -1] < math.inf) & (V[..., 1:] >= V[..., :-1]).all(axis=-1)


def validate_pn_axioms(P: PNSpace, samples: int = 50, seed: int = 0) -> PNAxiomReport:
    """Sampled checks of N1, N2, N3 (with tau_M), and the scaling law.

    One rng draws every sample up front, one block per axiom: N1's x, N3's
    (x, y), (S)'s x, then (S)'s general scalars.  Each axiom decides from
    its block's band values, evaluated in one stacked pass, and its first
    failing sample is its witness.  A row that overflows raises prob_norm's
    ValueError (_finite's) where nu_x would, in the order N1, N3, (S): in
    (S), x's row first, then each scalar's in order.

    Every band norm reads |x| through positive weights, so for N1, N2 and
    (S) a row decides what nu_x decides, whether or not it is monotone,
    while its values stay clear of the subnormal range:
    - N1 fails iff a nonzero x has a row of all 0 (nu_x = H_0); nu_0 = H_0
      is N1 itself.  With a positive band, nu_x(0+) is the total length of
      the zero bands, below 1; a nonzero x has a zero band only where every
      weighted product underflows.
    - N2 cannot fail, so it draws nothing: -x and x have one row.
    - (S) for alpha = 2^k fails at the first alpha whose row is not
      |alpha| V(x) bit for bit.  A row that scales exactly gives a nu that
      scales exactly: distinct values map one to one and the band lengths
      stay the same.  Only a subnormal product or an overflow keeps a row
      from scaling exactly, so near the subnormal range (S) can fail.
      The scalars are the |alpha| alone: the rows of -alpha and alpha are
      one row.  (S) for a general scalar compares the rows to 1e-12
      relative.
    N3 alone needs nu where a row decreases.  V(x+y) <= V(x) + V(y) holds
    band by band on every family, but a non-monotone one can still fail
    N3 through the hats, which sort each row.  So where the rows of x + y,
    x and y are nondecreasing and finite (see _proper_rows), N3 fails iff
    on some band V(x+y) > s + 1e-12 * (1 + s), with s = V(x) + V(y): hat
    nu_{x+y} > hat nu_x + hat nu_y, the sum of hats being hat tau_M(nu_x,
    nu_y), up to _hat_le's slack for rounding.  Any other sample is
    decided on prob_norm's StepDFs and their hats.
    """
    _check_count(samples, "samples")
    rng = np.random.default_rng(_check_count(seed, "seed"))
    n = P.dimension
    x1 = rng.uniform(-3.0, 3.0, (samples, n))
    x3 = rng.uniform(-3.0, 3.0, (samples, 2, n))
    xs = rng.uniform(-3.0, 3.0, (samples, n))
    alphas = (rng.uniform(0.1, 5.0, samples) * rng.choice((-1.0, 1.0), samples)).tolist()

    def first(witnesses) -> CheckResult:
        for witness in witnesses:
            return CheckResult(False, witness)
        return CheckResult(True)

    def n1():
        top = P.family.band_values(x1).max(axis=1)
        for i in np.flatnonzero(((top == 0.0) & x1.any(axis=1)) | (top == math.inf)):
            _finite(top[i])
            yield f"nu_x = H_0 at x = {x1[i].tolist()}"

    def n3():
        x, y = x3[:, 0], x3[:, 1]
        V = P.family.band_values(np.stack((x + y, x, y), axis=1))
        with np.errstate(over="ignore"):  # s overflows to inf on large rows
            s = V[:, 1] + V[:, 2]
            above = (V[:, 0] > s + 1e-12 * (1.0 + s)).any(axis=1)
        proper = _proper_rows(V).all(axis=1)
        for i in np.flatnonzero(above | ~proper):
            if above[i] if proper[i] else not _hat_le(
                *(quasi_inverse(P.prob_norm(v)) for v in (x[i] + y[i], x[i], y[i]))
            ):
                yield f"N3 fails at x = {x[i].tolist()}, y = {y[i].tolist()}"

    def scaling():
        # one scalar per sample: each exact scalar in turn, then the general ones
        A = np.array([[a] * samples for a in _EXACT_SCALARS] + [alphas])[..., None]
        V = P.family.band_values(np.concatenate(([xs], A * xs)))
        # an inf row against an inf |alpha| V(x) is inf - inf = nan: not off
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.abs(A) * V[0]
            exact = (V[1:-1] == scaled[:-1]).all(axis=2)
            off = (np.abs(V[-1] - scaled[-1]) > 1e-12 * (1.0 + scaled[-1])).any(axis=1)
        for i in np.flatnonzero(np.isinf(V[:-1]).any(axis=(0, 2)) | ~exact.all(axis=0) | off):
            _finite(V[0, i].max())
            for alpha, row, ok in zip(_EXACT_SCALARS, V[1:-1, i], exact[:, i]):
                _finite(row.max())
                if not ok:
                    yield f"(S) fails at alpha = {alpha}"
            yield f"(S) off tolerance at alpha = {alphas[i]}"

    ok, msg = P.family.monotone_report()
    monotone = CheckResult(ok, None if ok else msg)
    # nu_0 = H_0 needs no check: every band norm of 0 is 0.0
    return PNAxiomReport(monotone, first(n1()), CheckResult(True), first(n3()), first(scaling()))
