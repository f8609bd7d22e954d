"""Exact algebra of distance distribution functions and their quasi-inverses.

A distance d.f. is represented as a finite left-continuous step function:
nondecreasing, zero at 0, with values in [0, 1].  Everything here is exact
breakpoint arithmetic; no discretization is introduced anywhere, so identity
tests can assert float equality whenever both sides are built from the same
breakpoint floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

INF = math.inf


def _as_float_tuple(xs) -> tuple[float, ...]:
    # -0.0 is falsy, so it becomes 0.0 and equal d.f.s print the same
    return tuple(float(x) or 0.0 for x in xs)


@dataclass(frozen=True)
class StepDF:
    """A left-continuous nondecreasing step function in Delta+.

    ``breakpoints`` is strictly increasing with all entries >= 0;
    ``values`` has one more entry than ``breakpoints`` with values[0] == 0.
    F(x) = values[i] where i = #{k : breakpoints[k] < x}, so F is constant
    on each interval (t_i, t_{i+1}] and F(t_k) = values[k-1].

    Construction canonicalizes: breakpoints carrying a zero jump are dropped,
    so structural equality of two StepDF instances is semantic equality.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints, values):
        bp = _as_float_tuple(breakpoints)
        vals = _as_float_tuple(values)
        if len(bp) < 1:
            raise ValueError("StepDF needs at least one breakpoint")
        if len(vals) != len(bp) + 1:
            raise ValueError(
                f"need len(values) == len(breakpoints) + 1, got {len(vals)} and {len(bp)}"
            )
        if any(b < 0 for b in bp) or not all(math.isfinite(b) for b in bp):
            raise ValueError("breakpoints must be finite and >= 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if vals[0] != 0.0:
            raise ValueError("values[0] must be 0 (membership in Delta+)")
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError("values must lie in [0, 1]")
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("values must be nondecreasing")
        # canonical form: drop breakpoints with no jump
        keep_bp = []
        keep_vals = [vals[0]]
        for i, b in enumerate(bp):
            if vals[i + 1] > vals[i]:
                keep_bp.append(b)
                keep_vals.append(vals[i + 1])
        if not keep_bp:
            # constant-zero (fully improper) d.f.: the one mute breakpoint 0.0
            keep_bp = [0.0]
            keep_vals = [0.0, 0.0]
        object.__setattr__(self, "breakpoints", tuple(keep_bp))
        object.__setattr__(self, "values", tuple(keep_vals))

    @classmethod
    def _canonical(cls, breakpoints: tuple[float, ...], values: tuple[float, ...]) -> StepDF:
        """A StepDF from tuples of Python floats already in canonical form,
        with no checks: for producers that prove that form themselves."""
        F = object.__new__(cls)
        object.__setattr__(F, "breakpoints", breakpoints)
        object.__setattr__(F, "values", values)
        return F


@dataclass(frozen=True)
class StepQuantile:
    """Quasi-inverse of a StepDF: a step function on (0, 1].

    Band i is the half-open interval (wbreaks[i-1], wbreaks[i]] (with an
    implicit left end at 0) and takes the value qvalues[i]; the last wbreak
    is always 1.  A trailing +inf value records an improper source d.f.
    """

    wbreaks: tuple[float, ...]
    qvalues: tuple[float, ...]

    def __init__(self, wbreaks, qvalues):
        wb = _as_float_tuple(wbreaks)
        qv = _as_float_tuple(qvalues)
        if len(wb) != len(qv) or not wb:
            raise ValueError("wbreaks and qvalues must be nonempty and equal length")
        if not all(0.0 < w <= 1.0 for w in wb):
            raise ValueError("wbreaks must lie in (0, 1]")
        if any(w2 <= w1 for w1, w2 in zip(wb, wb[1:])):
            raise ValueError("wbreaks must be strictly increasing")
        if wb[-1] != 1.0:
            raise ValueError("last wbreak must be 1")
        if not all(q >= 0.0 for q in qv):
            raise ValueError("qvalues must be >= 0")
        if any(q2 < q1 for q1, q2 in zip(qv, qv[1:])):
            raise ValueError("qvalues must be nondecreasing")
        # canonical form: merge adjacent bands with equal value
        keep_wb = []
        keep_qv = []
        for i in range(len(wb)):
            if i + 1 < len(wb) and qv[i + 1] == qv[i]:
                continue
            keep_wb.append(wb[i])
            keep_qv.append(qv[i])
        object.__setattr__(self, "wbreaks", tuple(keep_wb))
        object.__setattr__(self, "qvalues", tuple(keep_qv))

    @classmethod
    def _canonical(cls, wbreaks: tuple[float, ...], qvalues: tuple[float, ...]) -> StepQuantile:
        """A StepQuantile from tuples of Python floats already in canonical
        form, with no checks (see StepDF._canonical)."""
        Q = object.__new__(cls)
        object.__setattr__(Q, "wbreaks", wbreaks)
        object.__setattr__(Q, "qvalues", qvalues)
        return Q


@dataclass(frozen=True)
class LevyDistance:
    """Result of the modified Levy metric: the midpoint of a bracket of the
    least feasible width, and the bracket's half-width."""

    value: float
    tolerance: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("Levy distance must lie in [0, 1]")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and > 0")


def unit_step(a: float) -> StepDF:
    """The d.f. H_a: 0 for x <= a, 1 for x > a."""
    if a < 0:
        raise ValueError("unit_step needs a >= 0 (Delta+ only)")
    return StepDF((float(a),), (0.0, 1.0))


def df_eval(F: StepDF, x: float) -> float:
    """Evaluate F at x with left-continuous step semantics.

    F(-inf) = 0 and F(+inf) = 1 by convention, even for improper F; a NaN x
    raises ValueError.
    """
    if x < INF:
        return 0.0 if x == -INF else F.values[bisect_left(F.breakpoints, x)]
    if x == INF:
        return 1.0
    raise ValueError("cannot evaluate a d.f. at NaN")


def df_scale(F: StepDF, h: float) -> StepDF:
    """x -> F(x / h) for finite h > 0: breakpoints scaled by h, values unchanged.

    A scaled breakpoint beyond the float range, or two that round to one
    float, is a ValueError, decided in that order: the products rise with
    the breakpoints, so the last is the largest.
    """
    if not 0.0 < h < INF:
        raise ValueError("scale factor must be > 0 and finite")
    scaled = tuple(b * h for b in F.breakpoints)
    if scaled[-1] == INF:
        raise ValueError("scaled breakpoint overflows the float range")
    if any(b2 <= b1 for b1, b2 in zip(scaled, scaled[1:])):
        raise ValueError("scaled breakpoints round to one float, too close for the float range")
    return StepDF(scaled, F.values)


def is_proper(F: StepDF) -> bool:
    """Whether F reaches 1, i.e. F belongs to D+."""
    return F.values[-1] == 1.0


def quasi_inverse(F: StepDF) -> StepQuantile:
    """The quasi-inverse w -> sup{t : F(t) < w}, exactly.

    For w in the value band (v_{i-1}, v_i] the supremum is the breakpoint
    t_i, each carrying a jump as F is canonical (unless F = 0); above the
    terminal value of an improper F it is +inf.
    """
    wb, qv = (F.values[1:], F.breakpoints) if F.values[-1] > 0.0 else ((), ())
    if not is_proper(F):
        wb, qv = wb + (1.0,), qv + (INF,)
    # canonical F: its values[1:] rise strictly in (0, 1] and its breakpoints
    # strictly, so wbreaks rise strictly to 1 and no two adjacent qvalues are equal
    return StepQuantile._canonical(wb, qv)


def qf_eval(Q: StepQuantile, w: float) -> float:
    """Band lookup: the quantile value at w in (0, 1]."""
    if not 0.0 < w <= 1.0:
        raise ValueError("quantile argument must lie in (0, 1]")
    return Q.qvalues[bisect_left(Q.wbreaks, w)]


def _walk(a_ends, a_vals, b_ends, b_vals):
    """(end, a value, b value) at each end of the union of two ascending band
    end lists with the same last end, ascending; each value is that of the
    first band whose end is >= that end, the band bisect_left finds."""
    i = j = 0
    while i < len(a_ends):  # both lists are spent at their shared last end
        a, b = a_ends[i], b_ends[j]
        yield (a if a <= b else b), a_vals[i], b_vals[j]
        if a <= b:  # a branch, not i += a <= b: adding a bool is slower
            i += 1
        if b <= a:
            j += 1


def qf_add(Q1: StepQuantile, Q2: StepQuantile) -> StepQuantile:
    """Exact pointwise sum of two quantile functions (+inf absorbing), by one
    merge of their wbreaks.  A sum of two finite qvalues beyond the float
    range is a ValueError, not the +inf of an improper d.f."""
    ends = {}  # sum -> its largest wbreak
    for w, a, b in _walk(Q1.wbreaks, Q1.qvalues, Q2.wbreaks, Q2.qvalues):
        s = a + b
        if s == INF and a < INF and b < INF:
            raise ValueError("qvalue sum overflows the float range")
        ends[s] = w
    # canonical as built: the merged wbreaks rise strictly to the shared 1,
    # float addition keeps the sums >= 0 nondecreasing, so equal sums are
    # neighbours, and each distinct sum is one key, at its largest wbreak
    return StepQuantile._canonical(tuple(ends.values()), tuple(ends))


def _df_of_hat(Q: StepQuantile) -> StepDF:
    """quasi_inverse run backwards: the finite qvalues are the breakpoints
    and their wbreaks the values; with none it is the mute d.f."""
    k = bisect_left(Q.qvalues, INF)
    # canonical Q: its finite qvalues rise strictly from >= 0 and its wbreaks
    # in (0, 1], so each breakpoint carries a jump (the mute one as in StepDF)
    bps, vals = (Q.qvalues[:k], (0.0, *Q.wbreaks[:k])) if k else ((0.0,), (0.0, 0.0))
    return StepDF._canonical(bps, vals)


def qf_scale(Q: StepQuantile, h: float) -> StepQuantile:
    """Exact pointwise scaling h * Q for finite h > 0.

    A finite qvalue times h beyond the float range is a ValueError, decided
    by the first +inf product: a +inf qvalue stays +inf to the end.
    """
    if not 0.0 < h < INF:
        raise ValueError("scale factor must be > 0 and finite")
    scaled = [q * h for q in Q.qvalues]
    k = bisect_left(scaled, INF)
    if k < len(scaled) and Q.qvalues[k] < INF:
        raise ValueError("scaled qvalue overflows the float range")
    return StepQuantile(Q.wbreaks, tuple(scaled))


def levy_condition(F: StepDF, G: StepDF, h: float) -> bool:
    """Decide exactly whether F(x-h) - h <= G(x) <= F(x+h) + h on (-1/h, 1/h).

    Both sides are step functions of x, so it suffices to check the finitely
    many event points (breakpoints of G, breakpoints of F shifted by +-h)
    inside the interval, each at the point itself (left value, bisect_left)
    and just above it (right limit, bisect_right).  Left of the first event
    (on the whole interval if there is none) G(x) and F(x-h) are 0, because
    their first jumps, at G's first breakpoint and at F's plus h, lie right
    of -1/h and are events when inside; so the condition holds there.

    Every point evaluated is an event or an event +-h, finite and never NaN,
    so a bisect into the breakpoints is the whole evaluation.  The ends
    +-1/h, infinite for a subnormal h, only select the events.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    lo, hi = -1.0 / h, 1.0 / h
    fb, fv, gb, gv = F.breakpoints, F.values, G.breakpoints, G.values
    inside = {e for e in (*gb, *[t - h for t in fb], *[t + h for t in fb]) if lo < e < hi}
    for at in (bisect_left, bisect_right):
        for x in inside:
            g = gv[at(gb, x)]
            if not fv[at(fb, x - h)] - h <= g <= fv[at(fb, x + h)] + h:
                return False
    return True


LEVY_TOL = 1e-9
# the grid of window sizes: the largest power of two <= 2 * LEVY_TOL (2^-29)
_LEVY_STEP = math.ldexp(1.0, math.frexp(2.0 * LEVY_TOL)[1] - 1)
_LEVY_CELLS = 1 << 16  # most value and breakpoint gaps formed at once
# fewest breakpoints, F's and G's together, from which a width is checked
# by _joint_condition's numpy pass instead of the levy_condition loop.  The
# pass costs ~40 numpy calls per width whatever the size, the loop about a
# microsecond per event read, so the loop wins on small pairs.  levy_metric
# per pair, numpy pass over loop, median of 9 rounds over 20 lattice and
# continuous pairs per total (three draws, numpy 2.4.6, 2 shared cores):
# total 24: 1.28-1.42; 32: 1.00-1.15; 36: 0.96-1.24; 40: 0.91-0.98;
# 48: 0.76-0.88; 64: 0.44; 128: 0.36
_LEVY_JOINT_MIN = 40


def _levy_candidates(F: StepDF, G: StepDF) -> np.ndarray:
    """Sorted unique grid indices ceil(c / _LEVY_STEP) in (0, 2^29) of the
    window sizes c where the joint Levy condition can flip.

    The candidates are the least grid point (where F = G), for each
    breakpoint t the window end 1/h meeting t (h = 1/t) or t + h
    (h = (sqrt(t^2 + 4) - t)/2), and the gaps |r_i - c_j| between the
    values and between the breakpoints of F and G.  The gaps, one outer
    difference per family, are formed only if there are at most
    _LEVY_CELLS of them in all; past that the search bisects between the
    O(n + m) per-breakpoint candidates.
    """

    def grid(cs):  # 0 < ceil(c / step) < 2^29 iff 0 < c <= 1 - step
        return np.ceil(cs[(0.0 < cs) & (cs <= 1.0 - _LEVY_STEP)] / _LEVY_STEP).astype(np.int64)

    t = np.array(F.breakpoints + G.breakpoints)
    # without the t + h ends: fewer checks, not less time (a passing check scans every event)
    with np.errstate(divide="ignore", over="ignore"):  # 1/t is inf at t = 0 or subnormal
        found = [grid(np.concatenate(([_LEVY_STEP], 1.0 / t, 2.0 / (np.hypot(t, 2.0) + t))))]
    pairs = [
        (np.array(F.values), np.array(G.values)),
        (np.array(F.breakpoints), np.array(G.breakpoints)),
    ]
    if sum(r.size * c.size for r, c in pairs) <= _LEVY_CELLS:
        # one family at a time, so only one outer difference is alive
        found += [grid(np.abs(np.subtract.outer(r, c)).ravel()) for r, c in pairs]
    ks = np.concatenate(found)
    ks.sort()  # then keep the first and each new one: np.unique is ~20x slower on int64
    return ks[np.concatenate((ks[:1] > 0, ks[1:] != ks[:-1]))]


def _joint_condition(F: StepDF, G: StepDF):
    """The predicate ok(k) = levy_condition(F, G, h) and levy_condition(G, F, h)
    at h = k * _LEVY_STEP, decided in one numpy pass over both directions.

    The events of both directions are one array, base + shift * h with
    shift in {0, -1, +1}: t + (-h) is t - h in floats.  Those inside
    (-1/h, 1/h) (|e| < 1/h, as -1.0 / h = -(1.0 / h)) are read at the point
    itself, then at its right limit, with a return at the first limit that
    fails.  x - h and x + h of one direction's events and x of the other's
    make one query array per d.f., so one searchsorted each gives every
    bisect_left; the breakpoints rise strictly and end in an inf pad, so
    bisect_right is that index plus (padded[idx] == q).  Every float
    expression is levy_condition's, so the verdict is too.
    """
    fb, gb = np.array(F.breakpoints), np.array(G.breakpoints)
    fv, gv = np.array(F.values), np.array(G.values)
    fpad, gpad = np.append(fb, INF), np.append(gb, INF)
    nf, ng = len(fb), len(gb)
    # the events of levy_condition(F, G, h), then those of (G, F, h)
    base = np.concatenate((gb, fb, fb, fb, gb, gb))
    shift = np.repeat([0.0, -1.0, 1.0, 0.0, -1.0, 1.0], [ng, nf, nf, nf, ng, ng])

    def ok(k: int) -> bool:
        h = k * _LEVY_STEP
        e = base + shift * h
        inside = np.abs(e) < 1.0 / h
        n = np.count_nonzero(inside[: ng + 2 * nf])
        e = e[inside]
        ef, eg = e[:n], e[n:]
        m = len(eg)
        qf = np.concatenate((ef - h, ef + h, eg))  # where F is read
        qg = np.concatenate((eg - h, eg + h, ef))  # where G is read
        i, j = np.searchsorted(fb, qf), np.searchsorted(gb, qg)
        for right in (False, True):
            if right:
                i, j = i + (fpad[i] == qf), j + (gpad[j] == qg)
            a, b = fv[i], gv[j]
            low = np.concatenate((a[:n], b[:m])) - h
            mid = np.concatenate((b[2 * m :], a[2 * n :]))
            up = np.concatenate((a[n : 2 * n], b[m : 2 * m])) + h
            held = (low <= mid) & (mid <= up)
            if np.count_nonzero(held) < held.size:
                return False
        return True

    return ok


def levy_metric(F: StepDF, G: StepDF) -> LevyDistance:
    """Modified Levy metric on the grid of _LEVY_STEP = 2^-29.

    With k the least grid index at which the joint condition holds, the
    result is the midpoint of ((k - 1) * 2^-29, k * 2^-29], with half-width
    2^-30 <= LEVY_TOL: what bisection of (0, 1] down to that width returns.
    The condition holds at h = 1 for any pair in Delta+, so it is never
    checked there: values lie in [0, 1] and rounding is monotone, so
    F(x - 1) - 1 <= 0 <= G(x) <= 1 <= F(x + 1) + 1 holds exactly in floats.
    It is monotone in h, and the check per h is exact.

    The search keeps a grid bracket (lo, hi] with hi feasible.  A binary
    search over the candidate thresholds (see _levy_candidates) narrows it
    first, then a check at hi - 1 (k = hi unless the float threshold sits
    just below the candidate), then bisection of what is left.  The
    candidates only steer: whatever they hold, the result is the same.

    A width is checked by levy_condition both ways, a loop over the events,
    or from _LEVY_JOINT_MIN breakpoints in all by _joint_condition's one
    numpy pass, which gives the same verdict at a fixed cost per width.
    """

    def loop_ok(k: int) -> bool:
        h = k * _LEVY_STEP
        return levy_condition(F, G, h) and levy_condition(G, F, h)

    joint = len(F.breakpoints) + len(G.breakpoints) >= _LEVY_JOINT_MIN
    ok = _joint_condition(F, G) if joint else loop_ok
    lo, hi = 0, round(1.0 / _LEVY_STEP)  # h = 0 and h = 1, neither checked
    ks = _levy_candidates(F, G)
    i, j = 0, len(ks)  # the candidates inside (lo, hi) are ks[i:j]
    while i < j:
        m = (i + j) // 2
        k = int(ks[m])
        if ok(k):
            hi, j = k, m
        else:
            lo, i = k, m + 1
    mid = hi - 1  # first the grid point below hi
    while hi - lo > 1:
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        mid = (lo + hi) // 2
    return LevyDistance((hi - 0.5) * _LEVY_STEP, 0.5 * _LEVY_STEP)
