"""Step d.f. algebra: examples, quasi-inverse oracle checks, Levy metric."""

import math
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probnorm import distfn
from probnorm.distfn import (
    LEVY_TOL,
    StepDF,
    StepQuantile,
    df_eval,
    df_scale,
    is_proper,
    levy_condition,
    levy_metric,
    qf_add,
    qf_eval,
    qf_scale,
    quasi_inverse,
    unit_step,
)
from probnorm.testkit import _scan_eval_many, gen_stepdf

import levy_oracle
from fuzz import fuzz_list, mostly
from conv_oracles import pair_sort_min
from levy_oracle import bisection_levy_metric

INF = math.inf


def qinv_oracle(F: StepDF, w: float, tmax: float = 5.0, step: float = 1e-4) -> float:
    """Independent dense-grid sup{t : F(t) < w} with explicit step evaluation."""
    best = -INF
    t = -0.5
    while t <= tmax:
        # left-continuous step evaluation by counting, no library calls
        i = sum(1 for b in F.breakpoints if b < t)
        if F.values[i] < w:
            best = t
        t += step
    return INF if best >= tmax - 2 * step else best


class TestStepDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepDF([], [0.0])
        with pytest.raises(ValueError):
            StepDF([1.0, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            StepDF([2.0, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            StepDF([1.0], [0.1, 1.0])
        with pytest.raises(ValueError):
            StepDF([1.0], [0.0, 1.5])
        with pytest.raises(ValueError):
            StepDF([-1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            StepDF([1.0, 2.0], [0.0, 0.9, 0.5])

    def test_validation_rejects_nan_values(self):
        with pytest.raises(ValueError):
            StepDF([1.0], [0.0, math.nan])
        with pytest.raises(ValueError):
            StepDF([1.0, 2.0], [0.0, math.nan, 1.0])

    def test_eval_rejects_nan(self):
        F = StepDF([1.0, 2.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            df_eval(F, math.nan)

    def test_canonicalization_drops_flat_jumps(self):
        F = StepDF([1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0])
        assert F == StepDF([1.0, 3.0], [0.0, 0.5, 1.0])

    def test_eval_unit_step(self):
        H2 = unit_step(2.0)
        assert df_eval(H2, 2.0) == 0.0
        assert df_eval(H2, 3.0) == 1.0

    def test_eval_two_step(self):
        F = StepDF([1.0, 2.0], [0.0, 0.5, 1.0])
        assert df_eval(F, 2.0) == 0.5
        assert df_eval(F, 2.001) == 1.0
        assert df_eval(F, 0.0) == 0.0

    def test_eval_infinities(self):
        F = StepDF([1.0], [0.0, 0.6])  # improper
        assert df_eval(F, -INF) == 0.0
        assert df_eval(F, INF) == 1.0

    def test_unit_step(self):
        assert unit_step(0.0) == StepDF([0.0], [0.0, 1.0])
        assert unit_step(3.0) == StepDF([3.0], [0.0, 1.0])
        assert df_eval(unit_step(1.5), 1.5) == 0.0
        with pytest.raises(ValueError):
            unit_step(-0.1)

    def test_scale(self):
        assert df_scale(unit_step(1.0), 2.0) == unit_step(2.0)
        F = gen_stepdf(11)
        assert df_scale(F, 1.0) == F
        with pytest.raises(ValueError):
            df_scale(F, 0.0)

    @pytest.mark.parametrize(
        "breakpoints, h, message",
        [
            ((1e-308, math.nextafter(1e-308, 1.0)), 2.0**-60, "scaled breakpoints round to one float, too close for the float range"),
            ((1.0, 2.0), 1e308, "scaled breakpoint overflows the float range"),
        ],
        ids=["round-to-one", "overflow"],
    )
    def test_scale_leaving_the_float_range(self, breakpoints, h, message):
        # a valid d.f. and a valid factor, scaled past what floats hold
        F = StepDF(breakpoints, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError) as raised:
            df_scale(F, h)
        assert str(raised.value) == message

    def test_scale_hat_identity(self):
        for seed in range(30):
            F = gen_stepdf(seed)
            for h in (0.5, 2.0, 7.0):
                assert quasi_inverse(df_scale(F, h)) == qf_scale(quasi_inverse(F), h)

    @pytest.mark.parametrize("h", [INF, math.nan, 0.0, -1.0])
    def test_scale_factor_must_be_positive_and_finite(self, h):
        F = gen_stepdf(5)
        for call in (lambda: df_scale(F, h), lambda: qf_scale(quasi_inverse(F), h)):
            with pytest.raises(ValueError, match="scale factor must be > 0 and finite"):
                call()

    def test_scale_hat_identity_at_infinity(self):
        # both sides raise alike, on the mute d.f., on H_0 (whose hat times
        # inf would be 0 * inf = nan) and on improper and proper d.f.s
        def outcome(call):
            try:
                return repr(call())
            except ValueError as e:
                return str(e)

        for F in (StepDF([1.0], [0.0, 0.0]), unit_step(0.0), StepDF([1.0], [0.0, 0.5]), gen_stepdf(2)):
            lhs = outcome(lambda: quasi_inverse(df_scale(F, INF)))
            assert lhs == outcome(lambda: qf_scale(quasi_inverse(F), INF))
            assert lhs == "scale factor must be > 0 and finite"

    def test_is_proper(self):
        assert is_proper(unit_step(4.0))
        assert not is_proper(StepDF([1.0], [0.0, 0.6]))

    def test_proper_iff_finite_hat(self):
        for seed in range(50):
            F = gen_stepdf(seed, proper=bool(seed % 2))
            assert is_proper(F) == all(math.isfinite(q) for q in quasi_inverse(F).qvalues)


def jump_filter_quasi_inverse(F: StepDF) -> StepQuantile:
    """The hat by testing every breakpoint for a jump: a reference that does
    not rely on StepDF's canonical form."""
    wb, qv = [], []
    for i, b in enumerate(F.breakpoints):
        if F.values[i + 1] > F.values[i]:
            wb.append(F.values[i + 1])
            qv.append(b)
    if not wb or wb[-1] < 1.0:
        wb.append(1.0)
        qv.append(INF)
    return StepQuantile(tuple(wb), tuple(qv))


@st.composite
def raw_stepdfs(draw) -> StepDF:
    """A StepDF built from raw lists with zero jumps and -0.0 entries: proper,
    improper or all-zero."""
    bps = draw(st.lists(st.sampled_from((-0.0, 0.0, 1.0)) | st.floats(0.0, 5.0), min_size=1, max_size=8))
    bps = sorted(set(bps))
    value_st = st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
    vals = sorted(draw(st.lists(value_st, min_size=len(bps), max_size=len(bps))))
    kind = draw(st.sampled_from(("proper", "improper", "zero")))
    if kind == "proper":
        vals[-1] = 1.0
    elif kind == "improper":
        vals = [min(v, 0.75) for v in vals]
    else:
        vals = [0.0 * v for v in vals]  # zeros, -0.0 kept where drawn
    return StepDF(bps, (draw(st.sampled_from((-0.0, 0.0))), *vals))


class TestQuasiInverse:
    @settings(max_examples=300, deadline=None)
    @given(raw_stepdfs())
    def test_matches_the_jump_filter_bitwise(self, F):
        got, want = quasi_inverse(F), jump_filter_quasi_inverse(F)
        assert [w.hex() for w in got.wbreaks] == [w.hex() for w in want.wbreaks]
        assert [q.hex() for q in got.qvalues] == [q.hex() for q in want.qvalues]

    def test_zero_df(self):
        F = StepDF((0.0, 2.0), (-0.0, 0.0, -0.0))
        assert quasi_inverse(F) == StepQuantile((1.0,), (INF,))

    def test_unit_step_constant(self):
        Q = quasi_inverse(unit_step(3.0))
        assert Q == StepQuantile([1.0], [3.0])
        assert qf_eval(Q, 0.5) == 3.0

    def test_two_step_against_oracle(self):
        F = StepDF([1.0, 2.0], [0.0, 0.5, 1.0])
        Q = quasi_inverse(F)
        assert Q == StepQuantile([0.5, 1.0], [1.0, 2.0])
        for w in (0.2, 0.5, 0.50001, 0.9, 1.0):
            assert abs(qf_eval(Q, w) - qinv_oracle(F, w)) < 2e-4
        assert qf_eval(Q, 0.5) == 1.0
        assert qf_eval(Q, 0.50001) == 2.0

    def test_improper_against_oracle(self):
        F = StepDF([1.0], [0.0, 0.6])
        Q = quasi_inverse(F)
        assert Q == StepQuantile([0.6, 1.0], [1.0, INF])
        assert abs(qf_eval(Q, 0.4) - qinv_oracle(F, 0.4)) < 2e-4
        assert qf_eval(Q, 0.8) == INF
        assert qinv_oracle(F, 0.8) == INF

    def test_quantile_validation_rejects_nan(self):
        with pytest.raises(ValueError):
            StepQuantile([0.5, 1.0], [math.nan, 2.0])
        with pytest.raises(ValueError):
            StepQuantile([math.nan, 1.0], [1.0, 2.0])
        assert StepQuantile([0.5, 1.0], [1.0, INF]).qvalues == (1.0, INF)

    def test_qf_eval_domain(self):
        Q = quasi_inverse(unit_step(1.0))
        for w in (0.0, -0.3, 1.1):
            with pytest.raises(ValueError):
                qf_eval(Q, w)

    def test_add_zero_identity(self):
        zero = quasi_inverse(unit_step(0.0))
        for seed in range(20):
            Q = quasi_inverse(gen_stepdf(seed))
            assert qf_add(Q, zero) == Q

    def test_add_unit_steps(self):
        s = qf_add(quasi_inverse(unit_step(1.0)), quasi_inverse(unit_step(2.0)))
        assert s == StepQuantile([1.0], [3.0])

    def test_add_matches_min_convolution(self):
        # tau_M by the pair sort: the library reads tau_M off qf_add itself
        for seed in range(100):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 4000)
            lhs = qf_add(quasi_inverse(F), quasi_inverse(G))
            rhs = quasi_inverse(pair_sort_min(F, G, True))
            assert lhs == rhs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_add_overflows_exactly_when_min_convolution_does(self, data):
        # on proper pairs, near the top of the float range or not
        def draw_proper():
            bp_st = st.floats(0.0, 1e300) | st.floats(1e307, sys.float_info.max) | st.sampled_from((0.0, 1e308))
            bps = sorted(data.draw(st.lists(bp_st, min_size=1, max_size=4, unique=True)))
            vals = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(bps) - 1, max_size=len(bps) - 1)))
            return StepDF(bps, (0.0, *vals, 1.0))

        F, G = draw_proper(), draw_proper()
        try:
            want = quasi_inverse(pair_sort_min(F, G, True))
        except ValueError as e:
            assert "overflows the float range" in str(e)
            with pytest.raises(ValueError, match="overflows the float range"):
                qf_add(quasi_inverse(F), quasi_inverse(G))
        else:
            assert qf_add(quasi_inverse(F), quasi_inverse(G)) == want

    def test_overflow_is_not_an_improper_hat(self):
        Q = quasi_inverse(unit_step(1e308))
        for call in (lambda: qf_add(Q, Q), lambda: qf_scale(Q, 2.0)):
            with pytest.raises(ValueError, match="qvalue .*overflows the float range"):
                call()
        # a finite qvalue that overflows below an improper input's +inf
        with pytest.raises(ValueError, match="overflows"):
            qf_add(StepQuantile((0.5, 1.0), (1e308, INF)), Q)
        # +inf from an improper input stays legal
        improper = quasi_inverse(StepDF([1.0], [0.0, 0.5]))
        assert qf_add(improper, Q) == StepQuantile((0.5, 1.0), (1e308, INF))
        assert qf_scale(improper, 2.0) == StepQuantile((0.5, 1.0), (2.0, INF))

    @settings(max_examples=300, deadline=None)
    @given(raw_stepdfs())
    def test_df_of_hat_inverts_quasi_inverse(self, F):
        assert repr(distfn._df_of_hat(quasi_inverse(F))) == repr(F)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_quasi_inverse_inverts_df_of_hat(self, data):
        # every StepQuantile is a hat: finite qvalues, or a +inf top band
        w_st = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        wb = (*sorted(set(data.draw(st.lists(w_st, max_size=7)))), 1.0)
        q_st = st.sampled_from((0.0, 5e-324, 1.0, 1e308, sys.float_info.max, INF)) | st.floats(0.0, 5.0)
        Q = StepQuantile(wb, sorted(data.draw(st.lists(q_st, min_size=len(wb), max_size=len(wb)))))
        D = distfn._df_of_hat(Q)
        assert repr(StepDF(D.breakpoints, D.values)) == repr(D)
        assert repr(quasi_inverse(D)) == repr(Q)

    def test_order_reversal(self):
        # G raises F's values pointwise (same breakpoints), so F <= G
        for seed in range(50):
            F = gen_stepdf(seed)
            G = StepDF(F.breakpoints, tuple(math.sqrt(v) for v in F.values))
            QF, QG = quasi_inverse(F), quasi_inverse(G)
            grid = sorted(set(QF.wbreaks) | set(QG.wbreaks))
            mids = [0.5 * (a + b) for a, b in zip([0.0, *grid], grid)]
            assert all(qf_eval(QF, w) >= qf_eval(QG, w) for w in mids)

    def test_near_inverse(self):
        # if F-hat >= G-hat pointwise then F(t) <= G(t + h) for h > 0
        for seed in range(50):
            G = gen_stepdf(seed)
            F = StepDF(G.breakpoints, tuple(v * v for v in G.values))  # F <= G
            for t in F.breakpoints:
                for h in (1e-6, 1e-3, 0.1):
                    assert df_eval(F, t) <= df_eval(G, t + h)

    def test_injectivity(self):
        for seed in range(1000):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 5000)
            if F != G:
                assert quasi_inverse(F) != quasi_inverse(G)

    def test_round_trip_unit_steps(self):
        for a in np.arange(0.0, 3.0, 0.25):
            Q = quasi_inverse(unit_step(a))
            # reconstruction sup{w : F-hat(w) <= x}
            def rebuilt(x):
                ws = [w for w, q in zip(Q.wbreaks, Q.qvalues) if q <= x]
                return max(ws) if ws else 0.0

            assert rebuilt(a) == 1.0
            assert rebuilt(a - 0.01) == 0.0 if a > 0 else True


def levy_condition_oracle(F: StepDF, G: StepDF, h: float, res: float = 1e-5) -> bool:
    # evaluates through testkit's linear scan, independent of df_eval
    xs = np.arange(-1.0 / h + res, 1.0 / h, res)
    fl = _scan_eval_many(F, xs - h)
    fr = _scan_eval_many(F, xs + h)
    g = _scan_eval_many(G, xs)
    return bool(np.all(fl - h <= g) and np.all(g <= fr + h))


def reference_eval_right(F: StepDF, x: float) -> float:
    # right limit F(x+): value on the band just above x
    if x < INF:
        return 0.0 if x == -INF else F.values[bisect_right(F.breakpoints, x)]
    if x == INF:
        return 1.0
    raise ValueError("cannot evaluate a d.f. at NaN")


def reference_levy_condition(F: StepDF, G: StepDF, h: float) -> bool:
    """The per-point check: sorted events through df_eval and the right limit,
    plus the right limit at -1/h."""
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    lo, hi = -1.0 / h, 1.0 / h

    def holds(x: float, at) -> bool:
        g = at(G, x)
        return at(F, x - h) - h <= g <= at(F, x + h) + h

    events = set(G.breakpoints)
    for t in F.breakpoints:
        events.add(t - h)
        events.add(t + h)
    inside = sorted(e for e in events if lo < e < hi)
    if not all(holds(e, df_eval) for e in inside):
        return False
    return all(holds(e, reference_eval_right) for e in [lo, *inside])


def df_values(draw, n: int) -> list:
    """The n values after F(0) = 0 of a proper, improper or all-zero d.f."""
    vals = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    tail = draw(st.sampled_from(("proper", "improper", "zero")))
    if tail == "proper":
        vals[-1] = 1.0
    elif tail == "zero":
        vals = [0.0] * n
    return vals


@st.composite
def levy_stepdfs(draw):
    """A d.f. on a dyadic lattice, a 0.1 lattice or with continuous
    breakpoints; proper, improper or all-zero."""
    n = draw(st.integers(1, 8))
    lattice = draw(st.sampled_from((1 / 16, 0.1, None)))
    if lattice is None:
        bps = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n, unique=True))
    else:
        slots = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
        bps = [k * lattice for k in slots]
    return StepDF(sorted(bps), [0.0, *df_values(draw, n)])


@st.composite
def edge_stepdfs(draw):
    """A d.f. on adjacent floats from 0, 1 or 1e300, or on breakpoints spread
    up to 1e300, optionally with a breakpoint at 0; proper, improper or
    all-zero."""
    n = draw(st.integers(1, 6))
    start = draw(st.sampled_from((0.0, 1.0, 1e300, None)))
    if start is None:
        bps = sorted(draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n, unique=True)))
    else:
        bps = [start]
        while len(bps) < n:
            bps.append(math.nextafter(bps[-1], INF))
    if bps[0] > 0.0 and draw(st.booleans()):
        bps = [0.0, *bps[:-1]]
    return StepDF(bps, [0.0, *df_values(draw, n)])


@st.composite
def far_stepdfs(draw):
    """A d.f. with breakpoints in [2^28, 2^30], and maybe some in [0, 3]: at
    h = k * 2^-29 with k < 4 some of its events lie past the window end 1/h."""
    far = draw(st.lists(st.floats(2.0**28, 2.0**30), min_size=1, max_size=4))
    near = draw(st.lists(st.floats(0.0, 3.0), max_size=3))
    bps = sorted(set(far + near))
    return StepDF(bps, [0.0, *df_values(draw, len(bps))])


def sized_stepdf(rng, n: int, proper: bool = True) -> StepDF:
    """n breakpoints on the lattice of 1/16 in (0, 2n], or uniform in (0, 3)
    for odd n; proper or improper."""
    if n % 2:
        bps = np.sort(rng.uniform(0.0, 3.0, n))
    else:
        bps = np.sort(rng.choice(np.arange(1, 32 * n + 1), n, replace=False)) / 16.0
    vals = np.sort(rng.uniform(0.0, 1.0, n))
    if proper:
        vals[-1] = 1.0
    else:
        vals *= 0.9  # keep the terminal value clear of 1
    return StepDF(bps, [0.0, *vals])


def joint_path(F: StepDF, G: StepDF) -> str:
    """The path levy_metric checks a width of (F, G) on."""
    return "joint" if len(F.breakpoints) + len(G.breakpoints) >= distfn._LEVY_JOINT_MIN else "loop"


def route_checks(monkeypatch, condition=None) -> list:
    """Record each width h that levy_metric checks as (path, h): on the loop
    path it reaches levy_condition through the module global, on the numpy
    path _joint_condition.  With a condition, every check on either path is
    decided by condition(F, G, h) and condition(G, F, h) instead.  No width
    is checked twice in one call, so the distinct h are the widths checked.
    """
    checks = []
    joint_condition = distfn._joint_condition
    loop_condition = condition or levy_condition

    def loop(F, G, h):
        checks.append(("loop", h))
        return loop_condition(F, G, h)

    def joint(F, G):
        real = None if condition else joint_condition(F, G)

        def ok(k):
            h = k * distfn._LEVY_STEP
            checks.append(("joint", h))
            return real(k) if real else condition(F, G, h) and condition(G, F, h)

        return ok

    monkeypatch.setattr(distfn, "levy_condition", loop)
    monkeypatch.setattr(distfn, "_joint_condition", joint)
    return checks


def levy_hs(F: StepDF, G: StepDF) -> list:
    """Window sizes where the condition can flip: breakpoint differences and
    value gaps with their float neighbours, and 1, 1e-300 and 5e-324."""
    diffs = [abs(a - b) for a in F.breakpoints for b in G.breakpoints]
    diffs += [abs(u - v) for u in F.values for v in G.values]
    near = [math.nextafter(d, side) for d in diffs for side in (0.0, 2.0)]
    return [h for h in (1.0, 1e-300, 5e-324, *diffs, *near) if 0.0 < h <= 1.0]


class TestLevy:
    @settings(max_examples=300, deadline=None)
    @given(levy_stepdfs(), levy_stepdfs(), st.booleans(), st.data())
    def test_condition_matches_reference(self, F, G, same, data):
        if same:
            G = F
        hs = levy_hs(F, G)
        hs += data.draw(st.lists(st.floats(5e-324, 1.0), max_size=4))
        for h in hs:
            for A, B in ((F, G), (G, F)):
                assert levy_condition(A, B, h) == reference_levy_condition(A, B, h)

    def test_metric_matches_reference(self, monkeypatch):
        pairs = [(gen_stepdf(s), gen_stepdf(s + 300, proper=s % 4 != 0)) for s in range(40)]
        rng = np.random.default_rng(11)
        pairs += [(sized_stepdf(rng, n), sized_stepdf(rng, 48 - n, proper=n % 3 != 0)) for n in range(4, 44, 4)]
        got = [levy_metric(F, G) for F, G in pairs]
        checks = route_checks(monkeypatch, reference_levy_condition)
        for (F, G), d in zip(pairs, got):
            checks.clear()
            want = levy_metric(F, G)
            assert (d.value.hex(), d.tolerance.hex()) == (want.value.hex(), want.tolerance.hex())
            # the search ran on the reference, on the path the size picks
            assert checks and {path for path, _ in checks} == {joint_path(F, G)}

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_distance_needs_a_finite_positive_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            distfn.LevyDistance(0.5, tolerance)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(levy_stepdfs(), edge_stepdfs()), st.one_of(levy_stepdfs(), edge_stepdfs()))
    def test_condition_holds_at_one(self, F, G):
        # values lie in [0, 1], so F(x - 1) - 1 <= 0 <= G(x) <= 1 <= F(x + 1) + 1
        # in floats too, and levy_metric never checks h = 1
        assert levy_condition(F, G, 1.0) and levy_condition(G, F, 1.0)

    def test_condition_reflexive(self):
        for seed in range(10):
            F = gen_stepdf(seed)
            for h in (0.05, 0.3, 1.0):
                assert levy_condition(F, F, h)

    def test_condition_unit_steps(self):
        H0 = unit_step(0.0)
        for a in (0.2, 0.5, 0.9):
            Ha = unit_step(a)
            for h in (a / 2, a - 0.01, a, a + 0.01, 1.0):
                joint = levy_condition(H0, Ha, h) and levy_condition(Ha, H0, h)
                assert joint == (h >= a)
                assert joint == (
                    levy_condition_oracle(H0, Ha, h) and levy_condition_oracle(Ha, H0, h)
                )

    def test_condition_far_step_escapes_window(self):
        assert levy_condition(unit_step(0.0), unit_step(2.0), 1.0)
        assert levy_condition(unit_step(2.0), unit_step(0.0), 1.0)
        assert levy_condition_oracle(unit_step(0.0), unit_step(2.0), 1.0)

    def test_condition_domain(self):
        with pytest.raises(ValueError):
            levy_condition(unit_step(0.0), unit_step(1.0), 0.0)
        with pytest.raises(ValueError):
            levy_condition(unit_step(0.0), unit_step(1.0), 1.5)

    def test_metric_identity(self):
        for seed in range(10):
            F = gen_stepdf(seed)
            assert levy_metric(F, F).value <= LEVY_TOL

    def test_metric_unit_steps(self):
        H0 = unit_step(0.0)
        for a in (0.3, 0.7, 2.0):
            d = levy_metric(H0, unit_step(a))
            assert abs(d.value - min(a, 1.0)) <= 1e-9

    def test_metric_symmetry(self):
        for seed in range(20):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 300)
            assert levy_metric(F, G).value == levy_metric(G, F).value

    def test_metric_axioms(self):
        for seed in range(30):
            F = gen_stepdf(seed)
            G = gen_stepdf(seed + 300)
            H = gen_stepdf(seed + 600)
            dfg = levy_metric(F, G).value
            assert dfg >= 0.0
            assert dfg <= levy_metric(F, H).value + levy_metric(H, G).value + 2 * LEVY_TOL

    def test_metric_zero_implies_equal(self):
        for seed in range(50):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 900)
            if levy_metric(F, G).value <= LEVY_TOL:
                assert F == G

    def test_neighborhood_identity(self):
        # F(t) > 1 - t iff d_L(F, H_0) < t, off a guard band around equality
        rng = np.random.default_rng(5)
        H0 = unit_step(0.0)
        checked = 0
        for seed in range(200):
            F = gen_stepdf(seed)
            t = float(rng.uniform(0.01, 0.99))
            d = levy_metric(F, H0).value
            if abs(d - t) <= 2 * LEVY_TOL or abs(df_eval(F, t) - (1 - t)) <= 2 * LEVY_TOL:
                continue
            checked += 1
            assert (df_eval(F, t) > 1 - t) == (d < t)
        assert checked > 150


def bracket(d) -> tuple:
    return d.value.hex(), d.tolerance.hex()


def shifted(F: StepDF, s: float) -> StepDF:
    return StepDF([b + s for b in F.breakpoints], F.values)


LEVY_SHIFTS = (2.0**-30, 2.0**-29, 1e-9)


class TestLevySearch:
    """The candidate search returns the bisection's LevyDistance bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(levy_stepdfs(), levy_stepdfs(), st.sampled_from((None, "same", *LEVY_SHIFTS)))
    def test_matches_bisection(self, F, G, pair):
        if pair == "same":
            G = F
        elif pair is not None:
            assume(len(set(b + pair for b in F.breakpoints)) == len(F.breakpoints))
            G = shifted(F, pair)
        assert bracket(levy_metric(F, G)) == bracket(bisection_levy_metric(F, G))

    @pytest.mark.parametrize("cells", [distfn._LEVY_CELLS, 12])
    def test_matches_bisection_on_shifts(self, monkeypatch, cells):
        # at 12 cells most pairs have too many gaps: per-breakpoint candidates only
        monkeypatch.setattr(distfn, "_LEVY_CELLS", cells)
        for seed in range(30):
            F = gen_stepdf(seed, proper=seed % 3 != 0)
            for G in (F, *(shifted(F, s) for s in LEVY_SHIFTS)):
                assert bracket(levy_metric(F, G)) == bracket(bisection_levy_metric(F, G))

    @pytest.mark.parametrize("cells", [distfn._LEVY_CELLS, 12])
    def test_candidates_are_the_thresholds_on_the_grid(self, monkeypatch, cells):
        monkeypatch.setattr(distfn, "_LEVY_CELLS", cells)
        step = 2.0**-29
        without_gaps = 0
        for seed in range(60):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 300, proper=seed % 4 != 0)
            t = np.array(F.breakpoints + G.breakpoints)
            gaps = [abs(r - c) for r in F.values for c in G.values]
            gaps += [abs(r - c) for r in F.breakpoints for c in G.breakpoints]
            cs = [step, *(1.0 / t), *(2.0 / (np.hypot(t, 2.0) + t))]
            if len(gaps) <= cells:
                cs += gaps
            else:
                without_gaps += 1
            want = {math.ceil(c / step) for c in cs if 0.0 < c <= 1.0 - step}
            got = distfn._levy_candidates(F, G)
            assert list(got) == sorted(set(got.tolist())) and got.dtype == np.int64
            assert set(got.tolist()) == want
        assert (without_gaps > 30) if cells == 12 else (without_gaps == 0)

    @pytest.mark.parametrize("junk", ["nothing", "random"])
    def test_candidates_only_steer(self, monkeypatch, junk):
        pairs = [(gen_stepdf(s), gen_stepdf(s + 300, proper=s % 4 != 0)) for s in range(30)]
        pairs += [(F, F) for F, _ in pairs[:5]]
        want = [bracket(levy_metric(F, G)) for F, G in pairs]
        rng = np.random.default_rng(0)

        def candidates(F, G):
            if junk == "random":
                return np.unique(rng.integers(1, 2**29, 8))
            return np.empty(0, dtype=np.int64)

        monkeypatch.setattr(distfn, "_levy_candidates", candidates)
        assert [bracket(levy_metric(F, G)) for F, G in pairs] == want

    def test_never_more_checks_than_bisection(self, monkeypatch):
        pairs = [(gen_stepdf(s), gen_stepdf(s + 300, proper=s % 4 != 0)) for s in range(100)]
        rng = np.random.default_rng(12)
        pairs += [(sized_stepdf(rng, n), sized_stepdf(rng, m, proper=n != m)) for n, m in
                  ((20, 20), (8, 32), (16, 48), (32, 32), (5, 64), (64, 64))]
        checks = route_checks(monkeypatch)
        bisected = []

        def counted(F, G, h):
            bisected.append(h)
            return levy_condition(F, G, h)

        # the oracle reaches levy_condition through its module's global
        monkeypatch.setattr(levy_oracle, "levy_condition", counted)
        paths = set()
        for F, G in pairs:
            for A, B in ((F, G), (F, F)):
                checks.clear()
                levy_metric(A, B)
                hs = {h for _, h in checks}
                assert 1.0 not in hs  # it always holds there (test_condition_holds_at_one)
                paths |= {path for path, _ in checks}
                bisected.clear()
                bisection_levy_metric(A, B)
                assert len(hs) <= len(set(bisected))
        assert paths == {"loop", "joint"}

    def test_candidate_memory_is_bounded(self, monkeypatch):
        # 3,000 breakpoints each: one outer difference of the values would
        # hold 3001^2 floats (72 MB)
        rng = np.random.default_rng(7)

        def big(n: int) -> StepDF:
            slots = rng.choice(np.arange(1, 40 * n), n, replace=False)
            vals = np.sort(rng.uniform(0.0, 1.0, n))
            vals[-1] = 1.0
            return StepDF(np.sort(slots) / 40.0, [0.0, *vals])

        F, G = big(3000), big(3000)
        sizes = []

        def candidates(F, G):
            ks = levy_candidates(F, G)
            sizes.append(ks.size)
            return ks

        levy_candidates = distfn._levy_candidates
        monkeypatch.setattr(distfn, "_levy_candidates", candidates)
        tracemalloc.start()
        try:
            got = levy_metric(F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # 6001^2 gaps are too many: only the 1 + 2 * 6000 per-breakpoint ones
        assert len(sizes) == 1 and 0 < sizes[0] <= 1 + 2 * 6000
        assert bracket(got) == bracket(bisection_levy_metric(F, G))


any_stepdfs = st.one_of(levy_stepdfs(), edge_stepdfs(), far_stepdfs())


class TestJointCondition:
    """_joint_condition's numpy pass gives the verdict of levy_condition both
    ways at every width, and levy_metric the bisection's result on both paths."""

    @settings(max_examples=400, deadline=None)
    @given(any_stepdfs, any_stepdfs, st.booleans(), st.lists(st.integers(1, 2**29 - 1), max_size=4))
    def test_matches_levy_condition(self, F, G, same, draws):
        if same:
            G = F
        candidates = distfn._levy_candidates(F, G).tolist()
        # each candidate, the grid point below it, and the ends of the grid
        ks = {*candidates, *(k - 1 for k in candidates if k > 1), 1, 2**29 - 1, *draws}
        ok = distfn._joint_condition(F, G)
        for k in sorted(ks):
            h = k * 2.0**-29
            assert ok(k) == (levy_condition(F, G, h) and levy_condition(G, F, h))

    def test_events_past_the_window_are_not_read(self):
        # F and G agree on (-1/h, 1/h) = (-2^29, 2^29) at k = 1, and only
        # there: past 2^29 + 8, F is 1 and G stays at 0.5
        F = StepDF([0.5, 2.0**29 + 8], [0.0, 0.5, 1.0])
        G = StepDF([0.5], [0.0, 0.5])
        assert levy_condition(F, G, 2.0**-29) and levy_condition(G, F, 2.0**-29)
        assert distfn._joint_condition(F, G)(1) and distfn._joint_condition(G, F)(1)

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_metric_matches_bisection_at_the_threshold(self, monkeypatch, offset):
        total = distfn._LEVY_JOINT_MIN + offset
        rng = np.random.default_rng(total)
        pairs = [
            (sized_stepdf(rng, n), sized_stepdf(rng, total - n, proper=proper))
            for n in (1, total // 4, total // 2 - 1, total // 2)
            for proper in (True, False)
        ]
        assert all(len(F.breakpoints) + len(G.breakpoints) == total for F, G in pairs)
        pairs += [(G, G) for _, G in pairs[:2]]  # 2 * (total - 1) breakpoints
        checks = route_checks(monkeypatch)
        for F, G in pairs:
            checks.clear()
            assert bracket(levy_metric(F, G)) == bracket(bisection_levy_metric(F, G))
            assert {path for path, _ in checks} == {joint_path(F, G)}
        assert joint_path(*pairs[0]) == ("joint" if offset >= 0 else "loop")

    @pytest.mark.parametrize("n, m", [(8, 128), (64, 64), (32, 128), (128, 128)])
    def test_metric_matches_bisection_on_large_pairs(self, monkeypatch, n, m):
        rng = np.random.default_rng(n * m)
        checks = route_checks(monkeypatch)
        for proper in (True, False):
            F, G = sized_stepdf(rng, n), sized_stepdf(rng, m, proper=proper)
            checks.clear()
            assert bracket(levy_metric(F, G)) == bracket(bisection_levy_metric(F, G))
            assert {path for path, _ in checks} == {"joint"}


class TestConstructorFuzz:
    """Any floats either raise ValueError or give an object that meets its own
    invariants and that a second construction leaves unchanged."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_stepdf(self, data):
        n = data.draw(st.integers(0, 5))
        bps, vals = fuzz_list(data, n, n), fuzz_list(data, n, n + 2)
        if mostly(data):  # values[0] = 0 and one more value than breakpoints
            vals = [0.0, *vals[:n]]
        try:
            F = StepDF(bps, vals)
        except ValueError:
            return
        bp, vs = F.breakpoints, F.values
        assert all(type(x) is float for x in bp + vs)
        assert len(bp) >= 1 and len(vs) == len(bp) + 1
        assert all(math.isfinite(b) and b >= 0.0 for b in bp)
        assert all(b1 < b2 for b1, b2 in zip(bp, bp[1:]))
        assert vs[0] == 0.0 and all(0.0 <= v <= 1.0 for v in vs)
        # canonical: every breakpoint carries a jump, or one mute breakpoint
        jumps = all(v1 < v2 for v1, v2 in zip(vs, vs[1:]))
        assert jumps or (len(bp) == 1 and vs == (0.0, 0.0))
        assert repr(StepDF(bp, vs)) == repr(F)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_step_quantile(self, data):
        n = data.draw(st.integers(1, 5))
        wbreaks, qvalues = fuzz_list(data, n, n), fuzz_list(data, n, n + 1)
        if mostly(data):
            wbreaks[-1] = 1.0
        if data.draw(st.booleans()):  # an improper tail
            qvalues = [*qvalues[: n - 1], INF]
        try:
            Q = StepQuantile(wbreaks, qvalues)
        except ValueError:
            return
        wb, qv = Q.wbreaks, Q.qvalues
        assert all(type(x) is float for x in wb + qv)
        assert len(wb) == len(qv) >= 1
        assert all(0.0 < w <= 1.0 for w in wb) and wb[-1] == 1.0
        assert all(w1 < w2 for w1, w2 in zip(wb, wb[1:]))
        # canonical: adjacent bands differ, and only the tail may be +inf
        assert all(q >= 0.0 for q in qv)
        assert all(q1 < q2 for q1, q2 in zip(qv, qv[1:]))
        assert repr(StepQuantile(wb, qv)) == repr(Q)
