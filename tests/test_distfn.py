"""Step d.f. algebra: examples, quasi-inverse oracle checks, Levy metric."""

import math
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
from probnorm.triangle import TNormKind, tau_sup_conv

import levy_oracle
from fuzz import fuzz_list, mostly
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

    def test_scale_hat_identity(self):
        for seed in range(30):
            F = gen_stepdf(seed)
            for h in (0.5, 2.0, 7.0):
                assert quasi_inverse(df_scale(F, h)) == qf_scale(quasi_inverse(F), h)

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
        for seed in range(100):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 4000)
            lhs = qf_add(quasi_inverse(F), quasi_inverse(G))
            rhs = quasi_inverse(tau_sup_conv(TNormKind.MIN, F, G))
            assert lhs == rhs

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
    vals = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    tail = draw(st.sampled_from(("proper", "improper", "zero")))
    if tail == "proper":
        vals[-1] = 1.0
    elif tail == "zero":
        vals = [0.0] * n
    return StepDF(sorted(bps), [0.0, *vals])


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
        got = [levy_metric(F, G) for F, G in pairs]
        # levy_metric reaches levy_condition through the module global
        monkeypatch.setattr(distfn, "levy_condition", reference_levy_condition)
        for (F, G), d in zip(pairs, got):
            want = levy_metric(F, G)
            assert (d.value.hex(), d.tolerance.hex()) == (want.value.hex(), want.tolerance.hex())

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_distance_needs_a_finite_positive_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            distfn.LevyDistance(0.5, tolerance)

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
        calls = []

        def counted(F, G, h):
            calls.append(h)
            return levy_condition(F, G, h)

        # both reach levy_condition through their module's global
        monkeypatch.setattr(distfn, "levy_condition", counted)
        monkeypatch.setattr(levy_oracle, "levy_condition", counted)
        for seed in range(100):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 300, proper=seed % 4 != 0)
            for A, B in ((F, G), (F, F)):
                calls.clear()
                levy_metric(A, B)
                searched = len(calls)
                calls.clear()
                bisection_levy_metric(A, B)
                assert searched <= len(calls)

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
