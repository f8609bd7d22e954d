"""t-norms, t-conorms, and exact sup/inf convolutions against brute-force oracles."""

import itertools
import math
import struct
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probnorm.distfn import StepDF, StepQuantile, df_eval, quasi_inverse, qf_add, unit_step
from probnorm.pnspace import _hat_le
from probnorm.testkit import gen_stepdf, oracle_inf_conv, oracle_sup_conv
from probnorm.triangle import (
    TNormKind,
    _conv,
    _tconorm,
    _tnorm,
    tau_inf_conv,
    tau_sup_conv,
    tconorm_eval,
    tnorm_eval,
)

import hat_oracle
from conv_oracles import (
    conv_range,
    exact_conv_values,
    exact_tconorm,
    exact_tnorm,
    oracle_conv_dense,
    pair_sort_min,
    ulps_off,
)

KINDS = (TNormKind.W, TNormKind.PROD, TNormKind.MIN)


class TestTNorms:
    def test_point_values(self):
        assert tnorm_eval(TNormKind.W, 0.7, 0.8) == pytest.approx(0.5, abs=1e-15)
        assert tnorm_eval(TNormKind.W, 0.3, 0.4) == 0.0
        assert tnorm_eval(TNormKind.PROD, 0.7, 0.8) == pytest.approx(0.56, abs=1e-15)
        assert tnorm_eval(TNormKind.MIN, 0.7, 0.8) == 0.7
        assert tnorm_eval("W", 0.5, 0.5) == 0.0

    def test_conorm_point_values(self):
        assert tconorm_eval(TNormKind.W, 0.7, 0.8) == 1.0
        assert tconorm_eval(TNormKind.W, 0.3, 0.4) == pytest.approx(0.7, abs=1e-15)
        assert tconorm_eval(TNormKind.PROD, 0.5, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert tconorm_eval(TNormKind.MIN, 0.7, 0.8) == 0.8

    def test_domain_validation(self):
        for bad in ((-0.1, 0.5), (0.5, 1.1)):
            with pytest.raises(ValueError):
                tnorm_eval(TNormKind.MIN, *bad)
            with pytest.raises(ValueError):
                tconorm_eval(TNormKind.MIN, *bad)

    def test_axioms_on_grid(self):
        grid = np.linspace(0.0, 1.0, 11)
        for kind in KINDS:
            for x, y, z in itertools.product(grid, repeat=3):
                t = tnorm_eval(kind, x, y)
                assert abs(t - tnorm_eval(kind, y, x)) < 1e-15
                a1 = tnorm_eval(kind, tnorm_eval(kind, x, y), z)
                a2 = tnorm_eval(kind, x, tnorm_eval(kind, y, z))
                assert abs(a1 - a2) < 1e-12
                if z >= y:
                    assert tnorm_eval(kind, x, z) >= t - 1e-15
            for x in grid:
                assert tnorm_eval(kind, x, 1.0) == pytest.approx(x, abs=1e-15)
                assert tconorm_eval(kind, x, 0.0) == pytest.approx(x, abs=1e-15)

    def test_ordering_w_prod_min(self):
        grid = np.linspace(0.0, 1.0, 21)
        for x, y in itertools.product(grid, repeat=2):
            w = tnorm_eval(TNormKind.W, x, y)
            p = tnorm_eval(TNormKind.PROD, x, y)
            m = tnorm_eval(TNormKind.MIN, x, y)
            assert w <= p + 1e-15 <= m + 2e-15

    def test_duality(self):
        grid = np.linspace(0.0, 1.0, 21)
        for kind in KINDS:
            for x, y in itertools.product(grid, repeat=2):
                lhs = tconorm_eval(kind, x, y)
                rhs = 1.0 - tnorm_eval(kind, 1.0 - x, 1.0 - y)
                assert abs(lhs - rhs) < 1e-15


def off_breakpoint_xs(F: StepDF, G: StepDF, rng, count=40, margin=2e-3):
    sums = sorted({a + b for a in (0.0, *F.breakpoints) for b in (0.0, *G.breakpoints)})
    hi = F.breakpoints[-1] + G.breakpoints[-1] + 0.5
    xs = []
    while len(xs) < count:
        x = float(rng.uniform(-0.2, hi))
        if all(abs(x - s) > margin for s in sums):
            xs.append(x)
    return xs


class TestSupConv:
    def test_unit_steps_translate(self):
        for kind in KINDS:
            assert tau_sup_conv(kind, unit_step(1.0), unit_step(2.0)) == unit_step(3.0)

    def test_unit_law(self):
        H0 = unit_step(0.0)
        for seed in range(25):
            F = gen_stepdf(seed)
            for kind in KINDS:
                assert tau_sup_conv(kind, F, H0) == F
                assert tau_sup_conv(kind, H0, F) == F

    def test_commutativity(self):
        for seed in range(25):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            for kind in KINDS:
                assert tau_sup_conv(kind, F, G) == tau_sup_conv(kind, G, F)

    def test_kind_ordering(self):
        xs = np.arange(-0.5, 6.5, 0.07)
        for seed in range(25):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            w = tau_sup_conv(TNormKind.W, F, G)
            p = tau_sup_conv(TNormKind.PROD, F, G)
            m = tau_sup_conv(TNormKind.MIN, F, G)
            for x in xs:
                assert df_eval(w, x) <= df_eval(p, x) + 1e-12
                assert df_eval(p, x) <= df_eval(m, x) + 1e-12

    def test_monotone_in_arguments(self):
        for seed in range(25):
            F = gen_stepdf(seed)
            G = gen_stepdf(seed + 100)
            G2 = StepDF(G.breakpoints, tuple(np.sqrt(G.values)))  # G <= G2
            for kind in KINDS:
                a = tau_sup_conv(kind, F, G)
                b = tau_sup_conv(kind, F, G2)
                for x in np.arange(0.0, 6.5, 0.11):
                    assert df_eval(a, x) <= df_eval(b, x) + 1e-12

    def test_associativity_pointwise(self):
        # breakpoint sums do not associate bitwise in floats, so compare
        # pointwise away from the triple-sum lattice
        rng = np.random.default_rng(3)
        for seed in range(10):
            F, G, H = gen_stepdf(seed), gen_stepdf(seed + 100), gen_stepdf(seed + 200)
            sums = sorted(
                {
                    p + q + r
                    for p in (0.0, *F.breakpoints)
                    for q in (0.0, *G.breakpoints)
                    for r in (0.0, *H.breakpoints)
                }
            )
            hi = sums[-1] + 0.5
            xs = []
            while len(xs) < 20:
                x = float(rng.uniform(0.0, hi))
                if all(abs(x - s) > 2e-3 for s in sums):
                    xs.append(x)
            for kind in KINDS:
                a = tau_sup_conv(kind, tau_sup_conv(kind, F, G), H)
                b = tau_sup_conv(kind, F, tau_sup_conv(kind, G, H))
                for x in xs:
                    assert abs(df_eval(a, x) - df_eval(b, x)) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(12):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            for kind in KINDS:
                C = tau_sup_conv(kind, F, G)
                for x in off_breakpoint_xs(F, G, rng, count=8):
                    assert df_eval(C, x) == pytest.approx(
                        oracle_sup_conv(kind, F, G, x), abs=1e-12
                    )

    def test_hat_additivity_min(self):
        for seed in range(200):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 2000)
            lhs = quasi_inverse(pair_sort_min(F, G, True))
            rhs = qf_add(quasi_inverse(F), quasi_inverse(G))
            assert lhs == rhs


class TestInfConv:
    def test_unit_steps_translate(self):
        for kind in KINDS:
            assert tau_inf_conv(kind, unit_step(1.0), unit_step(2.0)) == unit_step(3.0)

    def test_unit_law(self):
        H0 = unit_step(0.0)
        for seed in range(25):
            F = gen_stepdf(seed)
            for kind in KINDS:
                assert tau_inf_conv(kind, F, H0) == F
                assert tau_inf_conv(kind, H0, F) == F

    def test_commutativity(self):
        for seed in range(25):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            for kind in KINDS:
                assert tau_inf_conv(kind, F, G) == tau_inf_conv(kind, G, F)

    def test_sup_below_inf(self):
        xs = np.arange(-0.5, 6.5, 0.09)
        for seed in range(25):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            for kind in KINDS:
                s = tau_sup_conv(kind, F, G)
                i = tau_inf_conv(kind, F, G)
                for x in xs:
                    assert df_eval(s, x) <= df_eval(i, x) + 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for seed in range(12):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            for kind in KINDS:
                C = tau_inf_conv(kind, F, G)
                for x in off_breakpoint_xs(F, G, rng, count=8):
                    assert df_eval(C, x) == pytest.approx(
                        oracle_inf_conv(kind, F, G, x), abs=1e-12
                    )


# Values a few ulps from 0 and 1, where float rounding is coarsest against
# the step between neighbouring values: there the a + b - ab form of PROD's
# conorm was not monotone, and TestSortOnce and TestRationalGroundTruth check
# the formulas on them.
ULP = 2.0**-53
EDGE_VALUES = (
    0.0,
    2.0**-55,
    2.0**-54,
    3 * 2.0**-55,
    0.1097,
    0.5,
    *(1.0 - k * ULP for k in range(1, 9)),
    1.0,
)
IMPROPER_CAP = 1.0 - 8 * ULP


def edge_stepdf(bps, vals, proper: bool) -> StepDF:
    vals = sorted(vals)
    if proper:
        vals[-1] = 1.0
    else:
        vals = [min(v, IMPROPER_CAP) for v in vals]
    return StepDF(bps, (0.0, *vals))


def assert_matches_dense(F: StepDF, G: StepDF):
    for kind in KINDS:
        for sup, conv in ((True, tau_sup_conv), (False, tau_inf_conv)):
            got = conv(kind, F, G)
            assert got == oracle_conv_dense(kind, F, G, sup), (kind, sup, F, G)


@pytest.mark.parametrize("conv", [tau_sup_conv, tau_inf_conv])
@pytest.mark.parametrize("T", KINDS)
def test_overflowing_breakpoint_sums_are_an_error(conv, T):
    # the last breakpoints' sum is the largest; past the float range it is a
    # ValueError that names it, with no numpy warning
    H = unit_step(1e308)
    F = StepDF([1.0, 1e308], [0.0, 0.5, 1.0])
    for a, b in ((H, H), (F, H), (H, F)):
        with pytest.raises(ValueError, match="breakpoint sum overflows the float range"):
            conv(T, a, b)
    # the largest finite sum still convolves
    half = unit_step(sys.float_info.max / 2)
    assert conv(T, half, half) == unit_step(sys.float_info.max)


@pytest.mark.parametrize(
    "entry", [tnorm_eval, tconorm_eval, tau_sup_conv, tau_inf_conv], ids=lambda f: f.__name__
)
def test_kinds_are_coerced_or_refused(entry):
    # a kind is a TNormKind or its value; anything else is a ValueError, not
    # MIN by default
    if entry in (tnorm_eval, tconorm_eval):
        args = (0.25, 0.5)
    else:
        args = (unit_step(1.0), StepDF([0.5, 2.0], [0.0, 0.5, 1.0]))
    for T in KINDS:
        assert entry(T.value, *args) == entry(T, *args)
    for bad in ("w", "MIN", None, 3):
        with pytest.raises(ValueError, match="is not a valid TNormKind"):
            entry(bad, *args)


class TestDenseOracleBitwise:
    def test_prod_inf_near_one_stays_a_df(self):
        # the a + b - ab form of the conorm dipped a few ulps below 1 on this
        # pair, so its raw per-interval minima decreased; the dense oracle
        # takes no running max, so it checks that hi + lo (1 - hi) does not
        F = StepDF(
            (0.8988560760921316, 4.793556749261263, 4.799012304864572),
            (0.0, 0.9999999999999991, 0.9999999999999994, 1.0),
        )
        G = StepDF(
            (2.374103778292117, 2.502178943006876, 3.8335592695700695),
            (0.0, 0.9999999999999994, 0.9999999999999998, 1.0),
        )
        got = tau_inf_conv(TNormKind.PROD, F, G)
        assert got == StepDF(
            (3.2729598543842484, 7.16766052755338, 7.173116083156689),
            (0.0, 0.9999999999999991, 0.9999999999999994, 1.0),
        )
        assert_matches_dense(F, G)

    def test_lattice_continuous_improper_and_edge_values(self):
        rng = np.random.default_rng(11)
        for case in range(160):
            lattice = case % 2 == 0
            sizes = rng.integers(1, 13, 2)
            dfs = []
            for n, proper in zip(sizes, (True, case % 4 < 2)):
                if lattice:  # step 1/16: many sums coincide
                    bps = np.sort(rng.choice(4 * n + 4, n, replace=False)) / 16.0
                else:
                    bps = np.unique(rng.uniform(0.0, 5.0, n))
                pool = EDGE_VALUES if rng.random() < 0.5 else rng.uniform(0.0, 1.0, len(bps))
                dfs.append(edge_stepdf(bps, rng.choice(pool, len(bps)), proper))
            assert_matches_dense(*dfs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property(self, data):
        assert_matches_dense(*draw_edge_dfs(data))


VALUE_ST = st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0)


def draw_edge_dfs(data) -> list:
    """F proper and G either, on 1/16-lattice or continuous breakpoints in
    [0, 5], with edge or uniform values."""
    if data.draw(st.booleans()):
        bps_st = st.lists(st.integers(0, 48), min_size=1, max_size=8, unique=True).map(
            lambda ks: sorted(k / 16.0 for k in ks)
        )
    else:
        bps_st = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8, unique=True).map(sorted)
    dfs = []
    for proper in (True, data.draw(st.booleans())):
        bps = data.draw(bps_st)
        vals = data.draw(st.lists(VALUE_ST, min_size=len(bps), max_size=len(bps)))
        dfs.append(edge_stepdf(bps, vals, proper))
    return dfs


def draw_adjacent_float_dfs(data) -> list:
    """F proper and G either, whose breakpoints come in runs of adjacent
    floats, so that many pairwise sums tie or differ by an ulp."""
    dfs = []
    for proper in (True, data.draw(st.booleans())):
        starts = data.draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4, unique=True))
        bps = set()
        for x in starts:
            for _ in range(data.draw(st.integers(1, 3))):
                bps.add(x)
                x = math.nextafter(x, math.inf)
        vals = data.draw(st.lists(VALUE_ST, min_size=len(bps), max_size=len(bps)))
        dfs.append(edge_stepdf(sorted(bps), vals, proper))
    return dfs


class TestMinInfIsMinSup:
    """tau_{M*}(F, G) == tau_M(F, G), bit for bit, on _conv's pair sort (the
    library computes both by one merge of the hats, see TestMinMerge).

    On hats: tau_{M*}(F, G)(x) < w iff some s has F(s) < w and G(x - s) < w,
    iff x <= F^(w) + G^(w).  tau_M(F, G)(x) < w iff every s has F(s) < w or
    G(x - s) < w, which holds under the same condition.  So the hats are
    equal, and so are the left-continuous d.f.s.

    In floats: in _conv, the pairs (i, j) whose low sum a_i + b_j is <= f_k
    and the pairs whose high sum a_{i+1} + b_{j+1} is >= f_{k+1} are
    complements up to the index shift (i, j) -> (i - 1, j - 1), both sides
    compare the same float sums (the inf side negated, which is exact), and
    min, max and negation round nothing.  So the max of the mins and the min
    of the maxes are the same float.

    A mutation this catches: searchsorted(..., "left") for "right" in
    _conv's single pass, which drops the pairs whose key equals the read
    point: the low sums at f_k on the sup side, the high sums at f_{k+1} on
    the inf side.
    """

    @staticmethod
    def assert_equal(F: StepDF, G: StepDF):
        sup = pair_sort_min(F, G, True)
        assert df_bytes(pair_sort_min(F, G, False)) == df_bytes(sup), (F, G)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dense_oracle_inputs(self, data):
        self.assert_equal(*draw_edge_dfs(data))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_adjacent_float_breakpoints(self, data):
        self.assert_equal(*draw_adjacent_float_dfs(data))


def draw_scaled_dfs(data) -> list:
    """Two d.f.s, each proper, improper or mute, on breakpoints k * unit for
    a unit in the subnormals, near 1e-300, 1/16, near 1e300 or at the float
    maximum / 64, where the last sums overflow."""
    unit = data.draw(st.sampled_from((5e-324, 1e-300, 1 / 16, 1e300, sys.float_info.max / 64)))
    dfs = []
    for _ in range(2):
        ks = data.draw(st.lists(st.floats(0.0, 64.0) | st.integers(0, 64), min_size=1, max_size=8))
        bps = sorted({k * unit for k in ks})
        vals = sorted(data.draw(st.lists(VALUE_ST, min_size=len(bps), max_size=len(bps))))
        kind = data.draw(st.sampled_from(("proper", "improper", "mute")))
        if kind == "proper":
            vals[-1] = 1.0
        elif kind == "mute":
            vals = [0.0] * len(vals)
        dfs.append(StepDF(bps, (0.0, *vals)))
    return dfs


def outcome(conv, *args):
    # a result's bytes, or the message of its ValueError
    try:
        return df_bytes(conv(*args))
    except ValueError as e:
        return str(e)


class TestMinMerge:
    """tau_M and tau_{M*} by the merge of the hats, against _conv's pair sort."""

    @staticmethod
    def assert_matches(F: StepDF, G: StepDF):
        for A, B in ((F, G), (G, F)):
            for take_max, conv in ((True, tau_sup_conv), (False, tau_inf_conv)):
                want = outcome(pair_sort_min, A, B, take_max)
                assert outcome(conv, TNormKind.MIN, A, B) == want, (A, B, take_max)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edge_values(self, data):
        self.assert_matches(*draw_edge_dfs(data))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_adjacent_float_breakpoints(self, data):
        self.assert_matches(*draw_adjacent_float_dfs(data))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scaled_improper_and_mute(self, data):
        self.assert_matches(*draw_scaled_dfs(data))

    def test_overflow_is_decided_before_the_merge(self):
        # the hats of this improper pair never add the overflowing breakpoints
        F = StepDF([1.0, 1e308], [0.0, 0.5, 1.0])
        G = StepDF([1.0, 1e308], [0.0, 0.25, 0.4])
        for conv in (tau_sup_conv, tau_inf_conv):
            with pytest.raises(ValueError, match="breakpoint sum overflows the float range"):
                conv(TNormKind.MIN, F, G)

    def test_cost_is_linear(self):
        # the pair sort would sort (n + 1)(m + 1) = 16M keys of 8 bytes
        n = 4000
        F = StepDF([k / 8.0 for k in range(1, n + 1)], [0.0, *(k / n for k in range(1, n + 1))])
        G = StepDF([k / 3.0 for k in range(1, n + 1)], [0.0, *(k / (n + 1) for k in range(1, n + 1))])
        hats = quasi_inverse(F), quasi_inverse(G)
        tracemalloc.start()
        try:
            sup, inf = tau_sup_conv(TNormKind.MIN, F, G), tau_inf_conv(TNormKind.MIN, F, G)
            total = qf_add(*hats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert sup == inf and len(sup.breakpoints) == 2 * n - 1
        assert total == quasi_inverse(sup)


def hat_outcome(call, *args) -> str:
    # a result's repr, or the message of its ValueError
    try:
        return repr(call(*args))
    except ValueError as e:
        return str(e)


def draw_quantiles(data) -> list:
    """Three StepQuantiles from raw lists with repeated qvalues: edge,
    subnormal, near the float maximum or +inf, on lattice or adjacent-float
    wbreaks, so that sums tie, overflow or stay +inf."""
    q_st = st.sampled_from((0.0, 5e-324, 1.0, 2.0, 1e308, sys.float_info.max, math.inf)) | st.floats(0.0, 4.0)
    qs = []
    for _ in range(3):
        if data.draw(st.booleans()):
            ws = [k / 16.0 for k in data.draw(st.lists(st.integers(1, 15), max_size=6))]
        else:
            w = data.draw(st.floats(0.01, 0.99))
            ws = [w := math.nextafter(w, 1.0) for _ in range(data.draw(st.integers(0, 4)))]
        wb = (*sorted(set(ws)), 1.0)
        qs.append(StepQuantile(wb, sorted(data.draw(st.lists(q_st, min_size=len(wb), max_size=len(wb))))))
    return qs


class TestHatMerge:
    """qf_add and _hat_le read two step functions' ends off distfn._walk,
    against hat_oracle's union of wbreaks with a bisect per value, bit for
    bit and errors by message; _hat_le with two and three arguments."""

    @staticmethod
    def assert_matches(hats):
        for A, B in itertools.permutations(hats, 2):
            assert hat_outcome(qf_add, A, B) == hat_outcome(hat_oracle.qf_add, A, B), (A, B)
            assert _hat_le(A, B) == hat_oracle.hat_le(A, B), (A, B)
        for A, B, C in itertools.permutations(hats, 3):
            assert _hat_le(A, B, C) == hat_oracle.hat_le(A, B, C), (A, B, C)

    @staticmethod
    def assert_hats_match(data, draw):
        dfs = draw(data) + draw(data)[:1]
        hats = [quasi_inverse(D) for D in dfs]
        try:
            top = quasi_inverse(pair_sort_min(dfs[0], dfs[1], True))
        except ValueError:  # a breakpoint sum past the float range
            pass
        else:  # the hat of tau_M(F, G), equal to hat F + hat G
            assert _hat_le(top, hats[0], hats[1])
            hats.append(top)
        TestHatMerge.assert_matches(hats)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edge_values(self, data):
        self.assert_hats_match(data, draw_edge_dfs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_adjacent_float_breakpoints(self, data):
        self.assert_hats_match(data, draw_adjacent_float_dfs)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scaled_improper_and_mute(self, data):
        self.assert_hats_match(data, draw_scaled_dfs)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_quantiles(self, data):
        self.assert_matches(draw_quantiles(data))


# 0, then 1 - k ULP for k = 12 down to 0: the values where float rounding
# could break a grid's monotonicity
GRID_VALUES = np.array((0.0, *(1.0 - k * ULP for k in range(12, -1, -1))))


def grid_is_monotone(grid: np.ndarray) -> bool:
    return bool((grid[1:] >= grid[:-1]).all() and (grid[:, 1:] >= grid[:, :-1]).all())


def df_bytes(D: StepDF) -> bytes:
    return struct.pack(f"{len(D.breakpoints) + len(D.values)}d", *D.breakpoints, *D.values)


def one_minus_steps(rng, count: int):
    """Pairs (hi, the next float up) with hi < 1/2, in binades 2**-40 to
    2**-2, across which fl(1 - hi) steps down by 2**-53.

    1 - hi rounds to a multiple of 2**-53, so it steps where it crosses an odd
    multiple of 2**-54; each hi is moved onto one, and the pair on either
    side of it that steps is kept."""
    hi = np.ldexp(rng.uniform(1.0, 2.0, count), rng.integers(-40, -1, count))
    mid = (2.0 * np.floor(hi * 2.0**53) + 1.0) * 2.0**-54
    below, above = np.nextafter(mid, 0.0), np.nextafter(mid, 1.0)
    lo_side, hi_side = np.concatenate((below, mid)), np.concatenate((mid, above))
    steps = (1.0 - lo_side) != (1.0 - hi_side)
    return lo_side[steps], hi_side[steps]


class TestSortOnce:
    """The sort-once kernel of _conv and its monotone-grid premise."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_tnorm_grids_are_monotone(self, kind):
        assert grid_is_monotone(_tnorm(kind, GRID_VALUES[:, None], GRID_VALUES))

    @pytest.mark.parametrize("kind", (TNormKind.W, TNormKind.MIN))
    def test_w_and_min_conorm_grids_are_monotone(self, kind):
        assert grid_is_monotone(_tconorm(kind, GRID_VALUES[:, None], GRID_VALUES))

    @pytest.mark.parametrize("kind", KINDS)
    def test_conorm_grids_are_monotone(self, kind):
        # the a + b - ab form of PROD's conorm gave T*(v, u) = 1 > T*(v, u')
        # on this triple, though u < u'
        v, u, u2 = 1.0 - 12 * ULP, 1.0 - 12 * ULP, 1.0 - 11 * ULP
        assert tconorm_eval(kind, v, u) <= tconorm_eval(kind, v, u2)
        rng = np.random.default_rng(13)
        tiny = np.ldexp(rng.uniform(1.0, 2.0, 40), rng.integers(-80, -20, 40))
        values = np.unique(
            np.concatenate(
                (GRID_VALUES, EDGE_VALUES, *one_minus_steps(rng, 40), rng.uniform(0.0, 1.0, 60), tiny)
            )
        )
        assert grid_is_monotone(_tconorm(kind, values[:, None], values))

    def test_prod_conorm_is_monotone_in_hi(self):
        # one ulp up in hi, with lo <= hi fixed: the cases of the _conv
        # docstring, hi < 1/2 where 1 - hi steps and hi >= 1/2 anywhere
        rng = np.random.default_rng(17)
        below, above = one_minus_steps(rng, 50_000)
        upper = rng.uniform(0.5, 1.0, 50_000)
        for v, v2 in ((below, above), (upper, np.nextafter(upper, 1.0))):
            lows = [v * rng.uniform(f, 1.0, len(v)) for f in (0.0, 0.5, 0.9, 0.999)]
            lows += [v - k * np.spacing(v) for k in range(0, 40, 3)]
            for u in lows:
                assert (_tconorm(TNormKind.PROD, v2, u) >= _tconorm(TNormKind.PROD, v, u)).all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_range_reduce_bytewise(self, data):
        lattice = data.draw(st.booleans())
        if lattice:
            bps_st = st.lists(st.integers(0, 160), min_size=1, max_size=40, unique=True).map(
                lambda ks: sorted(k / 16.0 for k in ks)
            )
        else:
            bps_st = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40, unique=True)
            bps_st = bps_st.map(sorted)
        value_st = st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0)
        dfs = []
        for proper in (True, data.draw(st.booleans())):
            bps = data.draw(bps_st)
            vals = data.draw(st.lists(value_st, min_size=len(bps), max_size=len(bps)))
            dfs.append(edge_stepdf(bps, vals, proper))
        F, G = dfs
        v, u = np.array(F.values)[:, None], np.array(G.values)
        for kind in KINDS:
            for formula, take_max in ((_tnorm, True), (_tconorm, False)):
                pair_vals = formula(kind, v, u)
                got = _conv(F, G, pair_vals, take_max)
                assert df_bytes(got) == df_bytes(conv_range(F, G, pair_vals, take_max))

    def test_one_sort_and_no_fence_search(self, monkeypatch):
        # the fences are read off the one sort of the band pairs: no second
        # sort of the sums (np.unique) and no search for them (np.searchsorted)
        def refused(*args, **kwargs):
            raise AssertionError("_conv sorts or searches its sums again")

        sorts, argsort = [], np.argsort
        monkeypatch.setattr(np, "unique", refused)
        monkeypatch.setattr(np, "searchsorted", refused)
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        F = StepDF([k / 16.0 for k in range(1, 20)], [0.0, *(k / 19.0 for k in range(1, 20))])
        G = StepDF([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75])
        for kind in KINDS:
            sorts.clear()
            for conv in (tau_sup_conv, tau_inf_conv):
                conv(kind, F, G)
            # W and PROD sort once per side; MIN merges the hats and sorts nothing
            assert len(sorts) == (0 if kind is TNormKind.MIN else 2), kind

    def test_signed_zero_input_gives_a_positive_zero(self):
        # StepDF turns a values[0] of -0.0 into 0.0; no output value may
        # carry that sign, whichever argument comes first
        F, G = StepDF((1.0,), (-0.0, 1.0)), StepDF((2.0, 3.0), (0.0, 0.5, 1.0))
        for kind in KINDS:
            for conv in (tau_sup_conv, tau_inf_conv):
                FG, GF = conv(kind, F, G), conv(kind, G, F)
                assert df_bytes(FG) == df_bytes(GF)
                assert not np.signbit(FG.values).any()


def formula_args(rng) -> np.ndarray:
    # the edge values, near 1, tiny and uniform
    near_one = 1.0 - rng.integers(0, 2**20, 20) * ULP
    tiny = np.ldexp(rng.uniform(1.0, 2.0, 20), rng.integers(-80, -1, 20))
    return np.concatenate((EDGE_VALUES, near_one, tiny, rng.uniform(0.0, 1.0, 30)))


def value_pool(rng, kind: str, size: int) -> np.ndarray:
    if kind == "near-one":
        return 1.0 - rng.integers(0, 13, size) * ULP
    if kind == "tiny":
        return np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-60, -20, size))
    if kind == "mixed":
        return np.where(rng.random(size) < 0.5, rng.choice(EDGE_VALUES, size), rng.uniform(0.0, 1.0, size))
    return rng.uniform(0.0, 1.0, size)


def interval_values(D: StepDF, cands: np.ndarray) -> list:
    # D's value on each interval between the sums cands, its breakpoints
    # being some of them
    return [D.values[0], *(D.values[bisect_right(D.breakpoints, c)] for c in cands)]


def within_contract(kind: TNormKind, sup: bool, got: float, exact: Fraction) -> bool:
    # the ulp contract: PROD's conorm is within 1 ulp; every other formula,
    # W's t-norm included, is correctly rounded, within 0.5 ulp
    return ulps_off(got, exact) <= (1 if kind is TNormKind.PROD and not sup else Fraction(1, 2))


SIDES = [
    pytest.param(kind, sup, id=f"{kind.name}-{'sup' if sup else 'inf'}")
    for kind in KINDS
    for sup in (True, False)
]


class TestRationalGroundTruth:
    """Each formula, and each convolution output, against the exact rational
    value of its float arguments, in ulps of the exact value."""

    @pytest.mark.parametrize("kind, sup", SIDES)
    def test_formulas(self, kind, sup):
        args = formula_args(np.random.default_rng(19))
        got = (_tnorm if sup else _tconorm)(kind, args[:, None], args)
        exact = exact_tnorm if sup else exact_tconorm
        for (i, a), (j, b) in itertools.product(enumerate(args), repeat=2):
            assert within_contract(kind, sup, got[i, j], exact(kind, a, b)), (a, b)

    @pytest.mark.parametrize("kind, sup", SIDES)
    def test_conv_outputs(self, kind, sup):
        # the extremum of correctly rounded values is the correctly rounded
        # extremum, so each output keeps its formula's bound
        conv = tau_sup_conv if sup else tau_inf_conv
        rng = np.random.default_rng(29)
        pools = ("near-one", "mixed", "uniform", "tiny")
        for case in range(320):
            dfs = []
            for proper in (True, case % 3 > 0):
                n = int(rng.integers(1, 13))
                bps = np.sort(rng.choice(64, n, replace=False)) / 16.0 if case % 2 else rng.uniform(0.0, 5.0, n)
                vals = value_pool(rng, pools[case % 4], len(np.unique(bps)))
                dfs.append(edge_stepdf(np.unique(bps), vals, proper))
            F, G = dfs
            got = conv(kind, F, G)
            assert df_bytes(got) == df_bytes(conv(kind, G, F))
            exact = exact_conv_values(kind, F, G, sup)
            cands = np.unique(np.add.outer(F.breakpoints, G.breakpoints))
            for value, want in zip(interval_values(got, cands), exact):
                assert within_contract(kind, sup, value, want), (F, G)


VALUE_ST = st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(VALUE_ST, VALUE_ST)
@example(1.0 - ULP, 0.42268722119765845)  # a + b - ab gave 1 - 2 ULP < max
@example(0.5, 1.0 - ULP)
def test_kinds_are_ordered_pointwise(a, b):
    # conorms: max <= PROD* <= W* <= 1, in floats.  t-norms: W <= PROD <= MIN
    # in floats; W(0.5, 1 - 2**-53) rounding a + b first gave 0.5, above
    # PROD's 0.5 - 2**-54
    w, p, m = (tnorm_eval(kind, a, b) for kind in KINDS)
    assert w <= p <= m
    ws, ps, ms = (tconorm_eval(kind, a, b) for kind in KINDS)
    assert ms == max(a, b) <= ps <= ws <= 1.0


def test_check_df_order_compares_the_tail():
    # equal up to the last breakpoint; they differ only on (1, inf).  check
    # orders d.f.s on their hats: A <= B iff hat A >= hat B
    full, half = quasi_inverse(StepDF((1.0,), (0.0, 1.0))), quasi_inverse(StepDF((1.0,), (0.0, 0.5)))
    assert not _hat_le(half, full)
    assert _hat_le(full, half)
