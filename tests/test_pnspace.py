"""PN-spaces from seminorm families: probabilistic norms, axioms, products."""

import dataclasses
import itertools
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm import checks
from probnorm.distfn import (
    StepDF,
    df_eval,
    levy_metric,
    qf_add,
    quasi_inverse,
    qf_eval,
    unit_step,
)
from probnorm.pnspace import (
    Band,
    BlockSumNorm,
    CheckResult,
    NormKind,
    PNSpace,
    SeminormFamily,
    WeightedNorm,
    product_space,
    seminorm_eval,
    single_band_space,
    _hat_le,
    validate_pn_axioms,
)
from probnorm.testkit import _scan_eval_many, gen_space, gen_vector
from probnorm.triangle import TNormKind, tau_sup_conv

from fuzz import fuzz_list, mostly
from prefix_limits import strong_convergence_index


def measure_oracle(P: PNSpace, x, t: float, step: float = 1e-5) -> float:
    """Dense w-grid estimate of m({w in (0,1) : p(x, w) < t}).

    The band value at each grid point is recomputed from the raw weights, so
    this path shares no arithmetic with prob_norm.
    """
    x = np.asarray(x, dtype=float)
    vals = []
    for band in P.family.bands:
        wts = np.asarray(band.norm.weights)
        if band.norm.kind is NormKind.L1:
            vals.append(float(np.sum(np.abs(x) * wts)))
        else:
            vals.append(float(np.max(np.abs(x) * wts)))
    ws = np.arange(step / 2, 1.0, step)
    idx = np.searchsorted(np.array(P.family.uptos), ws, side="right")
    return float(np.count_nonzero(np.array(vals)[idx] < t)) * step


@dataclasses.dataclass(frozen=True)
class SquaredL1:
    """(sum |x_i|)^2: homogeneous of degree 2 and superadditive, so not a norm."""

    dimension: int

    def eval(self, x) -> float:
        return float(np.abs(x).sum()) ** 2


def squared_l1_space(n: int) -> PNSpace:
    return PNSpace(SeminormFamily(n, (Band(1.0, SquaredL1(n)),)))


def reference_band_values(P: PNSpace, x) -> list:
    """The per-band loop: each band norm evaluated by its own eval."""
    return [b.norm.eval(x) for b in P.family.bands]


def reference_prob_norm(P: PNSpace, x) -> StepDF:
    """nu_x from the per-band loop's values, by plain Python loops."""
    vals = reference_band_values(P, x)
    uptos = P.family.uptos
    if all(v2 >= v1 for v1, v2 in zip(vals, vals[1:])):
        last = [k + 1 == len(vals) or vals[k + 1] > v for k, v in enumerate(vals)]
        return StepDF(
            [v for v, keep in zip(vals, last) if keep],
            [0.0, *(u for u, keep in zip(uptos, last) if keep)],
        )
    lengths = [u - s for s, u in zip(P.family.starts(), uptos)]
    bps = sorted(set(vals))
    dfv = [0.0, *(sum(l for v, l in zip(vals, lengths) if v <= c) for c in bps)]
    dfv[-1] = 1.0
    return StepDF(bps, dfv)


def reference_dominates(a, b) -> bool:
    """a >= b by structure, pair by pair: weighted norms of one kind with
    coordinatewise >= weights, or block sums of one split whose parts
    dominate; a norm kept for its own eval dominates nothing."""
    if type(a) is WeightedNorm and type(b) is WeightedNorm:
        return a.kind is b.kind and all(p >= q for p, q in zip(a.weights, b.weights))
    return (
        type(a) is BlockSumNorm
        and type(b) is BlockSumNorm
        and a.dims == b.dims
        and all(reference_dominates(p, q) for p, q in zip(a.parts, b.parts))
    )


def reference_monotone_report(S: SeminormFamily) -> tuple:
    """The per-pair loop: each band norm compared with the one before."""
    for k in range(len(S.bands) - 1):
        if not reference_dominates(S.bands[k + 1].norm, S.bands[k].norm):
            return False, f"band {k + 1} does not dominate band {k}"
    return True, "monotone"


def stacked_arrays(stack):
    """Every weight array of a family's stack: one per band structure."""
    return [data for _, key, data in stack[1] if key is not None]


TWO_BAND = PNSpace(
    SeminormFamily(
        2,
        (
            Band(0.5, WeightedNorm(NormKind.L1, (1.0, 2.0))),
            Band(1.0, WeightedNorm(NormKind.L1, (2.0, 4.0))),
        ),
    )
)


class TestWeightedNorm:
    def test_l1_eval(self):
        n = WeightedNorm(NormKind.L1, (1.0, 2.0))
        assert n.eval(np.array([1.0, 1.0])) == 3.0
        assert n.eval(np.array([-1.0, 0.5])) == 2.0

    def test_linf_eval(self):
        n = WeightedNorm(NormKind.LINF, (1.0, 2.0))
        assert n.eval(np.array([1.0, 1.0])) == 2.0
        assert n.eval(np.array([3.0, -0.5])) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedNorm(NormKind.L1, ())
        with pytest.raises(ValueError):
            WeightedNorm(NormKind.L1, (1.0, 0.0))
        with pytest.raises(ValueError):
            WeightedNorm(NormKind.L1, (1.0, -2.0))
        # 1 / 5e-324 overflows, so the unit ball would have infinite vertices
        with pytest.raises(ValueError, match="reciprocals"):
            WeightedNorm(NormKind.L1, (5e-324, 1.0))
        assert WeightedNorm(NormKind.L1, (2.0**-1022,)).unit_ball_vertices()[0, 0] == 2.0**1022

    def test_norm_axioms_sampled(self):
        rng = np.random.default_rng(0)
        for kind in (NormKind.L1, NormKind.LINF):
            for _ in range(50):
                n = int(rng.integers(1, 6))
                norm = WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, n)))
                x, y = gen_vector(rng, n), gen_vector(rng, n)
                assert norm.eval(x) >= 0.0
                assert norm.eval(x + y) <= norm.eval(x) + norm.eval(y) + 1e-12
                a = float(rng.uniform(-4.0, 4.0))
                assert norm.eval(a * x) == pytest.approx(abs(a) * norm.eval(x), rel=1e-12)
        assert WeightedNorm(NormKind.L1, (1.0,)).eval(np.zeros(1)) == 0.0

    def test_unit_ball_vertices_on_sphere(self):
        rng = np.random.default_rng(1)
        for kind in (NormKind.L1, NormKind.LINF):
            norm = WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, 3)))
            V = norm.unit_ball_vertices()
            assert np.allclose(norm.eval_many(V), 1.0, atol=1e-12)
        assert len(WeightedNorm(NormKind.L1, (1.0, 1.0, 1.0)).unit_ball_vertices()) == 6
        assert len(WeightedNorm(NormKind.LINF, (1.0, 1.0, 1.0)).unit_ball_vertices()) == 8

    def test_linf_vertex_cap(self):
        big = WeightedNorm(NormKind.LINF, tuple([1.0] * 21))
        with pytest.raises(ValueError):
            big.unit_ball_vertices()

    def test_linf_vertices_in_product_order(self):
        # the sign rows are built from bit patterns; the bytes are those of
        # the itertools.product construction
        rng = np.random.default_rng(11)
        for n in range(1, 17):
            norm = WeightedNorm(NormKind.LINF, tuple(rng.uniform(0.5, 2.0, n)))
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
            want = signs * (1.0 / np.array(norm.weights))
            assert norm.unit_ball_vertices().tobytes() == want.tobytes(), n


class TestSeminormFamily:
    def test_validation(self):
        n1 = WeightedNorm(NormKind.L1, (1.0,))
        with pytest.raises(ValueError):
            SeminormFamily(1, ())
        with pytest.raises(ValueError):
            SeminormFamily(1, (Band(0.5, n1),))  # does not end at 1
        with pytest.raises(ValueError):
            SeminormFamily(1, (Band(0.5, n1), Band(0.5, n1), Band(1.0, n1)))
        weaker = WeightedNorm(NormKind.L1, (0.5,))
        with pytest.raises(ValueError):
            SeminormFamily(1, (Band(0.5, n1), Band(1.0, weaker)))
        # the same family is accepted as a diagnostic object
        fam = SeminormFamily(1, (Band(0.5, n1), Band(1.0, weaker)), enforce_monotone=False)
        assert not fam.monotone_report()[0]

    def test_band_lookup(self):
        fam = TWO_BAND.family
        assert fam.band_index(0.2) == 0
        # p(x, .) is right-continuous in w: the cut itself opens the next band
        assert fam.band_index(0.5) == 1
        assert fam.band_index(0.7) == 1
        # the left-limit lookup (norm balls, hat transform) keeps the cut below
        assert fam.band_index_left(0.5) == 0
        assert fam.band_index_left(0.50001) == 1
        assert fam.band_index_left(1.0) == 1
        assert seminorm_eval(fam, [1.0, 1.0], 0.3) == 3.0
        assert seminorm_eval(fam, [1.0, 1.0], 0.9) == 6.0

    def test_band_ends_are_built_once_outside_the_fields(self):
        fam = TWO_BAND.family
        assert fam.uptos == (0.5, 1.0)
        assert fam.uptos is fam.uptos
        # not a field: == and repr see only the dimension and the bands
        assert [f.name for f in dataclasses.fields(fam)] == ["dimension", "bands"]
        assert "uptos" not in repr(fam)
        assert fam == SeminormFamily(fam.dimension, fam.bands)

    @pytest.mark.parametrize("monotone", [True, False])
    def test_band_weights_are_stacked_once_outside_the_fields(self, monotone):
        if monotone:
            fam = product_space(gen_space(1, 2), product_space(gen_space(2, 3), gen_space(3, 1))).family
        else:
            l1, linf = WeightedNorm(NormKind.L1, (2.0, 1.0)), WeightedNorm(NormKind.LINF, (1.0, 3.0))
            bands = (Band(0.25, l1), Band(0.5, linf), Band(0.75, SquaredL1(2)), Band(1.0, l1))
            fam = SeminormFamily(2, bands, enforce_monotone=False)
        arrays = [fam._ends, *stacked_arrays(fam._stack)]
        assert len(arrays) == (2 if monotone else 3)
        for a in arrays:
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a[...] = 0.0
        if monotone:
            # one (bands x 6) array for the nested block sums, parts side by side
            assert [a.shape for a in arrays[1:]] == [(len(fam.bands), 6)]
        # not fields: ==, repr and hash see only the dimension and the bands
        assert [f.name for f in dataclasses.fields(fam)] == ["dimension", "bands"]
        assert "_stack" not in repr(fam) and "_ends" not in repr(fam)
        assert hash(fam) == hash((fam.dimension, fam.bands))
        back = pickle.loads(pickle.dumps(fam))
        assert back == fam and repr(back) == repr(fam) and hash(back) == hash(fam)
        assert not any(a.flags.writeable for a in (back._ends, *stacked_arrays(back._stack)))
        x = np.array([0.5, -2.0, 0.0, 1.0, 3.0, -1.0][: fam.dimension])
        assert PNSpace(back).prob_norm(x) == PNSpace(fam).prob_norm(x)


class TestConstructorFuzz:
    """Any floats, NaN and the infinities as weights and band ends either raise
    ValueError or give an object that meets its own invariants and that a
    second construction leaves unchanged."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_weighted_norm(self, data):
        kind = data.draw(st.sampled_from((*NormKind, "l1", "linf", "l2")))
        weights = fuzz_list(data, 0, 5)
        try:
            N = WeightedNorm(kind, weights)
        except ValueError:
            return
        w = N.weights
        assert isinstance(N.kind, NormKind) and N.dimension == len(weights) >= 1
        assert all(type(x) is float and math.isfinite(x) and x > 0.0 for x in w)
        assert all(math.isfinite(1.0 / x) for x in w)
        assert np.isfinite(N.unit_ball_vertices()).all()
        assert N.eval(np.zeros(N.dimension)) == 0.0
        assert repr(WeightedNorm(N.kind, w)) == repr(N)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_seminorm_family(self, data):
        n = data.draw(st.integers(0, 3))
        uptos = fuzz_list(data, 1, 4)
        if mostly(data):
            uptos[-1] = 1.0
        # per-band weights, sorted per coordinate when mostly(): a monotone family
        rows = [data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)) for _ in uptos]
        if mostly(data):
            rows = [list(col) for col in zip(*map(sorted, zip(*rows)))] or rows
        kind = data.draw(st.sampled_from(NormKind))
        enforce = data.draw(st.booleans())
        try:
            bands = tuple(Band(u, WeightedNorm(kind, row)) for u, row in zip(uptos, rows))
            S = SeminormFamily(n, bands, enforce_monotone=enforce)
        except ValueError:
            return
        ends = S.uptos
        assert S.dimension >= 1 and ends == tuple(b.upto for b in S.bands)
        assert all(0.0 < u <= 1.0 for u in ends) and ends[-1] == 1.0
        assert all(u1 < u2 for u1, u2 in zip(ends, ends[1:]))
        assert all(b.norm.dimension == S.dimension for b in S.bands)
        assert S.monotone_report()[0] or not enforce
        for k, (start, mid, end) in enumerate(zip(S.starts(), S.midpoints(), ends)):
            if start < mid < end:
                assert S.band_index(mid) == k
        assert repr(SeminormFamily(S.dimension, S.bands, enforce_monotone=enforce)) == repr(S)


def _ends(rng, bands: int) -> list[float]:
    # cubes, so that band lengths are rounded and their sums depend on order
    cuts = np.unique(rng.uniform(0.0, 1.0, bands - 1) ** 3)
    return [*cuts[cuts > 0.0].tolist(), 1.0]


def _weights(rng, n: int) -> np.ndarray:
    return rng.uniform(0.01, 100.0, n)


def _monotone(rng, bands: int, n: int, kind: NormKind) -> PNSpace:
    # some bands repeat the last weights, so equal consecutive values occur
    w, out = _weights(rng, n), []
    for u in _ends(rng, bands):
        out.append(Band(u, WeightedNorm(kind, w)))
        if rng.random() < 0.7:
            w = w * rng.uniform(1.0, 1.5, n)
    return PNSpace(SeminormFamily(n, tuple(out)))


def _any_norm(rng, n: int, depth: int = 0, duck: bool = True):
    # a weighted norm of either kind, the duck-typed SquaredL1 (else an L1
    # norm in its place), or a block sum of two or three such norms, nested
    # up to two levels
    pick = rng.integers(4 if depth < 2 and n > 1 else 3)
    if pick == 3:
        cuts = np.unique(rng.integers(1, n, 2))
        dims = tuple(np.diff([0, *cuts, n]).tolist())
        return BlockSumNorm(tuple(_any_norm(rng, d, depth + 1, duck) for d in dims), dims)
    if pick == 2 and duck:
        return SquaredL1(n)
    return WeightedNorm(NormKind(("l1", "linf")[pick % 2]), _weights(rng, n))


def _scaled(norm, f: np.ndarray):
    """norm with each weight multiplied by its coordinate's factor in f."""
    if type(norm) is WeightedNorm:
        return WeightedNorm(norm.kind, np.array(norm.weights) * f)
    if type(norm) is BlockSumNorm:
        offs = np.cumsum((0, *norm.dims))
        parts = (_scaled(p, f[a:b]) for p, a, b in zip(norm.parts, offs, offs[1:]))
        return BlockSumNorm(tuple(parts), norm.dims)
    return norm


SHAPES = ("l1", "linf", "mixed", "duck", "product-right", "product-left", "blocks")


@st.composite
def stacked_cases(draw):
    """A space of 1-300 bands in dimension 1-40 and a vector with zero entries."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 40))
    bands = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape in ("l1", "linf"):
        P = _monotone(rng, bands, n, NormKind(shape))
    elif shape.startswith("product"):
        # P x (Q x R) and (P x Q) x R: block sums nested both ways
        dims = [max(1, d) for d in (n // 3, n // 3, n - 2 * (n // 3))]
        P, Q, R = (_monotone(rng, max(1, bands // 3), d, NormKind(rng.choice(["l1", "linf"]))) for d in dims)
        P = product_space(P, product_space(Q, R)) if shape == "product-right" else product_space(product_space(P, Q), R)
    else:
        # non-monotone: fresh weights per band, kinds mixed, duck-typed bands
        def norm():
            if shape == "blocks":
                return _any_norm(rng, n)
            if shape == "duck" and rng.random() < 0.3:
                return SquaredL1(n)
            kind = NormKind.L1 if shape != "mixed" or rng.random() < 0.5 else NormKind.LINF
            return WeightedNorm(kind, _weights(rng, n))

        family = tuple(Band(u, norm()) for u in _ends(rng, bands))
        P = PNSpace(SeminormFamily(n, family, enforce_monotone=False))
    x = rng.uniform(-3.0, 3.0, P.dimension) * (rng.random(P.dimension) < draw(st.sampled_from((0.0, 0.5, 0.9, 1.0))))
    return P, x


@st.composite
def grown_families(draw):
    """A family of 1-40 bands grown from one norm of any structure.

    Each band either repeats the weights before it (equal rows), multiplies
    them by U(1, 1.3) per coordinate, rarely with one coordinate dropping,
    or rarely starts a fresh structure; some bands interrupt the growth
    with a one-off norm, so members of one structure need not be adjacent.
    """
    n = draw(st.integers(1, 12))
    duck = draw(st.booleans())
    rare = draw(st.sampled_from((0.0, 0.02, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    norm, bands = _any_norm(rng, n, duck=duck), []
    for u in _ends(rng, draw(st.integers(1, 40))):
        bands.append(Band(u, _any_norm(rng, n, duck=duck) if rng.random() < rare else norm))
        r = rng.random()
        if r < rare:
            norm = _any_norm(rng, n, duck=duck)
        elif r > 0.3:
            f = rng.uniform(1.0, 1.3, n)
            if rng.random() < 0.05:
                f[rng.integers(n)] = rng.uniform(0.9, 1.0)
            norm = _scaled(norm, f)
    return SeminormFamily(n, tuple(bands), enforce_monotone=False)


class TestMonotoneReport:
    """The stacked weights decide monotonicity as the per-pair loop does."""

    @settings(max_examples=300, deadline=None)
    @given(grown_families())
    def test_grown_families_match_the_per_pair_loop(self, S):
        assert S.monotone_report() == reference_monotone_report(S)

    @settings(max_examples=100, deadline=None)
    @given(stacked_cases())
    def test_stacked_cases_match_the_per_pair_loop(self, case):
        S = case[0].family
        assert S.monotone_report() == reference_monotone_report(S)

    def test_duck_typed_band_fails_the_construction(self):
        bands = (Band(0.5, WeightedNorm("l1", (1.0, 1.0))), Band(1.0, SquaredL1(2)))
        with pytest.raises(ValueError, match="band 1 does not dominate band 0"):
            SeminormFamily(2, bands)

    def test_duck_typed_part_is_a_monotone_fail(self):
        bands = tuple(
            Band(u, BlockSumNorm((SquaredL1(1), WeightedNorm("l1", (w,))), (1, 1)))
            for u, w in ((0.5, 1.0), (1.0, 2.0))
        )
        P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        report = validate_pn_axioms(P, samples=3)
        assert report.monotone == CheckResult(False, "band 1 does not dominate band 0")


class TestStackedBands:
    """The stacked band weights give the per-band loop's values bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_cases())
    def test_matches_the_per_band_loop(self, case):
        P, x = case
        got, want = P.band_values(x), reference_band_values(P, x)
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
        assert repr(P.prob_norm(x)) == repr(reference_prob_norm(P, x))

    def test_duck_typed_norms_use_their_own_eval(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SquaredL1, "eval", lambda self, x: calls.append(1) or 7.0)
        l1 = WeightedNorm(NormKind.L1, (1.0, 1.0))
        inner = BlockSumNorm((SquaredL1(1), WeightedNorm(NormKind.LINF, (2.0,))), (1, 1))
        bands = (Band(0.5, SquaredL1(2)), Band(0.75, l1), Band(1.0, inner))
        P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        assert P.band_values([1.0, -1.0]) == [7.0, 2.0, 9.0]
        assert len(calls) == 2


class TestProbNorm:
    def test_null_vector(self):
        for seed in range(10):
            P = gen_space(seed, 3)
            assert P.prob_norm(np.zeros(3)) == unit_step(0.0)

    def test_single_band_is_unit_step(self):
        P = single_band_space(WeightedNorm(NormKind.L1, (1.0, 2.0)))
        assert P.prob_norm([1.0, 1.0]) == unit_step(3.0)
        assert P.norm_at([1.0, 1.0], 0.4) == 3.0

    def test_two_band_frozen(self):
        # p([1,1], w) = 3 on (0, .5], 6 on (.5, 1] -> jumps of 1/2 at 3 and 6
        assert TWO_BAND.prob_norm([1.0, 1.0]) == StepDF((3.0, 6.0), (0.0, 0.5, 1.0))

    def test_matches_measure_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(6):
            P = gen_space(seed, 2)
            x = gen_vector(rng, 2)
            F = P.prob_norm(x)
            for t in [v + d for v in P.band_values(x) for d in (-0.11, 0.003, 0.11)]:
                if t <= 0:
                    continue
                assert df_eval(F, t) == pytest.approx(measure_oracle(P, x, t), abs=2e-5)

    def test_is_proper_df(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            P = gen_space(seed, 3)
            F = P.prob_norm(gen_vector(rng, 3))
            assert F.values[-1] == 1.0

    def test_norm_at_matches_quasi_inverse(self):
        # ||x||_w at band midpoints equals the quasi-inverse of nu_x there
        rng = np.random.default_rng(6)
        for seed in range(30):
            P = gen_space(seed, 3)
            x = gen_vector(rng, 3)
            Q = quasi_inverse(P.prob_norm(x))
            for w in P.family.midpoints():
                assert P.norm_at(x, w) == qf_eval(Q, w)

    def test_axioms_valid_spaces(self):
        for seed in range(15):
            report = validate_pn_axioms(gen_space(seed, 3), samples=20, seed=seed)
            assert report.ok, report

    def test_axioms_compute_each_nu_once(self, monkeypatch):
        # per sample: N1 1 call, N2 2, N3 3, scaling 1 + 7 scalars = 8
        calls = []
        prob_norm = PNSpace.prob_norm
        monkeypatch.setattr(PNSpace, "prob_norm", lambda P, x: calls.append(1) or prob_norm(P, x))
        assert validate_pn_axioms(gen_space(4, 3), samples=6, seed=4).ok
        assert len(calls) == 1 + (1 + 2 + 3 + 8) * 6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        P = gen_space(2, 2)
        calls = (
            lambda x: P.norm_at(x, 0.5),
            P.band_values,
            P.prob_norm,
        )
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call([bad, 1.0])

    def test_axioms_flag_nonmonotone(self):
        n1 = WeightedNorm(NormKind.L1, (2.0,))
        weaker = WeightedNorm(NormKind.L1, (1.0,))
        fam = SeminormFamily(1, (Band(0.5, n1), Band(1.0, weaker)), enforce_monotone=False)
        report = validate_pn_axioms(PNSpace(fam), samples=10)
        assert not report.monotone.passed
        assert report.monotone.witness

    def test_n3_fails_on_a_superadditive_band(self):
        # p(x + y) = 4 > p(x) + p(y) = 2 at x = e1, y = e2: nu_{x+y} lags
        # tau_M(nu_x, nu_y) by a whole interval
        report = validate_pn_axioms(squared_l1_space(2), 50, 0)
        assert report.n1.passed and report.n2.passed
        assert not report.n3.passed
        assert report.n3.witness.startswith("N3 fails at x = ")

    def test_n3_equality_for_colinear(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            P = gen_space(seed, 2)
            x = gen_vector(rng, 2)
            lhs = P.prob_norm(2.0 * x)
            rhs = tau_sup_conv(TNormKind.MIN, P.prob_norm(x), P.prob_norm(x))
            assert levy_metric(lhs, rhs).value <= 1e-9


class TestProduct:
    def test_dimensions_and_bands(self):
        P, Q = gen_space(1, 2), gen_space(2, 3)
        R = product_space(P, Q)
        assert R.dimension == 5
        merged = set(P.family.uptos) | set(Q.family.uptos)
        assert set(R.family.uptos) == merged

    def test_hat_additivity_exact(self):
        rng = np.random.default_rng(8)
        for seed in range(100):
            P, Q = gen_space(seed, 2), gen_space(seed + 700, 3)
            R = product_space(P, Q)
            x, y = gen_vector(rng, 2), gen_vector(rng, 3)
            lhs = quasi_inverse(R.prob_norm(np.concatenate((x, y))))
            rhs = qf_add(quasi_inverse(P.prob_norm(x)), quasi_inverse(Q.prob_norm(y)))
            assert lhs == rhs

    def test_product_is_tau_min(self):
        rng = np.random.default_rng(9)
        for seed in range(40):
            P, Q = gen_space(seed, 2), gen_space(seed + 700, 2)
            R = product_space(P, Q)
            x, y = gen_vector(rng, 2), gen_vector(rng, 2)
            lhs = R.prob_norm(np.concatenate((x, y)))
            rhs = tau_sup_conv(TNormKind.MIN, P.prob_norm(x), Q.prob_norm(y))
            assert levy_metric(lhs, rhs).value <= 1e-9

    def test_block_sum_norm(self):
        b = BlockSumNorm(
            (WeightedNorm(NormKind.L1, (1.0,)), WeightedNorm(NormKind.LINF, (2.0,))),
            (1, 1),
        )
        assert b.eval(np.array([1.0, 1.0])) == 3.0
        assert b.dimension == 2


class TestMetricAndBalls:
    def test_pm_axioms(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            P = gen_space(seed, 2)
            p, q = gen_vector(rng, 2), gen_vector(rng, 2)
            assert P.pm_distance(p, p) == unit_step(0.0)
            assert P.pm_distance(p, q) == P.pm_distance(q, p)
            if not np.array_equal(p, q):
                assert P.pm_distance(p, q) != unit_step(0.0)

    def test_pm_axioms_check_catches_a_lagging_distance(self):
        # p, q, r = 0, 1, 2: F_pr = H_4 lags tau_M(F_pq, F_qr) = tau_M(H_1, H_1) = H_2
        points = iter(([0.0], [1.0], [2.0]))
        rng = types.SimpleNamespace(uniform=lambda lo, hi, n: np.array(next(points)))
        assert not checks._pm_axioms(squared_l1_space(1), rng)

    def test_neighborhood_examples(self):
        P = single_band_space(WeightedNorm(NormKind.L1, (1.0,)))
        # nu_{p-q} = H_{0.2}: in N_p(t) iff t > 0.2
        assert P.neighborhood_contains([0.0], 0.3, [0.2])
        assert not P.neighborhood_contains([0.0], 0.1, [0.2])
        with pytest.raises(ValueError):
            P.neighborhood_contains([0.0], 0.0, [0.2])

    def test_ball_examples(self):
        P = TWO_BAND
        # ||.||_w for w <= 0.5 uses weights (1, 2)
        assert P.in_ball([0.0, 0.0], 1.0, 0.3, [0.5, 0.2])
        assert not P.in_ball([0.0, 0.0], 1.0, 0.3, [1.0, 0.0])
        # at w in the second band the norm doubles
        assert not P.in_ball([0.0, 0.0], 1.0, 0.9, [0.5, 0.2])
        with pytest.raises(ValueError):
            P.in_ball([0.0, 0.0], 0.0, 0.3, [0.5, 0.2])

    def test_ball_neighborhood_compatibility(self):
        # small norm balls sit inside strong neighborhoods and vice versa
        rng = np.random.default_rng(11)
        for seed in range(10):
            P = gen_space(seed, 2)
            p = gen_vector(rng, 2)
            for _ in range(20):
                q = p + rng.uniform(-0.05, 0.05, 2)
                t = 0.5
                if P.norm_at(p - q, 1.0) < 1e-3:
                    assert P.neighborhood_contains(p, t, q)

    def test_strong_convergence_helper(self):
        P = single_band_space(WeightedNorm(NormKind.L1, (1.0,)))
        seq = [np.array([1.0 / (k + 1)]) for k in range(50)]
        limit = np.zeros(1)
        out = strong_convergence_index(P, seq, limit, [0.5, 0.1, 0.02])
        assert out[0.5] is not None and out[0.1] is not None
        assert out[0.5] <= out[0.1] <= (out[0.02] if out[0.02] is not None else 50)


def lattice_stepdf(draw) -> StepDF:
    """Breakpoints on the 1/16 lattice; values on the 1/8 lattice or anywhere in
    [0, 1]; proper or not."""
    bps = sorted(draw(st.lists(st.integers(0, 24), min_size=1, max_size=6, unique=True)))
    value = st.integers(0, 8).map(lambda k: k / 8.0) | st.floats(0.0, 1.0)
    vals = sorted(draw(st.lists(value, min_size=len(bps), max_size=len(bps))))
    if draw(st.booleans()):
        vals[-1] = 1.0
    return StepDF([k / 16.0 for k in bps], [0.0, *vals])


def df_ge_everywhere(A: StepDF, B: StepDF) -> bool:
    """A >= B by linear scans at every breakpoint, just right of each, and in the tail."""
    bps = np.array(sorted(set(A.breakpoints) | set(B.breakpoints)))
    xs = np.concatenate((bps, bps + 1.0 / 32.0, [bps[-1] + 1.0]))
    return bool(np.all(_scan_eval_many(A, xs) >= _scan_eval_many(B, xs)))


class TestHatOrder:
    def test_unit_steps(self):
        # H_2 lags H_1 by one interval: H_2 >= H_1 fails at every t in (1, 2]
        assert not _hat_le(quasi_inverse(unit_step(2.0)), quasi_inverse(unit_step(1.0)))
        assert _hat_le(quasi_inverse(unit_step(1.0)), quasi_inverse(unit_step(2.0)))
        assert _hat_le(quasi_inverse(unit_step(1.0)), quasi_inverse(unit_step(1.0)))

    def test_rounding_slack(self):
        # sums that differ by rounding pass; a gap of 1e-9 does not
        lhs = quasi_inverse(unit_step(0.1 + 0.2))
        assert _hat_le(lhs, quasi_inverse(unit_step(0.3)))
        assert not _hat_le(quasi_inverse(unit_step(0.3 + 1e-9)), quasi_inverse(unit_step(0.3)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_decides_df_order(self, data):
        A, B = lattice_stepdf(data.draw), lattice_stepdf(data.draw)
        assert _hat_le(quasi_inverse(A), quasi_inverse(B)) == df_ge_everywhere(A, B)
