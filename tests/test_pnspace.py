"""PN-spaces from seminorm families: probabilistic norms, axioms, products."""

import dataclasses
import itertools
import math
import pickle
import traceback
import tracemalloc
import types
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm import checks, operators, pnspace
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

from axioms_oracle import stepdf_validate_pn_axioms
from fuzz import fuzz_list, mostly
from prefix_limits import strong_convergence_index
from vertex_oracle import unit_ball_vertices


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
        # norm * norm, as in eval_many: Python's norm ** 2 calls pow, which can round differently
        norm = float(np.abs(x).sum())
        return norm * norm

    def eval_many(self, X) -> np.ndarray:
        norm = np.abs(X).sum(axis=-1)
        return norm * norm


def squared_l1_space(n: int) -> PNSpace:
    return PNSpace(SeminormFamily(n, (Band(1.0, SquaredL1(n)),)))


@dataclasses.dataclass(frozen=True)
class Lopsided:
    """|x|_1, plus 1 where x_0 > 2.5: 0 only at 0 but not even, so N2 fails
    at a sample with |x_0| > 2.5 and N3 where x_0 + y_0 alone crosses 2.5."""

    dimension: int

    def eval(self, x) -> float:
        return float(np.abs(x).sum()) + float(x[0] > 2.5)

    def eval_many(self, X) -> np.ndarray:
        return np.abs(X).sum(axis=-1) + (X[..., 0] > 2.5)


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
        assert next(WeightedNorm(NormKind.L1, (2.0**-1022,))._vertex_blocks())[0, 0] == 2.0**1022

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
            V = unit_ball_vertices(norm)
            assert np.allclose(norm.eval_many(V), 1.0, atol=1e-12)
        assert len(unit_ball_vertices(WeightedNorm(NormKind.L1, (1.0, 1.0, 1.0)))) == 6
        assert len(unit_ball_vertices(WeightedNorm(NormKind.LINF, (1.0, 1.0, 1.0)))) == 8

    def test_linf_vertex_cap(self):
        # the oracle and the library reject n = 21 with one message
        big = WeightedNorm(NormKind.LINF, tuple([1.0] * 21))
        message = (
            "Linf vertex enumeration rejected for n = 21 > 20; use the Monte-Carlo bound instead"
        )
        with pytest.raises(ValueError) as oracle:
            unit_ball_vertices(big)
        with pytest.raises(ValueError) as library:
            next(big._vertex_blocks())
        assert str(oracle.value) == str(library.value) == message

    def test_linf_vertices_in_product_order(self):
        # the oracle's sign rows are built from bit patterns; the bytes are
        # those of the itertools.product construction
        rng = np.random.default_rng(11)
        for n in range(1, 17):
            norm = WeightedNorm(NormKind.LINF, tuple(rng.uniform(0.5, 2.0, n)))
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
            want = signs * (1.0 / np.array(norm.weights))
            assert unit_ball_vertices(norm).tobytes() == want.tobytes(), n

    def test_linf_vertices_pair_by_negation(self):
        # the oracle's second half, reversed, is its first half negated
        rng = np.random.default_rng(12)
        for n in range(1, 15):
            weights = rng.uniform(0.5, 2.0, n) * 2.0 ** rng.integers(-40, 41, n)
            norm = WeightedNorm(NormKind.LINF, tuple(weights))
            V = unit_ball_vertices(norm)
            half = len(V) // 2
            assert V[half:][::-1].tobytes() == (-V[:half]).tobytes(), n

    def test_vertex_blocks_are_the_oracles_first_half(self):
        # from n = 18 on the 2^(n-1) rows span several blocks of 2^16
        rng = np.random.default_rng(13)
        for n in range(1, 19):
            norm = WeightedNorm(NormKind.LINF, tuple(rng.uniform(0.5, 2.0, n)))
            blocks = [block.copy() for block in norm._vertex_blocks()]
            assert len(blocks) == max(1, 2 ** (n - 17)), n
            assert all(len(block) == min(2 ** (n - 1), 2**16) for block in blocks), n
            V = unit_ball_vertices(norm)
            assert np.concatenate(blocks).tobytes() == V[: len(V) // 2].tobytes(), n
        l1 = WeightedNorm(NormKind.L1, (0.5, 3.0, 7.0))
        [block] = l1._vertex_blocks()
        assert block.tobytes() == unit_ball_vertices(l1)[:3].tobytes()


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
        for a in (fam._ends, fam._weights):
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a[...] = 0.0
        # one (bands x n) array: the nested block sums' parts side by side, and
        # a zero row for the band kept for its own eval
        assert fam._weights.shape == (len(fam.bands), 6 if monotone else 2)
        if not monotone:
            assert fam._weights.tolist() == [[2.0, 1.0], [1.0, 3.0], [0.0, 0.0], [2.0, 1.0]]
            assert fam._same == (False, False, False) and fam._key is None
        else:
            assert all(fam._same) and fam._key is not None
        # not fields: ==, repr and hash see only the dimension and the bands
        assert [f.name for f in dataclasses.fields(fam)] == ["dimension", "bands"]
        assert not any(name in repr(fam) for name in ("_weights", "_same", "_key", "_ends"))
        assert hash(fam) == hash((fam.dimension, fam.bands))
        back = pickle.loads(pickle.dumps(fam))
        assert back == fam and repr(back) == repr(fam) and hash(back) == hash(fam)
        assert not any(a.flags.writeable for a in (back._ends, back._weights))
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
        assert all(np.isfinite(block).all() for block in N._vertex_blocks())
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


def right_then_back(S: SeminormFamily, w: float) -> int:
    """The left-limit band by bisect_right, one band back exactly at a band end."""
    idx = bisect_right(S.uptos, w)
    return idx - 1 if idx > 0 and w == S.uptos[idx - 1] else idx


def assert_left_band_matches(S: SeminormFamily):
    # every band end, one ulp on each side of it, and 1.0
    probes = {1.0}
    for u in S.uptos:
        probes |= {math.nextafter(u, 0.0), u, math.nextafter(u, 2.0)}
    for w in sorted(w for w in probes if 0.0 < w <= 1.0):
        assert S.band_index_left(w) == right_then_back(S, w), (S.uptos, w)


@st.composite
def any_ends_families(draw):
    """A family of 1-30 bands with arbitrary ends in (0, 1), subnormal ones too."""
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=29, unique=True))
    norm = WeightedNorm(NormKind.L1, (1.0,))
    return SeminormFamily(1, tuple(Band(u, norm) for u in (*sorted(cuts), 1.0)))


class TestBandIndexLeft:
    """band_index_left, one bisect_left, agrees with bisect_right stepped back
    one band exactly at a band end."""

    def test_gen_spaces(self):
        for seed in range(100):
            assert_left_band_matches(gen_space(seed, 1 + seed % 3).family)

    @settings(max_examples=150, deadline=None)
    @given(grown_families() | any_ends_families())
    def test_property(self, S):
        assert_left_band_matches(S)


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

    @settings(max_examples=100, deadline=None)
    @given(stacked_cases())
    def test_a_stack_of_vectors_matches_each_vector(self, case):
        P, x = case
        X = np.stack((x, -x, 0.25 * x, 3.0 * x, np.zeros_like(x)))
        rows = [P.family.band_values(v).tobytes() for v in X]
        assert [row.tobytes() for row in P.family.band_values(X)] == rows
        cube = P.family.band_values(X.reshape(5, 1, -1)[[0, 1, 2, 3, 4, 0]].reshape(3, 2, -1))
        assert cube.shape == (3, 2, len(P.family.bands))
        assert [row.tobytes() for row in cube.reshape(6, -1)] == rows + rows[:1]
        assert P.family.band_values(X[:0]).shape == (0, len(P.family.bands))

    @pytest.mark.parametrize("cells", [1, 100, 2**16])
    @pytest.mark.parametrize(
        "shape, stacked",
        [("l1", True), ("linf", True), ("product", True), ("mixed", False), ("duck", False)],
    )
    def test_one_reduce_per_block_when_every_band_shares_a_structure(self, monkeypatch, shape, stacked, cells):
        # top-level _reduce calls per band_values call on a stack of 7
        # vectors: one per block of at most _MASK_CELLS weighted products (one
        # vector at least) when every band shares a structure; otherwise each
        # weighted band reduces the whole stack in its own eval_many
        rng = np.random.default_rng(5)
        if shape in ("l1", "linf"):
            S = _monotone(rng, 8, 3, NormKind(shape)).family
        elif shape == "product":
            P, Q, R = (_monotone(rng, 4, 2, kind) for kind in (NormKind.L1, NormKind.LINF, NormKind.L1))
            S = product_space(P, product_space(Q, R)).family
        else:
            last = WeightedNorm(NormKind.LINF, (1.0, 1.0, 1.0)) if shape == "mixed" else SquaredL1(3)
            bands = (Band(0.5, WeightedNorm(NormKind.L1, (1.0, 2.0, 3.0))), Band(1.0, last))
            S = SeminormFamily(3, bands, enforce_monotone=False)
        shapes, depth, reduce = [], [0], pnspace._reduce

        def counted(key, wx):
            if not depth[0]:
                shapes.append(wx.shape)
            depth[0] += 1
            try:
                return reduce(key, wx)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(pnspace, "_reduce", counted)
        monkeypatch.setattr(pnspace, "_MASK_CELLS", cells)
        X = np.arange(1.0, 8.0)[:, None] * np.array([1.0, -2.0, 0.5] * (S.dimension // 3))
        S.band_values(X)
        bands, n = len(S.bands), S.dimension
        step = max(1, cells // (bands * n))
        if stacked:
            assert shapes == [(min(step, 7 - i), bands, n) for i in range(0, 7, step)]
        else:
            assert shapes == [(7, n)] * sum(type(b.norm) is WeightedNorm for b in S.bands)

    def test_duck_typed_norms_use_their_own_eval_many(self, monkeypatch):
        # one eval_many per duck-typed band, on the whole stack at once
        calls = []

        def seven(self, X):
            calls.append(np.shape(X))
            return np.full(np.shape(X)[:-1], 7.0)

        monkeypatch.setattr(SquaredL1, "eval_many", seven)
        l1 = WeightedNorm(NormKind.L1, (1.0, 1.0))
        inner = BlockSumNorm((SquaredL1(1), WeightedNorm(NormKind.LINF, (2.0,))), (1, 1))
        bands = (Band(0.5, SquaredL1(2)), Band(0.75, l1), Band(1.0, inner))
        P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        assert P.band_values([1.0, -1.0]) == [7.0, 2.0, 9.0]
        assert calls == [(2,), (1,)]
        assert P.family.band_values(np.ones((5, 2))).tolist() == [[7.0, 2.0, 9.0]] * 5
        assert calls[2:] == [(5, 2), (5, 1)]


def reference_equivalence(P1: PNSpace, P2: PNSpace, trials: int, seed: int) -> float:
    """norm_equivalence_constants' max_violation from the per-band loop's values."""
    eye = np.eye(P1.dimension)
    forward = operators.norm_profile(operators.LinearOperator(eye, P1, P2)).table
    backward = operators.norm_profile(operators.LinearOperator(eye, P2, P1)).table
    X = np.random.Generator(np.random.Philox(seed)).uniform(-3.0, 3.0, (trials, P1.dimension))
    nx1 = np.array([reference_band_values(P1, x) for x in X]).reshape(trials, len(P1.family.bands), 1)
    nx2 = np.array([reference_band_values(P2, x) for x in X]).reshape(trials, 1, len(P2.family.bands))
    return float(max((nx2 - forward * nx1).max(initial=0.0), (nx1 - backward.T * nx2).max(initial=0.0)))


@st.composite
def weighted_families(draw, n: int):
    """A family of 1-12 weighted bands on R^n: monotone of one kind, or of
    fresh weights and mixed kinds per band."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return _monotone(rng, bands, n, NormKind(rng.choice(["l1", "linf"])))
    family = tuple(
        Band(u, WeightedNorm(NormKind(rng.choice(["l1", "linf"])), _weights(rng, n))) for u in _ends(rng, bands)
    )
    return PNSpace(SeminormFamily(n, family, enforce_monotone=False))


class TestOneProtocol:
    """The library evaluates band norms through eval_many alone: band_values,
    prob_norm, norm_at and norm_equivalence_constants equal the per-band
    eval loop bit for bit, at any block size."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_cases(), st.sampled_from((1, 97, 2**16)), st.floats(0.0, 1.0, exclude_min=True))
    def test_band_values_prob_norm_and_norm_at(self, case, cells, w):
        P, x = case
        X = np.stack((x, -x, 0.25 * x, 3.0 * x))
        want = [[float(v).hex() for v in reference_band_values(P, v)] for v in X]
        with mock.patch.object(pnspace, "_MASK_CELLS", cells):
            assert [[v.hex() for v in row] for row in P.family.band_values(X).tolist()] == want
            assert repr(P.prob_norm(x)) == repr(reference_prob_norm(P, x))
        assert P.norm_at(x, w).hex() == want[0][P.family.band_index_left(w)]
        if w < 1.0:
            assert seminorm_eval(P.family, x, w).hex() == want[0][P.family.band_index(w)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(weighted_families(n), weighted_families(n))),
           st.integers(0, 20), st.integers(0, 2**16))
    def test_norm_equivalence_constants(self, spaces, trials, seed):
        P1, P2 = spaces
        report = operators.norm_equivalence_constants(P1, P2, trials, seed)
        assert report.max_violation.hex() == reference_equivalence(P1, P2, trials, seed).hex()

    def test_a_band_norm_needs_only_dimension_and_eval_many(self):
        # a duck with no eval of its own, as a band in every role that takes one
        duck = types.SimpleNamespace(dimension=2, eval_many=lambda X: 2.0 * np.abs(X).sum(axis=-1))
        l1 = WeightedNorm(NormKind.L1, (1.0, 1.0))
        P = PNSpace(SeminormFamily(2, (Band(0.5, l1), Band(1.0, duck)), enforce_monotone=False))
        assert P.band_values([1.0, -2.0]) == [3.0, 6.0]
        assert P.prob_norm([1.0, -2.0]) == StepDF([3.0, 6.0], [0.0, 0.5, 1.0])
        assert P.norm_at([1.0, -2.0], 0.75) == seminorm_eval(P.family, [1.0, -2.0], 0.75) == 6.0
        assert validate_pn_axioms(P, samples=5).n3.passed
        T = operators.LinearOperator(np.eye(2), single_band_space(l1), P)
        assert operators.norm_profile(T).table.tolist() == [[1.0, 2.0]]
        assert operators.bound_check(T, 0.5, 0.75, trials=20, seed=0).passed
        # a duck returning ints still gives float band values, so sums of them cannot wrap
        ints = types.SimpleNamespace(dimension=2, eval_many=lambda X: np.abs(X).sum(axis=-1).astype(np.int64))
        Q = PNSpace(SeminormFamily(2, (Band(0.5, ints), Band(1.0, ints)), enforce_monotone=False))
        assert Q.family.band_values(np.array([[1.0, -2.0], [0.0, 4.0]])).dtype == np.float64
        assert [type(v) for v in Q.band_values([1.0, -2.0])] == [float, float]
        assert validate_pn_axioms(Q, samples=5).n3.passed

    def test_validator_memory_is_bounded_in_samples(self, monkeypatch):
        # 1024 monotone L1 bands in R^16: band_values reduces blocks of at
        # most _MASK_CELLS weighted products, where one k x bands x n product
        # per axiom would take about 240 MB at 200 samples
        n, bands = 16, 1024
        family = tuple(Band((k + 1) / bands, WeightedNorm("l1", (1.0 + k,) * n)) for k in range(bands))
        P = PNSpace(SeminormFamily(n, family))
        cells, reduce = [], pnspace._reduce
        monkeypatch.setattr(pnspace, "_reduce", lambda key, wx: cells.append(wx.size) or reduce(key, wx))
        tracemalloc.start()
        try:
            report = validate_pn_axioms(P, samples=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 64 * 2**20
        assert max(cells) <= max(pnspace._MASK_CELLS, bands * n)


class TestProbNorm:
    def test_null_vector(self):
        for seed in range(10):
            P = gen_space(seed, 3)
            assert P.prob_norm(np.zeros(3)) == unit_step(0.0)

    def test_single_band_is_unit_step(self):
        P = single_band_space(WeightedNorm(NormKind.L1, (1.0, 2.0)))
        assert P.prob_norm([1.0, 1.0]) == unit_step(3.0)
        assert P.norm_at([1.0, 1.0], 0.4) == 3.0

    @pytest.mark.parametrize("monotone", [True, False])
    def test_overflowing_band_norm_is_an_error(self, monotone):
        # one band, or a non-monotone pair whose first band overflows
        huge = WeightedNorm(NormKind.L1, (1e308, 1e308))
        bands = (Band(0.5, huge), Band(1.0, WeightedNorm(NormKind.L1, (1.0, 1.0))))
        if monotone:
            bands = (Band(1.0, huge),)
        P = PNSpace(SeminormFamily(2, bands, enforce_monotone=monotone))
        with pytest.raises(ValueError, match="overflows"):
            P.prob_norm([1.0, 1.0])
        with pytest.raises(ValueError, match="overflows"):
            P.norm_at([1.0, 1.0], 0.25)
        if not monotone:
            assert P.norm_at([1.0, 1.0], 0.75) == 2.0

    def test_seminorm_eval_raises_where_norm_at_does(self):
        # 3 * 1e308 overflows to inf in the band norm itself
        S = SeminormFamily(2, (Band(1.0, WeightedNorm("l1", (1e308, 1e308))),))
        with pytest.raises(ValueError, match="overflows"):
            seminorm_eval(S, [3.0, 3.0], 0.5)
        with pytest.raises(ValueError, match="overflows"):
            PNSpace(S).norm_at([3.0, 3.0], 0.5)

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

    def test_negative_sample_count_raises(self):
        # a negative count must not pass all five checks without a sample
        with pytest.raises(ValueError, match="samples"):
            validate_pn_axioms(gen_space(3, 2), samples=-5)

    def test_zero_samples_still_check_the_null_vector(self):
        assert validate_pn_axioms(gen_space(3, 2), samples=0).ok
        # a band "norm" that is 1 at the null vector gives nu_0 = H_1
        one = types.SimpleNamespace(dimension=1, eval_many=lambda X: np.ones(np.shape(X)[:-1]))
        P = PNSpace(SeminormFamily(1, (Band(1.0, one),), enforce_monotone=False))
        report = validate_pn_axioms(P, samples=0)
        assert report.n1 == CheckResult(False, "nu at the null vector is not H_0")
        assert report.n2.passed and report.n3.passed and report.scaling.passed

    @pytest.mark.parametrize(
        "shape, calls_per_sample",
        [("monotone", 0), ("mixed-kinds", 0), ("decreasing", 1 + 2 + 3 + 8)],
    )
    def test_axioms_build_nu_only_where_rows_cannot_decide(self, monkeypatch, shape, calls_per_sample):
        # prob_norm builds nu at the null vector, and per sample only where a
        # row is not nondecreasing: then N1 1 call, N2 2, N3 3, scaling
        # 1 + 7 scalars = 8; |x|_1 <= 2 |x|_inf in R^2, so the rows of the
        # non-monotone mixed-kind family are nondecreasing all the same
        second = {"monotone": None, "mixed-kinds": ("linf", (2.0, 2.0)), "decreasing": ("l1", (0.5, 0.5))}
        P = gen_space(4, 3)
        if second[shape]:
            bands = (Band(0.5, WeightedNorm("l1", (1.0, 1.0))), Band(1.0, WeightedNorm(*second[shape])))
            P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        calls = []
        prob_norm = PNSpace.prob_norm
        monkeypatch.setattr(PNSpace, "prob_norm", lambda P, x: calls.append(1) or prob_norm(P, x))
        report = validate_pn_axioms(P, samples=6, seed=4)
        assert report.n1.passed and report.n2.passed and report.n3.passed and report.scaling.passed
        assert len(calls) == 1 + calls_per_sample * 6

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


@dataclasses.dataclass(frozen=True)
class Octave:
    """|x|_1 rounded to the nearest power of two in log scale: homogeneous for
    power-of-two scalars, so (S) fails only off them, by a tolerance."""

    dimension: int

    def eval(self, x) -> float:
        norm = float(np.abs(x).sum())
        return 2.0 ** round(math.log2(norm)) if norm else 0.0

    def eval_many(self, X) -> np.ndarray:
        norm = np.abs(X).sum(axis=-1)
        with np.errstate(divide="ignore"):  # log2(0) is -inf, masked below
            return np.where(norm > 0.0, 2.0 ** np.round(np.log2(norm)), 0.0)


def axioms_outcome(validate, P: PNSpace, samples: int, seed: int):
    """The PNAxiomReport, or the repr of the ValueError raised."""
    try:
        return validate(P, samples, seed)
    except ValueError as e:
        return repr(e)


def _top_weight(norm) -> float:
    if type(norm) is WeightedNorm:
        return max(norm.weights)
    return max(map(_top_weight, norm.parts)) if type(norm) is BlockSumNorm else 0.0


def huge(S: SeminormFamily) -> PNSpace:
    """S with its weights scaled to a largest one of 1e307, so band norms overflow."""
    f = np.full(S.dimension, 1e307 / max(1.0, *(_top_weight(b.norm) for b in S.bands)))
    return PNSpace(
        SeminormFamily(S.dimension, tuple(Band(b.upto, _scaled(b.norm, f)) for b in S.bands), enforce_monotone=False)
    )


@st.composite
def axiom_families(draw):
    """A family for the axiom checks: a stacked case's (monotone L1, Linf and
    block sums in dimension 1-40; non-monotone, mixed-kind and duck-typed
    bands) or a grown one, its weights sometimes scaled to 1e307; or a
    duck-typed band that fails N3 (SquaredL1), N2 and N3 (Lopsided) or (S)
    off the power-of-two scalars (Octave)."""
    pick = draw(st.sampled_from(("stacked", "grown", "squared", "lopsided", "octave")))
    n = draw(st.integers(1, 4))
    if pick == "squared":
        return squared_l1_space(n)
    if pick == "octave":
        return PNSpace(SeminormFamily(n, (Band(1.0, Octave(n)),)))
    if pick == "lopsided":
        bands = (Band(1.0, Lopsided(n)),)
        if draw(st.booleans()):
            bands = (Band(0.5, WeightedNorm(NormKind.L1, (1.0,) * n)), *bands)
        return PNSpace(SeminormFamily(n, bands, enforce_monotone=False))
    S = draw(stacked_cases())[0].family if pick == "stacked" else draw(grown_families())
    return huge(S) if draw(st.integers(0, 4)) == 0 else PNSpace(S)


class TestAxiomRows:
    """validate_pn_axioms on band-value rows gives the StepDF loop's report,
    witnesses included, or raises its error at the same sample."""

    def test_gen_spaces(self):
        for seed in range(100):
            P = gen_space(seed, 1 + seed % 5)
            want = stepdf_validate_pn_axioms(P, 10, seed)
            assert validate_pn_axioms(P, 10, seed) == want and want.ok

    @pytest.mark.parametrize(
        "P, seed, failed",
        [
            (squared_l1_space(2), 0, ["n3", "scaling"]),
            # N2 fails at the seventh of ten samples, and the witnesses of N3
            # and (S) show where it left the rng
            (PNSpace(SeminormFamily(2, (Band(1.0, Lopsided(2)),))), 4, ["n2", "n3", "scaling"]),
            (PNSpace(SeminormFamily(2, (Band(1.0, Octave(2)),))), 0, ["n3", "scaling"]),
        ],
        ids=["squared-l1", "lopsided", "octave"],
    )
    def test_failing_families(self, P, seed, failed):
        want = stepdf_validate_pn_axioms(P, 10, seed)
        assert validate_pn_axioms(P, 10, seed) == want
        assert [name for name in ("n1", "n2", "n3", "scaling") if not getattr(want, name).passed] == failed

    @pytest.mark.parametrize(
        "weight, seed, axiom",
        [(1e308, 0, "n1"), (6.1e307, 0, "n2"), (4.5e307, 0, "n3"), (3.6e307, 4, "scaling")],
    )
    def test_overflow_raises_in_the_same_axiom(self, weight, seed, axiom):
        # |x| * weight overflows first on a sample of the named axiom: N1's or
        # N2's x, N3's x + y, or (S)'s 2x or 4x
        P = PNSpace(SeminormFamily(1, (Band(1.0, WeightedNorm("l1", (weight,))),)))
        for validate in (stepdf_validate_pn_axioms, validate_pn_axioms):
            with pytest.raises(ValueError, match="band norm of x is inf: the weighted sum overflows") as e:
                validate(P, 10, seed)
            assert axiom in [frame.name for frame in traceback.extract_tb(e.value.__traceback__)]

    def test_negative_band_value_raises_at_the_first_sample(self):
        # a nondecreasing row below 0 is no d.f.'s breakpoints
        negative = types.SimpleNamespace(dimension=2, eval_many=lambda X: -np.abs(X).sum(axis=-1))
        P = PNSpace(SeminormFamily(2, (Band(1.0, negative),), enforce_monotone=False))
        for validate in (stepdf_validate_pn_axioms, validate_pn_axioms):
            with pytest.raises(ValueError, match="breakpoints must be finite and >= 0"):
                validate(P, 10, 0)

    @settings(max_examples=150, deadline=None)
    @given(axiom_families(), st.integers(1, 8), st.integers(0, 2**16))
    def test_property(self, P, samples, seed):
        want = axioms_outcome(stepdf_validate_pn_axioms, P, samples, seed)
        assert axioms_outcome(validate_pn_axioms, P, samples, seed) == want

    @pytest.mark.parametrize("weight, alpha", [(3e-308, 0.25), (1e-308, 0.5)])
    def test_subnormal_band_values(self, weight, alpha):
        # alpha x scales the band values into the subnormal range, where the
        # float norm no longer commutes with the scaling; at 3e-308 the StepDF
        # loop cannot even build nu_x scaled by 0.25, whose two breakpoints
        # underflow into one float
        bands = (Band(0.5, WeightedNorm("l1", (weight,))), Band(1.0, WeightedNorm("l1", (math.nextafter(weight, 1),))))
        P = PNSpace(SeminormFamily(1, bands))
        report = validate_pn_axioms(P, 5, 0)
        assert report.scaling == CheckResult(False, f"(S) fails at alpha = {alpha}")
        assert report.n1.passed and report.n2.passed and report.n3.passed
        if alpha == 0.5:
            assert stepdf_validate_pn_axioms(P, 5, 0) == report
        else:
            with pytest.raises(ValueError, match="strictly increasing"):
                stepdf_validate_pn_axioms(P, 5, 0)


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
