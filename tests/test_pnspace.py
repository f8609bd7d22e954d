"""PN-spaces from seminorm families: probabilistic norms, axioms, products."""

import ast
import dataclasses
import itertools
import math
import pickle
import traceback
import tracemalloc
import types
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
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

import hat_oracle
from axioms_oracle import stepdf_validate_pn_axioms
from band_values import band_values
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


def crossing_space(kind: NormKind = NormKind.L1, heavy: float = 10.0) -> PNSpace:
    """Two bands of R^2 whose weights (1, heavy) and (heavy, 1) cross, so the
    family is not monotone: nu_{e1} = nu_{e2} has hat (1, heavy), while
    hat nu_{e1+e2} is (1 + heavy, 1 + heavy) for L1 and (heavy, heavy) for
    Linf, which exceeds hat nu_{e1} + hat nu_{e2} = (2, 2 heavy) on the first
    band: N3 fails."""
    bands = (Band(0.5, WeightedNorm(kind, (1.0, heavy))), Band(1.0, WeightedNorm(kind, (heavy, 1.0))))
    return PNSpace(SeminormFamily(2, bands, enforce_monotone=False))


def reference_band_values(P: PNSpace, x) -> list:
    """The per-band loop: each band norm evaluated on x alone."""
    return [float(b.norm.eval_many(x)) for b in P.family.bands]


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
    # the exact measure of the bands with p <= c, rounded once
    lengths = [Fraction(u) - Fraction(s) for s, u in zip(P.family.starts(), uptos)]
    bps = sorted(set(vals))
    return StepDF(bps, [0.0, *(float(sum(l for v, l in zip(vals, lengths) if v <= c)) for c in bps)])


def reference_dominates(a, b) -> bool:
    """a >= b by structure, pair by pair: weighted norms of one kind with
    coordinatewise >= weights, or block sums of one split whose parts
    dominate."""
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
        assert n.eval_many(np.array([1.0, 1.0])) == 3.0
        assert n.eval_many(np.array([-1.0, 0.5])) == 2.0

    def test_linf_eval(self):
        n = WeightedNorm(NormKind.LINF, (1.0, 2.0))
        assert n.eval_many(np.array([1.0, 1.0])) == 2.0
        assert n.eval_many(np.array([3.0, -0.5])) == 3.0

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
        tiny = WeightedNorm(NormKind.L1, (2.0**-1022,))
        assert next(operators._vertex_blocks(tiny))[0, 0] == 2.0**1022

    def test_norm_axioms_sampled(self):
        rng = np.random.default_rng(0)
        for kind in (NormKind.L1, NormKind.LINF):
            for _ in range(50):
                n = int(rng.integers(1, 6))
                norm = WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, n)))
                x, y = gen_vector(rng, n), gen_vector(rng, n)
                assert norm.eval_many(x) >= 0.0
                assert norm.eval_many(x + y) <= norm.eval_many(x) + norm.eval_many(y) + 1e-12
                a = float(rng.uniform(-4.0, 4.0))
                assert norm.eval_many(a * x) == pytest.approx(abs(a) * norm.eval_many(x), rel=1e-12)
        assert WeightedNorm(NormKind.L1, (1.0,)).eval_many(np.zeros(1)) == 0.0

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
            next(operators._vertex_blocks(big))
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
            blocks = [block.copy() for block in operators._vertex_blocks(norm)]
            assert len(blocks) == max(1, 2 ** (n - 17)), n
            assert all(len(block) == min(2 ** (n - 1), 2**16) for block in blocks), n
            V = unit_ball_vertices(norm)
            assert np.concatenate(blocks).tobytes() == V[: len(V) // 2].tobytes(), n
        l1 = WeightedNorm(NormKind.L1, (0.5, 3.0, 7.0))
        [block] = operators._vertex_blocks(l1)
        assert block.tobytes() == unit_ball_vertices(l1)[:3].tobytes()

    @pytest.mark.parametrize("bits", [2, 3])
    def test_small_blocks_are_the_oracles_first_half(self, monkeypatch, bits):
        # with blocks of 2^bits rows, n = 3 to 8 runs up to 2^(7-bits) blocks,
        # each doubled from its row 0 and given its high signs in place
        monkeypatch.setattr(operators, "_VERTEX_BLOCK_BITS", bits)
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            weights = rng.uniform(0.5, 2.0, n) * 2.0 ** rng.integers(-40, 41, n)
            norm = WeightedNorm(NormKind.LINF, tuple(weights))
            blocks = [block.copy() for block in operators._vertex_blocks(norm)]
            assert len(blocks) == 2 ** max(0, n - 1 - bits), n
            V = unit_ball_vertices(norm)
            assert np.concatenate(blocks).tobytes() == V[: len(V) // 2].tobytes(), n


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda bands: SeminormFamily(2.0, bands),
            lambda bands: SeminormFamily(True, bands),
            lambda bands: SeminormFamily(np.bool_(True), bands),
            lambda bands: BlockSumNorm(bands[0].norm.parts, (1.0, 1.0)),
            lambda bands: BlockSumNorm(bands[0].norm.parts, (True, 1)),
            lambda bands: validate_pn_axioms(PNSpace(SeminormFamily(2, bands)), 2.5),
            lambda bands: validate_pn_axioms(PNSpace(SeminormFamily(2, bands)), True),
        ],
        ids=["float-dimension", "bool-dimension", "numpy-bool-dimension", "float-dims", "bool-dims",
             "float-samples", "bool-samples"],
    )
    def test_sizes_must_be_integers(self, make):
        # rejected where they enter, not later as a TypeError
        parts = (WeightedNorm("l1", (1.0,)), WeightedNorm("linf", (2.0,)))
        with pytest.raises(ValueError, match="must be an integer"):
            make((Band(1.0, BlockSumNorm(parts, (1, 1))),))

    def test_numpy_integer_sizes_are_accepted(self):
        parts = (WeightedNorm("l1", (1.0,)), WeightedNorm("linf", (2.0,)))
        norm = BlockSumNorm(parts, (np.int64(1), np.int32(1)))
        P = PNSpace(SeminormFamily(np.int64(2), (Band(1.0, norm),)))
        assert P.prob_norm([1.0, 1.0]) == unit_step(3.0)
        assert validate_pn_axioms(P, np.int64(3)).ok

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
            weights = ((2.0, 1.0), (1.0, 3.0), (0.5, 0.5), (2.0, 1.0))
            bands = tuple(Band(u, WeightedNorm(NormKind.L1, w)) for u, w in zip((0.25, 0.5, 0.75, 1.0), weights))
            fam = SeminormFamily(2, bands, enforce_monotone=False)
        for a in (fam._ends, fam._weights):
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a[...] = 0.0
        # one (bands x n) array: the nested block sums' parts side by side
        assert fam._weights.shape == (len(fam.bands), 6 if monotone else 2)
        if not monotone:
            assert fam._weights.tolist() == [list(w) for w in weights]
            assert fam._monotone == (False, "band 1 does not dominate band 0") and fam._key is NormKind.L1
        else:
            assert fam._monotone == (True, "monotone") and fam._key == fam.bands[0].norm._structure[0]
        # not fields: ==, repr and hash see only the dimension and the bands
        assert [f.name for f in dataclasses.fields(fam)] == ["dimension", "bands"]
        assert not any(name in repr(fam) for name in ("_weights", "_monotone", "_key", "_ends"))
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
        assert all(np.isfinite(block).all() for block in operators._vertex_blocks(N))
        assert N.eval_many(np.zeros(N.dimension)) == 0.0
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


def _any_norm(rng, n: int, depth: int = 0):
    # a weighted norm of either kind, or a block sum of two or three such
    # norms, nested up to two levels
    pick = rng.integers(3 if depth < 2 and n > 1 else 2)
    if pick == 2:
        cuts = np.unique(rng.integers(1, n, 2))
        dims = tuple(np.diff([0, *cuts, n]).tolist())
        return BlockSumNorm(tuple(_any_norm(rng, d, depth + 1) for d in dims), dims)
    return WeightedNorm(NormKind(("l1", "linf")[pick]), _weights(rng, n))


def _scaled(norm, f: np.ndarray):
    """norm with each weight multiplied by its coordinate's factor in f."""
    if type(norm) is WeightedNorm:
        return WeightedNorm(norm.kind, np.array(norm.weights) * f)
    offs = np.cumsum((0, *norm.dims))
    parts = (_scaled(p, f[a:b]) for p, a, b in zip(norm.parts, offs, offs[1:]))
    return BlockSumNorm(tuple(parts), norm.dims)


def _reweighted(rng, norm):
    """norm's structure with fresh weights, so neither need dominate the other."""
    if type(norm) is WeightedNorm:
        return WeightedNorm(norm.kind, _weights(rng, norm.dimension))
    return BlockSumNorm(tuple(_reweighted(rng, part) for part in norm.parts), norm.dims)


SHAPES = ("l1", "linf", "fresh-l1", "fresh-linf", "product-right", "product-left", "blocks")


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
        # non-monotone: one structure (a kind, or block sums of any split)
        # with fresh weights per band
        if shape == "blocks":
            norm = _any_norm(rng, n)
        else:
            norm = WeightedNorm(shape.removeprefix("fresh-"), _weights(rng, n))
        family = tuple(Band(u, _reweighted(rng, norm)) for u in _ends(rng, bands))
        P = PNSpace(SeminormFamily(n, family, enforce_monotone=False))
    x = rng.uniform(-3.0, 3.0, P.dimension) * (rng.random(P.dimension) < draw(st.sampled_from((0.0, 0.5, 0.9, 1.0))))
    return P, x


@st.composite
def grown_families(draw):
    """A family of 1-40 bands grown from one norm of any structure.

    Each band either repeats the weights before it (equal rows), multiplies
    them by U(1, 1.3) per coordinate, rarely with one coordinate dropping,
    or rarely starts from fresh weights; some bands interrupt the growth
    with one-off weights, so the growth need not be adjacent.
    """
    n = draw(st.integers(1, 12))
    rare = draw(st.sampled_from((0.0, 0.02, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    norm, bands = _any_norm(rng, n), []
    for u in _ends(rng, draw(st.integers(1, 40))):
        bands.append(Band(u, _reweighted(rng, norm) if rng.random() < rare else norm))
        r = rng.random()
        if r < rare:
            norm = _reweighted(rng, norm)
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


class TestOneStructure:
    """A band norm is a WeightedNorm or a block sum of them, and the bands of
    a family share one structure; anything else is a ValueError at
    construction."""

    def test_duck_typed_band_fails_the_construction(self):
        # min |x_i| is even but not convex: from the L1 unit ball of R^2 the
        # identity's vertex sup of it is 0.0, below its value 0.5 at (0.5, 0.5)
        min_abs = types.SimpleNamespace(dimension=2, eval_many=lambda X: np.abs(X).min(axis=-1))
        with pytest.raises(ValueError, match="a band norm must be a WeightedNorm or a BlockSumNorm"):
            single_band_space(min_abs)
        with pytest.raises(ValueError, match="a band norm must be a WeightedNorm or a BlockSumNorm"):
            SeminormFamily(2, (Band(0.5, WeightedNorm("l1", (1.0, 1.0))), Band(1.0, min_abs)), enforce_monotone=False)

    def test_duck_typed_part_fails_the_block_sum(self):
        duck = types.SimpleNamespace(dimension=1, eval_many=lambda X: np.abs(X).sum(axis=-1))
        for parts in ((duck, WeightedNorm("l1", (1.0,))), (WeightedNorm("l1", (1.0,)), duck)):
            with pytest.raises(ValueError, match="a band norm must be a WeightedNorm or a BlockSumNorm"):
                BlockSumNorm(parts, (1, 1))
        # a nested duck too
        inner = BlockSumNorm((WeightedNorm("linf", (1.0,)), WeightedNorm("l1", (2.0,))), (1, 1))
        with pytest.raises(ValueError, match="a band norm must be"):
            BlockSumNorm((inner, BlockSumNorm((duck,), (1,))), (2, 1))

    @pytest.mark.parametrize(
        "bands, band",
        [
            ((("l1", (1.0, 1.0)), ("linf", (2.0, 2.0))), 1),
            ((("linf", (1.0, 1.0)), ("linf", (2.0, 3.0)), ("l1", (2.0, 3.0))), 2),
            ((("l1", (1.0, 1.0)), "blocks"), 1),
        ],
        ids=["l1-linf", "third-band", "weighted-then-block-sum"],
    )
    def test_mixed_structures_fail_naming_the_band(self, bands, band):
        blocks = BlockSumNorm((WeightedNorm("l1", (1.0,)), WeightedNorm("l1", (1.0,))), (1, 1))
        norms = [blocks if b == "blocks" else WeightedNorm(*b) for b in bands]
        family = tuple(Band((k + 1) / len(norms), norm) for k, norm in enumerate(norms))
        with pytest.raises(ValueError) as e:
            SeminormFamily(2, family, enforce_monotone=False)
        assert str(e.value) == f"band {band} does not share the structure of band {band - 1}"
        # a monotone family is checked for dominance first, and a band of
        # another structure dominates nothing
        with pytest.raises(ValueError) as e:
            SeminormFamily(2, family)
        assert str(e.value) == f"band {band} does not dominate band {band - 1}"

    def test_block_sums_share_a_structure_only_with_one_split(self):
        l1, l1_2 = WeightedNorm("l1", (1.0,)), WeightedNorm("l1", (1.0, 1.0))
        one_two, two_one = BlockSumNorm((l1, l1_2), (1, 2)), BlockSumNorm((l1_2, l1), (2, 1))
        with pytest.raises(ValueError, match="band 1 does not share the structure of band 0"):
            SeminormFamily(3, (Band(0.5, one_two), Band(1.0, two_one)), enforce_monotone=False)
        nested = BlockSumNorm((BlockSumNorm((l1, l1), (1, 1)), l1), (2, 1))
        flat = BlockSumNorm((l1, l1, l1), (1, 1, 1))
        with pytest.raises(ValueError, match="band 1 does not share the structure of band 0"):
            SeminormFamily(3, (Band(0.5, nested), Band(1.0, flat)), enforce_monotone=False)
        assert SeminormFamily(3, (Band(0.5, nested), Band(1.0, nested))).monotone_report()[0]


class TestStackedBands:
    """The stacked band weights give the per-band loop's values bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_cases())
    def test_matches_the_per_band_loop(self, case):
        P, x = case
        got, want = band_values(P, x), reference_band_values(P, x)
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
    @pytest.mark.parametrize("shape", ["l1", "linf", "product", "non-monotone", "non-monotone-product"])
    def test_one_reduce_per_block(self, monkeypatch, shape, cells):
        # top-level _reduce calls per band_values call on a stack of 7
        # vectors: one per block of at most _MASK_CELLS weighted products
        # (one vector at least), monotone or not
        rng = np.random.default_rng(5)
        if shape in ("l1", "linf"):
            S = _monotone(rng, 8, 3, NormKind(shape)).family
        elif shape == "product":
            P, Q, R = (_monotone(rng, 4, 2, kind) for kind in (NormKind.L1, NormKind.LINF, NormKind.L1))
            S = product_space(P, product_space(Q, R)).family
        elif shape == "non-monotone":
            bands = tuple(Band(u, WeightedNorm(NormKind.L1, w)) for u, w in ((0.5, (1.0, 2.0, 3.0)), (1.0, (3.0, 2.0, 1.0))))
            S = SeminormFamily(3, bands, enforce_monotone=False)
        else:
            up, down = (1.0, 2.0, 3.0), (3.0, 2.0, 1.0)
            bands = tuple(
                Band(u, BlockSumNorm((WeightedNorm(NormKind.L1, a), WeightedNorm(NormKind.LINF, b)), (3, 3)))
                for u, a, b in ((0.5, up, down), (1.0, down, up))
            )
            S = SeminormFamily(6, bands, enforce_monotone=False)
            assert not S.monotone_report()[0]
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
        assert shapes == [(min(step, 7 - i), bands, n) for i in range(0, 7, step)]


def reference_reduce(key, wx: np.ndarray) -> np.ndarray:
    """_reduce with each row's Linf max taken along the last axis."""
    if key is NormKind.L1:
        return wx.sum(axis=-1)
    if key is NormKind.LINF:
        return wx.max(axis=-1)
    vals, off = 0.0, 0
    for part, d in key:
        vals = vals + reference_reduce(part, wx[..., off : off + d])
        off += d
    return vals


# +0.0, subnormals, ordinary values, near the float max, inf, and the nan
# an operator image holds after inf - inf
REDUCE_ENTRIES = np.array([0.0, 5e-324, 2.5e-310, 1e-300, 0.5, 1.0, 3.0, 1e300, 1.7e308, np.finfo(float).max, np.inf, np.nan])


class TestLinfReduce:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_the_row_max(self, n):
        rng = np.random.default_rng(n)
        l1, linf = WeightedNorm("l1", (1.0,)), WeightedNorm("linf", (1.0,) * (n + 1))
        inner = BlockSumNorm((WeightedNorm("linf", (1.0,) * n), l1), (n, 1))
        # a block sum nested two deep: slices of slices of the last axis
        nested = BlockSumNorm((inner, linf, l1), (n + 1, n + 1, 1))
        for key, dim in ((NormKind.LINF, n), (nested._structure[0], nested.dimension)):
            for shape in ((dim,), (7, dim), (5, 3, dim), (0, dim)):
                for pool in (REDUCE_ENTRIES, REDUCE_ENTRIES[:-1], REDUCE_ENTRIES[:-2], REDUCE_ENTRIES[:2]):
                    wx = rng.choice(pool, shape)
                    with np.errstate(over="ignore"):
                        got, want = pnspace._reduce(key, wx), reference_reduce(key, wx)
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    """A family of 1-12 weighted bands of one kind on R^n: monotone, or of
    fresh weights per band."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = draw(st.integers(1, 12))
    kind = NormKind(rng.choice(["l1", "linf"]))
    if draw(st.booleans()):
        return _monotone(rng, bands, n, kind)
    family = tuple(Band(u, WeightedNorm(kind, _weights(rng, n))) for u in _ends(rng, bands))
    return PNSpace(SeminormFamily(n, family, enforce_monotone=False))


class TestOneProtocol:
    """band_values, prob_norm, norm_at and norm_equivalence_constants equal
    the per-band eval_many loop bit for bit, at any block size."""

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
            for t in [v + d for v in band_values(P, x) for d in (-0.11, 0.003, 0.11)]:
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

    def test_zero_samples_pass(self):
        # every band norm of 0 is 0.0, so nu_0 = H_0 and no sample can fail
        assert validate_pn_axioms(gen_space(3, 2), samples=0).ok
        assert validate_pn_axioms(crossing_space(), samples=0) == stepdf_validate_pn_axioms(crossing_space(), 0)

    @pytest.mark.parametrize(
        "shape, calls_per_sample",
        [("monotone", 0), ("non-monotone", 0), ("decreasing", 3)],
    )
    def test_axioms_build_nu_only_where_rows_cannot_decide(self, monkeypatch, shape, calls_per_sample):
        # prob_norm builds nu per sample only in N3, and only where a row
        # is not nondecreasing: 3 calls, for x + y, x and y.  N1, N2 and
        # (S) decide every row themselves.  The non-monotone family's second
        # band falls below its first only where |x_0| < |x_1| / 3000, so its
        # rows here are nondecreasing all the same
        second = {"monotone": None, "non-monotone": ("l1", (4.0, 0.999)), "decreasing": ("l1", (0.5, 0.5))}
        P = gen_space(4, 3)
        if second[shape]:
            bands = (Band(0.5, WeightedNorm("l1", (1.0, 1.0))), Band(1.0, WeightedNorm(*second[shape])))
            P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        calls = []
        prob_norm = PNSpace.prob_norm
        monkeypatch.setattr(PNSpace, "prob_norm", lambda P, x: calls.append(1) or prob_norm(P, x))
        report = validate_pn_axioms(P, samples=6, seed=4)
        assert report.n1.passed and report.n2.passed and report.n3.passed and report.scaling.passed
        assert len(calls) == calls_per_sample * 6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        P = gen_space(2, 2)
        calls = (
            lambda x: P.norm_at(x, 0.5),
            P.prob_norm,
            lambda x: P.pm_distance(x, [0.0, 1.0]),
            lambda x: P.in_ball([0.0, 1.0], 1.0, 0.5, x),
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

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_n3_fails_on_a_non_monotone_family(self, kind):
        # crossing weights: on the first band nu_{x+y} lags tau_M(nu_x, nu_y)
        P = crossing_space(kind)
        report = validate_pn_axioms(P, 50, 0)
        assert report == stepdf_validate_pn_axioms(P, 50, 0)
        assert report.n1.passed and report.n2.passed and report.scaling.passed
        assert not report.monotone.passed and not report.n3.passed
        assert report.n3.witness.startswith("N3 fails at x = ")

    def test_n3_equality_for_colinear(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            P = gen_space(seed, 2)
            x = gen_vector(rng, 2)
            lhs = P.prob_norm(2.0 * x)
            rhs = tau_sup_conv(TNormKind.MIN, P.prob_norm(x), P.prob_norm(x))
            assert levy_metric(lhs, rhs).value <= 1e-9


# what builds nu or its hat; the validator may read these only in N3
NU_BUILDERS = {"prob_norm", "quasi_inverse", "qf_add", "_hat_le"}


def nu_builder_reads(source: str, function: str) -> list[str]:
    """function.scope for every read of a NU_BUILDERS name (an attribute, a
    name or a string) inside the top-level function of source, one entry
    per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                inner = (*scope, getattr(child, "name", "<lambda>"))
            elif (
                (isinstance(child, ast.Attribute) and child.attr in NU_BUILDERS)
                or (isinstance(child, ast.Name) and child.id in NU_BUILDERS)
                or (isinstance(child, ast.Constant) and child.value in NU_BUILDERS)
            ):
                found.append(".".join(scope))
            visit(child, inner)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            visit(node, (function,))
    return sorted(found)


def test_nu_scanner_finds_every_read():
    source = (
        "def f(P):\n    P.prob_norm(1)\n    def n3():\n        return _hat_le(quasi_inverse(0))\n"
        "    g = lambda: getattr(P, 'qf_add')\ndef h(P):\n    P.prob_norm(1)\n"
    )
    assert nu_builder_reads(source, "f") == ["f", "f.<lambda>", "f.n3", "f.n3"]


def test_the_validator_builds_nu_only_in_n3():
    source = Path(pnspace.__file__).read_text()
    assert set(nu_builder_reads(source, "validate_pn_axioms")) == {"validate_pn_axioms.n3"}


# where the validator may not read its generator: every sample is drawn
# up front, so the number of draws cannot depend on samples or on a verdict
REPEATING = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def rng_reads_that_repeat(source: str, function: str) -> list[str]:
    """Inside the top-level function of source: every read of an attribute
    bit_generator, and every read of the name rng inside a loop, a
    comprehension or a nested function, one entry per read."""
    found = []

    def visit(node, repeats):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "bit_generator":
                found.append("bit_generator")
            if isinstance(child, ast.Name) and child.id == "rng" and repeats:
                found.append(f"rng at line {child.lineno}")
            visit(child, repeats or isinstance(child, REPEATING))

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            visit(node, False)
    return found


def test_rng_scanner_finds_every_repeated_read():
    source = (
        "def f(rng):\n    state = rng.bit_generator.state\n    X = rng.uniform(0, 1, 3)\n"
        "    Y = [g(rng) for _ in X]\n    for _ in X:\n        rng.choice(X)\n"
        "    def n1():\n        yield rng.uniform()\n"
    )
    assert rng_reads_that_repeat(source, "f") == ["bit_generator", "rng at line 4", "rng at line 6", "rng at line 8"]


def test_the_validator_draws_each_block_once():
    source = Path(pnspace.__file__).read_text()
    assert rng_reads_that_repeat(source, "validate_pn_axioms") == []
    defined = {
        node.name if isinstance(node, ast.FunctionDef) else node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    }
    assert "_nonzero" not in defined


def axioms_outcome(validate, P: PNSpace, samples: int, seed: int):
    """The PNAxiomReport, or the repr of the ValueError raised."""
    try:
        return validate(P, samples, seed)
    except ValueError as e:
        return repr(e)


def wrap_default_rng(monkeypatch, edit=lambda k, X: X) -> list[str]:
    """Make np.random.default_rng return its generator behind a proxy, for
    the library and the oracle alike.  The proxy records the name of every
    attribute read from it, in the list returned, and passes the k-th
    uniform(-3, 3) block it draws (k from 0) through edit(k, block)."""
    reads, default_rng = [], np.random.default_rng

    class Proxy:
        def __init__(self, rng):
            self._rng, self._blocks = rng, 0

        def __getattr__(self, name):
            reads.append(name)
            if name != "uniform":
                return getattr(self._rng, name)

            def uniform(low, high, size):
                X = self._rng.uniform(low, high, size)
                if (low, high) == (-3.0, 3.0):
                    X, self._blocks = edit(self._blocks, X), self._blocks + 1
                return X

            return uniform

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Proxy(default_rng(seed)))
    return reads


def zero_first_n1_row(k, X):
    """An edit for wrap_default_rng: N1's first sample is drawn exactly 0,
    which is no counterexample, and every other block is left as drawn."""
    if k == 0:
        X[:1] = 0.0
    return X


def _top_weight(norm) -> float:
    if type(norm) is WeightedNorm:
        return max(norm.weights)
    return max(map(_top_weight, norm.parts))


def huge(S: SeminormFamily) -> PNSpace:
    """S with its weights scaled to a largest one of 1e307, so band norms overflow."""
    f = np.full(S.dimension, 1e307 / max(1.0, *(_top_weight(b.norm) for b in S.bands)))
    return PNSpace(
        SeminormFamily(S.dimension, tuple(Band(b.upto, _scaled(b.norm, f)) for b in S.bands), enforce_monotone=False)
    )


@st.composite
def axiom_families(draw):
    """A family for the axiom checks: a stacked case's (monotone L1, Linf and
    block sums in dimension 1-40; non-monotone ones of each structure) or a
    grown one, its weights sometimes scaled to 1e307; or a crossing family,
    whose rows decrease and which fails N3 for a heavy weight."""
    pick = draw(st.sampled_from(("stacked", "grown", "crossing")))
    if pick == "crossing":
        return crossing_space(draw(st.sampled_from(NormKind)), draw(st.floats(1.0, 50.0)))
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
        "P",
        [
            crossing_space(NormKind.L1),
            crossing_space(NormKind.LINF, 3.0),
            PNSpace(SeminormFamily(2, tuple(
                Band(u, BlockSumNorm((WeightedNorm("l1", (a,)), WeightedNorm("linf", (b,))), (1, 1)))
                for u, a, b in ((0.5, 1.0, 10.0), (1.0, 10.0, 1.0))
            ), enforce_monotone=False)),
        ],
        ids=["crossing-l1", "crossing-linf", "crossing-blocks"],
    )
    def test_failing_families(self, P):
        # seeds 0-9 at 10 samples: N3 alone fails on 10, 9 and 10 of them
        fails = 0
        for seed in range(10):
            want = stepdf_validate_pn_axioms(P, 10, seed)
            assert validate_pn_axioms(P, 10, seed) == want
            names = [name for name in ("n1", "n2", "n3", "scaling") if not getattr(want, name).passed]
            assert names in ([], ["n3"])
            fails += names == ["n3"]
        assert fails >= 1

    @pytest.mark.parametrize("weight, axiom", [(1e308, "n1"), (4.5e307, "n3"), (3.6e307, "scaling")])
    def test_overflow_raises_in_the_same_axiom(self, monkeypatch, weight, axiom):
        # |x| * weight overflows first on a sample of the same axiom in both:
        # N1's x, N3's x + y, or (S)'s 2x or 4x.  Seeds 0-19 at 10 samples,
        # N1's first x drawn 0: the named axiom raises on 20, 18 and 15 of them
        wrap_default_rng(monkeypatch, zero_first_n1_row)
        P = PNSpace(SeminormFamily(1, (Band(1.0, WeightedNorm("l1", (weight,))),)))
        raised = 0
        for seed in range(20):
            outcomes = []
            for validate in (stepdf_validate_pn_axioms, validate_pn_axioms):
                try:
                    outcomes.append((validate(P, 10, seed), None))
                except ValueError as e:
                    assert "band norm of x is inf: the weighted sum overflows" in str(e)
                    frames = {frame.name for frame in traceback.extract_tb(e.__traceback__)}
                    outcomes.append((repr(e), frames & {"n1", "n2", "n3", "scaling"}))
            assert outcomes[0] == outcomes[1]
            raised += outcomes[1][1] == {axiom}
        assert raised >= 1

    @pytest.mark.parametrize(
        "P",
        [crossing_space(), PNSpace(SeminormFamily(1, (Band(1.0, WeightedNorm("l1", (6.1e307,))),)))],
        ids=["non-monotone", "overflowing"],
    )
    def test_n2_draws_and_evaluates_nothing(self, monkeypatch, P):
        # -x and x have one row, so N2 is PASS with no sample: band_values is
        # called by N1, N3 and (S) alone (and by prob_norm in N3's fallback).
        # |x| * 6.1e307 overflows for |x| > 2.95: that family raises on 19 of
        # the 20 runs below, never in N2, and reports on the other
        callers = []
        band_values = SeminormFamily.band_values
        monkeypatch.setattr(SeminormFamily, "band_values", lambda S, X: callers.append(
            traceback.extract_stack(limit=2)[0].name) or band_values(S, X))
        reports = 0
        for seed, samples in itertools.product(range(10), (1, 10)):
            want = axioms_outcome(stepdf_validate_pn_axioms, P, samples, seed)
            callers.clear()
            got = axioms_outcome(validate_pn_axioms, P, samples, seed)
            assert got == want
            assert "n2" not in callers and set(callers) <= {"n1", "n3", "scaling", "prob_norm"}
            if not isinstance(got, str):
                reports += 1
                assert got.n2 == CheckResult(True)
                assert [c for c in callers if c != "prob_norm"] == ["n1", "n3", "scaling"]
        assert reports >= 1

    def test_weights_of_1e308(self):
        # most samples overflow: the same report or error as the StepDF loop
        # on every seed, raised in N1 or N3 and never in N2, which draws nothing
        P = PNSpace(SeminormFamily(2, (
            Band(0.5, WeightedNorm("l1", (1e308, 1e308))), Band(1.0, WeightedNorm("l1", (1e308, 1.5e308)))
        )))
        raised_in = set()
        for seed in range(40):
            for samples in (1, 2):
                want = axioms_outcome(stepdf_validate_pn_axioms, P, samples, seed)
                try:
                    got = validate_pn_axioms(P, samples, seed)
                except ValueError as e:
                    got = repr(e)
                    raised_in |= {frame.name for frame in traceback.extract_tb(e.__traceback__)}
                assert got == want
        assert {"n1", "n3"} <= raised_in and "n2" not in raised_in

    def test_n1_witness(self, monkeypatch):
        # every vector with x_0 > 0 shrinks to at most 3e-300, whose products
        # with weights of 1e-30 underflow to 0: its row is all 0, nu_x = H_0.
        # N1's first row is exactly 0 and no witness, so the first shrunk row
        # after it is
        wrap_default_rng(monkeypatch, lambda k, X: zero_first_n1_row(k, np.where(X[..., :1] > 0, X * 1e-300, X)))
        P = PNSpace(SeminormFamily(2, (
            Band(0.5, WeightedNorm("l1", (1e-30, 1e-30))), Band(1.0, WeightedNorm("l1", (2e-30, 1e-30)))
        )))
        for seed in range(4):
            report = validate_pn_axioms(P, 10, seed)
            assert report == stepdf_validate_pn_axioms(P, 10, seed)
            assert report.n1.witness.startswith("nu_x = H_0 at x = ")
            assert report.n1.witness != "nu_x = H_0 at x = [0.0, 0.0]"
            assert report.n2.passed and report.n3.passed and report.scaling.passed

    @pytest.mark.parametrize("P", [gen_space(4, 3), crossing_space()], ids=["monotone", "crossing"])
    def test_zero_n1_row_is_no_witness(self, monkeypatch, P):
        # x = 0 gives nu_0 = H_0, which is N1 itself: an N1 block drawn all 0
        # passes in both, and every later block is drawn as before
        shapes = []

        def edit(k, X):
            shapes.append(X.shape)
            return np.zeros_like(X) if k == 0 else X

        wrap_default_rng(monkeypatch, edit)
        for seed in range(5):
            report = validate_pn_axioms(P, 10, seed)
            assert report.n1.passed and report == stepdf_validate_pn_axioms(P, 10, seed)
        assert shapes[0] == (10, P.dimension)

    @pytest.mark.parametrize(
        "P",
        [gen_space(4, 3), crossing_space(), PNSpace(SeminormFamily(1, (Band(1.0, WeightedNorm("l1", (6.1e307,))),)))],
        ids=["monotone", "crossing", "overflowing"],
    )
    def test_rng_calls_do_not_depend_on_samples(self, monkeypatch, P):
        # every block is drawn up front: three of vectors, then the general
        # scalars and their signs, whatever the samples and the verdicts
        reads = wrap_default_rng(monkeypatch)
        for samples in (1, 200):
            reads.clear()
            axioms_outcome(validate_pn_axioms, P, samples, 3)
            assert reads == ["uniform"] * 4 + ["choice"]

    def test_scaling_off_tolerance_witness(self, monkeypatch):
        # 12 * weight stays below the float max, so no exact scalar (|alpha|
        # <= 4) overflows, while at seed 42 (S)'s third sample, alpha x with
        # alpha = -4.856..., puts |alpha x| * weight just past it and
        # |alpha| * V(x) stays below: the row is inf against a finite
        # |alpha| V(x).  The weight is the least float of that window, which
        # is one ulp wide; found by this search over seeds from 0, with
        # least(pred) the least float w in (1e300, max] where pred(w):
        #   for each seed, draw the blocks at 5 samples, and for each (S) x
        #   and general alpha with |alpha x| > 12:
        #     w1 = least(|alpha x| * w == inf)
        #     w2 = least(|alpha| * (|x| * w) == inf)
        #     take w1 if w1 < w2, 12 * w1 < max, and validate_pn_axioms
        #     reports this alpha off tolerance
        # N1's first x is drawn 0, which changes no later block
        wrap_default_rng(monkeypatch, zero_first_n1_row)
        P = PNSpace(SeminormFamily(1, (Band(1.0, WeightedNorm("l1", (1.4144238206782135e307,))),)))
        report = validate_pn_axioms(P, 5, 42)
        assert report == stepdf_validate_pn_axioms(P, 5, 42)
        assert report.scaling == CheckResult(False, "(S) off tolerance at alpha = -4.856420319535026")
        assert report.n1.passed and report.n2.passed and report.n3.passed

    @settings(max_examples=150, deadline=None)
    @given(axiom_families(), st.integers(1, 8), st.integers(0, 2**16))
    def test_property(self, P, samples, seed):
        want = axioms_outcome(stepdf_validate_pn_axioms, P, samples, seed)
        assert axioms_outcome(validate_pn_axioms, P, samples, seed) == want

    @pytest.mark.parametrize(
        "weight, alpha, oracle_raises", [(3e-308, 0.25, True), (1e-308, 0.5, False)], ids=["3e-308-0.25", "1e-308-0.5"]
    )
    def test_subnormal_band_values(self, monkeypatch, weight, alpha, oracle_raises):
        # alpha x scales the band values into the subnormal range, where the
        # float norm no longer commutes with the scaling, and (S) fails on
        # every seed.  The StepDF loop either agrees or cannot even build a
        # scaled nu_x, whose two breakpoints underflow into one float.
        # Seeds 0-19 at 5 samples: (S) fails at alpha with the loop raising
        # (3e-308, 0.25) on 6 of them, and with the loop agreeing
        # (1e-308, 0.5) on 8.  N1's first x is drawn 0 throughout
        wrap_default_rng(monkeypatch, zero_first_n1_row)
        bands = (Band(0.5, WeightedNorm("l1", (weight,))), Band(1.0, WeightedNorm("l1", (math.nextafter(weight, 1),))))
        P = PNSpace(SeminormFamily(1, bands))
        shown = 0
        for seed in range(20):
            report = validate_pn_axioms(P, 5, seed)
            assert not report.scaling.passed
            assert report.n1.passed and report.n2.passed and report.n3.passed
            want = axioms_outcome(stepdf_validate_pn_axioms, P, 5, seed)
            assert want in (report, repr(ValueError("scaled breakpoints round to one float, too close for the float range")))
            shown += report.scaling.witness == f"(S) fails at alpha = {alpha}" and (want != report) == oracle_raises
        assert shown >= 1


class TestProduct:
    def test_dimensions_and_bands(self):
        P, Q = gen_space(1, 2), gen_space(2, 3)
        R = product_space(P, Q)
        assert R.dimension == 5
        merged = set(P.family.uptos) | set(Q.family.uptos)
        assert set(R.family.uptos) == merged

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_union_oracle(self, data):
        # band ends on a 1/16 lattice, so many are shared, or in runs of
        # adjacent floats; non-monotone families and products of products
        def draw_space():
            if data.draw(st.booleans()):
                ends = [k / 16.0 for k in data.draw(st.lists(st.integers(1, 15), max_size=6))]
            else:
                w = data.draw(st.floats(0.01, 0.99))
                ends = [w := math.nextafter(w, 1.0) for _ in range(data.draw(st.integers(0, 4)))]
            ends = (*sorted(set(ends)), 1.0)
            n = data.draw(st.integers(1, 3))
            weights = data.draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))
            scales = data.draw(st.lists(st.floats(1.0, 2.0), min_size=len(ends), max_size=len(ends)))
            monotone = mostly(data)
            if monotone:  # each band a multiple >= 1 of the one before
                scales = sorted(scales)
            kind = data.draw(st.sampled_from(("l1", "linf")))
            bands = tuple(Band(u, WeightedNorm(kind, [c * w for w in weights])) for u, c in zip(ends, scales))
            P = PNSpace(SeminormFamily(n, bands, enforce_monotone=False))
            if monotone and data.draw(st.booleans()):
                return product_space(P, gen_space(data.draw(st.integers(0, 99)), 1))
            return P

        def outcome(build, A, B):  # a non-monotone product raises alike
            try:
                return repr(build(A, B))
            except ValueError as e:
                return str(e)

        P, Q = draw_space(), draw_space()
        for A, B in ((P, Q), (Q, P), (P, P)):
            assert outcome(product_space, A, B) == outcome(hat_oracle.product_space, A, B)

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
        assert b.eval_many(np.array([1.0, 1.0])) == 3.0
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
        # p, q, r = 0, e1, e1 + e2: hat F_pr = (11, 11) lags
        # hat F_pq + hat F_qr = (1, 10) + (1, 10) on the first band
        points = iter(([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]))
        rng = types.SimpleNamespace(uniform=lambda lo, hi, n: np.array(next(points)))
        assert not checks._pm_axioms(crossing_space(), rng)

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


def test_norm_at_on_a_non_monotone_family_reads_the_left_limit_band():
    # band norms 2|x| on [0, 0.5) and |x| on [0.5, 1): at w = 0.75 the left
    # limit is 1.0, while the sup over w' < 0.75 is 2.0
    bands = (Band(0.5, WeightedNorm("l1", (2.0,))), Band(1.0, WeightedNorm("l1", (1.0,))))
    P = PNSpace(SeminormFamily(1, bands, enforce_monotone=False))
    assert [P.norm_at([1.0], w) for w in (0.25, 0.5, 0.75, 1.0)] == [2.0, 2.0, 1.0, 1.0]
