"""Strong-neighbourhood membership decided on one band norm, against nu_{p-q}.

neighborhood_contains decides a monotone family from band
k = bisect_right(uptos, 1 - t) and the last band, and a family that is not
monotone from its band values and kept band lengths.  Every verdict, and
every error, must be the oracle's, which builds nu_{p-q} whole and reads it
at t; neither path builds a nu.
"""

import math
import pickle
import warnings
from bisect import bisect_right
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm import pnspace
from probnorm.pnspace import Band, BlockSumNorm, NormKind, PNSpace, SeminormFamily, WeightedNorm, product_space

from neighborhood_oracle import stepdf_neighborhood_contains

# monotone: decided on one band
ONE_BAND = ("l1", "linf", "product", "unenforced")
# not monotone: decided on the band values and the kept band lengths
FALLBACK = ("non-monotone", "non-monotone-product", "last-falls")
SHAPES = ONE_BAND + FALLBACK


def _ends(rng, bands: int, lattice: bool) -> list[float]:
    """Band ends: distinct multiples of 1/128, or uniform draws."""
    if lattice:
        cuts = np.sort(rng.choice(np.arange(1, 128), bands - 1, replace=False)) / 128.0
    else:
        cuts = np.unique(rng.uniform(0.0, 1.0, bands - 1))
        cuts = cuts[cuts > 0.0]
    return [*cuts.tolist(), 1.0]


def _rows(rng, bands: int, n: int, lattice: bool, monotone: bool) -> list:
    """Per-band weights, powers of two or uniform draws: each row repeats or
    grows the one before when monotone, and is fresh otherwise."""

    def fresh():
        return 2.0 ** rng.integers(-4, 2, n) if lattice else rng.uniform(0.05, 2.0, n)

    w, rows = fresh(), []
    for _ in range(bands):
        rows.append(w)
        if not monotone:
            w = fresh()
        elif rng.random() < 0.5:
            w = w * (2.0 ** rng.integers(0, 2, n) if lattice else rng.uniform(1.0, 1.2, n))
    return rows


def space(shape: str, bands: int, n: int, lattice: bool, seed: int) -> PNSpace:
    """A space of about `bands` bands on R^n (R^2 at least for a product)."""
    rng = np.random.default_rng(seed)

    def bands_of(count, d, monotone=True):
        ends = _ends(rng, count, lattice)
        rows = _rows(rng, len(ends), d, lattice, monotone)
        return tuple(Band(u, WeightedNorm(kind, w)) for u, w in zip(ends, rows))

    kind = NormKind(shape) if shape in ("l1", "linf") else NormKind(rng.choice(["l1", "linf"]))
    if shape in ("l1", "linf"):
        return PNSpace(SeminormFamily(n, bands_of(bands, n)))
    if shape == "product":
        n = max(2, n)
        d = int(rng.integers(1, n))
        P, Q = (PNSpace(SeminormFamily(k, bands_of(bands // 2 + 1, k))) for k in (d, n - d))
        return product_space(P, Q)
    if shape == "non-monotone-product":
        # block sums of one split and kinds, fresh weights per band
        n = max(2, n)
        d = int(rng.integers(1, n))
        other = NormKind(rng.choice(["l1", "linf"]))
        ends = _ends(rng, bands, lattice)
        rows = _rows(rng, len(ends), n, lattice, monotone=False)
        family = tuple(
            Band(u, BlockSumNorm((WeightedNorm(kind, w[:d]), WeightedNorm(other, w[d:])), (d, n - d)))
            for u, w in zip(ends, rows)
        )
    elif shape == "last-falls":
        # monotone up to the last band, which has half its predecessor's weights
        family = bands_of(max(2, bands), n)
        last = WeightedNorm(kind, np.array(family[-2].norm.weights) / 2.0)
        family = (*family[:-1], Band(1.0, last))
    else:
        family = bands_of(bands, n, monotone=shape == "unenforced")
    return PNSpace(SeminormFamily(n, family, enforce_monotone=False))


def points(rng, n: int, lattice: bool):
    """p and q, on the 1/16 lattice or continuous with zero entries; q = p
    one time in eight."""

    def draw():
        if lattice:
            return rng.integers(-16, 17, n) / 16.0
        return rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.8)

    p = draw()
    return p, (p.copy() if rng.random() < 0.125 else draw())


def t_set(P: PNSpace, x, rng) -> list[float]:
    """16 uniform draws in (0, 12); 1 - u and one ulp above it for each band
    end u; each band value of x and one ulp above it; 2**-55, 1, 2 and inf."""
    ts = [2.0**-55, 1.0, 2.0, math.inf, *rng.uniform(0.0, 12.0, 16).tolist()]
    for v in (*(1.0 - u for u in P.family.uptos), *P.family.band_values(x).tolist()):
        ts += [v, math.nextafter(v, math.inf)]
    return ts


def outcome(f, *args):
    """f's result, or the repr of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return repr(e)


def assert_oracle_verdicts(P: PNSpace, seed: int, lattice: bool):
    rng = np.random.default_rng(seed)
    p, q = points(rng, P.dimension, lattice)
    ts = t_set(P, p - q, rng)
    got = [outcome(P.neighborhood_contains, p, t, q) for t in ts]
    assert got == [outcome(stepdf_neighborhood_contains, P, p, t, q) for t in ts], (P, p, q)


@st.composite
def cases(draw, shapes=SHAPES):
    """(space, seed, lattice): 1-64 bands on R^1 to R^6, lattice or continuous."""
    shape = draw(st.sampled_from(shapes))
    lattice = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return space(shape, draw(st.integers(1, 64)), draw(st.integers(1, 6)), lattice, seed), seed, lattice


class TestVerdicts:
    """Every verdict and every error is the oracle's, t at the band edges included."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
    def test_seeded(self, shape, lattice):
        for seed in range(12):
            P = space(shape, 1 + 5 * seed, 1 + seed % 6, lattice, seed)
            assert_oracle_verdicts(P, seed, lattice)

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_property(self, case):
        assert_oracle_verdicts(*case)

    @settings(max_examples=60, deadline=None)
    @given(cases(ONE_BAND))
    def test_the_two_bands_are_band_values_bits(self, case):
        # what the one-band path reduces is band k and the last band of
        # band_values, bit for bit; a block sum's whole value is the last
        # (outermost) reduction
        P, seed, lattice = case
        rng = np.random.default_rng(seed)
        p, q = points(rng, P.dimension, lattice)
        values = P.family.band_values(p - q)
        last = len(values) - 1
        seen, reduce = [], pnspace._reduce
        with mock.patch.object(pnspace, "_reduce", lambda key, wx: seen.append(reduce(key, wx)) or seen[-1]):
            for t in (t for t in t_set(P, p - q, rng) if t > 0):
                seen.clear()
                P.neighborhood_contains(p, t, q)
                k = min(bisect_right(P.family.uptos, 1.0 - t), last)
                assert [v.hex() for v in seen[-1].tolist()] == [values[k].hex(), values[last].hex()]


class Built(Exception):
    """Raised by a refused nu_x builder."""


def refuse(monkeypatch, names=("prob_norm", "pm_distance", "band_values")):
    owners = {"prob_norm": PNSpace, "pm_distance": PNSpace, "band_values": SeminormFamily}

    def refused(name):
        def f(*args, **kwargs):
            raise Built(name)

        return f

    for name in names:
        monkeypatch.setattr(owners[name], name, refused(name))


def monotone_spaces() -> list[PNSpace]:
    return [space(shape, 24, 3, lattice, seed) for seed, shape in enumerate(ONE_BAND) for lattice in (True, False)]


def verdicts(P: PNSpace, seed: int, contains=None) -> list:
    """contains(p, t, q), P.neighborhood_contains by default, at 25 t."""
    rng = np.random.default_rng(seed)
    p, q = points(rng, P.dimension, False)
    contains = contains or P.neighborhood_contains
    return [outcome(contains, p, t, q) for t in (*rng.uniform(0.0, 2.0, 24).tolist(), math.inf)]


class TestNoNuBuilt:
    """A monotone family answers with prob_norm, pm_distance and band_values
    all refused; a family that is not monotone reads band_values and answers
    with prob_norm and pm_distance refused."""

    def test_monotone_families_build_no_nu(self, monkeypatch):
        spaces = monotone_spaces()
        want = [verdicts(P, seed) for seed, P in enumerate(spaces)]
        assert any(P.family._key != NormKind.L1 for P in spaces)  # a product is among them
        refuse(monkeypatch)
        assert [verdicts(P, seed) for seed, P in enumerate(spaces)] == want

    @pytest.mark.parametrize("shape", FALLBACK)
    def test_other_families_build_no_nu(self, monkeypatch, shape):
        spaces = [space(shape, 8 + 4 * seed, 3, lattice, seed) for seed in range(4) for lattice in (True, False)]
        want = [verdicts(P, seed, partial(stepdf_neighborhood_contains, P)) for seed, P in enumerate(spaces)]
        refuse(monkeypatch, ("prob_norm", "pm_distance"))
        assert [verdicts(P, seed) for seed, P in enumerate(spaces)] == want
        refuse(monkeypatch, ("band_values",))
        with pytest.raises(Built, match="band_values"):
            spaces[0].neighborhood_contains(np.zeros(3), 0.5, np.ones(3))


class TestPickle:
    """An unpickled family, rebuilt with enforce_monotone=False, keeps its
    verdict, and with it the one-band path."""

    def test_monotone_space_keeps_the_one_band_path(self, monkeypatch):
        spaces = monotone_spaces()
        want = [verdicts(P, seed) for seed, P in enumerate(spaces)]
        back = [pickle.loads(pickle.dumps(P)) for P in spaces]
        assert [Q.family.monotone_report() for Q in back] == [(True, "monotone")] * len(spaces)
        refuse(monkeypatch)
        assert [verdicts(Q, seed) for seed, Q in enumerate(back)] == want

    def test_report_is_the_stored_verdict(self):
        for shape in SHAPES:
            S = space(shape, 8, 3, True, 1).family
            back = pickle.loads(pickle.dumps(S))
            assert S.monotone_report() is S.monotone_report()
            assert back.monotone_report() == S.monotone_report()
        with pytest.raises(ValueError, match="band 1 does not dominate band 0"):
            SeminormFamily(2, (Band(0.5, WeightedNorm(NormKind.L1, (2.0, 2.0))), Band(1.0, ONE)))


def both(P: PNSpace, p, t, q) -> tuple:
    """The outcome of neighborhood_contains and of the oracle."""
    return outcome(P.neighborhood_contains, p, t, q), outcome(stepdf_neighborhood_contains, P, p, t, q)


HUGE = WeightedNorm(NormKind.L1, (1e308, 1e308))
ONE = WeightedNorm(NormKind.L1, (1.0, 1.0))
EDGE_SPACES = [
    PNSpace(SeminormFamily(2, (Band(1.0, HUGE),))),
    PNSpace(SeminormFamily(2, (Band(0.5, ONE), Band(1.0, HUGE)))),  # only the last band overflows
    space("product", 6, 2, True, 5),
    space("non-monotone", 6, 2, True, 5),
]


class TestEdges:
    """The errors and edge verdicts are the oracle's."""

    @pytest.mark.parametrize("P", EDGE_SPACES[:2], ids=["one-band", "last-band"])
    @pytest.mark.parametrize("t", [2.0, 0.5, 2.0**-60])
    def test_overflow_raises_whatever_t_is(self, P, t):
        got, want = both(P, [3.0, 3.0], t, [0.0, 0.0])
        assert got == want and "band norm of x is inf: the weighted sum overflows" in got

    @pytest.mark.parametrize("P", EDGE_SPACES, ids=["one-band", "last-band", "product", "non-monotone"])
    def test_edge_rows(self, P):
        p = [1e-300, 2e-300]  # no band overflows
        for t in (0.0, -1.0, math.nan):
            got, want = both(P, p, t, [0.0, 0.0])
            assert got == want and "t must be > 0" in got
        assert both(P, p, math.inf, [0.0, 0.0]) == (True, True)
        for p, q in (([1.0, 2.0, 3.0], [0.0, 0.0]), ([1.0, 2.0], [0.0]), ([[1.0, 2.0]], [0.0, 0.0]),
                     ([math.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, -math.inf])):
            got, want = both(P, p, 0.5, q)
            assert got == want and got.startswith("ValueError"), (p, q)

    @pytest.mark.parametrize("P", EDGE_SPACES, ids=["one-band", "last-band", "product", "non-monotone"])
    def test_difference_past_the_float_range(self, P):
        # p - q overflows: neighborhood_contains (either path), pm_distance,
        # in_ball and the oracle raise _check_vector's error, with no numpy warning
        p, q = [1e308, 0.0], [-1e308, 0.0]
        calls = (
            P.neighborhood_contains,
            lambda p, t, q: stepdf_neighborhood_contains(P, p, t, q),
            lambda p, t, q: P.pm_distance(p, q),
            lambda p, t, q: P.in_ball(q, t, t, p),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="vector entries must be finite"):
                    call(p, 0.5, q)
