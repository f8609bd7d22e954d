"""nu_x on families that are not monotone, from the band lengths kept at
construction, against the per-call as_integer_ratio oracle.

prob_norm, pm_distance, neighborhood_contains and validate_pn_axioms's N3
StepDF fallback must give the oracle's results bit for bit (compared by
repr, so a -0.0 or a last-digit difference shows), errors included, on
lengths kept as int64 (band ends on a grid, D <= 2^53) and as Python ints
(ends such as 0.001, 2^-60 or a subnormal), where two cumulative measures
round to one float, and on a family rebuilt by pickle.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm.pnspace import Band, BlockSumNorm, PNSpace, SeminormFamily, WeightedNorm, validate_pn_axioms

from nu_oracle import ratio_neighborhood_contains, ratio_pm_distance, ratio_prob_norm

GRID_ENDS = [k / 4096 for k in (3, 64, 100, 1000, 2047, 2048, 3001, 4095)] + [1.0]
FINE_ENDS = [2.0**-60, 0.001, 0.1, 0.3, 0.5, 1.0 - 2.0**-53, 1.0]
SUBNORMAL_ENDS = [5e-324, 1e-300, 0.25, 0.75, 1.0]
ENDS = {"grid": GRID_ENDS, "fine": FINE_ENDS, "subnormal": SUBNORMAL_ENDS}
DTYPE = {"grid": np.int64, "fine": object, "subnormal": object}


def outcome(f, *args):
    """repr of f's result, or of the ValueError it raises."""
    try:
        return repr(f(*args))
    except ValueError as e:
        return repr(e)


def family(ends, rows, kind="l1", split=None) -> PNSpace:
    """Fresh weights per band, so rows may rise, tie or fall; block sums of
    an L1 and an Linf part when split is given."""
    n = len(rows[0])

    def norm(w):
        if split is None:
            return WeightedNorm(kind, w)
        parts = (WeightedNorm("l1", w[:split]), WeightedNorm("linf", w[split:]))
        return BlockSumNorm(parts, (split, n - split))

    bands = tuple(Band(u, norm(list(w))) for u, w in zip(ends, rows))
    return PNSpace(SeminormFamily(n, bands, enforce_monotone=False))


def random_space(rng, ends, n: int, shape: str) -> PNSpace:
    rows = rng.uniform(0.05, 2.0, (len(ends), n)) * 2.0 ** rng.integers(-3, 3, (len(ends), n))
    if shape == "lattice":  # powers of two: many band values tie
        rows = 2.0 ** rng.integers(-2, 2, (len(ends), n))
    if shape == "product":
        return family(ends, rows, split=max(1, n // 2))
    return family(ends, rows, kind=rng.choice(["l1", "linf"]))


def vectors(rng, n: int) -> list:
    """A continuous draw, a lattice draw, a zero and an overflowing one."""
    return [
        rng.uniform(-3.0, 3.0, n),
        rng.integers(-4, 5, n) / 4.0,
        np.zeros(n),
        np.full(n, 1e308),
    ]


def t_set(P: PNSpace, x) -> list[float]:
    """Each band value of x and one ulp on either side, 1 - u for each band
    end u, and 2**-55, 0.5, 1, 2, inf, 0 and nan."""
    ts = [2.0**-55, 0.5, 1.0, 2.0, math.inf, 0.0, math.nan]
    for v in (*P.family.band_values(x).tolist(), *(1.0 - u for u in P.family.uptos)):
        ts += [v, math.nextafter(v, math.inf), math.nextafter(v, 0.0)]
    return ts


def assert_oracle_alike(P: PNSpace, p, q):
    assert outcome(P.prob_norm, p) == outcome(ratio_prob_norm, P, p)
    assert outcome(P.pm_distance, p, q) == outcome(ratio_pm_distance, P, p, q)
    for t in t_set(P, p - q):
        got = outcome(P.neighborhood_contains, p, t, q)
        assert got == outcome(ratio_neighborhood_contains, P, p, t, q), t


class TestKeptLengths:
    @pytest.mark.parametrize("ends", ENDS)
    @pytest.mark.parametrize("shape", ["continuous", "lattice", "product"])
    def test_seeded(self, ends, shape):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            P = random_space(rng, ENDS[ends], int(rng.integers(2, 6)), shape)
            assert P.family._lengths[0].dtype == DTYPE[ends]
            xs = vectors(rng, P.dimension)
            for p in xs:
                for q in xs:
                    assert_oracle_alike(P, p, q)

    def test_monotone_families_keep_none(self):
        rows = [[1.0, 2.0], [1.0, 2.0], [3.0, 2.0]]
        P = PNSpace(SeminormFamily(2, tuple(Band(u, WeightedNorm("l1", w)) for u, w in zip((0.25, 0.5, 1.0), rows))))
        assert P.family._lengths is None
        assert family([0.5, 1.0], [[2.0], [1.0]]).family._lengths is not None

    def test_measures_that_round_to_one_float(self):
        # sorted by value the bands are [2^-60, 0.5), [0, 2^-60), [0.5, 1):
        # the first two measures, 0.5 - 2^-60 and 0.5, both round to 0.5, so
        # the middle value carries no jump and is dropped
        P = family([2.0**-60, 0.5, 1.0], [[2.0], [1.0], [3.0]])
        nu = P.prob_norm([1.0])
        assert (nu.breakpoints, nu.values) == ((1.0, 3.0), (0.0, 0.5, 1.0))
        assert repr(nu) == repr(ratio_prob_norm(P, [1.0]))
        for t in (1.0, math.nextafter(1.0, 2.0), 2.0, math.nextafter(2.0, 3.0), 3.0, 3.5):
            assert P.neighborhood_contains([1.0], t, [0.0]) == ratio_neighborhood_contains(P, [1.0], t, [0.0])

    def test_pickled_family_rebuilds_its_lengths(self):
        rng = np.random.default_rng(5)
        for ends in ENDS.values():
            P = random_space(rng, ends, 3, "continuous")
            back = pickle.loads(pickle.dumps(P))
            lengths, D = back.family._lengths
            assert lengths.dtype == P.family._lengths[0].dtype and D == P.family._lengths[1]
            assert lengths.tolist() == P.family._lengths[0].tolist()
            xs = vectors(rng, 3)
            for p in xs:
                assert_oracle_alike(back, p, xs[0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from([2.0**-60, 0.001, 5e-324, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0), max_size=8),
        st.integers(1, 4),
        st.sampled_from(["continuous", "lattice", "product"]),
        st.integers(0, 2**32 - 1),
    )
    def test_property(self, cuts, n, shape, seed):
        ends = [*sorted({c for c in cuts if 0.0 < c < 1.0}), 1.0]
        rng = np.random.default_rng(seed)
        P = random_space(rng, ends, max(n, 2) if shape == "product" else n, shape)
        p, q = vectors(rng, P.dimension)[:2]
        assert_oracle_alike(P, p, q)


class TestN3Fallback:
    """validate_pn_axioms decides N3 on prob_norm's StepDFs where a row is
    not nondecreasing; its report is the one it gives with the oracle's."""

    @pytest.mark.parametrize("ends", ENDS)
    def test_reports_match_the_oracles(self, monkeypatch, ends):
        spaces = [random_space(np.random.default_rng(seed), ENDS[ends], 3, shape)
                  for seed, shape in enumerate(("continuous", "lattice", "product") * 2)]
        spaces.append(pickle.loads(pickle.dumps(spaces[0])))
        reports = [validate_pn_axioms(P, 12, seed) for seed, P in enumerate(spaces)]
        calls = []

        def oracle(P, x):
            calls.append(1)
            return ratio_prob_norm(P, x)

        monkeypatch.setattr(PNSpace, "prob_norm", oracle)
        assert [validate_pn_axioms(P, 12, seed) for seed, P in enumerate(spaces)] == reports
        assert calls  # the fallback ran

    def test_dedupe_family(self, monkeypatch):
        P = family([2.0**-60, 0.5, 1.0], [[2.0, 1.0], [1.0, 3.0], [3.0, 0.5]])
        want = validate_pn_axioms(P, 20, 3)
        monkeypatch.setattr(PNSpace, "prob_norm", ratio_prob_norm)
        assert validate_pn_axioms(P, 20, 3) == want


def test_lengths_kind_follows_the_denominator():
    # D = 2^53 still fits int64 exactly; one more bit does not
    assert family([2.0**-53, 1.0], [[2.0], [1.0]]).family._lengths[0].dtype == np.int64
    assert family([2.0**-54, 1.0], [[2.0], [1.0]]).family._lengths[0].dtype == object
