"""Operator norms: exact vertex enumeration, MC lower bounds, open mapping."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from probnorm import checks, operators, pnspace
from probnorm.operators import (
    BoundCheckReport,
    LinearOperator,
    bound_check,
    compose,
    functional_norm,
    graph_norm,
    norm_equivalence_constants,
    norm_profile,
    open_mapping_check,
    open_mapping_delta,
    operator_norm_exact,
    operator_norm_mc,
    uniform_bound,
)
from probnorm.pnspace import (
    Band,
    NormKind,
    PNSpace,
    SeminormFamily,
    WeightedNorm,
    product_space,
    single_band_space,
)
from probnorm.testkit import gen_operator, gen_space, gen_vector, oracle_operator_norm

import exact
from band_values import band_values
from vertex_oracle import oracle_norm, unit_ball_vertices


def space_l1(weights):
    return single_band_space(WeightedNorm(NormKind.L1, tuple(weights)))


def space_linf(weights):
    return single_band_space(WeightedNorm(NormKind.LINF, tuple(weights)))


TWO_BAND_DOMAIN = PNSpace(
    SeminormFamily(
        2,
        (
            Band(0.5, WeightedNorm(NormKind.L1, (1.0, 2.0))),
            Band(1.0, WeightedNorm(NormKind.L1, (2.0, 4.0))),
        ),
    )
)

SCALAR = single_band_space(WeightedNorm(NormKind.L1, (1.0,)))


class TestLinearOperator:
    def test_apply(self):
        T = LinearOperator(np.array([[2.0, 0.0], [0.0, 3.0]]), space_l1([1, 1]), space_l1([1, 1]))
        assert np.array_equal(T.apply([1.0, 1.0]), [2.0, 3.0])
        with pytest.raises(ValueError):
            T.apply([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_apply_rejects_non_finite_vectors(self, bad):
        T = LinearOperator(np.eye(2), space_l1([1, 1]), space_l1([1, 1]))
        with pytest.raises(ValueError, match="finite"):
            T.apply([1.0, bad])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearOperator(np.ones((2, 3)), space_l1([1, 1]), space_l1([1, 1]))
        with pytest.raises(ValueError):
            LinearOperator(np.ones(2), space_l1([1, 1]), space_l1([1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearOperator(np.array([[1.0, bad], [0.0, 1.0]]), space_l1([1, 1]), space_l1([1, 1]))

    def test_compose(self):
        A = space_l1([1, 1])
        S = LinearOperator(np.array([[1.0, 1.0]]), A, SCALAR)
        T = LinearOperator(2.0 * np.eye(2), A, A)
        assert np.array_equal(compose(S, T).matrix, [[2.0, 2.0]])
        with pytest.raises(ValueError):
            compose(T, S)

    def test_overflowing_products_name_the_product(self):
        # finite factors whose product passes the float range: a ValueError
        # that says so, with no numpy warning (the suite makes one an error),
        # not a complaint about the caller's finite vector or matrix
        A = space_l1([1, 1])
        T = LinearOperator(np.array([[1e308, 1e308], [1.0, 0.0]]), A, A)
        with pytest.raises(ValueError, match="the image T x overflows the float range"):
            graph_norm(T, [1.0, 1.0], 0.5, 0.5)
        with pytest.raises(ValueError, match="the image T x overflows the float range"):
            T.apply([2.0, -2.0])  # inf - inf: nan
        with pytest.raises(ValueError, match="the product S T overflows the float range"):
            compose(T, T)


class TestExactNorm:
    def test_identity_is_one(self):
        for w in (0.3, 0.9):
            P = space_l1([1.0, 2.0])
            T = LinearOperator(np.eye(2), P, P)
            assert operator_norm_exact(T, w, w) == 1.0

    def test_diag_example(self):
        T = LinearOperator(np.diag([2.0, 3.0]), space_l1([1, 1]), space_l1([1, 1]))
        assert operator_norm_exact(T, 0.5, 0.5) == 3.0
        Ti = LinearOperator(np.diag([2.0, 3.0]), space_linf([1, 1]), space_linf([1, 1]))
        assert operator_norm_exact(Ti, 0.5, 0.5) == 3.0

    def test_band_selection_left_limit(self):
        T = LinearOperator(np.eye(2), TWO_BAND_DOMAIN, space_l1([1.0, 1.0]))
        # band 0 weights (1,2): best column 1/1; band 1 weights (2,4): 1/2
        assert operator_norm_exact(T, 0.5, 0.5) == 1.0
        assert operator_norm_exact(T, 0.7, 0.5) == 0.5

    def test_l1_domain_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            dw = rng.uniform(0.5, 2.0, n)
            dom = space_l1(dw)
            kind = NormKind.L1 if rng.random() < 0.5 else NormKind.LINF
            cod_norm = WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, m)))
            T = LinearOperator(rng.uniform(-2, 2, (m, n)), dom, single_band_space(cod_norm))
            assert operator_norm_exact(T, 0.5, 0.5) == pytest.approx(
                oracle_operator_norm(T.matrix, dom.family.bands[0].norm, cod_norm), rel=1e-12
            )

    def test_linf_domain_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            dw = rng.uniform(0.5, 2.0, n)
            dom = space_linf(dw)
            kind = NormKind.L1 if rng.random() < 0.5 else NormKind.LINF
            cod_norm = WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, m)))
            T = LinearOperator(rng.uniform(-2, 2, (m, n)), dom, single_band_space(cod_norm))
            assert operator_norm_exact(T, 0.5, 0.5) == pytest.approx(
                oracle_operator_norm(T.matrix, dom.family.bands[0].norm, cod_norm), rel=1e-12
            )

    def test_linf_dimension_cap(self):
        P = space_linf([1.0] * 21)
        T = LinearOperator(np.eye(21), P, P)
        with pytest.raises(ValueError):
            operator_norm_exact(T, 0.5, 0.5)

    def test_exact_paths_need_a_weighted_domain_band(self):
        # a product space's bands are block sums, which have no vertex list
        P = product_space(space_l1([1.0]), space_linf([2.0]))
        T = LinearOperator(np.eye(2), P, space_l1([1.0, 1.0]))
        f = LinearOperator(np.ones((1, 2)), P, SCALAR)
        calls = (
            lambda: operator_norm_exact(T, 0.5, 0.5),
            lambda: norm_profile(T),
            lambda: uniform_bound([T], 0.5),
            lambda: functional_norm(f, 0.5),
        )
        for call in calls:
            with pytest.raises(ValueError, match="weighted L1/Linf domain band"):
                call()
        assert 0.0 < operator_norm_mc(T, 0.5, 0.5, samples=60, seed=0)

    def test_submultiplicative(self):
        rng = np.random.default_rng(2)
        for seed in range(25):
            A, B, C = gen_space(seed, 2), gen_space(seed + 50, 2), gen_space(seed + 100, 2)
            T = gen_operator(seed, A, B)
            S = gen_operator(seed + 1, B, C)
            for w in (0.3, 0.8):
                lhs = operator_norm_exact(compose(S, T), w, w)
                rhs = operator_norm_exact(S, w, w) * operator_norm_exact(T, w, w)
                assert lhs <= rhs + 1e-9

    def test_check_submultiplicative_reads_the_profiles(self, monkeypatch):
        # the check property compares three norm_profile tables, so it needs
        # no single (w, w') norm
        def refuse(*args):
            raise AssertionError("operator_norm_exact called")

        monkeypatch.setattr(operators, "operator_norm_exact", refuse)
        for seed in range(5):
            T = gen_operator(seed, gen_space(seed, 3), gen_space(seed + 50, 2))
            assert checks._submultiplicative(T, norm_profile(T).table, seed) is True

    def test_profile_corner_is_the_exact_norm(self):
        # the check's mc-below-exact row reads table[0, -1] for the exact norm at
        # the first domain midpoint and the last codomain midpoint
        for seed in range(40):
            dom = gen_space(seed, 1 + seed % 4)
            cod = gen_space(seed + 500, 1 + seed // 4 % 4)
            T = gen_operator(seed, dom, cod)
            w, wp = dom.family.midpoints()[0], cod.family.midpoints()[-1]
            want = operator_norm_exact(T, w, wp)
            assert float(norm_profile(T).table[0, -1]).hex() == want.hex()

    def test_operator_suite_profiles_each_operator_once(self, monkeypatch):
        # 25 operators, each profiled once and shared by profile-finite-monotone
        # and submultiplicative, plus ST and S in submultiplicative: 75 profiles;
        # every exact norm enumerates a domain band's vertices once, and
        # uniform-bound-dominates checks its members with the weights-only oracle
        counts = {"profile": 0, "vertices": 0}
        profile, vertices = operators.norm_profile, operators._vertex_blocks

        def counted_profile(T):
            counts["profile"] += 1
            return profile(T)

        def counted_vertices(norm):
            counts["vertices"] += 1
            return vertices(norm)

        monkeypatch.setattr(operators, "norm_profile", counted_profile)
        monkeypatch.setattr(operators, "_vertex_blocks", counted_vertices)
        rows = checks.run_suites("operator", 42, 25)
        assert all(r.passed for r in rows)
        assert counts["profile"] == 75
        assert counts["vertices"] <= 289

    def test_an_overflowing_exact_norm_is_an_error(self):
        # ||T||_(w,w') is 1.5 * 1.5e308: an inf entry in the vertex table, and
        # a ValueError with no numpy warning wherever the table is read
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        T = LinearOperator(M, space_l1([1.0, 1.0]), space_l1([1.5e308, 1.5e308]))
        # T^{-1} from a weight-1 domain to 1.5e308 weights: open_mapping_delta's norm
        mirror = LinearOperator(M, space_l1([1.5e308, 1.5e308]), space_l1([1.0, 1.0]))
        # signed vertices of 1e308 entries: some images hold inf - inf
        wide = LinearOperator(np.array([[2.0, -2.0, 1.0]]), space_linf([1e-308] * 3), SCALAR)
        # a one-row product meets inf - inf: numpy's matrix-vector path reports
        # it as an invalid value, which is the overflow error too
        one_row = LinearOperator(np.full((1, 8), 1e308), space_linf([0.5] * 8), SCALAR)
        calls = (
            lambda: operator_norm_exact(T, 0.5, 0.5),
            lambda: norm_profile(T),
            lambda: bound_check(T, 0.5, 0.5, trials=10, seed=0),
            lambda: uniform_bound([T], 0.5),
            lambda: open_mapping_delta(mirror, 0.5),
            lambda: functional_norm(wide, 0.5),
            lambda: functional_norm(one_row, 0.5),
        )
        for call in calls:
            with pytest.raises(ValueError, match="operator norm overflows the float range"):
                call()
        # T's own inverse has a finite norm, about 1e-308
        assert open_mapping_delta(T, 0.5).delta == 9.999999999999996e307


def banded(kind, seed, n, nbands, octaves=0):
    """A monotone family of nbands weighted norms of one kind on R^n, each
    first-band weight scaled by 2^k with |k| <= octaves."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, n)
    if octaves:
        weights = weights * 2.0 ** rng.integers(-octaves, octaves + 1, n)
    bands = []
    for k in range(nbands):
        bands.append(Band((k + 1) / nbands, WeightedNorm(kind, tuple(weights))))
        weights = weights * rng.uniform(1.0, 1.5, n)
    return PNSpace(SeminormFamily(n, tuple(bands)))


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@dataclasses.dataclass
class Want:
    """What a kernel table entry must be, a sup of exact norms over matrices.

    Where the rule takes the primal side, bits is oracle_norm's value (their
    max), bit for bit, and inf or nan there is the overflow error.  Where it
    takes the dual side, the entry is within bound of exact, the overflow
    error must be raised when exact - bound is past the float max, and must
    not be when finite says every error margin and intermediate sum of
    |terms| stays below it.
    """

    bits: float | None
    exact: Fraction | None = None
    bound: Fraction | None = None
    must_raise: bool = False
    finite: bool = True


FLOAT_MAX = Fraction(np.finfo(float).max)
OVERFLOW = "operator norm overflows the float range"


def want(matrices, dom_norm, cod_norm) -> Want:
    """The Want of one table entry, the sup over matrices of ||M||_(dom_norm, cod_norm)."""
    if not exact.dual_side(dom_norm, cod_norm):
        return Want(float(np.max([oracle_norm(M, dom_norm, cod_norm) for M in matrices])))
    problems = [exact.Problem(M, dom_norm, cod_norm) for M in matrices]
    gamma = exact.gamma(exact.roundings(True, dom_norm.dimension, cod_norm.dimension))
    value = max(p.dual_sup() for p in problems)
    bound = gamma * max(p.abs_scale() for p in problems)
    finite = all((1 + gamma) * max(p.abs_scale(), p.row_scale()) <= FLOAT_MAX for p in problems)
    return Want(None, value, bound, value - bound > FLOAT_MAX, finite)


def holds(call, wants) -> int:
    """call() meets wants, one per entry of its result (all on one side);
    1 if it raised the overflow error, else 0."""
    if wants[0].bits is not None:
        expected = [w.bits for w in wants]
        if np.isfinite(expected).all():
            assert bits(call()) == bits(expected)
            return 0
        with pytest.raises(ValueError, match=OVERFLOW):
            call()
        return 1
    if any(w.must_raise for w in wants):
        with pytest.raises(ValueError, match=OVERFLOW):
            call()
        return 1
    try:
        got = np.ravel(call())
    except ValueError as err:
        assert str(err) == OVERFLOW and not all(w.finite for w in wants)
        return 1
    assert len(got) == len(wants)
    assert all(abs(Fraction(float(v)) - w.exact) <= w.bound for v, w in zip(got, wants))
    return 0


class TestKernelAgainstPerPairFormula:
    """Every exact quantity equals the per-pair formula over the full vertex
    list bit for bit where the rule takes the primal side, and is within
    _norm_table's error bound of the exact norm where it takes the dual."""

    @staticmethod
    def cases(dom_kind, cod_kind):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            dom = banded(dom_kind, seed, n, 1 + seed % 4)
            if cod_kind == "product":
                cod = product_space(
                    banded(NormKind.L1, seed + 100, m, 2), banded(NormKind.LINF, seed + 200, 2, 3)
                )
            else:
                cod = banded(NormKind(cod_kind), seed + 100, m, 1 + seed % 3)
            yield seed, dom, cod

    @pytest.mark.parametrize("dom_kind", [NormKind.L1, NormKind.LINF])
    @pytest.mark.parametrize("cod_kind", ["l1", "linf", "product"])
    def test_profile_and_single_norms(self, dom_kind, cod_kind):
        for seed, dom, cod in self.cases(dom_kind, cod_kind):
            T = gen_operator(seed, dom, cod)
            wants = [[want([T.matrix], db.norm, cb.norm) for cb in cod.family.bands] for db in dom.family.bands]
            holds(lambda: norm_profile(T).table, [w for row in wants for w in row])
            table = norm_profile(T).table
            for i, w in enumerate(dom.family.midpoints()):
                for j, wp in enumerate(cod.family.midpoints()):
                    value = operator_norm_exact(T, w, wp)
                    assert type(value) is float and bits(value) == bits(table[i, j])
                    holds(lambda: value, [wants[i][j]])

    @pytest.mark.parametrize("dom_kind", [NormKind.L1, NormKind.LINF])
    def test_functional_norm(self, dom_kind):
        for seed, dom, _ in self.cases(dom_kind, "l1"):
            f = gen_operator(seed, dom, SCALAR)
            for band, w in zip(dom.family.bands, dom.family.midpoints()):
                value = functional_norm(f, w)
                assert type(value) is float
                holds(lambda: value, [want([f.matrix], band.norm, SCALAR.family.bands[0].norm)])

    @pytest.mark.parametrize("dom_kind", [NormKind.L1, NormKind.LINF])
    @pytest.mark.parametrize("cod_kind", ["l1", "linf", "product"])
    def test_uniform_bound(self, dom_kind, cod_kind):
        for seed, dom, cod in self.cases(dom_kind, cod_kind):
            family = [gen_operator(seed + 10 * k, dom, cod) for k in range(3)]
            matrices = [T.matrix for T in family]
            for cb, wp in zip(cod.family.bands, cod.family.midpoints()):
                res = uniform_bound(family, wp)
                holds(lambda: res.band_sups, [want(matrices, db.norm, cb.norm) for db in dom.family.bands])
                best = res.band_sups.index(min(res.band_sups))
                assert all(type(v) is float for v in res.band_sups)
                assert bits(res.bound) == bits(res.band_sups[best])
                assert res.w == dom.family.midpoints()[best]


# decimal exponents of the matrix scale, up to the edge of the float range
MATRIX_EXPONENTS = (-300, -200, -100, 0, 100, 200, 290, 296, 300, 305)


class TestKernelAgainstFullEnumeration:
    """Every exact quantity is the full 2^n sign enumeration's bit for bit,
    or the overflow error where that is not finite, where the rule takes
    the primal side, and within the error bound of the exact norm, or the
    overflow error as Want says, where it takes the dual: Linf domains up
    to n = 14 with weights scaled by up to 2^+-40, matrices scaled by up
    to 10^+-305, and L1, Linf, block-sum and non-monotone codomains."""

    @staticmethod
    def codomain(kind, seed, m):
        if kind == "product":
            return product_space(banded(NormKind.L1, seed, m, 2), banded(NormKind.LINF, seed + 1, 2, 3))
        if kind == "non-monotone":
            # the bands of a monotone family, reversed
            bands = banded(NormKind.L1, seed, m, 3, octaves=40).family.bands
            reversed_bands = tuple(Band(b.upto, r.norm) for b, r in zip(bands, bands[::-1]))
            return PNSpace(SeminormFamily(m, reversed_bands, enforce_monotone=False))
        return banded(NormKind(kind), seed, m, 1 + seed % 2, octaves=40)

    @pytest.mark.parametrize("cod_kind", ["l1", "linf", "product", "non-monotone"])
    def test_exact_paths(self, cod_kind):
        overflows = 0
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(1, 15)), int(rng.integers(1, 9))
            scale = 10.0 ** int(rng.choice(MATRIX_EXPONENTS))
            dom = banded(NormKind.LINF, seed, n, 1 + seed % 2, octaves=40)
            cod = self.codomain(cod_kind, seed + 100, m)
            family = [
                LinearOperator(gen_operator(seed + k, dom, cod).matrix * scale, dom, cod)
                for k in range(2)
            ]
            T = family[0]
            wants = [
                [[want([M.matrix], db.norm, cb.norm) for cb in cod.family.bands] for db in dom.family.bands]
                for M in family
            ]
            overflows += holds(lambda: norm_profile(T).table, [w for row in wants[0] for w in row])
            for i, w in enumerate(dom.family.midpoints()):
                for j, wp in enumerate(cod.family.midpoints()):
                    holds(lambda: operator_norm_exact(T, w, wp), [wants[0][i][j]])
            for cb, wp in zip(cod.family.bands, cod.family.midpoints()):
                sups = [want([M.matrix for M in family], db.norm, cb.norm) for db in dom.family.bands]
                holds(lambda: uniform_bound(family, wp).band_sups, sups)
            f = LinearOperator(T.matrix[:1], dom, SCALAR)
            for band, w in zip(dom.family.bands, dom.family.midpoints()):
                holds(lambda: functional_norm(f, w), [want([f.matrix], band.norm, SCALAR.family.bands[0].norm)])
        # both outcomes are exercised
        assert 0 < overflows < 24

    def test_one_case_past_one_block(self):
        # n = 18: 2^17 half-set rows in two blocks on the primal side (into
        # L1(18), where D n = 2^17 * 18 is not below 2^17 * 18), and the
        # dual side's few pairs into Linf(3) and a block sum
        dom = banded(NormKind.LINF, 18, 18, 1, octaves=40)
        dom_norm = dom.family.bands[0].norm
        V = unit_ball_vertices(dom_norm)
        for kind, m in (("l1", 18), ("linf", 3), ("product", 3)):
            cod = self.codomain(kind, 18, m)
            cod_norm = cod.family.bands[0].norm
            T = gen_operator(18, dom, cod)
            value = operator_norm_exact(T, 0.5, 0.25)
            if exact.dual_side(dom_norm, cod_norm):
                assert abs(Fraction(value) - exact.exact_norm(T.matrix, dom_norm, cod_norm)) <= exact.error_bound(
                    T.matrix, dom_norm, cod_norm
                )
                continue
            assert kind == "l1"
            with np.errstate(over="ignore"):
                images = (cod_norm.eval_many(V[a : a + 2**16] @ T.matrix.T) for a in range(0, len(V), 2**16))
                want_value = max(block.max() for block in images)
            assert np.isfinite(want_value)
            assert bits(value) == bits(want_value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_past_the_first_block(self):
        # n = 18: coordinate 1 is + in the first block and - in the second, so
        # (1e308, -1e308) images to 0 there and to inf here
        P = space_linf([1.0] * 18)
        row = np.zeros(18)
        row[:2] = (1e308, -1e308)
        T = LinearOperator(np.array([row, np.zeros(18)]), P, space_l1([1.0, 1.0]))
        f = LinearOperator(row[None, :], P, SCALAR)
        assert next(operators._vertex_blocks(P.family.bands[0].norm))[:, 1].min() > 0.0
        calls = (
            lambda: operator_norm_exact(T, 0.5, 0.5),
            lambda: norm_profile(T),
            lambda: uniform_bound([T], 0.5),
            lambda: functional_norm(f, 0.5),
        )
        for call in calls:
            with pytest.raises(ValueError, match=OVERFLOW):
                call()
        # an image holding nan is an overflow too: numpy's one-row product
        # sums terms 1e308 * +-2 past the float range both ways, inf - inf
        P = space_linf([0.5] * 4)
        M = np.full((1, 4), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            images = next(operators._vertex_blocks(P.family.bands[0].norm)) @ M.T
        assert np.isnan(images).any()
        with pytest.raises(ValueError, match=OVERFLOW):
            operator_norm_exact(LinearOperator(M, P, SCALAR), 0.5, 0.5)

    @pytest.mark.parametrize(
        "cod", [space_l1([1.0, 2.0, 3.0]), space_linf(np.linspace(1.0, 3.0, 8))], ids=["l1-m3", "linf-m8"]
    )
    def test_memory_is_one_block(self, cod):
        # n = 20: the full enumeration held 2^20 x 20 floats (168 MB) at once;
        # an Linf codomain adds one transposed copy of a block's images
        P = space_linf(np.linspace(0.5, 2.0, 20))
        T = gen_operator(20, P, cod)
        tracemalloc.start()
        try:
            value = operator_norm_exact(T, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < 32 * 2**20


class TestMonteCarlo:
    def test_never_exceeds_exact(self):
        for seed in range(60):
            dom, cod = gen_space(seed, 3), gen_space(seed + 500, 2)
            T = gen_operator(seed, dom, cod)
            for w, wp in ((0.3, 0.6), (0.9, 0.2)):
                exact = operator_norm_exact(T, w, wp)
                mc = operator_norm_mc(T, w, wp, samples=800, seed=seed)
                assert mc <= exact

    def test_converges_near_exact(self):
        for seed in range(15):
            dom, cod = gen_space(seed, 2), gen_space(seed + 500, 2)
            T = gen_operator(seed, dom, cod)
            exact = operator_norm_exact(T, 0.4, 0.4)
            mc = operator_norm_mc(T, 0.4, 0.4, samples=4000, seed=seed)
            assert mc >= 0.98 * exact

    def test_deterministic_per_seed(self):
        T = gen_operator(7, gen_space(7, 3), gen_space(507, 3))
        a = operator_norm_mc(T, 0.5, 0.5, samples=1000, seed=42)
        b = operator_norm_mc(T, 0.5, 0.5, samples=1000, seed=42)
        c = operator_norm_mc(T, 0.5, 0.5, samples=1000, seed=43)
        assert a == b
        assert a != c

    def test_identity_flat_ratio(self):
        P = space_l1([1.0, 2.0, 0.7])
        T = LinearOperator(np.eye(3), P, P)
        mc = operator_norm_mc(T, 0.5, 0.5, samples=500, seed=0)
        assert mc <= 1.0
        assert mc >= 1.0 - 1e-9

    def test_overflowing_domain_norms_are_skipped(self):
        # some samples' weighted norms overflow to inf; their ratios would be nan
        P = space_l1([1e308, 1e308])
        T = LinearOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), P, P)
        mc = operator_norm_mc(T, 0.5, 0.5, samples=2000, seed=0)
        assert math.isfinite(mc) and 1.49 < mc <= operator_norm_exact(T, 0.5, 0.5)

    def test_overflowing_images_are_measured_on_the_unit_sphere(self):
        # a sample with |x_1 + ... + x_4| > 3 has ||Tx|| = inf; measured on
        # x / ||x||_1 its ratio is finite and stays below the exact 6e307
        T = LinearOperator(np.full((2, 4), 3e307), space_l1([1.0] * 4), space_l1([1.0] * 2))
        exact = operator_norm_exact(T, 0.5, 0.5)
        assert exact == 6e307
        assert 5.99e307 < operator_norm_mc(T, 0.5, 0.5, samples=2000, seed=0) <= exact

    @pytest.mark.parametrize("rows", [2, 1])
    def test_a_bound_beyond_the_float_range_is_an_error(self, rows):
        # ||T|| = 1.6e309 * rows: the images overflow even on the unit sphere,
        # to inf, or for one row to nan from inf - inf in numpy's product
        T = LinearOperator(np.full((rows, 8), 1e308), space_linf([0.5] * 8), space_l1([1.0] * rows))
        for call in (operator_norm_exact, lambda *a: operator_norm_mc(*a, samples=2000, seed=0)):
            with pytest.raises(ValueError, match="operator norm overflows the float range"):
                call(T, 0.5, 0.5)


    @pytest.mark.parametrize("stratum", [0, 1, 2])
    def test_a_nan_from_any_stratum_is_an_error(self, monkeypatch, stratum):
        # the max over the strata keeps a nan wherever it comes from
        values = iter([1.0] * stratum + [np.nan] + [1.0] * (2 - stratum))
        monkeypatch.setattr(operators, "_mc_best", lambda *args: next(values))
        with pytest.raises(ValueError, match=OVERFLOW):
            operator_norm_mc(all_c(1.0), 0.5, 0.5, samples=30, seed=0)


def mc_cases() -> dict:
    """name: (operator, w, w', samples, seed) over L1, Linf and block-sum
    domains and codomains, with domain norms that overflow (dropped
    samples) and images that overflow, to inf or, through a one-row
    product, to nan (measured again on the unit sphere)."""
    L1, LINF = NormKind.L1, NormKind.LINF
    prod = product_space(banded(L1, 11, 2, 2), banded(LINF, 12, 3, 3))
    nested = product_space(product_space(banded(LINF, 13, 2, 2), banded(L1, 14, 2, 1)), banded(LINF, 15, 2, 2))
    return {
        "l1-l1": (gen_operator(1, banded(L1, 1, 3, 2), banded(L1, 2, 2, 2)), 0.3, 0.6, 0, 1),
        "l1-linf": (gen_operator(2, banded(L1, 3, 4, 3), banded(LINF, 4, 3, 2)), 0.5, 0.2, 1, 2),
        "linf-l1": (gen_operator(3, banded(LINF, 5, 3, 2), banded(L1, 6, 4, 3)), 0.8, 0.4, 2, 3),
        "linf-linf": (gen_operator(4, banded(LINF, 7, 5, 2), banded(LINF, 8, 4, 2)), 0.6, 0.7, 5, 4),
        "linf-linf-3000": (gen_operator(5, banded(LINF, 9, 8, 3), banded(LINF, 10, 8, 2)), 0.4, 0.9, 3000, 5),
        "l1-linf-3000": (gen_operator(6, banded(L1, 16, 16, 2), banded(LINF, 17, 3, 2)), 0.7, 0.3, 3000, 6),
        "product-l1": (gen_operator(7, prod, banded(L1, 18, 3, 2)), 0.6, 0.5, 3000, 7),
        "l1-nested": (gen_operator(8, banded(L1, 19, 4, 2), nested), 0.2, 0.8, 3000, 8),
        "product-nested": (gen_operator(9, prod, nested), 0.9, 0.1, 5, 9),
        "l1-drop": (LinearOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), space_l1([1e308] * 2), space_l1([1e308] * 2)), 0.5, 0.5, 3000, 0),
        "linf-drop": (gen_operator(10, space_linf([1e308] * 3), banded(LINF, 20, 3, 2)), 0.5, 0.5, 3000, 10),
        "l1-inf-images": (LinearOperator(np.full((2, 4), 3e307), space_l1([1.0] * 4), space_l1([1.0] * 2)), 0.5, 0.5, 3000, 11),
        "linf-nan-images": (LinearOperator(np.array([[1e308, -1e308, 1e308, -1e308]]), space_l1([1.0] * 4), space_linf([1.0])), 0.5, 0.5, 3000, 12),
    }


# operator_norm_mc(...).hex() of each case, as the stacked strata and the
# per-row Linf max computed it
MC_PINNED = {
    "l1-l1": "0x0.0p+0",
    "l1-linf": "0x1.4e49e2fdd9657p+0",
    "linf-l1": "0x1.335743c3cd1f9p+2",
    "linf-linf": "0x1.7a4c6a3630909p+2",
    "linf-linf-3000": "0x1.ac2c69aa106dbp+3",
    "l1-linf-3000": "0x1.c2e5477c02d6dp+1",
    "product-l1": "0x1.6895ed72a9a06p+2",
    "l1-nested": "0x1.5dc95868509b0p+3",
    "product-nested": "0x1.3381d6d51b2a9p+2",
    "l1-drop": "0x1.7fffdab8c00c2p+0",
    "linf-drop": "0x1.bd415c91a4a99p-1022",
    "l1-inf-images": "0x1.55c576d8156edp+1022",
    "linf-nan-images": "0x1.1ccf385ebc870p+1023",
}


class TestMonteCarloPinned:
    @pytest.mark.parametrize("name", MC_PINNED)
    def test_bound_is_pinned(self, name):
        T, w, wp, samples, seed = mc_cases()[name]
        assert operator_norm_mc(T, w, wp, samples, seed).hex() == MC_PINNED[name]

    def test_the_cases_reach_every_branch(self):
        # samples dropped for an overflowing domain norm, and images that
        # overflow to inf and to nan
        cases, seen = mc_cases(), {}
        for name in ("l1-drop", "linf-drop", "l1-inf-images", "linf-nan-images"):
            T, w, wp, samples, seed = cases[name]
            dom_norm = operators._band_norm(T.domain, w)
            counts = np.zeros(3, dtype=int)
            for X in operators._mc_strata(operators._philox(seed), T.domain.dimension, samples, dom_norm):
                with np.errstate(over="ignore", invalid="ignore"):
                    den = dom_norm.eval_many(X)
                    images = X[den < np.inf] @ T.matrix.T
                counts += [int(v.sum()) for v in (den == np.inf, np.isinf(images), np.isnan(images))]
            seen[name] = counts
        assert seen["l1-drop"][0] > 0 and seen["linf-drop"][0] > 0
        assert seen["l1-inf-images"][1] > 0 and seen["linf-nan-images"][2] > 0

    def test_strata_evaluated_as_drawn_and_a_max_across_coordinates(self, monkeypatch):
        # each stratum is evaluated before the next is drawn, and is the
        # matching rows of the stacked reference; the Linf max runs across
        # the coordinates, not along each row's last axis
        class RowMax(np.ndarray):
            def max(self, axis=None, **kwargs):
                if self.ndim > 1 and axis is not None and axis % self.ndim == self.ndim - 1:
                    raise AssertionError("the Linf max runs along the last axis")
                return super().max(axis=axis, **kwargs)

        wx = np.arange(12.0).reshape(3, 4).view(RowMax)
        assert pnspace._reduce(NormKind.LINF, wx).tolist() == [3.0, 7.0, 11.0]
        norm = WeightedNorm(NormKind.LINF, (0.5, 1.0, 2.0))
        T = LinearOperator(np.array([[1.0, -2.0, 0.5]]), single_band_space(norm), SCALAR)
        events, strata, best = [], operators._mc_strata, operators._mc_best

        def drawn(*args):
            for X in strata(*args):
                events.append(("drawn", X.tobytes()))
                yield X

        def evaluated(X, *args):
            events.append(("evaluated", X.tobytes()))
            return best(X, *args)

        monkeypatch.setattr(operators, "_mc_strata", drawn)
        monkeypatch.setattr(operators, "_mc_best", evaluated)
        operator_norm_mc(T, 0.5, 0.5, 100, 7)
        want = reference_mc_directions(operators._philox(7), 3, 100, norm)
        rows = (want[:33], want[33:66], want[66:])
        assert events == [(event, r.tobytes()) for r in rows for event in ("drawn", "evaluated")]

    @pytest.mark.parametrize("samples", [0, 1, 2, 5, 3001])
    @pytest.mark.parametrize("n", [1, 7, 17])
    def test_directions_are_the_stacked_strata(self, n, samples):
        weighted = WeightedNorm(NormKind.L1, np.linspace(0.3, 3.0, n))
        for norm in (weighted, product_space(space_l1([1.0] * n), SCALAR).family.bands[0].norm):
            dim = norm.dimension
            got = list(operators._mc_strata(operators._philox(n + samples), dim, samples, norm))
            want = reference_mc_directions(operators._philox(n + samples), dim, samples, norm)
            k = samples // 3
            assert [X.shape for X in got] == [(k, dim), (k, dim), (samples - 2 * k, dim)]
            assert b"".join(X.tobytes() for X in got) == want.tobytes()


def reference_mc_directions(rng, n: int, samples: int, dom_norm) -> np.ndarray:
    """The strata of _mc_strata, drawn one after another and stacked."""
    k1 = k2 = samples // 3
    k3 = samples - k1 - k2
    dense = rng.standard_normal((k1, n))
    sizes = rng.integers(1, n + 1, k2)
    mask = rng.random((k2, n)).argsort(axis=1) < sizes[:, None]
    sparse = rng.standard_normal((k2, n)) * mask + operators.MC_JITTER * rng.standard_normal((k2, n))
    base = rng.choice((-1.0, 1.0), (k3, n))
    if isinstance(dom_norm, WeightedNorm):
        base = base / np.array(dom_norm.weights)
    signs = base + operators.MC_JITTER * rng.standard_normal((k3, n))
    return np.concatenate((dense, sparse, signs))


def all_c(c: float) -> LinearOperator:
    """np.full((2, 4), c) between weight-1 L1 spaces: ||T|| = 2c, attained on
    every sample of one sign, where a sampled ratio can land an ulp above it."""
    return LinearOperator(np.full((2, 4), c), space_l1([1.0] * 4), space_l1([1.0] * 2))


class TestProfileAndBounds:
    def test_profile_shape_and_monotonicity(self):
        for seed in range(20):
            dom, cod = gen_space(seed, 2), gen_space(seed + 500, 2)
            T = gen_operator(seed, dom, cod)
            prof = norm_profile(T)
            nd, nc = len(dom.family.bands), len(cod.family.bands)
            assert prof.table.shape == (nd, nc)
            assert np.all(np.isfinite(prof.table))
            assert np.all(prof.table >= 0.0)
            # stronger domain band -> smaller ball -> smaller norm
            assert np.all(np.diff(prof.table, axis=0) <= 1e-12)
            # stronger codomain band -> larger image norm
            assert np.all(np.diff(prof.table, axis=1) >= -1e-12)

    def test_profile_csv_round_trip(self):
        T = gen_operator(3, gen_space(3, 2), gen_space(503, 2))
        prof = norm_profile(T)
        lines = prof.to_csv().strip().split("\n")
        assert len(lines) == 1 + prof.table.shape[0]
        body = [list(map(float, row.split(",")[1:])) for row in lines[1:]]
        assert np.array_equal(np.array(body), prof.table)

    def test_bound_check(self):
        for seed in range(20):
            dom, cod = gen_space(seed, 3), gen_space(seed + 500, 2)
            T = gen_operator(seed, dom, cod)
            rep = bound_check(T, 0.4, 0.7, trials=200, seed=seed)
            assert rep.passed
            assert rep.max_ratio <= rep.bound + 1e-9

    @pytest.mark.parametrize("c", [1.0, 1e7, 1e10, 4e306])
    def test_bound_check_passes_a_tight_bound_at_any_scale(self, c):
        reports = [bound_check(all_c(c), 0.5, 0.5, 100, seed) for seed in range(20)]
        assert all(rep.passed and rep.bound == 2.0 * c for rep in reports)
        # past about 8e6 an ulp of 2c exceeds the absolute 1e-9
        assert c < 1e7 or any(rep.max_ratio > rep.bound + 1e-9 for rep in reports)

    def test_bound_check_fails_a_bound_short_by_1e_12(self, monkeypatch):
        exact = operators.operator_norm_exact
        monkeypatch.setattr(operators, "operator_norm_exact", lambda *a: exact(*a) * (1.0 - 1e-12))
        # a failed verdict, which python -O keeps, not an AssertionError
        assert all(bound_check(all_c(1e8), 0.5, 0.5, 100, seed).passed is False for seed in range(20))

    def test_bound_attained_at_vertex(self):
        T = LinearOperator(np.diag([2.0, 3.0]), space_l1([1, 1]), space_l1([1, 1]))
        x = np.array([0.0, 1.0])  # unit-ball vertex achieving the norm
        assert T.codomain.norm_at(T.apply(x), 0.5) == operator_norm_exact(T, 0.5, 0.5)

    def test_graph_norm(self):
        T = LinearOperator(np.diag([2.0, 3.0]), space_l1([1, 1]), space_l1([1, 1]))
        x = [1.0, 1.0]
        assert graph_norm(T, x, 0.5, 0.5) == 2.0 + 5.0
        assert graph_norm(T, [0.0, 0.0], 0.5, 0.5) == 0.0


class TestFunctionals:
    def test_two_band_frozen(self):
        f = LinearOperator(np.array([[1.0, 0.0]]), TWO_BAND_DOMAIN, SCALAR)
        # sup of |x_1| over the band-0 L1 ball with weights (1,2) is 1; the
        # band just right of w = 0.5 has weights (2,4), giving 1/2
        assert functional_norm(f, 0.3) == 1.0
        assert functional_norm(f, 0.5) == 0.5
        assert functional_norm(f, 0.7) == 0.5

    def test_non_monotone_domain_reads_the_band_right_of_w(self):
        # weights 1, 0.5, 4 over bands ending at 0.3, 0.6, 1: the band just
        # right of w = 0.1 gives 1.0, while the inf over w' > 0.1 is 0.25
        bands = (Band(u, WeightedNorm("l1", (wt,))) for u, wt in ((0.3, 1.0), (0.6, 0.5), (1.0, 4.0)))
        dom = PNSpace(SeminormFamily(1, tuple(bands), enforce_monotone=False))
        f = LinearOperator(np.array([[1.0]]), dom, single_band_space(WeightedNorm("l1", (1.0,))))
        assert [functional_norm(f, w) for w in (0.1, 0.3, 0.45, 0.6, 0.8)] == [1.0, 2.0, 2.0, 0.25, 0.25]

    def test_inequality(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            dom = gen_space(seed, 3)
            f = LinearOperator(rng.uniform(-2, 2, (1, 3)), dom, SCALAR)
            for w in (0.25, 0.75):
                nf = functional_norm(f, w)
                for _ in range(30):
                    x = gen_vector(rng, 3)
                    # |f(x)| <= ||f||_w ||x||_w+ with the band just right of w
                    idx = dom.family.band_index(w)
                    nx = dom.family.bands[idx].norm.eval_many(x)
                    assert abs(f.apply(x)[0]) <= nf * nx + 1e-9

    def test_codomain_validation(self):
        bad_cod = space_l1([2.0])
        f = LinearOperator(np.array([[1.0, 0.0]]), TWO_BAND_DOMAIN, bad_cod)
        with pytest.raises(ValueError):
            functional_norm(f, 0.5)


class TestOpenMapping:
    def test_identity_delta(self):
        P = space_l1([1.0, 1.0])
        T = LinearOperator(np.eye(2), P, P)
        res = open_mapping_delta(T, 0.5)
        assert res.delta == 1.0
        assert res.condition_number == pytest.approx(1.0, rel=1e-12)

    def test_diag_delta(self):
        T = LinearOperator(np.diag([2.0, 3.0]), space_l1([1, 1]), space_l1([1, 1]))
        res = open_mapping_delta(T, 0.5)
        # ||T^{-1}|| = 1/2, so the image of the unit ball holds B(0; 2)
        assert res.delta == pytest.approx(2.0, rel=1e-12)
        assert res.condition_number == pytest.approx(1.5, rel=1e-12)

    def test_singular_rejected(self):
        T = LinearOperator(np.array([[1.0, 1.0], [1.0, 1.0]]), space_l1([1, 1]), space_l1([1, 1]))
        with pytest.raises(ValueError):
            open_mapping_delta(T, 0.5)
        R = LinearOperator(np.ones((1, 2)), space_l1([1, 1]), SCALAR)
        with pytest.raises(ValueError):
            open_mapping_delta(R, 0.5)

    def test_a_radius_beyond_the_float_range_is_an_error(self):
        # ||T^{-1}|| is about 1 / 3.4e308, below 1 / float max: delta = 1 / ||T^{-1}||
        # would be inf, so both functions name the overflow instead
        T = LinearOperator(np.diag([2.0, 2.0]), space_l1([1.0, 1.0]), space_l1([1.7e308, 1.7e308]))
        for call in (lambda: open_mapping_delta(T, 0.5), lambda: open_mapping_check(T, 0.5, 10, 0)):
            with pytest.raises(ValueError, match="open mapping radius overflows the float range"):
                call()
        # a tenth of those weights keeps the radius finite
        S = LinearOperator(np.diag([2.0, 2.0]), space_l1([1.0, 1.0]), space_l1([1.7e307, 1.7e307]))
        assert 0.0 < open_mapping_delta(S, 0.5).delta < math.inf

    def test_samples_whose_norm_overflows_are_skipped(self):
        # delta = 1e308 is finite, but most samples' ||y||_w = 1e308 (|y_1| + |y_2|)
        # overflow: skipped, as bound_check skips an overflowing ||x||_w
        T = LinearOperator(np.eye(2), space_l1([1.0, 1.0]), space_l1([1e308, 1e308]))
        rep = open_mapping_check(T, 0.5, samples=200, seed=0)
        assert rep.delta == 1e308
        assert rep.passed and 0.99 < rep.max_preimage_norm < 1.0

    def test_sampled_check(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            dom, cod = gen_space(seed, 3), gen_space(seed + 500, 3)
            m = rng.uniform(-2, 2, (3, 3))
            if np.linalg.cond(m) > 1e4:
                continue
            T = LinearOperator(m, dom, cod)
            rep = open_mapping_check(T, 0.5, samples=200, seed=seed)
            assert rep.passed
            assert rep.max_preimage_norm < 1.0


class TestEquivalenceAndUniformBound:
    def test_same_space_gives_one(self):
        P = space_l1([1.0, 2.0])
        rep = norm_equivalence_constants(P, P, trials=50, seed=0)
        assert np.all(rep.forward.table == 1.0)
        assert np.all(rep.backward.table == 1.0)
        assert rep.passed

    def test_doubled_weights(self):
        P1 = space_l1([1.0, 1.0])
        P2 = space_l1([2.0, 2.0])
        rep = norm_equivalence_constants(P1, P2, trials=50, seed=0)
        assert rep.forward.table[0, 0] == 2.0
        assert rep.backward.table[0, 0] == 0.5
        assert rep.passed

    def test_equivalence_matches_per_pair_norms(self):
        # reference: the violation of every band pair from norm_at at the midpoints
        for seed in range(20):
            P1, P2 = gen_space(seed, 3), gen_space(seed + 900, 3)
            rep = norm_equivalence_constants(P1, P2, trials=5, seed=seed)
            rng = np.random.Generator(np.random.Philox(seed))
            worst = 0.0
            for _ in range(5):
                x = rng.uniform(-3.0, 3.0, 3)
                for i, w in enumerate(P1.family.midpoints()):
                    for j, wp in enumerate(P2.family.midpoints()):
                        nx1, nx2 = P1.norm_at(x, w), P2.norm_at(x, wp)
                        worst = max(
                            worst,
                            nx2 - rep.forward.table[i, j] * nx1,
                            nx1 - rep.backward.table[j, i] * nx2,
                        )
            assert rep.max_violation == worst
            assert type(rep.max_violation) is float and type(rep.passed) is bool

    def test_overflowing_sample_norms_are_an_error(self):
        # the identity's tables are finite (about 1.0), but samples with |x|
        # up to 3 have band norms beyond 1.7e308: an error, not a false violation
        P = space_l1([1.7e308, 1.7e308])
        assert norm_profile(LinearOperator(np.eye(2), P, P)).table[0, 0] < 2.0
        for P1, P2 in ((P, P), (P, space_l1([1.0, 1.0])), (space_l1([1.0, 1.0]), P)):
            with pytest.raises(ValueError, match="band norm overflows the float range"):
                norm_equivalence_constants(P1, P2, trials=20, seed=0)
        # no trials, no samples to overflow
        assert norm_equivalence_constants(P, P, trials=0, seed=0).passed

    @staticmethod
    def scaled_pairs(scale: float):
        """Per seed, a single-band 3-dim space with weights in [0.5, 2] * scale,
        paired with itself and with another of its kind."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            kind = KINDS[seed % 2]
            P = single_band_space(WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, 3) * scale)))
            Q = single_band_space(WeightedNorm(kind, tuple(rng.uniform(0.5, 2.0, 3) * scale)))
            yield seed, P, P
            yield seed, P, Q

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e12, 1e100])
    def test_equivalence_passes_tight_constants_at_any_scale(self, scale):
        pairs = self.scaled_pairs(scale)
        reports = [norm_equivalence_constants(P1, P2, 100, seed) for seed, P1, P2 in pairs]
        assert all(rep.passed for rep in reports)
        # an ulp of the band norms exceeds the absolute 1e-9 at these scales
        assert scale < 1e8 or any(rep.max_violation > 1e-9 for rep in reports)

    def test_equivalence_fails_a_table_short_by_1e_12(self, monkeypatch):
        profile = operators.norm_profile

        def shrunk(T):
            prof = profile(T)
            return dataclasses.replace(prof, table=prof.table * (1.0 - 1e-12))

        monkeypatch.setattr(operators, "norm_profile", shrunk)
        pairs = [(seed, P) for seed, P, Q in self.scaled_pairs(1e8) if P is Q]
        assert not any(norm_equivalence_constants(P, P, 100, seed).passed for seed, P in pairs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm_equivalence_constants(space_l1([1.0]), space_l1([1.0, 1.0]), 10, 0)

    def test_uniform_bound_identity_family(self):
        P = space_l1([1.0, 1.0])
        fam = [LinearOperator(np.eye(2), P, P) for _ in range(5)]
        res = uniform_bound(fam, 0.5)
        assert res.bound == 1.0

    def test_uniform_bound_shrinking_family(self):
        P = space_l1([1.0, 1.0])
        fam = [
            LinearOperator((1.0 - 1.0 / n) * np.eye(2), P, P) for n in range(1, 101)
        ]
        res = uniform_bound(fam, 0.5, probes=[np.array([1.0, 0.0])])
        assert res.bound == pytest.approx(0.99, rel=1e-12)
        assert res.probe_sups[0] == pytest.approx(0.99, rel=1e-12)

    def test_uniform_bound_pointwise_premise(self):
        # pointwise-bounded family: the per-band sup certifies Banach-Steinhaus
        rng = np.random.default_rng(8)
        dom = gen_space(4, 2)
        cod = gen_space(504, 2)
        fam = [gen_operator(s, dom, cod) for s in range(6)]
        probes = [gen_vector(rng, 2) for _ in range(10)]
        res = uniform_bound(fam, 0.5, probes=probes)
        for x, psup in zip(probes, res.probe_sups):
            w = res.w
            nx = dom.norm_at(x, w)
            assert psup <= res.bound * nx + 1e-9

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            uniform_bound([], 0.5)

    def test_a_probe_image_beyond_the_float_range_is_an_error(self):
        # the bound, 4, is finite; the probe's image (4e308, 4e308) is not, as
        # norm_at would report it
        P = space_l1([1.0, 1.0])
        T = LinearOperator(np.full((2, 2), 2.0), P, P)
        assert uniform_bound([T], 0.5).bound == 4.0
        with pytest.raises(ValueError, match="image norm overflows the float range"):
            uniform_bound([T], 0.5, probes=[np.array([1e308, 1e308])])

    def test_check_reads_the_probe_sups(self, monkeypatch):
        # a patched uniform_bound reports probe sups just above (or at) the
        # premise bound * ||x||_w; its bound and norms stay exact, so only the
        # probe check can tell
        T = gen_operator(3, gen_space(1, 2), gen_space(2, 2))
        assert checks._uniform_bound_ok(T, 5)
        real = operators.uniform_bound

        def patched(scale):
            def bound_with_probes(family, wp, probes=()):
                res = real(family, wp, probes)
                dom_norm = operators._band_norm(family[0].domain, res.w)
                sups = tuple(res.bound * dom_norm.eval_many(x) * scale for x in probes)
                return dataclasses.replace(res, probe_sups=sups)

            return bound_with_probes

        monkeypatch.setattr(operators, "uniform_bound", patched(1.0))
        assert checks._uniform_bound_ok(T, 5)
        monkeypatch.setattr(operators, "uniform_bound", patched(1.001))
        assert not checks._uniform_bound_ok(T, 5)

    def test_uniform_bound_rejects_mixed_spaces(self):
        # measured in A's norms, I: B -> A would read 1.0, but its norm is 100.0
        A, B = space_l1([1.0, 1.0]), space_l1([0.01, 0.01])
        eye = np.eye(2)
        assert operator_norm_exact(LinearOperator(eye, B, A), 0.5, 0.5) == 100.0
        for other in (LinearOperator(eye, B, A), LinearOperator(eye, A, B)):
            with pytest.raises(ValueError, match="share a domain and a codomain"):
                uniform_bound([LinearOperator(eye, A, A), other], 0.5)


def reference_max_ratio(T, w, wp, trials, seed) -> float:
    """bound_check's per-sample loop: max ||Tx||_w' / ||x||_w through norm_at."""
    rng = np.random.Generator(np.random.Philox(seed))
    max_ratio = 0.0
    for _ in range(trials):
        x = rng.uniform(-3.0, 3.0, T.domain.dimension)
        nx = T.domain.norm_at(x, w)
        if nx == 0.0:
            continue
        max_ratio = max(max_ratio, T.codomain.norm_at(T.apply(x), wp) / nx)
    return max_ratio


def finite_bound_check(T, w, wp, trials, seed) -> BoundCheckReport:
    """bound_check before its overflow rules, which agrees with it wherever
    every sampled norm is finite."""
    bound = operator_norm_exact(T, w, wp)
    dom_norm, cod_norm = operators._band_norm(T.domain, w), operators._band_norm(T.codomain, wp)
    rng = np.random.Generator(np.random.Philox(seed))
    zero = cod_norm.eval_many(T.apply(np.zeros(T.domain.dimension)))
    X = rng.uniform(-3.0, 3.0, (trials, T.domain.dimension))
    nx = dom_norm.eval_many(X)
    ratios = cod_norm.eval_many(operators._apply_rows(T.matrix, X[nx > 0])) / nx[nx > 0]
    max_ratio = float(ratios.max(initial=0.0))
    return BoundCheckReport(bound, max_ratio, bool(zero == 0.0 and max_ratio <= bound + 1e-9))


def reference_max_preimage_norm(T, w, samples, seed) -> float:
    """open_mapping_check's per-sample loop, through norm_at."""
    radius = open_mapping_delta(T, w).delta * operators._OPEN_MAPPING_SHRINK * (1.0 - 1e-9)
    inv = np.linalg.inv(T.matrix)
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(samples):
        d = rng.standard_normal(T.codomain.dimension)
        ny = T.codomain.norm_at(d, w)
        if ny == 0.0:
            continue
        y = d * (radius / ny)
        worst = max(worst, T.domain.norm_at(inv @ y, w))
    return worst


def reference_max_violation(P1, P2, forward, backward, trials, seed) -> float:
    """norm_equivalence_constants' per-sample loop over each vector's band values."""
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-3.0, 3.0, P1.dimension)
        nx1 = np.array(band_values(P1, x))[:, None]
        nx2 = np.array(band_values(P2, x))[None, :]
        worst = max(
            worst,
            float((nx2 - forward.table * nx1).max()),
            float((nx1 - backward.table.T * nx2).max()),
        )
    return worst


def reference_probe_sups(family, wp, probes) -> tuple:
    """uniform_bound's per-probe loop, through norm_at."""
    return tuple(max(T.codomain.norm_at(T.apply(x), wp) for T in family) for x in probes)


KINDS = [NormKind.L1, NormKind.LINF]


class TestSampledChecksAgainstLoops:
    """The sampled checks draw one array and evaluate each band norm once;
    their reports equal the per-sample loops bit for bit."""

    @staticmethod
    def spaces(dom_kind, cod_kind, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        dom = banded(dom_kind, seed, n, 1 + seed % 3)
        cod = banded(cod_kind, seed + 100, m, 1 + seed % 4)
        if seed % 5 == 4:  # block-sum codomain bands
            cod = product_space(cod, banded(dom_kind, seed + 200, 1, 2))
        return dom, cod

    @pytest.mark.parametrize("count", [0, 1, 100])
    @pytest.mark.parametrize("dom_kind", KINDS)
    @pytest.mark.parametrize("cod_kind", KINDS)
    def test_bound_check(self, count, dom_kind, cod_kind):
        for seed in range(20):
            dom, cod = self.spaces(dom_kind, cod_kind, seed)
            T = gen_operator(seed, dom, cod)
            for w, wp in ((0.2, 0.9), (0.5, 0.25), (1.0, 1.0)):
                rep = bound_check(T, w, wp, count, seed)
                want = reference_max_ratio(T, w, wp, count, seed)
                assert rep.max_ratio.hex() == want.hex()
                assert rep.passed is (want <= rep.bound + 1e-9)

    @pytest.mark.parametrize("count", [0, 1, 100])
    @pytest.mark.parametrize("dom_kind", KINDS)
    @pytest.mark.parametrize("cod_kind", KINDS)
    def test_open_mapping_check(self, count, dom_kind, cod_kind):
        rng = np.random.default_rng(9)
        for seed in range(20):
            n = seed % 8 + 1
            dom, cod = banded(dom_kind, seed, n, 1 + seed % 3), banded(cod_kind, seed + 100, n, 2)
            m = rng.uniform(-2.0, 2.0, (n, n))
            if np.linalg.cond(m) > 1e4:
                continue
            T = LinearOperator(m, dom, cod)
            for w in (0.3, 0.5, 1.0):
                rep = open_mapping_check(T, w, count, seed)
                want = reference_max_preimage_norm(T, w, count, seed)
                assert rep.max_preimage_norm.hex() == want.hex()
                assert rep.passed is (want < 1.0)

    @pytest.mark.parametrize("count", [0, 1, 100])
    @pytest.mark.parametrize("kind1", KINDS)
    @pytest.mark.parametrize("kind2", KINDS)
    def test_norm_equivalence(self, count, kind1, kind2):
        for seed in range(16):
            n = seed % 8 + 1
            P1, P2 = banded(kind1, seed, n, 1 + seed % 4), banded(kind2, seed + 100, n, 1 + seed % 3)
            rep = norm_equivalence_constants(P1, P2, count, seed)
            want = reference_max_violation(P1, P2, rep.forward, rep.backward, count, seed)
            assert rep.max_violation.hex() == want.hex()
            assert rep.passed is (want <= 1e-9)

    @pytest.mark.parametrize("count", [0, 1, 100])
    @pytest.mark.parametrize("dom_kind", KINDS)
    @pytest.mark.parametrize("cod_kind", KINDS)
    def test_uniform_bound_probes(self, count, dom_kind, cod_kind):
        rng = np.random.default_rng(10)
        for seed in range(20):
            dom, cod = self.spaces(dom_kind, cod_kind, seed)
            family = [gen_operator(seed + 10 * k, dom, cod) for k in range(1 + seed % 4)]
            probes = [gen_vector(rng, dom.dimension) for _ in range(count)]
            for wp in (0.2, 0.5, 1.0):
                sups = uniform_bound(family, wp, probes).probe_sups
                want = reference_probe_sups(family, wp, probes)
                assert [s.hex() for s in sups] == [s.hex() for s in want]

    def test_negative_counts_rejected(self):
        P = space_l1([1.0, 2.0])
        T = LinearOperator(np.diag([2.0, 3.0]), P, P)
        with pytest.raises(ValueError):
            bound_check(T, 0.5, 0.5, trials=-1, seed=0)
        with pytest.raises(ValueError):
            open_mapping_check(T, 0.5, samples=-1, seed=0)
        with pytest.raises(ValueError):
            norm_equivalence_constants(P, P, trials=-2, seed=0)

    @pytest.mark.filterwarnings("error:invalid value encountered")
    def test_overflowing_samples_do_not_fail_the_check(self):
        # |x| * 1e308 overflows: 87 of the 100 samples have ||x|| = inf and are
        # skipped, never divided as inf / inf; 2 have a finite ||x|| and
        # ||Tx|| = inf, measured on x / ||x||
        P = space_l1([1e308, 1e308])
        T = LinearOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), P, P)
        rep = bound_check(T, 0.5, 0.5, 100, 0)
        assert rep.bound == 1.4999999999999998
        assert rep.passed and 1.49 < rep.max_ratio <= rep.bound
        # every ||x|| is finite here and most ||Tx|| overflow
        T = LinearOperator(T.matrix, space_l1([1e307, 1e307]), P)
        rep = bound_check(T, 0.5, 0.5, 100, 0)
        assert rep.passed and 14.9 < rep.max_ratio <= rep.bound < 15.1

    def test_finite_samples_keep_their_reports(self):
        # the overflow rules change no report where every norm is finite
        for seed in range(20):
            dom, cod = gen_space(seed, 3), gen_space(seed + 500, 2)
            T = gen_operator(seed, dom, cod)
            rep = bound_check(T, 0.4, 0.7, 200, seed)
            assert rep == finite_bound_check(T, 0.4, 0.7, 200, seed)
        for dom_kind, cod_kind in itertools.product(KINDS, KINDS):
            for seed in range(20):
                dom, cod = self.spaces(dom_kind, cod_kind, seed)
                T = gen_operator(seed, dom, cod)
                for w, wp in ((0.2, 0.9), (0.5, 0.25), (1.0, 1.0)):
                    for count in (0, 1, 100):
                        rep = bound_check(T, w, wp, count, seed)
                        assert rep == finite_bound_check(T, w, wp, count, seed)

    def test_mc_without_samples_is_zero(self):
        T = gen_operator(3, gen_space(3, 2), gen_space(503, 2))
        assert operator_norm_mc(T, 0.5, 0.5, samples=0, seed=0) == 0.0
