"""Exact operator norms against the rational reference in tests/exact.py:
both sides of the kernel within the bound derived in `_norm_table`, the
rule that picks the side, and overflow on each side."""

from fractions import Fraction

import numpy as np
import pytest

from probnorm import operators
from probnorm.operators import (
    LinearOperator,
    bound_check,
    functional_norm,
    norm_profile,
    operator_norm_exact,
)
from probnorm.pnspace import (
    Band,
    BlockSumNorm,
    NormKind,
    PNSpace,
    SeminormFamily,
    WeightedNorm,
    product_space,
    single_band_space,
)

import exact
from vertex_oracle import oracle_norm

FLOAT_MAX = Fraction(np.finfo(float).max)
OVERFLOW = "operator norm overflows the float range"


def random_norm(rng, octaves: int, depth: int = 0):
    """A weighted L1 or Linf norm, or a block sum of them nested up to depth 2."""
    if depth < 2 and rng.random() < 0.35:
        parts = tuple(random_norm(rng, octaves, depth + 1) for _ in range(int(rng.integers(2, 4))))
        return BlockSumNorm(parts, tuple(p.dimension for p in parts))
    d = int(rng.integers(1, 4 if depth else 7))
    kind = NormKind.L1 if rng.random() < 0.5 else NormKind.LINF
    return WeightedNorm(kind, rng.uniform(0.5, 2.0, d) * 2.0 ** rng.integers(-octaves, octaves + 1, d))


def random_case(rng, n_max: int = 10, octaves: int = 20, exponents=(-30, 30)):
    """(matrix, Linf domain norm, codomain norm) with n <= n_max and m <= 8."""
    n = int(rng.integers(1, n_max + 1))
    dom = WeightedNorm(NormKind.LINF, rng.uniform(0.5, 2.0, n) * 2.0 ** rng.integers(-octaves, octaves + 1, n))
    cod = random_norm(rng, octaves)
    while cod.dimension > 8:
        cod = random_norm(rng, octaves)
    scale = 10.0 ** int(rng.integers(exponents[0], exponents[1] + 1))
    return rng.uniform(-2.0, 2.0, (cod.dimension, n)) * scale, dom, cod


def banded(kind, count: int, d: int) -> PNSpace:
    """count bands of one kind on R^d, band k with weights 1 + k."""
    bands = (Band((k + 1) / count, WeightedNorm(kind, np.full(d, 1.0 + k))) for k in range(count))
    return PNSpace(SeminormFamily(d, tuple(bands)))


def side_norm(dual: bool, matrix, dom_norm, cod_norm) -> float:
    """One norm from the side given, merged over its blocks as _norm_table
    merges them (inf or nan past the float range)."""
    key, W = operators._codomain_band(cod_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        if dual:
            tables = operators._dual_tables(dom_norm, (matrix,), operators._dual_parts(key, W.shape[1]), W)
        else:
            tables = operators._primal_tables(dom_norm, (matrix,), key, W)
        return float(np.max([t[0, 0] for t in tables]))


class TestReference:
    def test_vertex_sup_is_the_dual_sup(self):
        # two exact enumerations that share no arithmetic, over L1 domains
        # (columns) and Linf domains up to n = 10, into nested block sums too
        rng = np.random.default_rng(0)
        nested = 0
        for _ in range(150):
            M, dom, cod = random_case(rng, octaves=40, exponents=(-300, 300))
            problem = exact.Problem(M, dom, cod)
            assert problem.vertex_sup() == problem.dual_sup()
            nested += any(isinstance(p, BlockSumNorm) for p in getattr(cod, "parts", ()))
        assert nested > 0

    def test_small_cases_by_hand(self):
        # Linf(1, 1) -> L1(1, 1): ||M|| = max |M (+-1, +-1)|_1 = 5.5 for this M
        M = np.array([[1.0, -2.0], [3.0, 0.5]])
        cod = WeightedNorm(NormKind.L1, (1.0, 1.0))
        dom = WeightedNorm(NormKind.LINF, (1.0, 1.0))
        problem = exact.Problem(M, dom, cod)
        assert problem.vertex_sup() == problem.dual_sup() == Fraction(11, 2)
        # weights 3 on the domain: vertices (+-1/3, +-1/3), a non-dyadic norm
        dom3 = WeightedNorm(NormKind.LINF, (3.0, 3.0))
        assert exact.exact_norm(M, dom3, cod) == Fraction(11, 6)
        assert exact.Problem(M, dom3, cod).abs_scale() == Fraction(13, 6)
        assert exact.dual_pairs(cod) == 2 and exact.dual_pairs(WeightedNorm(NormKind.LINF, (1.0,) * 5)) == 5


class TestBothSidesWithinTheBound:
    """|value - ||T||| <= gamma_k A on each side, A = || |T| (1 / w) ||_cod,
    k = n + m + 1 (primal) or n + m (dual), over 400 cases."""

    def test_both_sides(self):
        rng = np.random.default_rng(1)
        worst = {False: 0.0, True: 0.0}
        for _ in range(400):
            M, dom, cod = random_case(rng)
            problem = exact.Problem(M, dom, cod)
            want, scale = problem.dual_sup(), problem.abs_scale()
            n, m = dom.dimension, cod.dimension
            for dual in (False, True):
                value = side_norm(dual, M, dom, cod)
                assert abs(Fraction(value) - want) <= exact.gamma(exact.roundings(dual, n, m)) * scale
                worst[dual] = max(worst[dual], exact.ulps(value, want))
            # the primal side is the enumeration of the full vertex list
            assert side_norm(False, M, dom, cod) == oracle_norm(M, dom, cod)
        # both sides round somewhere, and neither strays far
        assert 0.0 < worst[False] < 8.0 and 0.0 < worst[True] < 8.0

    def test_the_library_takes_one_side(self):
        rng = np.random.default_rng(2)
        dual_cases = 0
        for _ in range(300):
            M, dom, cod = random_case(rng)
            T = LinearOperator(M, single_band_space(dom), single_band_space(cod))
            dual = exact.dual_side(dom, cod)
            assert operator_norm_exact(T, 0.5, 0.5) == side_norm(dual, M, dom, cod)
            dual_cases += dual
        assert 0 < dual_cases < 300


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Near the top of the float range, on each side: an exact norm that
    even less its error bound is past the float max raises, and one whose
    error margin and intermediate sums of |terms| stay below it does not."""

    @staticmethod
    def edge_cases(dual: bool, count: int = 150):
        """Linf(3-8) into Linf(1-4) (dual) or L1(2n + 2) (primal), with
        entries below 1.7 times 10^305 to 10^307.9."""
        rng = np.random.default_rng(3 + dual)
        cases = []
        for _ in range(count):
            n = int(rng.integers(3, 9))
            dom = WeightedNorm(NormKind.LINF, rng.uniform(0.5, 2.0, n))
            kind, m = (NormKind.LINF, int(rng.integers(1, 5))) if dual else (NormKind.L1, 2 * n + 2)
            cod = WeightedNorm(kind, rng.uniform(0.5, 2.0, m))
            M = rng.uniform(-1.7, 1.7, (m, n)) * 10.0 ** float(rng.uniform(305.0, 307.9))
            assert exact.dual_side(dom, cod) is dual
            cases.append((M, dom, cod))
        return cases

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_overflow_both_ways(self, dual):
        raised = finite = 0
        for M, dom, cod in self.edge_cases(dual):
            problem = exact.Problem(M, dom, cod)
            # the cheaper of the two exact enumerations
            want = problem.dual_sup() if dual else problem.vertex_sup()
            scale = problem.abs_scale()
            margin = 1 + exact.gamma(exact.roundings(dual, dom.dimension, cod.dimension))
            T = LinearOperator(M, single_band_space(dom), single_band_space(cod))
            if want - (margin - 1) * scale > FLOAT_MAX:
                with pytest.raises(ValueError, match=OVERFLOW):
                    operator_norm_exact(T, 0.5, 0.5)
                raised += 1
            elif scale * margin <= FLOAT_MAX and problem.row_scale() * margin <= FLOAT_MAX:
                value = operator_norm_exact(T, 0.5, 0.5)
                assert abs(Fraction(value) - want) <= (margin - 1) * scale
                finite += 1
        assert raised >= 20 and finite >= 20


class TestSideChoice:
    """The dual side runs without any domain vertex where D n < 2^(n-1) m."""

    @pytest.fixture
    def no_vertices(self, monkeypatch):
        def refuse(norm):
            raise AssertionError("domain vertices enumerated")

        monkeypatch.setattr(operators, "_vertex_blocks", refuse)

    @staticmethod
    def within_bound(T, value, w=0.5, wp=0.5):
        dom = operators._band_norm(T.domain, w)
        cod = operators._band_norm(T.codomain, wp)
        want = exact.exact_norm(T.matrix, dom, cod)
        return abs(Fraction(value) - want) <= exact.error_bound(T.matrix, dom, cod)

    def test_dual_cases_need_no_vertices(self, no_vertices):
        rng = np.random.default_rng(5)

        def linf(n):
            return single_band_space(WeightedNorm(NormKind.LINF, rng.uniform(0.5, 2.0, n)))

        def l1(n):
            return single_band_space(WeightedNorm(NormKind.L1, rng.uniform(0.5, 2.0, n)))

        def op(dom, cod):
            return LinearOperator(rng.uniform(-2.0, 2.0, (cod.dimension, dom.dimension)), dom, cod)

        for T in (op(linf(20), l1(3)), op(linf(12), linf(6)), op(linf(13), product_space(l1(2), linf(2)))):
            assert self.within_bound(T, operator_norm_exact(T, 0.5, 0.5))
        # a profile over 3 x 4 bands of Linf(8) -> Linf(3)
        T = op(banded(NormKind.LINF, 3, 8), banded(NormKind.LINF, 4, 3))
        table = norm_profile(T).table
        for i, w in enumerate(T.domain.family.midpoints()):
            for j, wp in enumerate(T.codomain.family.midpoints()):
                assert table[i, j] == operator_norm_exact(T, w, wp)
                assert self.within_bound(T, table[i, j], w, wp)
        f = op(linf(16), single_band_space(WeightedNorm(NormKind.L1, (1.0,))))
        assert self.within_bound(f, functional_norm(f, 0.5))

    def test_primal_cases_and_the_cap_are_kept(self, no_vertices):
        rng = np.random.default_rng(6)
        dom6 = single_band_space(WeightedNorm(NormKind.LINF, rng.uniform(0.5, 2.0, 6)))
        cod8 = single_band_space(WeightedNorm(NormKind.L1, rng.uniform(0.5, 2.0, 8)))
        with pytest.raises(AssertionError, match="domain vertices enumerated"):
            operator_norm_exact(LinearOperator(rng.uniform(-2.0, 2.0, (8, 6)), dom6, cod8), 0.5, 0.5)
        dom21 = single_band_space(WeightedNorm(NormKind.LINF, np.ones(21)))
        cod3 = single_band_space(WeightedNorm(NormKind.L1, np.ones(3)))
        with pytest.raises(ValueError, match="rejected for n = 21 > 20"):
            operator_norm_exact(LinearOperator(np.ones((3, 21)), dom21, cod3), 0.5, 0.5)

    @pytest.mark.parametrize("bits", [1, 2])
    def test_dual_blocks_split_the_vertex_list(self, monkeypatch, bits):
        # with blocks of 2^bits dual rows, several blocks per band, and one
        # band per product in a profile; the norms are those of one block
        # bit for bit
        rng = np.random.default_rng(7)
        cases = [random_case(rng) for _ in range(40)]
        dom, cod = banded(NormKind.LINF, 3, 6), banded(NormKind.L1, 5, 3)
        T = LinearOperator(rng.uniform(-2.0, 2.0, (3, 6)), dom, cod)
        whole = [side_norm(True, *case) for case in cases], norm_profile(T).table
        monkeypatch.setattr(operators, "_VERTEX_BLOCK_BITS", bits)
        assert [side_norm(True, *case) for case in cases] == whole[0]
        assert norm_profile(T).table.tobytes() == whole[1].tobytes()


class TestDualSandwich:
    @staticmethod
    def one_column(c: float) -> LinearOperator:
        """Linf(4) -> L1(2), weights 1, with only column 0 nonzero (c, c):
        ||T|| = 2c, taken on the dual side, and attained by every sample
        whose largest |x_j| is |x_0|."""
        M = np.zeros((2, 4))
        M[:, 0] = c
        dom = single_band_space(WeightedNorm(NormKind.LINF, (1.0,) * 4))
        return LinearOperator(M, dom, single_band_space(WeightedNorm(NormKind.L1, (1.0, 1.0))))

    @pytest.mark.parametrize("c", [1.0, 1e8, 4e306])
    def test_a_tight_dual_bound_passes(self, c):
        T = self.one_column(c)
        assert exact.dual_side(operators._band_norm(T.domain, 0.5), operators._band_norm(T.codomain, 0.5))
        reports = [bound_check(T, 0.5, 0.5, 100, seed) for seed in range(10)]
        assert all(rep.passed and rep.bound == 2.0 * c for rep in reports)

    def test_a_dual_bound_short_by_1e_12_fails(self, monkeypatch):
        real = operators.operator_norm_exact
        monkeypatch.setattr(operators, "operator_norm_exact", lambda *a: real(*a) * (1.0 - 1e-12))
        T = self.one_column(1e8)
        assert all(bound_check(T, 0.5, 0.5, 100, seed).passed is False for seed in range(10))

