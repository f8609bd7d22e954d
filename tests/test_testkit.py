"""Oracles and generators: self-consistency and determinism."""

import math

import numpy as np
import pytest

from probnorm import operators
from probnorm.checks import _off_breakpoint_xs
from probnorm.distfn import StepDF, df_eval, is_proper, levy_metric, unit_step
from probnorm.pnspace import NormKind, WeightedNorm, validate_pn_axioms
from probnorm.testkit import (
    gen_operator,
    gen_space,
    gen_stepdf,
    gen_vector,
    oracle_inf_conv,
    oracle_levy,
    oracle_operator_norm,
    oracle_sup_conv,
    scan_eval,
)
from probnorm.triangle import TNormKind, tau_inf_conv, tau_sup_conv

from conv_oracles import oracle_conv_grid
from prefix_limits import strong_cauchy_index, strong_convergence_index


def continuous_stepdf(rng, n: int, proper: bool) -> StepDF:
    """n breakpoints in (0, 3], at least 0.01 apart, off any lattice."""
    gaps = rng.uniform(0.0, 1.0, n)
    bps = np.cumsum(0.01 + gaps * ((3.0 - 0.01 * n) / gaps.sum()))
    vals = np.sort(rng.uniform(0.0, 1.0, n))
    if proper:
        vals[-1] = 1.0
    return StepDF(bps.tolist(), [0.0, *vals.tolist()])


def adjacent_float_stepdf(rng, n: int) -> StepDF:
    """n pairs of breakpoints a, nextafter(a, inf), with a jump at each."""
    lows = np.sort(rng.uniform(0.05, 3.0, n))
    bps = [b for a in lows for b in (a, math.nextafter(a, math.inf))]
    vals = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    return StepDF(bps, [0.0, *vals.tolist()])


class TestOracles:
    def test_scan_eval_matches_df_eval(self):
        for seed in range(50):
            F = gen_stepdf(seed)
            for x in np.arange(-0.5, 3.5, 0.031):
                assert scan_eval(F.breakpoints, F.values, float(x)) == df_eval(F, float(x))

    def test_sup_conv_unit_steps(self):
        F, G = unit_step(1.0), unit_step(2.0)
        for kind in TNormKind:
            assert oracle_sup_conv(kind, F, G, 3.5) == 1.0
            assert oracle_sup_conv(kind, F, G, 3.0) == 0.0
            assert oracle_inf_conv(kind, F, G, 3.5) == 1.0
            assert oracle_inf_conv(kind, F, G, 3.0) == 0.0

    def test_event_points_match_dense_grid(self):
        # lattice pairs from gen_stepdf and continuous pairs with gaps >= 0.01,
        # at abscissae 2e-3 from every sum: distinct events lie at least two
        # 1e-3 grid steps apart, the dense grid's premise
        rng = np.random.default_rng(11)
        pairs = [(gen_stepdf(k), gen_stepdf(k + 5000, proper=k % 3 > 0)) for k in range(50)]
        for k in range(50):
            n, m = rng.integers(1, 7, 2)
            pairs.append((continuous_stepdf(rng, n, True), continuous_stepdf(rng, m, k % 3 > 0)))
        for k, (F, G) in enumerate(pairs):
            for x in _off_breakpoint_xs(F, G, k, 4):
                for kind in TNormKind:
                    for sup, oracle in ((True, oracle_sup_conv), (False, oracle_inf_conv)):
                        want = oracle_conv_grid(kind, F, G, x, 1e-3, sup)
                        assert oracle(kind, F, G, x) == want, (kind, sup, F, G, x)

    def test_event_points_with_adjacent_float_breakpoints(self):
        # events one ulp apart, which the dense grid's spacing premise excluded
        rng = np.random.default_rng(12)
        for k in range(100):
            F, G = (adjacent_float_stepdf(rng, int(rng.integers(1, 4))) for _ in range(2))
            for x in _off_breakpoint_xs(F, G, k, 5):
                for kind in TNormKind:
                    assert oracle_sup_conv(kind, F, G, x) == df_eval(tau_sup_conv(kind, F, G), x)
                    assert oracle_inf_conv(kind, F, G, x) == df_eval(tau_inf_conv(kind, F, G), x)

    def test_levy_self(self):
        for seed in range(5):
            F = gen_stepdf(seed)
            assert oracle_levy(F, F) <= 1e-5

    def test_levy_unit_steps(self):
        for a in (0.3, 0.7):
            got = oracle_levy(unit_step(0.0), unit_step(a))
            assert got == pytest.approx(a, abs=1.1e-5)

    def test_levy_matches_bisection(self):
        for seed in range(20):
            F, G = gen_stepdf(seed), gen_stepdf(seed + 100)
            assert oracle_levy(F, G) == pytest.approx(levy_metric(F, G).value, abs=1.1e-5)

    def test_operator_norm_reads_only_the_weights(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact operator-norm path called")

        monkeypatch.setattr(WeightedNorm, "_vertex_blocks", refuse)
        monkeypatch.setattr(operators, "_norm_table", refuse)
        M = np.array([[1.0, -2.0], [3.0, 0.5]])
        cod = WeightedNorm(NormKind.L1, (1.0, 1.0))
        # L1 domain: columns (1, 3) / 1 and (-2, 0.5) / 0.5 give 4 and 5
        assert oracle_operator_norm(M, WeightedNorm(NormKind.L1, (1.0, 0.5)), cod) == 5.0
        # Linf domain: M (1, -1) = (3, 2.5) is the largest of the four sign images
        assert oracle_operator_norm(M, WeightedNorm(NormKind.LINF, (1.0, 1.0)), cod) == 5.5


class TestGenerators:
    def test_stepdf_deterministic_and_valid(self):
        for seed in range(500):
            F = gen_stepdf(seed)
            assert F == gen_stepdf(seed)
            assert is_proper(F)
            assert F.values[0] == 0.0
            assert all(b > 0 for b in F.breakpoints)
        assert gen_stepdf(0) != gen_stepdf(1)

    def test_stepdf_improper(self):
        hit = False
        for seed in range(50):
            F = gen_stepdf(seed, proper=False)
            assert F.values[-1] < 1.0
            hit = True
        assert hit

    def test_space_deterministic_and_valid(self):
        for seed in range(60):
            P = gen_space(seed, 3)
            Q = gen_space(seed, 3)
            assert P.family == Q.family
            assert P.family.uptos[-1] == 1.0
            assert P.family.monotone_report()[0]
        assert validate_pn_axioms(gen_space(11, 2), samples=10).ok

    def test_operator_deterministic(self):
        dom, cod = gen_space(1, 2), gen_space(2, 3)
        A = gen_operator(5, dom, cod)
        B = gen_operator(5, dom, cod)
        assert np.array_equal(A.matrix, B.matrix)
        assert A.matrix.shape == (3, 2)

    def test_vector(self):
        rng = np.random.default_rng(3)
        x = gen_vector(rng, 4)
        assert x.shape == (4,)
        assert np.all(np.abs(x) <= 3.0)


class TestSequenceHelpers:
    def test_cauchy_of_convergent(self):
        from probnorm.pnspace import NormKind, WeightedNorm, single_band_space

        P = single_band_space(WeightedNorm(NormKind.L1, (1.0,)))
        seq = [np.array([1.0 / (k + 2)]) for k in range(40)]
        cauchy = strong_cauchy_index(P, seq, [0.5, 0.1])
        conv = strong_convergence_index(P, seq, np.zeros(1), [0.5, 0.1])
        for t in (0.5, 0.1):
            assert cauchy[t] is not None
            assert conv[t] is not None

    def test_divergent_never_settles(self):
        from probnorm.pnspace import NormKind, WeightedNorm, single_band_space

        P = single_band_space(WeightedNorm(NormKind.L1, (1.0,)))
        seq = [np.array([float(k % 2)]) for k in range(20)]
        conv = strong_convergence_index(P, seq, np.zeros(1), [0.1])
        assert conv[0.1] is None
