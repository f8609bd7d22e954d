"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Every criterion reruns its full corpus from scratch and asserts at the stated
tolerance; `pytest -s tests/test_acceptance.py` shows the verdict lines live.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import probnorm
from probnorm.distfn import (
    LEVY_TOL,
    StepDF,
    df_eval,
    df_scale,
    levy_metric,
    qf_add,
    qf_eval,
    qf_scale,
    quasi_inverse,
    unit_step,
)
from probnorm.operators import (
    LinearOperator,
    norm_equivalence_constants,
    norm_profile,
    open_mapping_check,
    operator_norm_exact,
    operator_norm_mc,
    uniform_bound,
)
from probnorm.pnspace import (
    NormKind,
    WeightedNorm,
    product_space,
    single_band_space,
    validate_pn_axioms,
    _hat_le,
)
from probnorm.testkit import (
    gen_operator,
    gen_space,
    gen_stepdf,
    gen_vector,
    oracle_inf_conv,
    oracle_levy,
    oracle_sup_conv,
)
from probnorm.triangle import TNormKind, tau_inf_conv, tau_sup_conv

KINDS = (TNormKind.W, TNormKind.PROD, TNormKind.MIN)


def verdict(capsys, num: int, ok: bool, label: str) -> None:
    with capsys.disabled():  # keep the verdict visible in a plain pytest run
        print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_01_triangle_identity(capsys):
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(500):
        a, b = rng.uniform(0.0, 10.0, 2)
        target = unit_step(a + b)
        for kind in KINDS:
            ok &= tau_sup_conv(kind, unit_step(a), unit_step(b)) == target
            ok &= tau_inf_conv(kind, unit_step(a), unit_step(b)) == target
    verdict(capsys, 1, ok, "triangle identity on 500 unit-step pairs, all kinds, exact")


def test_02_hat_algebra(capsys):
    ok = True
    for seed in range(1000):
        F, G = gen_stepdf(seed), gen_stepdf(seed + 20000)
        QF, QG = quasi_inverse(F), quasi_inverse(G)
        # hat additivity under tau_M, exact
        ok &= quasi_inverse(tau_sup_conv(TNormKind.MIN, F, G)) == qf_add(QF, QG)
        # hat scaling, exact
        for h in (0.5, 2.0, 7.0):
            ok &= quasi_inverse(df_scale(F, h)) == qf_scale(QF, h)
        # order reversal: F <= sqrt(F) pointwise, so hats reverse
        G2 = StepDF(F.breakpoints, tuple(math.sqrt(v) for v in F.values))
        Q2 = quasi_inverse(G2)
        grid = sorted(set(QF.wbreaks) | set(Q2.wbreaks))
        mids = [0.5 * (a + b) for a, b in zip([0.0, *grid], grid)]
        ok &= all(qf_eval(QF, w) >= qf_eval(Q2, w) for w in mids)
        # injectivity
        if F != G:
            ok &= QF != QG
    verdict(capsys, 2, ok, "hat additivity/scaling exact, order reversal, injectivity (1000 pairs)")


def test_03_convolution_exactness(capsys):
    rng = np.random.default_rng(103)
    bad = 0
    for seed in range(200):
        F, G = gen_stepdf(seed), gen_stepdf(seed + 20000)
        sums = np.unique(
            np.array((0.0, *F.breakpoints))[:, None]
            + np.array((0.0, *G.breakpoints))[None, :]
        )
        xs = []
        while len(xs) < 100:
            x = float(rng.uniform(-0.2, sums[-1] + 0.5))
            if np.abs(sums - x).min() > 2e-3:
                xs.append(x)
        for kind in KINDS:
            sup = tau_sup_conv(kind, F, G)
            inf = tau_inf_conv(kind, F, G)
            for x in xs:
                if df_eval(sup, x) != oracle_sup_conv(kind, F, G, x):
                    bad += 1
                if df_eval(inf, x) != oracle_inf_conv(kind, F, G, x):
                    bad += 1
    verdict(capsys, 3, bad == 0, f"convolutions vs event oracle, 200 pairs x 100 abscissae ({bad} off)")


def test_04_levy_metric(capsys):
    ok = True
    # bisection vs grid oracle
    for seed in range(200):
        F, G = gen_stepdf(seed), gen_stepdf(seed + 20000)
        ok &= abs(levy_metric(F, G).value - oracle_levy(F, G)) <= 1.1e-5
    # closed form for unit steps
    for k in range(1, 41):
        a = 0.05 * k
        ok &= abs(levy_metric(unit_step(0.0), unit_step(a)).value - min(a, 1.0)) <= 1e-9
    # metric axioms
    for seed in range(100):
        F = gen_stepdf(seed)
        G = gen_stepdf(seed + 20000)
        H = gen_stepdf(seed + 40000)
        dfg = levy_metric(F, G).value
        ok &= dfg >= 0.0
        ok &= dfg == levy_metric(G, F).value
        ok &= dfg <= levy_metric(F, H).value + levy_metric(H, G).value + 2e-9
        ok &= levy_metric(F, F).value <= LEVY_TOL
    # neighborhood equivalence nu(t) > 1-t <=> d_L(nu, H_0) < t, off a guard band
    rng = np.random.default_rng(104)
    h0 = unit_step(0.0)
    for seed in range(1000):
        F = gen_stepdf(seed)
        t = float(rng.uniform(0.01, 0.99))
        d = levy_metric(F, h0).value
        if abs(d - t) <= 2e-9 or abs(df_eval(F, t) - (1.0 - t)) <= 2e-9:
            continue
        ok &= (df_eval(F, t) > 1.0 - t) == (d < t)
    verdict(capsys, 4, ok, "Levy metric: oracle 1.1e-5, unit steps 1e-9, axioms, neighborhoods")


def test_05_pn_construction(capsys):
    ok = True
    spaces = []
    rng = np.random.default_rng(105)
    for seed in range(100):
        n = int(rng.integers(1, 5))
        P = gen_space(seed, n, max_bands=5)
        spaces.append(P)
        ok &= validate_pn_axioms(P, samples=20, seed=seed).ok
    # norm axioms for ||.||_w at every band midpoint, 10 vectors per space
    for P in spaces:
        n = P.dimension
        for _ in range(10):
            x, y = gen_vector(rng, n), gen_vector(rng, n)
            a = float(rng.uniform(-4.0, 4.0))
            for w in P.family.midpoints():
                nx, ny = P.norm_at(x, w), P.norm_at(y, w)
                ok &= nx >= 0.0
                ok &= P.norm_at(x + y, w) <= nx + ny + 1e-12 * (1.0 + nx + ny)
                ok &= abs(P.norm_at(a * x, w) - abs(a) * nx) <= 1e-12 * (1.0 + abs(a) * nx)
                if np.any(x != 0.0):
                    ok &= nx > 0.0
    # single-band spaces: nu_x = H_{||x||} exactly
    for seed in range(50):
        norm = WeightedNorm(
            NormKind.L1 if seed % 2 else NormKind.LINF,
            tuple(rng.uniform(0.5, 2.0, 3)),
        )
        P = single_band_space(norm)
        x = gen_vector(rng, 3)
        while not np.any(x != 0.0):
            x = gen_vector(rng, 3)
        ok &= P.prob_norm(x) == unit_step(norm.eval_many(x))
    verdict(capsys, 5, ok, "PN axioms (100 spaces), norm axioms at midpoints, single-band exact")


def test_06_product_spaces(capsys):
    ok = True
    rng = np.random.default_rng(106)
    pairs = []
    for seed in range(200):
        P, Q = gen_space(seed, 2), gen_space(seed + 20000, 3)
        R = product_space(P, Q)
        pairs.append(R)
        x, y = gen_vector(rng, 2), gen_vector(rng, 3)
        lhs = quasi_inverse(R.prob_norm(np.concatenate((x, y))))
        rhs = qf_add(quasi_inverse(P.prob_norm(x)), quasi_inverse(Q.prob_norm(y)))
        ok &= lhs == rhs
    h0 = unit_step(0.0)
    for i in range(500):
        R = pairs[i % len(pairs)]
        p, q, r = (gen_vector(rng, 5) for _ in range(3))
        Fpq = R.pm_distance(p, q)
        ok &= R.pm_distance(p, p) == h0  # PM1
        if not np.array_equal(p, q):
            ok &= Fpq != h0  # PM2
        ok &= Fpq == R.pm_distance(q, p)  # PM3
        lhs = quasi_inverse(R.pm_distance(p, r))
        rhs = qf_add(quasi_inverse(Fpq), quasi_inverse(R.pm_distance(q, r)))
        ok &= _hat_le(lhs, rhs)  # PM4 under tau_M, on hats
    verdict(capsys, 6, ok, "product hats add exactly (200 pairs); PM1-PM4 on 500 triples")


def test_07_operator_norms(capsys):
    ok = True
    rng = np.random.default_rng(107)
    # sandwich and convergence for L1 domains, n <= 4, 1e5 samples
    for seed in range(20):
        n = int(rng.integers(1, 5))
        weights = tuple(rng.uniform(0.5, 2.0, n))
        dom = single_band_space(WeightedNorm(NormKind.L1, weights))
        cod = gen_space(seed + 20000, int(rng.integers(1, 4)))
        T = gen_operator(seed, dom, cod)
        exact = operator_norm_exact(T, 0.5, 0.5)
        mc = operator_norm_mc(T, 0.5, 0.5, samples=100000, seed=seed)
        ok &= mc <= exact
        ok &= mc >= 0.99 * exact
    ops = []
    for seed in range(50):
        dom = gen_space(seed, int(rng.integers(1, 5)))
        cod = gen_space(seed + 20000, int(rng.integers(1, 5)))
        ops.append(gen_operator(seed + 40000, dom, cod))
    for T in ops:
        mc = operator_norm_mc(T, 0.5, 0.5, samples=2000, seed=1)
        ok &= mc <= operator_norm_exact(T, 0.5, 0.5)
        # bounding inequality ||Tx||_w' <= ||T||_(w,w') ||x||_w
        w, wp = 0.4, 0.7
        bound = operator_norm_exact(T, w, wp)
        for _ in range(1000):
            x = gen_vector(rng, T.domain.dimension)
            ok &= T.codomain.norm_at(T.apply(x), wp) <= bound * T.domain.norm_at(x, w) + 1e-9
        ok &= bool(np.all(np.isfinite(norm_profile(T).table)))
    # submultiplicativity over composable pairs
    for seed in range(25):
        A, B, C = gen_space(seed, 2), gen_space(seed + 100, 2), gen_space(seed + 200, 2)
        T = gen_operator(seed, A, B)
        S = gen_operator(seed + 1, B, C)
        from probnorm.operators import compose

        for w in (0.3, 0.8):
            lhs = operator_norm_exact(compose(S, T), w, w)
            rhs = operator_norm_exact(S, w, w) * operator_norm_exact(T, w, w)
            ok &= lhs <= rhs + 1e-9
    verdict(capsys, 7, ok, "MC sandwich + 0.99 convergence, bound inequality, profiles, products")


def test_08_section4_demonstrations(capsys):
    ok = True
    rng = np.random.default_rng(108)
    # open mapping: sampled ball inclusion
    done = 0
    seed = 0
    while done < 20:
        seed += 1
        m = rng.uniform(-2.0, 2.0, (3, 3))
        if np.linalg.cond(m) > 1e4:
            continue
        dom, cod = gen_space(seed, 3), gen_space(seed + 20000, 3)
        rep = open_mapping_check(LinearOperator(m, dom, cod), 0.5, samples=1000, seed=seed)
        ok &= rep.passed
        done += 1
    # norm equivalence on finite-dimensional space pairs
    for seed in range(20):
        n = int(rng.integers(1, 4))
        rep = norm_equivalence_constants(
            gen_space(seed, n), gen_space(seed + 20000, n), trials=1000, seed=seed
        )
        ok &= rep.passed
    # uniform boundedness for convergent families of size 100
    for seed in range(20):
        n = int(rng.integers(1, 4))
        dom, cod = gen_space(seed, n), gen_space(seed + 20000, n)
        limit = gen_operator(seed + 40000, dom, cod)
        family = [
            LinearOperator(
                limit.matrix + rng.uniform(-1.0, 1.0, limit.matrix.shape) / (k + 1),
                dom,
                cod,
            )
            for k in range(100)
        ]
        wp = 0.5
        res = uniform_bound(family, wp)
        for T in family:
            ok &= operator_norm_exact(T, res.w, wp) <= res.bound + 1e-12
        ok &= operator_norm_exact(limit, res.w, wp) <= res.bound + 1e-9
    verdict(capsys, 8, ok, "open mapping balls, equivalence constants, uniform bounds (20 each)")


def test_09_cli_determinism(capsys):
    cmd = [sys.executable, "-m", "probnorm.cli", "check", "--suite", "all", "--seed", "42"]
    # the subprocess imports the probnorm under test, installed or not
    src = str(Path(probnorm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout != b""
    )
    verdict(capsys, 9, ok, "check --suite all --seed 42 twice: byte-identical, exit 0")
