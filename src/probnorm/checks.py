"""Deterministic property suites behind the CLI `check` command.

Each suite runs a fixed set of properties over seeded random instances and
returns one row per property.  A suite computes each library result once per
instance: a result that several rows read is a named value computed before
the rows.  Reports are byte-identical for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distfn, operators, pnspace, testkit
from .distfn import (
    df_eval,
    df_scale,
    is_proper,
    levy_metric,
    qf_add,
    qf_scale,
    quasi_inverse,
    unit_step,
)
from .triangle import TNormKind, _conv, _tconorm, _tnorm, tau_inf_conv, tau_sup_conv


@dataclass(frozen=True)
class CheckRow:
    case_id: str
    cases: int
    passed: bool


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.rows: list[CheckRow] = []

    def run(self, name: str, verdicts) -> None:
        count, ok = 0, True
        for ok in verdicts:
            count += 1
            if not ok:
                break
        self.rows.append(CheckRow(f"{self.suite}/{name}", count, bool(ok)))


def _df_pairs(base: int, cases: int) -> list:
    gen = testkit.gen_stepdf
    return [(gen(base + i), gen(base + i + 7919)) for i in range(cases)]


def _min_pair_sort(F, G, take_max: bool):
    """tau_M (take_max) or tau_{M*} by _conv's pair sort, not off qf_add of
    the hats as the library computes them, so a row compares two algorithms."""
    formula = _tnorm if take_max else _tconorm
    vals = formula(TNormKind.MIN, np.array(F.values)[:, None], np.array(G.values))
    return _conv(F, G, vals, take_max)


def _distfn_suite(seed: int, cases: int) -> list[CheckRow]:
    rec = _Recorder("distfn")
    base = seed * 100003
    pairs = _df_pairs(base, cases)
    levy = [
        (levy_metric(F, F).value, levy_metric(F, G).value, levy_metric(G, F).value)
        for F, G in pairs
    ]
    rec.run("levy-self", (ff <= distfn.LEVY_TOL for ff, _, _ in levy))
    rec.run("levy-symmetry", (fg == gf for _, fg, gf in levy))
    rec.run(
        "levy-oracle",
        (
            abs(fg - testkit.oracle_levy(F, G)) <= 1.1e-5
            for (F, G), (_, fg, _) in zip(pairs, levy)
        ),
    )
    # the pairs' F, then improper d.f.s, with one hat each
    dfs = [F for F, _ in pairs] + [testkit.gen_stepdf(base + i, proper=False) for i in range(cases)]
    hats = [quasi_inverse(F) for F in dfs]
    rec.run(
        "hat-additivity",
        (
            quasi_inverse(_min_pair_sort(F, G, True)) == qf_add(hat, quasi_inverse(G))
            for (F, G), hat in zip(pairs, hats)
        ),
    )
    rec.run(
        "hat-scaling",
        (
            quasi_inverse(df_scale(F, h)) == qf_scale(hat, h)
            for (F, _), hat in zip(pairs, hats)
            for h in (0.5, 2.0, 7.0)
        ),
    )
    rec.run(
        "proper-iff-finite-hat",
        (is_proper(F) == all(np.isfinite(hat.qvalues)) for F, hat in zip(dfs, hats)),
    )
    return rec.rows


def _triangle_suite(seed: int, cases: int) -> list[CheckRow]:
    rec = _Recorder("triangle")
    base = seed * 100019
    rng = np.random.default_rng(base)
    pairs = _df_pairs(base, cases)
    kinds = tuple(TNormKind)
    n_oracle = max(1, cases // 5)
    # tau_T per pair and T, and tau_{T*} per T on oracle pairs
    sups = [{T: tau_sup_conv(T, F, G) for T in kinds} for F, G in pairs]
    infs = [{T: tau_inf_conv(T, F, G) for T in kinds} for F, G in pairs[:n_oracle]]
    # hats of tau_T(F, G) per T and of tau_{M*}(F, G): F <= G iff hat F >= hat G
    sup_hats = [{T: quasi_inverse(sup[T]) for T in kinds} for sup in sups]
    inf_hats = [quasi_inverse(_min_pair_sort(F, G, False)) for F, G in pairs]
    xs = [_off_breakpoint_xs(F, G, base + 13 * k, 10) for k, (F, G) in enumerate(pairs[:n_oracle])]
    rec.run(
        "step-identity",
        (
            conv(T, unit_step(a), unit_step(b)) == unit_step(a + b)
            for _ in range(cases)
            for a, b in [rng.uniform(0.0, 10.0, 2)]
            for T in kinds
            for conv in (tau_sup_conv, tau_inf_conv)
        ),
    )
    rec.run(
        "unit-law",
        (
            conv(T, F, unit_step(0.0)) == F
            for F, _ in pairs
            for T in kinds
            for conv in (tau_sup_conv, tau_inf_conv)
        ),
    )
    rec.run(
        "commutativity",
        (sup[T] == tau_sup_conv(T, G, F) for (F, G), sup in zip(pairs, sups) for T in kinds),
    )
    rec.run(
        "ordering-w-prod-min",
        (
            pnspace._hat_le(hat[TNormKind.PROD], hat[TNormKind.W])
            and pnspace._hat_le(hat[TNormKind.MIN], hat[TNormKind.PROD])
            for hat in sup_hats
        ),
    )
    rec.run(
        "sup-below-inf",
        (pnspace._hat_le(inf, sup[TNormKind.MIN]) for sup, inf in zip(sup_hats, inf_hats)),
    )
    rec.run(
        "oracle-agreement",
        (
            all(
                df_eval(sups[k][T], x) == testkit.oracle_sup_conv(T, F, G, x)
                and df_eval(infs[k][T], x) == testkit.oracle_inf_conv(T, F, G, x)
                for x in xs[k]
            )
            for k, (F, G) in enumerate(pairs[:n_oracle])
            for T in kinds
        ),
    )
    return rec.rows


_OFF_BREAKPOINT_MARGIN = 2e-3


def _off_breakpoint_xs(F, G, seed: int, count: int):
    cands = np.unique(np.add.outer(F.breakpoints, G.breakpoints))
    rng = np.random.default_rng(seed)
    xs = []
    while len(xs) < count:
        x = float(rng.uniform(0.0, cands[-1] + 0.5))
        if np.abs(cands - x).min() > _OFF_BREAKPOINT_MARGIN and x > _OFF_BREAKPOINT_MARGIN:
            xs.append(x)
    return xs


def _pnspace_suite(seed: int, cases: int) -> list[CheckRow]:
    rec = _Recorder("pnspace")
    base = seed * 100043
    rng = np.random.default_rng(base)
    spaces = [testkit.gen_space(base + i, int(rng.integers(1, 5))) for i in range(cases)]
    rec.run(
        "axioms",
        (
            pnspace.validate_pn_axioms(P, samples=10, seed=base + i).ok
            for i, P in enumerate(spaces)
        ),
    )
    rec.run(
        "single-band-unit-step",
        (_single_band_is_unit_step(rng) for _ in range(cases)),
    )
    rec.run(
        "norm-at-consistency",
        (_norm_at_matches_quantile(P, rng) for P in spaces),
    )
    rec.run(
        "product-hat-additivity",
        (
            _product_hat_additive(P, Q, rng)
            for P, Q in zip(spaces, spaces[1:] + spaces[:1])
        ),
    )
    rec.run("pm-axioms", (_pm_axioms(P, rng) for P in spaces))
    return rec.rows


def _single_band_is_unit_step(rng) -> bool:
    n = int(rng.integers(1, 5))
    norm = pnspace.WeightedNorm(
        pnspace.NormKind.L1 if rng.random() < 0.5 else pnspace.NormKind.LINF,
        tuple(rng.uniform(0.5, 2.0, n)),
    )
    P = pnspace.single_band_space(norm)
    x = testkit.gen_vector(rng, n)
    return P.prob_norm(x) == unit_step(norm.eval_many(x))


def _norm_at_matches_quantile(P, rng) -> bool:
    x = testkit.gen_vector(rng, P.dimension)
    nu = P.prob_norm(x)
    Q = quasi_inverse(nu)
    # coincidence of w with a value of nu_x makes the conventions differ
    return all(
        P.norm_at(x, w) == distfn.qf_eval(Q, w) or w in nu.values
        for w in P.family.midpoints()
    )


def _product_hat_additive(P, Q, rng) -> bool:
    x = testkit.gen_vector(rng, P.dimension)
    y = testkit.gen_vector(rng, Q.dimension)
    prod = pnspace.product_space(P, Q)
    lhs = quasi_inverse(prod.prob_norm(np.concatenate((x, y))))
    rhs = qf_add(quasi_inverse(P.prob_norm(x)), quasi_inverse(Q.prob_norm(y)))
    return lhs == rhs


def _pm_axioms(P, rng) -> bool:
    p = testkit.gen_vector(rng, P.dimension)
    q = testkit.gen_vector(rng, P.dimension)
    r = testkit.gen_vector(rng, P.dimension)
    h0 = unit_step(0.0)
    d_pq = P.pm_distance(p, q)
    if P.pm_distance(p, p) != h0 or d_pq == h0 or d_pq != P.pm_distance(q, p):
        return False
    # PM4 under tau_M, decided on hats: hat tau_M(F, G) = hat F + hat G
    rhs = qf_add(quasi_inverse(d_pq), quasi_inverse(P.pm_distance(q, r)))
    return pnspace._hat_le(quasi_inverse(P.pm_distance(p, r)), rhs)


def _operator_suite(seed: int, cases: int) -> list[CheckRow]:
    rec = _Recorder("operator")
    base = seed * 100057
    rng = np.random.default_rng(base)
    ops = []
    for i in range(cases):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        dom = testkit.gen_space(base + 2 * i, n)
        cod = testkit.gen_space(base + 2 * i + 1, m)
        ops.append(testkit.gen_operator(base + 3 * i, dom, cod))
    mids = [(T.domain.family.midpoints()[0], T.codomain.family.midpoints()[-1]) for T in ops]
    tables = [operators.norm_profile(T).table for T in ops]
    # t[0, -1] is operator_norm_exact(T, w, wp) bit for bit: w and wp lie in T's first domain
    # and last codomain band, so both read one _norm_table entry (same side, same arithmetic)
    rec.run(
        "mc-below-exact",
        (
            operators.operator_norm_mc(T, w, wp, 2000, base + i) <= t[0, -1]
            for i, (T, (w, wp), t) in enumerate(zip(ops, mids, tables))
        ),
    )
    rec.run(
        "bound-inequality",
        (
            operators.bound_check(T, w, wp, 100, base + i).passed
            for i, (T, (w, wp)) in enumerate(zip(ops, mids))
        ),
    )
    rec.run("profile-finite-monotone", (_profile_ok(t) for t in tables))
    rec.run(
        "submultiplicative",
        (_submultiplicative(T, t, base + i) for i, (T, t) in enumerate(zip(ops, tables))),
    )
    rec.run(
        "open-mapping",
        (_open_mapping_ok(base + i, rng) for i in range(max(1, cases // 2))),
    )
    rec.run(
        "uniform-bound-dominates",
        (_uniform_bound_ok(T, base + i) for i, T in enumerate(ops[: max(1, cases // 2)])),
    )
    return rec.rows


def _profile_ok(table) -> bool:
    if not np.all(np.isfinite(table)):
        return False
    if np.any(np.diff(table, axis=0) > 1e-12):
        return False  # must not grow with the domain band index
    return not np.any(np.diff(table, axis=1) < -1e-12)


def _submultiplicative(T, t, seed: int) -> bool:
    # ||ST|| <= ||S|| ||T|| on every band triple: i of T's domain, j of T's
    # codomain (S's domain), k of S's codomain; t is T's norm_profile table
    S = testkit.gen_operator(seed + 1, T.codomain, testkit.gen_space(seed, 2))
    st = operators.norm_profile(operators.compose(S, T)).table
    s = operators.norm_profile(S).table
    return not np.any(st[:, None, :] > s[None, :, :] * t[:, :, None] + 1e-9)


def _open_mapping_ok(seed: int, rng) -> bool:
    n = int(rng.integers(1, 4))
    dom = testkit.gen_space(seed + 11, n)
    cod = testkit.gen_space(seed + 12, n)
    matrix = _invertible_matrix(rng, n)
    T = operators.LinearOperator(matrix, dom, cod)
    w = dom.family.midpoints()[0]
    return operators.open_mapping_check(T, w, 50, seed).passed


def _invertible_matrix(rng, n: int) -> np.ndarray:
    while True:
        m = rng.uniform(-2.0, 2.0, (n, n))
        if np.linalg.cond(m) < 1e4:
            return m


def _uniform_bound_ok(T, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    members = [
        operators.LinearOperator(T.matrix * (1.0 - 1.0 / k), T.domain, T.codomain)
        for k in range(1, 11)
    ]
    wp = T.codomain.family.midpoints()[0]
    probes = [testkit.gen_vector(rng, T.domain.dimension) for _ in range(3)]
    res = operators.uniform_bound(members, wp, probes)
    dom_norm = operators._band_norm(T.domain, res.w)
    cod_norm = operators._band_norm(T.codomain, wp)
    # the pointwise premise sup_n ||T_n x||_w' <= bound ||x||_w on each probe
    if any(
        s > res.bound * dom_norm.eval_many(x) * (1.0 + 1e-12)
        for s, x in zip(res.probe_sups, probes)
    ):
        return False
    return all(
        testkit.oracle_operator_norm(M.matrix, dom_norm, cod_norm) <= res.bound + 1e-12
        for M in members
    )


_SUITE_FNS = {
    "distfn": _distfn_suite,
    "triangle": _triangle_suite,
    "pnspace": _pnspace_suite,
    "operator": _operator_suite,
}
SUITES = tuple(_SUITE_FNS)


def run_suites(suite: str, seed: int, cases: int) -> list[CheckRow]:
    pnspace._check_count(seed, "seed")
    pnspace._check_count(cases, "cases", 1)
    names = SUITES if suite == "all" else (suite,)
    rows: list[CheckRow] = []
    for name in names:
        if name not in _SUITE_FNS:
            raise ValueError(f"unknown suite {name!r}")
        rows.extend(_SUITE_FNS[name](seed, cases))
    return sorted(rows, key=lambda r: r.case_id)


def format_report(rows: list[CheckRow]) -> str:
    width = max(len(r.case_id) for r in rows)
    lines = [f"{r.case_id:<{width}}  {r.cases:>4}  {'PASS' if r.passed else 'FAIL'}" for r in rows]
    lines.append(f"{sum(not r.passed for r in rows)} failed / {len(rows)} properties")
    return "\n".join(lines) + "\n"
