"""The check suites report a failing property: each failure branch of
checks.py is reached by a library result made wrong on purpose."""

import math
import types

import numpy as np

from probnorm import checks, cli
from probnorm.distfn import LevyDistance, levy_metric, unit_step


def test_an_asymmetric_levy_metric_fails_at_the_first_case(monkeypatch, capsys):
    # one ulp lower when F's breakpoints sort after G's: within the oracle's
    # tolerance and 0 on (F, F), but levy_metric(F, G) != levy_metric(G, F)
    def asymmetric(F, G):
        d = levy_metric(F, G)
        return d if F.breakpoints <= G.breakpoints else LevyDistance(math.nextafter(d.value, 0.0), d.tolerance)

    monkeypatch.setattr(checks, "levy_metric", asymmetric)
    rows = checks.run_suites("distfn", 3, 4)
    verdicts = {r.case_id: (r.cases, r.passed) for r in rows}
    assert verdicts["distfn/levy-symmetry"] == (1, False)
    assert all(passed for case_id, (_, passed) in verdicts.items() if case_id != "distfn/levy-symmetry")
    assert cli.main(["check", "--suite", "distfn", "--seed", "3", "--cases", "4"]) == 1
    report = capsys.readouterr().out
    assert report == checks.format_report(rows)
    assert report.endswith(f"\n1 failed / {len(rows)} properties\n")


def test_pm_axioms_fail_on_a_distance_that_is_always_h0():
    P = types.SimpleNamespace(dimension=2, pm_distance=lambda p, q: unit_step(0.0))
    assert not checks._pm_axioms(P, np.random.default_rng(0))


def test_profile_ok_rejects_nan_growth_in_w_and_shrinking_in_wp():
    ok = np.array([[3.0, 4.0], [2.0, 4.0]])
    assert checks._profile_ok(ok)
    assert not checks._profile_ok(np.array([[3.0, np.nan], [2.0, 4.0]]))
    assert not checks._profile_ok(ok[::-1])  # grows with the domain band
    assert not checks._profile_ok(ok[:, ::-1])  # shrinks with the codomain band
