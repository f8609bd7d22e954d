"""Input errors that no other test reaches: each raises its own message."""

import numpy as np
import pytest

from probnorm.checks import run_suites
from probnorm.distfn import LevyDistance, StepQuantile, qf_scale, quasi_inverse, unit_step
from probnorm.operators import (
    LinearOperator,
    bound_check,
    norm_equivalence_constants,
    open_mapping_check,
    operator_norm_mc,
)
from probnorm.pnspace import (
    Band,
    BlockSumNorm,
    PNSpace,
    SeminormFamily,
    WeightedNorm,
    product_space,
    validate_pn_axioms,
)
from probnorm.serialize import operator_from_json, quantile_from_json, space_to_json
from probnorm.testkit import gen_space

L1 = WeightedNorm("l1", (1.0,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StepQuantile((0.5, 1.0), (2.0, 1.0)), "qvalues must be nondecreasing"),
        (lambda: LevyDistance(1.5, 1e-9), r"must lie in \[0, 1\]"),
        (lambda: qf_scale(quasi_inverse(unit_step(1.0)), 0.0), "scale factor must be > 0"),
        (lambda: BlockSumNorm((L1,), ()), "parts and dims must be nonempty and equal length"),
        (lambda: BlockSumNorm((L1,), (2,)), "part dimension mismatch"),
        (lambda: SeminormFamily(0, (Band(1.0, L1),)), "dimension must be >= 1"),
        (lambda: gen_space(0, 1).family.band_index(1.0), r"\(0, 1\)"),
        (lambda: gen_space(0, 1).family.band_index_left(0.0), r"\(0, 1\]"),
        (lambda: quantile_from_json({"wbreaks": [1.0], "qvalues": 3.0}), "qvalues: expected a list"),
        (lambda: space_to_json(product_space(gen_space(0, 1), gen_space(1, 1))), "only weighted band norms"),
        (lambda: run_suites("nonesuch", 0, 1), "unknown suite 'nonesuch'"),
        (lambda: operator_from_json({"matrix": []}), "expected a nonempty list of rows"),
    ],
    ids=[
        "qvalues-order", "levy-range", "qf-scale-factor", "block-sum-lengths", "block-sum-dims",
        "dimension", "band-index", "band-index-left", "qvalues-list", "space-to-json", "unknown-suite",
        "empty-matrix",
    ],
)
def test_error_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


P2 = PNSpace(SeminormFamily(2, (Band(1.0, WeightedNorm("l1", (1.0, 2.0))),)))
T2 = LinearOperator(np.diag([2.0, 3.0]), P2, P2)
# each entry point as a function of (count, seed), with its count's name
SAMPLED = {
    "operator_norm_mc": (lambda n, s: operator_norm_mc(T2, 0.5, 0.5, n, s), "samples"),
    "bound_check": (lambda n, s: bound_check(T2, 0.5, 0.5, n, s), "trials"),
    "open_mapping_check": (lambda n, s: open_mapping_check(T2, 0.5, n, s), "samples"),
    "norm_equivalence_constants": (lambda n, s: norm_equivalence_constants(P2, P2, n, s), "trials"),
    "validate_pn_axioms": (lambda n, s: validate_pn_axioms(P2, n, s), "samples"),
    "run_suites": (lambda n, s: run_suites("distfn", s, n), "cases"),
}


@pytest.mark.parametrize("entry", SAMPLED)
@pytest.mark.parametrize("bad", [2.5, True, -1, np.float64(3.0), "2"], ids=repr)
@pytest.mark.parametrize("which", ["count", "seed"])
def test_counts_and_seeds_are_checked_where_they_enter(entry, bad, which):
    call, count_name = SAMPLED[entry]
    name = count_name if which == "count" else "seed"
    message = f"{name} must be " + ("an integer" if bad != -1 else ">= ")
    with pytest.raises(ValueError, match=message):
        call(bad, 1) if which == "count" else call(1, bad)
