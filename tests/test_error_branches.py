"""Input errors that no other test reaches: each raises its own message."""

import pytest

from probnorm.checks import run_suites
from probnorm.distfn import LevyDistance, StepQuantile, qf_scale, quasi_inverse, unit_step
from probnorm.pnspace import Band, BlockSumNorm, SeminormFamily, WeightedNorm, product_space
from probnorm.serialize import quantile_from_json, space_to_json
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
    ],
    ids=[
        "qvalues-order", "levy-range", "qf-scale-factor", "block-sum-lengths", "block-sum-dims",
        "dimension", "band-index", "band-index-left", "qvalues-list", "space-to-json", "unknown-suite",
    ],
)
def test_error_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
