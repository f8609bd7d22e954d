"""The producers that build their StepDF or StepQuantile unchecked, through
_canonical, against the validating constructor.

Each result must be what the constructor makes of the result's own fields,
bit for bit (compared by repr, so a -0.0 shows), with every field a tuple of
Python floats.  An AST scan pins the producers that may call _canonical.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm.distfn import StepDF, quasi_inverse, unit_step
from probnorm.pnspace import Band, PNSpace, SeminormFamily, product_space
from probnorm.testkit import gen_space
from probnorm.triangle import TNormKind, tau_inf_conv, tau_sup_conv

from fuzz import fuzz_list, mostly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "probnorm"
EDGES = (-0.0, 0.0, 0.25, 0.5, math.nextafter(1.0, 0.0), 1.0)
VALUE_ST = st.sampled_from(EDGES) | st.floats(0.0, 1.0)


def assert_validated_alike(R):
    fields = [getattr(R, f.name) for f in dataclasses.fields(R)]
    assert all(type(part) is tuple and all(type(v) is float for v in part) for part in fields), R
    assert repr(type(R)(*fields)) == repr(R)


def draw_df(data) -> StepDF:
    """A proper (mostly), improper or all-zero d.f. on 1/16-lattice or
    continuous breakpoints, built from raw lists with zero jumps and -0.0."""
    n = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):  # lattice: many pairwise sums tie
        ks = data.draw(st.lists(st.integers(0, 48), min_size=n, max_size=n, unique=True))
        bps = [k / 16.0 for k in ks]
    else:
        bp_st = st.floats(0.0, 5.0) | st.just(-0.0)
        bps = data.draw(st.lists(bp_st, min_size=n, max_size=n, unique=True))
    vals = sorted(data.draw(st.lists(VALUE_ST, min_size=n, max_size=n)))
    kind = "proper" if mostly(data) else data.draw(st.sampled_from(("improper", "zero")))
    if kind == "proper":
        vals[-1] = 1.0
    elif kind == "improper":
        vals = [min(v, 0.75) for v in vals]
    else:
        vals = [0.0 * v for v in vals]  # zeros, -0.0 kept where drawn
    return StepDF(sorted(bps), (data.draw(st.sampled_from((-0.0, 0.0))), *vals))


class TestConvolutions:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_kind_both_sides(self, data):
        F, G = draw_df(data), draw_df(data)
        for T in TNormKind:
            for conv in (tau_sup_conv, tau_inf_conv):
                assert_validated_alike(conv(T, F, G))
                assert_validated_alike(conv(T, G, F))

    def test_mute_results(self):
        # T(0, u) = 0 and T*(0, 0) = 0: all-zero outputs keep one mute breakpoint
        zero = StepDF([0.5, 2.0], [0.0, 0.0, 0.0])
        G = StepDF([0.25, 1.0], [0.0, 0.5, 1.0])
        mute = [((0.75,), (0.0, 0.0))] * 2 + [((1.0,), (0.0, 0.0))]
        for T in TNormKind:
            results = (
                tau_sup_conv(T, zero, G), tau_sup_conv(T, G, zero), tau_inf_conv(T, zero, zero)
            )
            assert [(R.breakpoints, R.values) for R in results] == mute
            for R in results:
                assert_validated_alike(R)


class TestQuasiInverse:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_proper_improper_and_zero(self, data):
        F = draw_df(data)
        assert_validated_alike(quasi_inverse(F))
        assert_validated_alike(quasi_inverse(tau_sup_conv(TNormKind.MIN, F, draw_df(data))))

    def test_unit_step_and_zero(self):
        zero, improper = StepDF([1.0], [0.0, 0.0]), StepDF([1.0], [0.0, 0.5])
        for F in (unit_step(0.0), unit_step(3.0), zero, improper):
            assert_validated_alike(quasi_inverse(F))


@dataclasses.dataclass(frozen=True)
class SignedZeroL1:
    """scale * sum |x_i|, returned as -0.0 wherever it is 0: a duck band norm
    whose zero carries a sign, which prob_norm must not print."""

    dimension: int
    scale: float

    def eval_many(self, X) -> np.ndarray:
        s = self.scale * np.abs(X).sum(axis=-1)
        return np.where(s == 0.0, -0.0, s)


def draw_space(data) -> PNSpace:
    shape = data.draw(st.sampled_from(("monotone", "blocks", "duck")))
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.integers(1, 6))
    if shape == "monotone":
        return gen_space(seed, n, max_bands=8)
    if shape == "blocks":
        inner = product_space(gen_space(seed + 1, 2), gen_space(seed + 2, 1))
        return product_space(gen_space(seed, n), inner)
    bands = data.draw(st.integers(1, 6))
    scale_st = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 10.0)
    scales = sorted(data.draw(st.lists(scale_st, min_size=bands, max_size=bands)))
    ends = [*((k + 1) / bands for k in range(bands - 1)), 1.0]
    family = tuple(Band(u, SignedZeroL1(n, s)) for u, s in zip(ends, scales))
    return PNSpace(SeminormFamily(n, family, enforce_monotone=False))


class TestProbNorm:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_monotone_block_sum_and_signed_zero_duck(self, data):
        P = draw_space(data)
        x = fuzz_list(data, P.dimension, P.dimension)
        if not mostly(data):
            x = [0.0] * P.dimension
        try:
            nu = P.prob_norm(x)
        except ValueError:  # a NaN or infinite entry, or a band norm that overflows
            return
        assert_validated_alike(nu)
        assert_validated_alike(quasi_inverse(nu))

    def test_signed_zero_duck_prints_zero(self):
        bands = (Band(0.5, SignedZeroL1(2, 0.0)), Band(1.0, SignedZeroL1(2, 1.0)))
        P = PNSpace(SeminormFamily(2, bands, enforce_monotone=False))
        assert repr(P.prob_norm([0.0, 0.0])) == repr(StepDF((0.0,), (0.0, 1.0)))
        assert repr(P.prob_norm([1.0, -2.0])) == repr(StepDF((0.0, 3.0), (0.0, 0.5, 1.0)))


# the only producers that may build unchecked, each proving its own canonical form
CANONICAL_CALLERS = [
    "distfn.quasi_inverse",
    "pnspace.PNSpace.prob_norm",
    "triangle._step_df",
]


def canonical_references(sources: dict[str, str]) -> list[str]:
    """module.scope for every read of the name _canonical (an attribute, a
    name or a string) in sources (module -> text), one entry per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif (
                (isinstance(child, ast.Attribute) and child.attr == "_canonical")
                or (isinstance(child, ast.Name) and child.id == "_canonical")
                or (isinstance(child, ast.Constant) and child.value == "_canonical")
            ):
                found.append(".".join(scope))
            visit(child, inner)

    for mod, text in sources.items():
        visit(ast.parse(text), (mod,))
    return sorted(found)


def test_scanner_finds_every_read():
    sources = {
        "a": "class K:\n    def _canonical(cls):\n        pass\n"
        "    def f(self):\n        return K._canonical()\n",
        "b": "def g():\n    h = getattr(K, '_canonical')\n    return _canonical\n",
    }
    assert canonical_references(sources) == ["a.K.f", "b.g", "b.g"]


def test_only_the_pinned_producers_build_unchecked():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert canonical_references(sources) == CANONICAL_CALLERS
