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

from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm.distfn import StepDF, df_scale, qf_add, quasi_inverse, unit_step
from probnorm.pnspace import Band, PNSpace, SeminormFamily, WeightedNorm, product_space
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
        # T(0, u) = 0 and T*(0, 0) = 0: all-zero outputs are the mute d.f.,
        # whose one breakpoint is 0.0
        zero = StepDF([0.5, 2.0], [0.0, 0.0, 0.0])
        G = StepDF([0.25, 1.0], [0.0, 0.5, 1.0])
        mute = [((0.0,), (0.0, 0.0))] * 3
        for T in TNormKind:
            results = (
                tau_sup_conv(T, zero, G), tau_sup_conv(T, G, zero), tau_inf_conv(T, zero, zero)
            )
            assert [(R.breakpoints, R.values) for R in results] == mute
            for R in results:
                assert_validated_alike(R)


    def test_mute_dfs_are_one(self):
        # the constant-zero d.f. has one form, breakpoint 0.0, however it is
        # built, and tau and df_scale keep it; a mute input far out adds no
        # breakpoint sum past the float range
        mutes = [StepDF(b, [0.0] * (len(b) + 1)) for b in ((1.0,), (2.0,), (0.5, 3.0), (1e308,))]
        assert all(M == mutes[0] and M.breakpoints == (0.0,) for M in mutes)
        G = StepDF([0.25, 1e308], [0.0, 0.5, 1.0])
        for T in TNormKind:
            for M in mutes:
                assert tau_sup_conv(T, M, G) == tau_sup_conv(T, G, M) == mutes[0]
                assert tau_inf_conv(T, M, M) == mutes[0]
        assert df_scale(mutes[0], 7.0) == mutes[0]
        assert quasi_inverse(tau_sup_conv(TNormKind.MIN, mutes[3], G)) == qf_add(
            quasi_inverse(mutes[3]), quasi_inverse(G)
        )


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


def draw_space(data) -> PNSpace:
    shape = data.draw(st.sampled_from(("monotone", "blocks", "non-monotone")))
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.integers(1, 6))
    if shape == "monotone":
        return gen_space(seed, n, max_bands=8)
    if shape == "blocks":
        inner = product_space(gen_space(seed + 1, 2), gen_space(seed + 2, 1))
        return product_space(gen_space(seed, n), inner)
    # fresh L1 weights per band, so a row may rise, tie or fall
    bands = data.draw(st.integers(1, 6))
    weight_st = st.sampled_from((1.0, 2.0)) | st.floats(1e-300, 10.0)
    rows = data.draw(st.lists(st.lists(weight_st, min_size=n, max_size=n), min_size=bands, max_size=bands))
    ends = [*((k + 1) / bands for k in range(bands - 1)), 1.0]
    family = tuple(Band(u, WeightedNorm("l1", w)) for u, w in zip(ends, rows))
    return PNSpace(SeminormFamily(n, family, enforce_monotone=False))


class TestProbNorm:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_monotone_block_sum_and_non_monotone(self, data):
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

    def test_signed_zero_vector_prints_zero(self):
        # |-0.0| * w is +0.0: a band norm's zero carries no sign
        P = product_space(gen_space(3, 1), gen_space(4, 1))
        assert repr(P.prob_norm([-0.0, -0.0])) == repr(StepDF((0.0,), (0.0, 1.0)))
        assert repr(quasi_inverse(P.prob_norm([-0.0, -0.0]))) == repr(quasi_inverse(unit_step(0.0)))


# the only producers that may build unchecked, each proving its own canonical form
CANONICAL_CALLERS = [
    "distfn._df_of_hat",
    "distfn.qf_add",
    "distfn.quasi_inverse",
    # a nondecreasing finite row: its distinct values, rising strictly, over
    # the band ends they reach, rising strictly in (0, 1]
    "pnspace.PNSpace.prob_norm",
    # any other row, on a family that is not monotone: its sorted distinct
    # values, kept only where the exactly summed measure, rounded once,
    # rises from 0.0, as StepDF keeps them
    "pnspace.PNSpace.prob_norm",
    "triangle._step_df",
]
# the only readers of the one merge of two step functions' ends, one entry per read
WALK_READERS = [
    "distfn.qf_add",
    "pnspace._hat_le",
    "pnspace._hat_le",
    "pnspace.product_space",
]
# the fields that hold step functions' ends
END_FIELDS = {"breakpoints", "wbreaks", "uptos"}


def canonical_references(sources: dict[str, str], name: str = "_canonical") -> list[str]:
    """module.scope for every read of name (an attribute, a name or a
    string) in sources (module -> text), one entry per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif (
                (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Constant) and child.value == name)
            ):
                found.append(".".join(scope))
            visit(child, inner)

    for mod, text in sources.items():
        visit(ast.parse(text), (mod,))
    return sorted(found)


def end_set_unions(sources: dict[str, str]) -> list[str]:
    """module.function for every union of sets, set(...) | ... or
    set(...).union(...), that reads an END_FIELDS attribute: a merge of
    ends by sorting their union instead of by distfn._walk."""
    found = []

    def is_set(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "set"

    for mod, text in sources.items():
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                union = (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
                    and (is_set(node.left) or is_set(node.right))
                ) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "union" and is_set(node.func.value)
                )
                reads = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
                if union and reads & END_FIELDS:
                    found.append(f"{mod}.{fn.name}")
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


def test_set_union_scanner_finds_every_merge():
    sources = {
        "a": "def f(P, Q):\n    return sorted(set(P.uptos) | set(Q.uptos))\n",
        "b": "def g(Q1, Q2):\n    return set(Q1.wbreaks).union(Q2.wbreaks)\n"
        "def h(a, b):\n    return set(a) | set(b)\n",
    }
    assert end_set_unions(sources) == ["a.f", "b.g"]


def test_one_merge_of_step_ends():
    # distfn._walk is read by qf_add, _hat_le and product_space alone, and
    # nothing in src/ merges ends through a union of sets
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert canonical_references(sources, "_walk") == WALK_READERS
    assert end_set_unions(sources) == []
