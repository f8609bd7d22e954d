"""Span tracer that times calls into each probnorm layer from outside the library.

Every public entry point listed in ``ENTRY_POINTS`` is wrapped by patching each
binding of the same object across the ``probnorm.*`` modules, and class
attributes in place, so a call is seen whichever name it is reached through:
``checks`` and ``pnspace`` import ``levy_metric`` / ``tau_sup_conv`` by name,
``levy_metric`` reaches ``levy_condition`` through a module global, and
``PNSpace.prob_norm`` is a class attribute.  ``remove`` restores every binding.

Spans are kept in memory as ``[name, start, end, parent, query_id, args, out]``;
``args``/``out`` are kept only for the functions whose work counts are derived
after the run (``KEEP_ARGS``).  Self time is a span's duration minus the
durations of its direct children: calls nest on one thread, so children
never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# entry points inside probnorm, as "<module>.<qualname>"; the module is the layer
ENTRY_POINTS = (
    "distfn.levy_metric",
    "distfn.levy_condition",
    "distfn.quasi_inverse",
    "distfn.qf_add",
    "distfn.qf_scale",
    "distfn.df_scale",
    "triangle.tau_sup_conv",
    "triangle.tau_inf_conv",
    "pnspace.PNSpace.prob_norm",
    "pnspace.PNSpace.norm_at",
    "pnspace.PNSpace.pm_distance",
    "pnspace.PNSpace.neighborhood_contains",
    "pnspace.PNSpace.in_ball",
    "pnspace.SeminormFamily.__post_init__",
    "pnspace.product_space",
    "pnspace.validate_pn_axioms",
    "operators.operator_norm_exact",
    "operators.operator_norm_mc",
    "operators.norm_profile",
    "operators.bound_check",
    "operators.compose",
    "operators.open_mapping_delta",
    "operators.open_mapping_check",
    "operators.uniform_bound",
    "serialize.stepdf_from_json",
    "serialize.quantile_from_json",
    "serialize.tnorm_from_json",
    "serialize.space_from_json",
    "serialize.operator_from_json",
    "serialize.stepdf_to_json",
    "serialize.quantile_to_json",
    "serialize.space_to_json",
    "serialize.operator_to_json",
    "cli.main",
    "checks.run_suites",
    "checks.format_report",
    "testkit.oracle_sup_conv",
    "testkit.oracle_inf_conv",
    "testkit.oracle_levy",
    "testkit.gen_stepdf",
    "testkit.gen_space",
    "testkit.gen_operator",
    "testkit.gen_vector",
)

KEEP_ARGS = frozenset(
    {
        "triangle.tau_sup_conv",
        "triangle.tau_inf_conv",
        "pnspace.PNSpace.prob_norm",
        "operators.operator_norm_exact",
        "operators.operator_norm_mc",
        "operators.norm_profile",
    }
)

NAME, START, END, PARENT, QID, ARGS, OUT = range(7)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Install with ``install()``, set ``qid`` per query, ``remove()`` when done."""

    def __init__(self):
        self.spans: list[list] = []
        self.qid = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "probnorm" or k.startswith("probnorm.")]
        for name in ENTRY_POINTS:
            module_name, qualname = name.split(".", 1)
            owner = importlib.import_module(f"probnorm.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if path:  # class attribute: one binding
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = [-1]

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        keep = name in KEEP_ARGS
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, clock(), 0.0, stack[-1], tracer.qid, args if keep else None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[OUT] = out
            return out

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def write_spans(spans: list[list], path) -> None:
    """One JSON line per span: name, start and end in microseconds from the
    first start, parent index (-1 for none) and query id."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        for rec in spans:
            start, end = (rec[START] - t0) * 1e6, (rec[END] - t0) * 1e6
            fh.write(json.dumps([rec[NAME], start, end, rec[PARENT], rec[QID]]) + "\n")
