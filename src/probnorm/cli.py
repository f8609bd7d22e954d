"""Command-line front end.  Thin shell over the library: parse, dispatch, print.

Each subcommand is one row of COMMANDS (name, help, arguments with their
loaders, library call, encoder); the parser is built from the table once per
process.  Rows look library functions up when they run, so a binding patched
at runtime is seen.

Exit codes: 0 success, 1 validation/input failure (machine-readable error
object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import checks, distfn, operators, serialize, triangle
from .serialize import SchemaError


def _read_json(text: str, where: str):
    """json.loads that rejects NaN, Infinity, numbers beyond the float range
    and nesting deeper than the interpreter can parse."""

    def finite(token: str):
        if not math.isfinite(float(token)):
            raise SchemaError(where, f"{token} is not a finite number")
        return token

    try:
        return json.loads(
            text,
            parse_constant=lambda token: float(finite(token)),
            parse_float=lambda token: float(finite(token)),
            parse_int=lambda token: int(finite(token)),
        )
    except RecursionError as e:
        raise SchemaError(where, "JSON nested too deeply") from e


def _load_json(path: str, where: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(where, str(e)) from e
    try:
        return _read_json(text, where)
    except json.JSONDecodeError as e:
        raise SchemaError(where, f"malformed JSON at line {e.lineno}, column {e.colno}") from e


def _json_file(decoder: str) -> Callable:
    """Loader of a JSON file (or - for stdin) via serialize.<decoder>, looked up per call."""
    return lambda path, where: getattr(serialize, decoder)(_load_json(path, where), where)


def _vector(text: str, where: str) -> list:
    try:
        vec = _read_json(text, where)
    except json.JSONDecodeError:
        vec = None
    if not isinstance(vec, list) or not all(serialize.is_number(v) for v in vec):
        raise SchemaError(where, "expected a JSON list of numbers")
    return vec


def _seed(seed: int | None, where: str) -> int:
    # read per call, so PROBNORM_SEED set after the parser was built still counts
    return int(os.environ.get("PROBNORM_SEED", "0")) if seed is None else seed


def _json_text(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def _as_json(to_obj: Callable) -> Callable:
    """Encoder printing to_obj(result) as one line of compact JSON."""
    return lambda result, args: _json_text(to_obj(result))


def _profile_text(prof, args) -> str:
    if args.csv:
        return prof.to_csv()
    return _json_text(
        {
            "domain_midpoints": list(prof.domain_midpoints),
            "codomain_midpoints": list(prof.codomain_midpoints),
            "table": [list(map(float, row)) for row in prof.table],
        }
    )


class Arg(NamedTuple):
    flag: str
    dest: str  # attribute of the parsed namespace
    load: Callable  # (parsed value, flag) -> library value
    options: dict  # keyword arguments of add_argument


def _arg(flag: str, load: Callable = lambda value, where: value, **options) -> Arg:
    """A required option unless options give it a default or an action."""
    required = not options.keys() & {"default", "action"}
    return Arg(flag, flag[2:].replace("-", "_"), load, {"required": required, **options})


class Command(NamedTuple):
    name: str
    help: str
    args: tuple[Arg, ...]
    call: Callable  # loaded argument values, in order -> result
    encode: Callable  # (result, parsed args) -> stdout text
    status: Callable = lambda result: 0  # exit code of a successful call


_STEPDF = _json_file("stepdf_from_json")
_F, _G = _arg("--f", _STEPDF), _arg("--g", _STEPDF)
_SPACE = _arg("--space", _json_file("space_from_json"))
_OP = _arg("--op", _json_file("operator_from_json"))
_W = _arg("--w", type=float)
_VALUE = _as_json(lambda value: {"value": value})
_STEPDF_JSON = _as_json(lambda F: serialize.stepdf_to_json(F))

COMMANDS = (
    Command(
        "df-eval", "evaluate a step d.f.",
        (
            _arg("--f", _STEPDF, help="StepDF JSON path (or - for stdin)"),
            _arg("--x", lambda x, where: float(x), help="abscissa (inf / -inf allowed)"),
        ),
        lambda F, x: distfn.df_eval(F, x),
        _VALUE,
    ),
    Command(
        "df-conv", "triangle-function convolution",
        (
            _arg("--tnorm", lambda tag, where: serialize.tnorm_from_json(tag, where),
                 choices=["W", "prod", "min"]),
            _arg("--kind", choices=["sup", "inf"], default="sup"),
            _F,
            _G,
        ),
        lambda T, kind, F, G: (
            triangle.tau_inf_conv if kind == "inf" else triangle.tau_sup_conv
        )(T, F, G),
        _STEPDF_JSON,
    ),
    Command(
        "df-levy", "modified Levy metric", (_F, _G),
        lambda F, G: distfn.levy_metric(F, G),
        _as_json(lambda d: {"value": d.value, "tolerance": d.tolerance}),
    ),
    Command(
        "df-qinv", "quasi-inverse of a step d.f.", (_F,),
        lambda F: distfn.quasi_inverse(F),
        _as_json(lambda Q: serialize.quantile_to_json(Q)),
    ),
    Command(
        "space-nu", "probabilistic norm nu_x of a vector",
        (_SPACE, _arg("--x", _vector, help="vector as a JSON list")),
        lambda P, x: P.prob_norm(x),
        _STEPDF_JSON,
    ),
    Command(
        "space-norm", "the norm ||x||_w", (_SPACE, _arg("--x", _vector), _W),
        lambda P, x, w: P.norm_at(x, w),
        _VALUE,
    ),
    Command(
        "op-norm", "exact operator norm ||T||_(w,w')", (_OP, _W, _arg("--wp", type=float)),
        lambda T, w, wp: operators.operator_norm_exact(T, w, wp),
        _VALUE,
    ),
    Command(
        "op-profile", "operator norm over all band pairs",
        (_OP, _arg("--csv", action="store_true")),
        lambda T, csv: operators.norm_profile(T),
        _profile_text,
    ),
    Command(
        "op-delta", "open-mapping ball radius", (_OP, _W),
        lambda T, w: operators.open_mapping_delta(T, w),
        _as_json(lambda res: {"delta": res.delta, "condition_number": res.condition_number}),
    ),
    Command(
        "check", "run the property suites",
        (
            _arg("--suite", choices=list(checks.SUITES) + ["all"], default="all"),
            _arg("--seed", _seed, type=int, default=None),
            _arg("--cases", type=int, default=25),
        ),
        lambda suite, seed, cases: checks.run_suites(suite, seed, cases),
        lambda rows, args: checks.format_report(rows),
        lambda rows: 0 if all(r.passed for r in rows) else 1,
    ),
)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probnorm",
        description="Computable Serstnev probabilistic normed spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(cmd=cmd, parser=p)
        for arg in cmd.args:
            p.add_argument(arg.flag, **arg.options)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = args.cmd
    for a in cmd.args:
        # argparse reads --flag=-- as an empty list, past type and choices
        if isinstance(getattr(args, a.dest), list):
            args.parser.error(f"argument {a.flag}: expected one argument")
    try:
        values = [a.load(getattr(args, a.dest), a.flag) for a in cmd.args]
        result = cmd.call(*values)
        sys.stdout.write(cmd.encode(result, args))
        return cmd.status(result)
    except SchemaError as e:
        sys.stdout.write(_json_text({"error": {"where": e.where, "message": e.message}}))
        return 1
    except ValueError as e:
        sys.stdout.write(_json_text({"error": {"message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
