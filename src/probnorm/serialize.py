"""JSON encoding of the library types (the CLI's wire format).

StepDF: {"breakpoints": [...], "values": [...]}
StepQuantile: {"wbreaks": [...], "qvalues": [...]} with "inf" for +infinity
PNSpace: {"dimension": n, "bands": [{"upto": w, "kind": "l1"|"linf",
          "weights": [...]}, ...]} with bands ordered and the last upto = 1
Operator: {"matrix": [[...], ...], "domain": <PNSpace>, "codomain": <PNSpace>}
"""

from __future__ import annotations

import math

from .distfn import StepDF, StepQuantile
from .operators import LinearOperator
from .pnspace import Band, PNSpace, SeminormFamily, WeightedNorm
from .triangle import TNormKind


class SchemaError(ValueError):
    """Raised when a JSON payload does not match its schema."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where
        self.message = message


def is_number(v) -> bool:
    """A JSON number: int or float, but not bool, which Python counts as an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number_list(obj, where: str) -> list[float]:
    if not isinstance(obj, list) or not all(is_number(v) for v in obj):
        raise SchemaError(where, "expected a list of numbers")
    return [float(v) for v in obj]


def _built(where: str, make, *args):
    """make(*args), with a constructor's ValueError reported as a SchemaError at where."""
    try:
        return make(*args)
    except ValueError as e:
        raise SchemaError(where, str(e)) from e


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(where, f"missing key {key!r}")
    return obj[key]


def stepdf_to_json(F: StepDF) -> dict:
    return {"breakpoints": list(F.breakpoints), "values": list(F.values)}


def stepdf_from_json(obj, where: str = "stepdf") -> StepDF:
    bps = _number_list(_require(obj, "breakpoints", where), f"{where}.breakpoints")
    vals = _number_list(_require(obj, "values", where), f"{where}.values")
    return _built(where, StepDF, bps, vals)


def quantile_to_json(Q: StepQuantile) -> dict:
    return {
        "wbreaks": list(Q.wbreaks),
        "qvalues": ["inf" if math.isinf(q) else q for q in Q.qvalues],
    }


def quantile_from_json(obj, where: str = "quantile") -> StepQuantile:
    wb = _number_list(_require(obj, "wbreaks", where), f"{where}.wbreaks")
    raw = _require(obj, "qvalues", where)
    if not isinstance(raw, list):
        raise SchemaError(f"{where}.qvalues", "expected a list")
    qv = []
    for v in raw:
        if v == "inf":
            qv.append(math.inf)
        elif is_number(v):
            qv.append(float(v))
        else:
            raise SchemaError(f"{where}.qvalues", f"bad entry {v!r}")
    return _built(where, StepQuantile, wb, qv)


def tnorm_from_json(tag, where: str = "tnorm") -> TNormKind:
    try:
        return TNormKind(tag)
    except ValueError as e:
        raise SchemaError(where, f"unknown t-norm kind {tag!r} (use W | prod | min)") from e


def space_to_json(P: PNSpace) -> dict:
    bands = []
    for band in P.family.bands:
        norm = band.norm
        if not isinstance(norm, WeightedNorm):
            raise SchemaError("space.bands", "only weighted band norms serialize to JSON")
        bands.append(
            {"upto": band.upto, "kind": norm.kind.value, "weights": list(norm.weights)}
        )
    return {"dimension": P.dimension, "bands": bands}


def space_from_json(obj, where: str = "space") -> PNSpace:
    dim = _require(obj, "dimension", where)
    if not (is_number(dim) and isinstance(dim, int)) or dim < 1:
        raise SchemaError(f"{where}.dimension", "expected a positive integer")
    raw_bands = _require(obj, "bands", where)
    if not isinstance(raw_bands, list) or not raw_bands:
        raise SchemaError(f"{where}.bands", "expected a nonempty list")
    bands = []
    for i, rb in enumerate(raw_bands):
        bw = f"{where}.bands[{i}]"
        upto = _require(rb, "upto", bw)
        if not is_number(upto):
            raise SchemaError(f"{bw}.upto", "expected a number")
        kind = _require(rb, "kind", bw)
        if kind not in ("l1", "linf"):
            raise SchemaError(f"{bw}.kind", f"unknown kind {kind!r} (use l1 | linf)")
        weights = _number_list(_require(rb, "weights", bw), f"{bw}.weights")
        bands.append(Band(float(upto), _built(bw, WeightedNorm, kind, weights)))
    return PNSpace(_built(where, SeminormFamily, dim, tuple(bands)))


def operator_to_json(T: LinearOperator) -> dict:
    return {
        "matrix": [list(map(float, row)) for row in T.matrix],
        "domain": space_to_json(T.domain),
        "codomain": space_to_json(T.codomain),
    }


def operator_from_json(obj, where: str = "operator") -> LinearOperator:
    raw = _require(obj, "matrix", where)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}.matrix", "expected a nonempty list of rows")
    matrix = [_number_list(row, f"{where}.matrix[{i}]") for i, row in enumerate(raw)]
    if len({len(r) for r in matrix}) != 1:
        raise SchemaError(f"{where}.matrix", "rows must have equal length")
    domain = space_from_json(_require(obj, "domain", where), f"{where}.domain")
    codomain = space_from_json(_require(obj, "codomain", where), f"{where}.codomain")
    return _built(where, LinearOperator, matrix, domain, codomain)
