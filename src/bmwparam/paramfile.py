"""JSON parameter files.

Schema (all scalars exact, floats rejected):

    {
      "kind": "degenerate" | "nondegenerate",
      "field": {"type": "rational"}
             | {"type": "prime", "p": 5}
             | {"type": "binary", "k": 4},
      "u": [scalar, ...],
      "rho": scalar, "q": scalar,            # nondegenerate only
      "omega": {"from_u": true, "order": 20}
             | {"prefix": [scalar, ...], "closure": [scalar, ...]},
      "n": int, "d": int                     # optional, for count queries
    }

Scalar encoding by field type: rationals as integers or as strings
"n" or "n/d" (an optional sign, then decimal digits; no decimal point, no
exponent), prime-field elements as integers or integer strings, binary
field elements as 0/1 coefficient lists (the constants 0 and 1, or the
strings "0" and "1", also allowed).  Parse failures carry the JSON path of
the offending entry.
"""

from __future__ import annotations

import json

from .fields import QQ, BinaryField, Field, FieldCoercionError, field_from_descriptor
from .omega import (OmegaSeq, ParamSet, ParameterError, degenerate_params,
                    nondegenerate_params)


class ParamFileError(ValueError):
    """Malformed parameter file; the message carries the JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_list(value, path):
    if not isinstance(value, list):
        raise ParamFileError(path, f"expected a list, got {value!r}")


def parse_scalar(field: Field, value, path: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParamFileError(path, f"floating point or boolean {value!r} rejected; "
                                   "use exact encodings")
    try:
        if isinstance(value, str):
            if field == QQ:
                return field(value)
            # a finite-field string is the int it spells, under the int rules
            value = int(value)
        if isinstance(value, int):
            if isinstance(field, BinaryField) and value not in (0, 1):
                raise ParamFileError(
                    path, f"binary field elements are coefficient lists; "
                          f"got bare integer {value}")
            return field(value)
        if isinstance(value, list):
            if isinstance(field, BinaryField) and not all(map(_is_int, value)):
                raise ParamFileError(path, f"coefficients must be the ints 0 "
                                           f"and 1, got {value!r}")
            return field(value)
    except (ValueError, ZeroDivisionError) as ex:
        if isinstance(ex, ParamFileError):
            raise
        raise ParamFileError(path, str(ex)) from ex
    raise ParamFileError(path, f"cannot parse scalar {value!r}")


def format_scalar(field: Field, element) -> object:
    if field == QQ:
        return str(element.raw)
    if isinstance(field, BinaryField):
        raw = element.raw
        return [raw >> i & 1 for i in range(field.k)]
    return element.raw


def parse_paramfile(doc, default_order=20) -> ParamSet:
    if not isinstance(doc, dict):
        raise ParamFileError("$", "top level must be an object")
    kind = doc.get("kind")
    if kind not in ("degenerate", "nondegenerate"):
        raise ParamFileError("kind", f"expected degenerate|nondegenerate, got {kind!r}")
    fdesc = doc.get("field")
    if not isinstance(fdesc, dict):
        raise ParamFileError("field", "missing field descriptor")
    for key in ("p", "k"):
        # integer strings stay accepted; int() would truncate a float
        if key in fdesc and not (_is_int(fdesc[key])
                                 or isinstance(fdesc[key], str)):
            raise ParamFileError(f"field.{key}",
                                 f"expected int, got {fdesc[key]!r}")
    try:
        field = field_from_descriptor(fdesc)
    except (ValueError, KeyError) as ex:
        raise ParamFileError("field", str(ex)) from ex
    uraw = doc.get("u")
    if not isinstance(uraw, list) or not uraw:
        raise ParamFileError("u", "need a nonempty root list")
    u = [parse_scalar(field, v, f"u[{i}]") for i, v in enumerate(uraw)]

    rho = q = None
    if kind == "nondegenerate":
        if "rho" not in doc or "q" not in doc:
            raise ParamFileError("rho", "non-degenerate parameters need rho and q")
        rho = parse_scalar(field, doc["rho"], "rho")
        q = parse_scalar(field, doc["q"], "q")
    elif "rho" in doc or "q" in doc:
        raise ParamFileError("rho", "degenerate parameters carry no rho or q")

    omega = doc.get("omega", {"from_u": True})
    if not isinstance(omega, dict):
        raise ParamFileError("omega", "omega must be an object")
    try:
        if omega.get("from_u"):
            order = omega.get("order", default_order)
            if not _is_int(order) or order < len(u):
                raise ParamFileError("omega.order",
                                     f"order must be an int >= r, got {order!r}")
            if kind == "degenerate":
                params = degenerate_params(field, u, order=order)
            else:
                params = nondegenerate_params(field, u, rho, q, order=order)
        elif "prefix" in omega:
            _check_list(omega["prefix"], "omega.prefix")
            prefix = [parse_scalar(field, v, f"omega.prefix[{i}]")
                      for i, v in enumerate(omega["prefix"])]
            closure = None
            if "closure" in omega:
                _check_list(omega["closure"], "omega.closure")
                closure = tuple(
                    parse_scalar(field, v, f"omega.closure[{i}]")
                    for i, v in enumerate(omega["closure"]))
            seq = OmegaSeq(field, tuple(prefix), closure)
            params = ParamSet(kind, field, tuple(u), seq, rho=rho, q=q)
        else:
            raise ParamFileError("omega", "need from_u: true or a prefix list")
    except (ParameterError, FieldCoercionError) as ex:
        raise ParamFileError("omega", str(ex)) from ex

    for name in ("n", "d"):
        if doc.get(name) is not None and not _is_int(doc[name]):
            raise ParamFileError(name, f"expected int, got {doc[name]!r}")
    return params


def load_paramfile(path, default_order=20) -> ParamSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ParamFileError("$", f"invalid JSON: {ex}") from ex
    return parse_paramfile(doc, default_order=default_order)


def dump_params(params: ParamSet, n=None, d=None) -> dict:
    """Serialize a ParamSet back to the document schema."""
    field = params.field
    if field == QQ:
        fdesc = {"type": "rational"}
    elif isinstance(field, BinaryField):
        fdesc = {"type": "binary", "k": field.k}
    else:
        fdesc = {"type": "prime", "p": field.p}
    doc = {
        "kind": params.kind,
        "field": fdesc,
        "u": [format_scalar(field, x) for x in params.u],
        "omega": {
            "prefix": [format_scalar(field, c) for c in params.omega.prefix],
        },
    }
    if params.omega.closure is not None:
        doc["omega"]["closure"] = [format_scalar(field, c)
                                   for c in params.omega.closure]
    if params.kind == "nondegenerate":
        doc["rho"] = format_scalar(field, params.rho)
        doc["q"] = format_scalar(field, params.q)
    if n is not None:
        doc["n"] = n
    if d is not None:
        doc["d"] = d
    return doc
