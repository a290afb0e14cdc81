"""Tensor and polynomial file formats.

Tensor file (JSON):
    {"field": {"p": int, "e": int, "modulus": [int]?} | "Z",
     "d": int, "n": int,
     "entries": [{"idx": [i_1..i_d], "val": [digit..] | int-string}]}
Omitted entries are zero; duplicate indices with equal values are merged,
conflicting duplicates are an error. When the modulus is omitted the
canonical one is constructed and echoed back in serialized output.

Polynomial file:
    {"field": ..., "n": int, "d": int,
     "monomials": [{"exp": [e_1..e_n], "val": ...}]}
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import InputError
from .field import FieldSpec, make_field
from .tensor import HomogeneousForm, IntMultilinearForm, MultilinearForm


def _as_int(val, what: str) -> int:
    """val as an int; JSON reads 1e400 as float infinity, so a float must be finite and integral."""
    if isinstance(val, float) and not val.is_integer():
        raise InputError(f"{what} must be integers, got {val!r}")
    try:
        return int(val)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be integers, got {val!r}") from exc


def field_from_descriptor(desc) -> FieldSpec | None:
    """None means integer coefficients (descriptor "Z")."""
    if desc == "Z":
        return None
    if not isinstance(desc, Mapping):
        raise InputError('field must be "Z" or an object {"p", "e", "modulus"?}')
    if "p" not in desc:
        raise InputError(f"bad field descriptor: {desc!r}")
    p, e = _as_int(desc["p"], "field p and e"), _as_int(desc.get("e", 1), "field p and e")
    modulus = desc.get("modulus")
    try:
        if modulus is None:
            return make_field(p, e)
        return FieldSpec(p, e, tuple(_as_int(c, "modulus coefficients") for c in modulus))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_int_value(val, where: str) -> int:
    if isinstance(val, bool):
        raise InputError(f"{where}: boolean is not a coefficient")
    if isinstance(val, int):
        return val
    if isinstance(val, str):
        try:
            return int(val.replace("−", "-"))
        except ValueError as exc:
            raise InputError(f"{where}: value {val!r} is not an integer") from exc
    raise InputError(f"{where}: integer tensors need integer or string values")


def _parse_field_value(val, field: FieldSpec, where: str) -> tuple[int, ...]:
    if not isinstance(val, (list, tuple)):
        raise InputError(f"{where}: field values must be digit lists of length {field.e}")
    if len(val) != field.e:
        raise InputError(f"{where}: expected {field.e} digits, got {len(val)}")
    return tuple(_as_int(v, f"{where}: digits") % field.p for v in val)


def form_from_dict(doc) -> MultilinearForm | IntMultilinearForm:
    if not isinstance(doc, Mapping):
        raise InputError("tensor document must be a JSON object")
    for key in ("field", "d", "n"):
        if key not in doc:
            raise InputError(f"tensor document missing {key!r}")
    field = field_from_descriptor(doc["field"])
    d, n = _as_int(doc["d"], "d and n"), _as_int(doc["n"], "d and n")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise InputError("entries must be a list")

    seen: dict[tuple[int, ...], object] = {}
    for k, ent in enumerate(entries):
        where = f"entry {k}"
        if not isinstance(ent, Mapping) or "idx" not in ent or "val" not in ent:
            raise InputError(f"{where}: needs idx and val")
        idx = ent["idx"]
        if not isinstance(idx, (list, tuple)) or len(idx) != d:
            raise InputError(f"{where}: idx {idx!r} must have length d = {d}")
        idx = tuple(_as_int(i, f"{where}: idx entries") for i in idx)
        if any(not (0 <= i < n) for i in idx):
            raise InputError(f"{where}: idx {list(idx)} out of range for n = {n}")
        if field is None:
            val = _parse_int_value(ent["val"], where)
        else:
            val = _parse_field_value(ent["val"], field, where)
        if idx in seen:
            if seen[idx] != val:
                raise InputError(f"{where}: duplicate idx {list(idx)} with conflicting values")
            continue
        seen[idx] = val

    try:
        if field is None:
            return IntMultilinearForm.from_entries(d, n, {i: v for i, v in seen.items()})
        return MultilinearForm.from_entries(field, d, n, seen)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def form_to_dict(F: MultilinearForm | IntMultilinearForm) -> dict:
    if isinstance(F, IntMultilinearForm):
        return {
            "field": "Z",
            "d": F.d,
            "n": F.n,
            "entries": [{"idx": list(idx), "val": str(v)} for idx, v in F.entries()],
        }
    return {
        "field": F.field.descriptor(),
        "d": F.d,
        "n": F.n,
        "entries": [{"idx": list(idx), "val": list(v.digits)} for idx, v in F.entries()],
    }


def poly_from_dict(doc) -> HomogeneousForm:
    if not isinstance(doc, Mapping):
        raise InputError("polynomial document must be a JSON object")
    for key in ("field", "d", "n"):
        if key not in doc:
            raise InputError(f"polynomial document missing {key!r}")
    field = field_from_descriptor(doc["field"])
    d, n = _as_int(doc["d"], "d and n"), _as_int(doc["n"], "d and n")
    monomials = doc.get("monomials", [])
    terms: dict[tuple[int, ...], object] = {}
    for k, ent in enumerate(monomials):
        where = f"monomial {k}"
        if not isinstance(ent, Mapping) or "exp" not in ent or "val" not in ent:
            raise InputError(f"{where}: needs exp and val")
        exp = ent["exp"]
        if not isinstance(exp, (list, tuple)) or len(exp) != n:
            raise InputError(f"{where}: exp must have length n = {n}")
        exp = tuple(_as_int(e, f"{where}: exponents") for e in exp)
        if any(e < 0 for e in exp) or sum(exp) != d:
            raise InputError(f"{where}: exponents {list(exp)} must be >= 0 and sum to d = {d}")
        if field is None:
            val = _parse_int_value(ent["val"], where)
        else:
            val = _parse_field_value(ent["val"], field, where)
        if exp in terms and terms[exp] != val:
            raise InputError(f"{where}: duplicate exp {list(exp)} with conflicting values")
        terms[exp] = val
    try:
        return HomogeneousForm.from_terms(field, n, d, terms)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def poly_to_dict(f: HomogeneousForm) -> dict:
    if f.field is None:
        vals = [{"exp": list(exp), "val": str(c)} for exp, c in f.terms]
        return {"field": "Z", "n": f.n, "d": f.d, "monomials": vals}
    el = f.field.element
    return {
        "field": f.field.descriptor(),
        "n": f.n,
        "d": f.d,
        "monomials": [{"exp": list(exp), "val": list(el(c).digits)} for exp, c in f.terms],
    }


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_tensor(path) -> MultilinearForm | IntMultilinearForm:
    return form_from_dict(_read_json(path))


def load_poly(path) -> HomogeneousForm:
    return poly_from_dict(_read_json(path))


def dump_tensor(F, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(form_to_dict(F), fh, sort_keys=True, indent=1)
        fh.write("\n")
