"""Algebra file format: JSON with 1-based indices and rationals as strings.

Round-trips are bit exact because rationals serialize in canonical lowest
terms and bracket pairs are emitted in sorted order.  Reading a file that
is not JSON, or has a missing or invalid field, raises MalformedFile with
a one-line message naming the field.  So does a `dim` above MAX_DIM,
before anything of that size is built, a bracket pair or a coefficient
index (say "3" and "03") listed twice, a key repeated in one JSON object,
and a JSON number with a fraction or a boolean for `dim`, `i` or `j`.
"""

from __future__ import annotations

import json

from .errors import MalformedFile
from .lie import LieAlgebra
from .rational import parse_rat, rat_str

# Largest `dim` a file may declare.  `catalog export` refuses to write larger
# algebras, so everything it writes loads back.
MAX_DIM = 1000


def algebra_to_dict(g: LieAlgebra) -> dict:
    items = []
    for (i, j) in sorted(g.brackets):
        comp = g.brackets[(i, j)]
        coeffs = {str(k + 1): rat_str(c) for k, c in sorted(comp.items())}
        items.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return {"dim": g.dim, "labels": list(g.labels), "brackets": items}


def _get(obj, key, name):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise MalformedFile(f"{name}: missing") from None


def _parse(value, parse, name):
    try:
        return parse(value)
    except (AttributeError, OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise MalformedFile(f"{name}: bad value {value!r}") from None


def _int(value, name):
    """An int or a numeral string as an int; a JSON float or boolean is refused."""
    if isinstance(value, (bool, float)):
        raise MalformedFile(f"{name}: bad value {value!r}")
    return _parse(value, int, name)


def _index(value, dim, name):
    """A 1-based index in 1..dim, returned 0-based."""
    i = _int(value, name)
    if not 1 <= i <= dim:
        raise MalformedFile(f"{name}: index {i} outside 1..{dim}")
    return i - 1


def algebra_from_dict(d: dict) -> LieAlgebra:
    dim = _int(_get(d, "dim", "dim"), "dim")
    if dim < 0:
        raise MalformedFile(f"dim: bad value {dim}")
    if dim > MAX_DIM:
        raise MalformedFile(f"dim: {dim} exceeds the limit {MAX_DIM}")
    labels = d.get("labels")
    if labels and (not isinstance(labels, list) or len(labels) != dim):
        raise MalformedFile(f"labels: expected a list of {dim} labels")
    items = d.get("brackets", [])
    if not isinstance(items, list):
        raise MalformedFile("brackets: expected a list")
    brackets = {}
    for n, item in enumerate(items):
        at = f"brackets[{n}]"
        i = _index(_get(item, "i", f"{at}.i"), dim, f"{at}.i")
        j = _index(_get(item, "j", f"{at}.j"), dim, f"{at}.j")
        if i >= j:
            raise MalformedFile(f"{at}: pair ({i + 1}, {j + 1}) needs i < j")
        if (i, j) in brackets:
            raise MalformedFile(f"{at}: pair ({i + 1}, {j + 1}) listed twice")
        coeffs = _parse(_get(item, "coeffs", f"{at}.coeffs"), dict, f"{at}.coeffs")
        comp = {}
        for k, v in coeffs.items():
            name = f"{at}.coeffs[{k!r}]"
            index = _index(k, dim, name)
            if index in comp:
                raise MalformedFile(f"{name}: index {index + 1} listed twice")
            comp[index] = _parse(v, parse_rat, name)
        brackets[(i, j)] = comp
    return LieAlgebra(dim, brackets, labels=tuple(labels) if labels else None)


def dumps(g: LieAlgebra) -> str:
    return json.dumps(algebra_to_dict(g), indent=1, sort_keys=False)


def _unique_keys(pairs):
    """The JSON object of (key, value) pairs, refusing a key that comes twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedFile(f"key {key!r}: listed twice in one object")
        obj[key] = value
    return obj


def loads(text: str) -> LieAlgebra:
    try:
        d = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedFile("not valid JSON: nested too deeply") from None
    return algebra_from_dict(d)


def save(g: LieAlgebra, path):
    with open(path, "w") as fh:
        fh.write(dumps(g))
        fh.write("\n")


def load(path) -> LieAlgebra:
    with open(path) as fh:
        return loads(fh.read())
