"""JSON encodings of the object classes, shared by the CLI and by check
witnesses.

Formats (class name -> shape):
  matching         {"n": N, "arcs": [[o, c], ...]}   arcs sorted by closer
  inversion_table  [a1, ..., an]
  permutation      [v1, ..., vn]
  poset            {"n": N, "less": [[i, j], ...]}   closed, lexicographic
  matrix           {"k": K, "rows": [[...], ...]}

The size of a decoded object may not exceed MAX_DECODED_SIZE: a matching's
n, a table's or permutation's length, a poset's n, a matrix's entry sum (the
size of its matchings).  What is made from an object costs memory and time in
that size, not in the length of the JSON text (a poset has n(n - 1)/2 pairs).
"""

from __future__ import annotations

from .errors import InvalidObject
from .objects import (
    Matching,
    Poset,
    TriangularMatrix,
    _is_int,
    validate_permutation,
    validate_table,
)

# a 1,000-element chain decodes in about 0.07 s from its 999 covers, in either
# label order, and in about 0.7 s from the 499,500 pairs of its encoding, on a
# 2-CPU x86 host; the objects the tests, demos and benchmark decode have n <= 50
MAX_DECODED_SIZE = 1000


def encode(class_name: str, obj) -> object:
    if class_name == "matching":
        return {"n": obj.n, "arcs": [[o, x] for x, o in enumerate(obj.partner) if 0 < o < x]}
    if class_name in ("inversion_table", "ascent_sequence", "permutation"):
        return list(obj)
    if class_name == "poset":
        # read in order, the successor masks give the pairs sorted lexicographically
        return {"n": obj.n, "less": [[i, j] for i, mask in enumerate(obj.suc_masks, 1) if mask
                                     for j, b in enumerate(bin(mask)[:1:-1], 1) if b == "1"]}
    if class_name == "matrix":
        return {"k": obj.k, "rows": [list(row) for row in obj.rows]}
    raise ValueError(f"no JSON encoding for class {class_name!r}")


def _sized(data: dict, size_key: str, items_key: str) -> list:
    """The items of a dict encoding; its size field, if given, must count them."""
    items = data[items_key]
    size = data.get(size_key, len(items))
    if not _is_int(size) or size != len(items):
        raise InvalidObject(f"{size_key!r} is {size!r} but there are {len(items)} {items_key}")
    return items


def decode(class_name: str, data) -> object:
    """Parse and re-validate; input is never trusted to be well formed."""
    try:
        if class_name == "matching" and isinstance(data, dict):
            data = _sized(data, "n", "arcs")
        if class_name in ("matching", "inversion_table", "permutation"):
            data = list(data)       # a scalar raises the TypeError of iterating it
            if len(data) > MAX_DECODED_SIZE:
                raise InvalidObject(f"{class_name} size {len(data)} exceeds {MAX_DECODED_SIZE}")
        if class_name == "matching":
            return Matching.from_pairs(data)
        if class_name == "inversion_table":
            return validate_table(data)
        if class_name == "permutation":
            return validate_permutation(data)
        if class_name == "poset":
            n = data["n"]
            if _is_int(n) and n > MAX_DECODED_SIZE:
                raise InvalidObject(f"poset size {n} exceeds {MAX_DECODED_SIZE}")
            return Poset.from_relations(n, data["less"])
        if class_name == "matrix":
            if isinstance(data, dict):
                data = _sized(data, "k", "rows")
            t = TriangularMatrix.from_rows(data)
            if t.total > MAX_DECODED_SIZE:
                raise InvalidObject(f"matrix entry sum {t.total} exceeds {MAX_DECODED_SIZE}")
            return t
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidObject(f"malformed {class_name} JSON: {exc}") from exc
    raise ValueError(f"no JSON decoding for class {class_name!r}")


# plural generator-class name -> singular JSON class name
SINGULAR = {
    "matchings": "matching",
    "inversion_tables": "inversion_table",
    "permutations": "permutation",
    "factorial_posets": "poset",
    "natural_posets": "poset",
    "matrices": "matrix",
    "ascent_sequences": "ascent_sequence",
}
