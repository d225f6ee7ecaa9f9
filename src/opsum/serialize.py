"""JSON wire formats for matrices and coefficient-pair lists.

Matrix schema (shared repo-wide)::

    {"rows": r, "cols": c, "entries": [[re, im], ...]}   # row-major

Coefficient pairs schema::

    {"pairs": [{"A": <matrix>, "B": <matrix>}, ...]}

Round trips are bit-exact for finite doubles: floats are emitted through
Python's shortest-round-trip repr and parsed back to the identical bits.
Non-finite values are rejected on both read and write.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "SchemaError",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "pairs_to_dict",
    "pairs_from_dict",
    "save_pairs",
    "load_pairs",
    "dump_json",
]


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_dict(M) -> dict:
    """Encode a matrix as the repo JSON schema dict."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise SchemaError(f"expected a 2-D array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise SchemaError("matrix contains non-finite entries")
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "entries": np.ascontiguousarray(A).view(float).reshape(-1, 2).tolist(),
    }


def _require(cond: bool, where: str, why: str):
    if not cond:
        raise SchemaError(f"field '{where}': {why}")


def matrix_from_dict(d, where: str = "matrix") -> np.ndarray:
    """Decode and validate the matrix JSON schema."""
    _require(isinstance(d, dict), where, f"expected an object, got {type(d).__name__}")
    for key in ("rows", "cols", "entries"):
        _require(key in d, f"{where}.{key}", "missing")
    rows, cols = d["rows"], d["cols"]
    _require(isinstance(rows, int) and not isinstance(rows, bool) and rows >= 1,
             f"{where}.rows", f"must be a positive integer, got {rows!r}")
    _require(isinstance(cols, int) and not isinstance(cols, bool) and cols >= 1,
             f"{where}.cols", f"must be a positive integer, got {cols!r}")
    entries = d["entries"]
    _require(isinstance(entries, list), f"{where}.entries", "must be an array")
    _require(len(entries) == rows * cols, f"{where}.entries",
             f"length {len(entries)} != rows*cols = {rows * cols}")
    out = np.empty(rows * cols, dtype=complex)
    for i, e in enumerate(entries):
        _require(isinstance(e, list) and len(e) == 2,
                 f"{where}.entries[{i}]", "must be a [re, im] pair")
        re, im = e
        _require(isinstance(re, (int, float)) and not isinstance(re, bool)
                 and isinstance(im, (int, float)) and not isinstance(im, bool),
                 f"{where}.entries[{i}]", "re and im must be numbers")
        try:
            z = complex(re, im)
        except OverflowError:       # a JSON integer beyond the double range
            z = None
        _require(z is not None and cmath.isfinite(z),
                 f"{where}.entries[{i}]", "entries must be finite")
        out[i] = z
    return out.reshape(rows, cols)


def pairs_to_dict(pairs) -> dict:
    """Encode a list of (A, B) coefficient pairs."""
    return {"pairs": [{"A": matrix_to_dict(a), "B": matrix_to_dict(b)}
                      for a, b in pairs]}


def pairs_from_dict(d) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode and validate the coefficient-pairs JSON schema."""
    _require(isinstance(d, dict), "pairs", "expected an object at top level")
    _require("pairs" in d, "pairs", "missing")
    _require(isinstance(d["pairs"], list) and len(d["pairs"]) > 0,
             "pairs", "must be a nonempty array")
    out = []
    for i, item in enumerate(d["pairs"]):
        _require(isinstance(item, dict), f"pairs[{i}]", "expected an object")
        for key in ("A", "B"):
            _require(key in item, f"pairs[{i}].{key}", "missing")
        out.append((matrix_from_dict(item["A"], f"pairs[{i}].A"),
                    matrix_from_dict(item["B"], f"pairs[{i}].B")))
    return out


#: The encoding :func:`dump_json` reproduces.
_dumps = partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)


def _encode(obj, indent: str) -> str:
    """``_dumps(obj)`` laid out at the nesting prefix ``indent``.

    Dicts with string keys and lists are laid out here, and a list of
    [float, float] pairs (a matrix's ``entries``) in one C-level join of
    ``float.__repr__`` strings, which is what ``json`` writes for a float.
    Strings, ints and finite floats are written as ``json`` writes them.
    Anything else, non-finite floats included, goes to ``json.dumps``; no
    JSON string holds a raw newline, so re-indenting its output is safe.
    """
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (f"{encode_basestring_ascii(key)}: {_encode(obj[key], inner)}"
                 for key in sorted(obj))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(obj) is list and obj:
        pairs = _encode_pairs(obj, inner)
        if pairs is not None:
            return "[\n" + inner + pairs + "\n" + indent + "]"
        items = (_encode(value, inner) for value in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    return _dumps(obj).replace("\n", "\n" + indent)


def _encode_pairs(lst: list, indent: str) -> str | None:
    """The items of a list of finite [float, float] pairs at ``indent``, else None."""
    if set(map(type, lst)) != {list} or set(map(len, lst)) != {2}:
        return None
    flat = list(chain.from_iterable(lst))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    inner = indent + "  "
    close = "\n" + indent + "]"
    numbers = iter(map(float.__repr__, flat))
    pairs = map((",\n" + inner).join, zip(numbers, numbers))
    return "[\n" + inner + (close + ",\n" + indent + "[\n" + inner).join(pairs) + close


def dump_json(obj, path):
    """Write ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    and a newline to ``path``.

    ``json`` encodes with ``indent`` in pure Python, so the layout is built
    here instead (see :func:`_encode`), byte for byte the same.  The text is
    encoded before the file is opened, so a value that cannot be encoded,
    such as NaN or inf, raises ``ValueError`` and leaves ``path`` untouched.
    """
    text = _encode(obj, "")
    with open(path, "w") as f:
        f.write(text + "\n")


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc


def save_matrix(path, M):
    dump_json(matrix_to_dict(M), path)


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(_load_json(path))


def save_pairs(path, pairs):
    dump_json(pairs_to_dict(pairs), path)


def load_pairs(path) -> list[tuple[np.ndarray, np.ndarray]]:
    return pairs_from_dict(_load_json(path))
