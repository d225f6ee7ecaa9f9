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
        "entries": [[float(z.real), float(z.imag)] for z in A.ravel()],
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


def dump_json(obj, path):
    """Write JSON deterministically (sorted keys, no NaN/Inf).

    The text is encoded before the file is opened, so a value that cannot
    be encoded raises and leaves ``path`` untouched.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
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
