import json

import numpy as np
import pytest

from opsum import serialize
from opsum.randmat import random_complex


def test_round_trip_bit_exact(rng, tmp_path):
    M = random_complex(rng, 5, 3)
    # include awkward doubles: negative zero, denormals, huge magnitudes
    M[0, 0] = complex(-0.0, 5e-324)
    M[1, 0] = complex(1.7976931348623157e308, -2.2250738585072014e-308)
    path = tmp_path / "m.json"
    serialize.save_matrix(path, M)
    back = serialize.load_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(M.view(float), back.view(float))  # bitwise on parts


def test_round_trip_preserves_negative_zero(tmp_path):
    path = tmp_path / "z.json"
    serialize.save_matrix(path, np.array([[complex(-0.0, 0.0)]]))
    back = serialize.load_matrix(path)
    assert np.signbit(back[0, 0].real)


def test_schema_validation_errors(tmp_path):
    good = {"rows": 2, "cols": 1, "entries": [[1.0, 0.0], [2.0, 0.0]]}
    serialize.matrix_from_dict(good)

    bad_cases = [
        ({}, "rows"),
        ({"rows": 0, "cols": 1, "entries": []}, "rows"),
        ({"rows": 1, "cols": 1, "entries": []}, "entries"),
        ({"rows": 1, "cols": 1, "entries": [[1.0]]}, "entries[0]"),
        ({"rows": 1, "cols": 1, "entries": [["a", 0.0]]}, "entries[0]"),
        ({"rows": True, "cols": 1, "entries": [[1.0, 0.0]]}, "rows"),
    ]
    for doc, field in bad_cases:
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_dict(doc)
        assert field in str(err.value)


def test_nonfinite_rejected_on_write():
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_to_dict(np.array([[np.nan]]))


def test_failed_dump_leaves_file_unchanged(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        serialize.dump_json({"x": float("nan")}, path)
    assert not path.exists()
    path.write_text("earlier output\n")
    with pytest.raises(ValueError):
        serialize.dump_json({"a": [1.0] * 500, "x": float("nan")}, path)
    assert path.read_text() == "earlier output\n"


def test_dump_json_layout(tmp_path):
    path = tmp_path / "out.json"
    serialize.dump_json({"b": [1.5, -0.0], "a": {"z": 1, "y": None}}, path)
    assert path.read_text() == (
        '{\n  "a": {\n    "y": null,\n    "z": 1\n  },\n'
        '  "b": [\n    1.5,\n    -0.0\n  ]\n}\n')


def test_nonfinite_rejected_on_read():
    doc = {"rows": 1, "cols": 1, "entries": [[1e400, 0.0]]}
    text = json.dumps(doc).replace("Infinity", "1e999")
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_from_dict(json.loads(text))


def test_integer_entries_beyond_int64():
    doc = json.loads('{"rows": 1, "cols": 1, "entries": [[%d, 0]]}' % 2**70)
    assert serialize.matrix_from_dict(doc)[0, 0] == 1.1805916207174113e21
    doc = json.loads('{"rows": 1, "cols": 1, "entries": [[0, %d]]}' % 10**400)
    with pytest.raises(serialize.SchemaError) as err:
        serialize.matrix_from_dict(doc, "T")
    assert "T.entries[0]" in str(err.value) and "finite" in str(err.value)


def test_pairs_round_trip(rng, tmp_path):
    pairs = [(random_complex(rng, 2), random_complex(rng, 2)) for _ in range(3)]
    path = tmp_path / "pairs.json"
    serialize.save_pairs(path, pairs)
    back = serialize.load_pairs(path)
    assert len(back) == 3
    for (a, b), (a2, b2) in zip(pairs, back):
        assert np.array_equal(a, a2) and np.array_equal(b, b2)


def test_pairs_schema_errors():
    with pytest.raises(serialize.SchemaError):
        serialize.pairs_from_dict({"pairs": []})
    with pytest.raises(serialize.SchemaError) as err:
        serialize.pairs_from_dict({"pairs": [{"A": {"rows": 1, "cols": 1, "entries": [[0.0, 0.0]]}}]})
    assert "pairs[0].B" in str(err.value)


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2,')
    with pytest.raises(serialize.SchemaError):
        serialize.load_matrix(path)
