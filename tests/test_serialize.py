import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(_finite, st.integers(-2**70, 2**70), _finite.map(np.float64),
                    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]))
# float pairs take the writer's bulk path, mixed pairs the element-wise one
_pairs = st.one_of(*(st.lists(st.lists(x, min_size=2, max_size=2), max_size=6)
                     for x in (_finite, _number)))
_leaf = st.one_of(st.none(), st.booleans(), _number, st.text(max_size=4), _pairs)
_document = st.recursive(
    _leaf,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


def _reference_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=_document)
def test_dump_json_matches_json_dumps(obj, tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "out.json"
    serialize.dump_json(obj, path)
    assert path.read_bytes() == _reference_bytes(obj)


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [{}], {"a": []}, {"a": {}}, [[1.0, 2.0], []], [[1.0, 2.0], [3.0]],
    [[1, 2.0], [np.float64(-0.0), 5e-324]], [[1e308, -0.0], [True, None]],
    {"\u00e9\n\"\\": [[0.1, -2.5e-300]], "\ud83d": None, "": [1.5, 2]},
    {"entries": np.ones((3, 2)).tolist()},
    {"p": ([1.0, 2.0],), "q": [(1.0, 2.0)], "r": {2: "integer keys", 1: [[1.0, 2.0]]}},
])
def test_dump_json_matches_json_dumps_on_edge_cases(obj, tmp_path):
    path = tmp_path / "out.json"
    serialize.dump_json(obj, path)
    assert path.read_bytes() == _reference_bytes(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["value", "pair", "nested-pair"])
def test_dump_json_rejects_nonfinite_and_leaves_path(bad, where, tmp_path):
    obj = {"value": bad, "pair": [[1.0, 2.0], [0.5, bad]],
           "nested-pair": {"m": {"entries": [[bad, 0.0]] + [[1.0, 2.0]] * 50}}}[where]
    path = tmp_path / "out.json"
    path.write_text("earlier output\n")
    with pytest.raises(ValueError):
        serialize.dump_json({"x": obj}, path)
    assert path.read_text() == "earlier output\n"


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
