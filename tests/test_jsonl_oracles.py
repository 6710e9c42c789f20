"""Oracles for the JSON Lines byte paths: the prebuilt canonical encoder, the
prediction lines built from each distinct value's JSON, and the decoder's
scanner called directly. These also run on the lowest Python the package
allows, since the prebuilt encoder depends on `c_make_encoder`'s arguments."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxpath.infer import (
    MODE_DEEPEST_VALID,
    MODE_LEAF_CONFIDENT,
    MODE_REPATHED,
    PredictionPath,
    prediction_to_dict,
    repath,
    select_prediction,
    write_predictions,
)
from taxpath.moe import label_tables
from taxpath.taxonomy import NULL_CODE, build_taxonomy
from taxpath.util import canonical_json, read_jsonl, write_jsonl

ORACLE = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
UNPAUSED = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], derandomize=True)

# text a file can hold (no lone surrogates): control characters, quotes, backslashes, non-ASCII, U+2028
odd_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\r\t\b\f", "  ", "é漢\U0001f600", "</script>", ""])
numbers = (st.integers() | st.integers(min_value=2**53 - 2, max_value=2**70) | st.floats()
           | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, -1e300, math.nan, math.inf, -math.inf]))
json_trees = st.recursive(
    st.none() | st.booleans() | numbers | odd_text,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(odd_text, inner, max_size=4),
    max_leaves=20,
)
rows = st.dictionaries(odd_text, json_trees, max_size=5)


@settings(max_examples=400, derandomize=True)
@given(value=json_trees)
def test_canonical_json_is_the_canonical_encoders_encode(value):
    assert canonical_json(value) == ORACLE.encode(value)


@UNPAUSED
@given(rows=st.lists(rows, max_size=4))
def test_write_jsonl_writes_the_canonical_encoders_lines(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter(rows))
    assert path.read_bytes() == "".join(ORACLE.encode(row) + "\n" for row in rows).encode("utf-8")


def test_canonical_json_refuses_what_the_canonical_encoder_refuses():
    for value in ({1, 2}, {"k": object()}, {(1, 2): 3}, b"bytes"):
        with pytest.raises(TypeError) as expected:
            ORACLE.encode(value)
        with pytest.raises(TypeError) as got:
            canonical_json(value)
        assert str(got.value) == str(expected.value)


confidences = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0])
codes = odd_text.filter(lambda code: code and code != NULL_CODE)


@st.composite
def prediction_rows(draw):
    """Ids and `PredictionPath` rows of odd codes, few and repeating, as a dump's are."""
    pool = draw(st.lists(codes, min_size=1, max_size=4, unique=True))
    code_tuples = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple)
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(odd_text, min_size=n, max_size=n))
    preds = [PredictionPath(path, draw(st.sampled_from(pool)),
                            draw(st.sampled_from([MODE_LEAF_CONFIDENT, MODE_DEEPEST_VALID, MODE_REPATHED])),
                            draw(confidences), draw(code_tuples))
             for path in draw(st.lists(code_tuples, min_size=n, max_size=n))]
    return ids, preds


def dict_lines(tmp_path, ids, preds) -> bytes:
    """The bytes of a dump written a row dict at a time, as `prediction_to_dict` holds it."""
    path = tmp_path / "oracle.jsonl"
    write_jsonl(path, map(prediction_to_dict, ids, preds))
    return path.read_bytes()


@UNPAUSED
@given(case=prediction_rows())
def test_write_predictions_of_rows_writes_the_lines_of_their_dicts(tmp_path, case):
    ids, preds = case
    path = tmp_path / "pred.jsonl"
    write_predictions(path, ids, preds)
    assert path.read_bytes() == dict_lines(tmp_path, ids, preds)


@st.composite
def column_predictions(draw):
    """Ids and a `Predictions` over a two-level taxonomy of odd codes, with any confidences."""
    top = draw(st.lists(codes, min_size=1, max_size=3, unique=True))
    below = draw(st.lists(codes.filter(lambda code: code not in top), min_size=1, max_size=4, unique=True))
    nodes = [{"code": code, "name": "n", "definition": "d", "level": 1} for code in top]
    nodes += [{"code": code, "name": "n", "definition": "d", "level": 2, "parent": draw(st.sampled_from(top))}
              for code in below]
    taxonomy = build_taxonomy(nodes)
    spaces = (taxonomy.per_level_labels[1], taxonomy.per_level_labels[2])  # each level's codes, NULL last
    n = draw(st.integers(0, 8))
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    probs = [np.array(draw(st.lists(st.lists(values, min_size=len(s), max_size=len(s)), min_size=n, max_size=n)),
                      dtype=np.float64).reshape(n, len(s)) for s in spaces]
    preds = select_prediction(probs, label_tables(taxonomy, len(spaces)), draw(st.sampled_from([0.0, 0.5, 1.0])))
    if draw(st.booleans()):
        preds = repath(preds, taxonomy)
    leaf_confidence = np.array(draw(st.lists(confidences, min_size=n, max_size=n)), dtype=np.float64)
    return draw(st.lists(odd_text, min_size=n, max_size=n)), dataclasses.replace(preds, leaf_confidence=leaf_confidence)


@UNPAUSED
@given(case=column_predictions())
def test_write_predictions_of_columns_writes_the_lines_of_their_row_dicts(tmp_path, case):
    ids, preds = case
    path = tmp_path / "pred.jsonl"
    write_predictions(path, ids, preds)
    assert path.read_bytes() == dict_lines(tmp_path, ids, preds.rows())


# the messages `json.loads` gives, each after the file and the line
BAD_LINES = [
    ('{"a": 1', "Expecting ',' delimiter: line 1 column 8 (char 7)"),  # truncated
    ('{"a": [1, 2', "Expecting ',' delimiter: line 1 column 12 (char 11)"),
    ('{"a": "b', "Unterminated string starting at: line 1 column 7 (char 6)"),
    ("[", "Expecting value: line 1 column 2 (char 1)"),
    ('{"a": nul}', "Expecting value: line 1 column 7 (char 6)"),
    ("tru", "Expecting value: line 1 column 1 (char 0)"),  # no value at all
    ("-", "Expecting value: line 1 column 1 (char 0)"),
    ("42 43", "Extra data: line 1 column 4 (char 3)"),  # a bare value, then trailing data
    ('{"a": 1}  \t x', "Extra data: line 1 column 13 (char 12)"),
    ('{"a": 1}{"b": 2}', "Extra data: line 1 column 9 (char 8)"),
    ("[1] ]", "Extra data: line 1 column 5 (char 4)"),
    ('\ufeff{"a": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("\ufeff", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
]


@pytest.mark.parametrize("text, message", BAD_LINES)
def test_read_jsonl_words_a_bad_line_as_json_loads_does(tmp_path, text, message):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 0}\n\n' + text + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as loads:
        json.loads(text)
    assert str(loads.value) == message
    for required in ((), ("a",)):
        with pytest.raises(ValueError) as info:
            list(read_jsonl(path, required=required))
        assert str(info.value) == f"{path}: bad JSON on line 3: {message}"
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("text", ['"x"', "null", "[1]", "3"])
def test_read_jsonl_with_required_keys_refuses_a_bare_value(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    assert list(read_jsonl(path)) == [json.loads(text)]
    with pytest.raises(ValueError) as info:
        list(read_jsonl(path, required=("a",)))
    assert str(info.value) == f"{path}: line 1 is not a JSON object"


@UNPAUSED
@given(required=st.permutations(["id", "path", "leaf", "b", "a"]), present=st.sets(st.sampled_from(["id", "path", "leaf", "b", "a", "z"])))
def test_read_jsonl_names_the_first_missing_key_in_required_order(tmp_path, required, present):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({key: 1 for key in present}) + "\n", encoding="utf-8")
    missing = [key for key in required if key not in present]
    if not missing:
        assert list(read_jsonl(path, required=tuple(required))) == [{key: 1 for key in present}]
        return
    with pytest.raises(ValueError) as info:
        list(read_jsonl(path, required=tuple(required)))
    assert str(info.value) == f"{path}: the row on line 1 has no {missing[0]!r} key"
