"""The JSON Lines readers hold each repeated value once.

`read_records` and `read_predictions` take every string and tuple of strings
that rows repeat, and the keys of prediction rows, from one memo per read
(`util.read_jsonl`'s `same`). These tests check that the values they return
are those a `json.loads` per line gives, of the same types and in the same key
order, that equal values are one object, that no row shares a list with
another, and that the sharing shows in the memory a read holds. They also run
on the lowest Python the package allows.
"""
from __future__ import annotations

import gc
import json
import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxpath.dataset import ProductRecord, read_records, write_records
from taxpath.infer import MODE_REPATHED, PredictionPath, read_predictions, write_predictions
from taxpath.synth import SynthConfig, synth_corpus

UNPAUSED = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], derandomize=True)


def write_lines(path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def record_row(i: int, path: list[str], category: str = "cat", **extra) -> dict:
    return {"id": f"r{i}", "title": f"thing {i}", "category_name": category, "bu_code": "bu00",
            "ou_code": "ou00", "system_code": "sys0", "label_path": path, "source": "goods_registry", **extra}


def test_records_with_equal_values_share_one_object(tmp_path):
    path = tmp_path / "records.jsonl"
    write_lines(path, [record_row(0, ["A", "A.1"], cpvs=[["k", "v"]]), record_row(1, ["A", "A.1"], cpvs=[["k", "v"]]),
                       record_row(2, ["A"], category="other")])
    first, second, third = read_records(path)
    assert first.label_path == ("A", "A.1") and first.label_path is second.label_path
    assert first.cpvs[0] is second.cpvs[0]
    for key in ("category_name", "bu_code", "ou_code", "system_code", "source"):
        assert getattr(first, key) is getattr(second, key)
    assert (third.category_name, third.bu_code, third.label_path) == ("other", "bu00", ("A",))
    assert first.id is not second.id and first.title != second.title


def prediction_row(i: int, path: list[str], **extra) -> dict:
    return {"id": f"r{i}", "leaf": path[-1], "leaf_confidence": 0.5, "mode": "repathed", "path": path,
            "per_level_argmax": path + ["__NULL__"], **extra}


def test_equal_prediction_codes_are_one_object_and_each_row_keeps_its_lists(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_lines(path, [prediction_row(0, ["A", "A.1"]), prediction_row(1, ["A", "A.1"]), prediction_row(2, ["A"])])
    first, second, third = rows = read_predictions(path)
    assert first["leaf"] is second["leaf"] is first["path"][1] is second["per_level_argmax"][1]
    assert first["path"][0] is third["path"][0] is third["leaf"] is second["per_level_argmax"][0]
    assert first["mode"] is second["mode"] is third["mode"]
    assert first["per_level_argmax"][-1] is third["per_level_argmax"][-1]
    assert first["path"] is not second["path"] and first["per_level_argmax"] is not second["per_level_argmax"]
    first["path"].append("A.1.1")
    first["per_level_argmax"][0] = "B"
    assert second["path"] == ["A", "A.1"] and second["per_level_argmax"] == ["A", "A.1", "__NULL__"]
    assert [list(row) for row in rows] == [list(prediction_row(0, ["A"]))] * 3


def test_prediction_rows_share_one_key_object_per_distinct_key(tmp_path):
    path = tmp_path / "preds.jsonl"
    shuffled_row = dict(reversed(prediction_row(1, ["A"], note=1).items()))
    write_lines(path, [prediction_row(0, ["A", "A.1"], note=None), shuffled_row, prediction_row(2, ["B"])])
    rows = read_predictions(path)
    assert [list(row) for row in rows] == [list(prediction_row(0, ["A"], note=None)), list(shuffled_row),
                                           list(prediction_row(2, ["B"]))]
    keys = {}
    assert all(keys.setdefault(key, key) is key for row in rows for key in row)
    assert len(keys) == 7


# --- the json.loads oracle -----------------------------------------------------------

codes = st.sampled_from(["A", "A.1", "B", "é漢", "", "1", "true"])
scalars = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from([0.0, -0.0, 1.0, 2.5]) | codes
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(codes, inner, max_size=2), max_leaves=6)
extra_keys = st.dictionaries(st.sampled_from(["extra", "note", "ZZ"]), json_values, max_size=2)


@st.composite
def shuffled(draw, row: dict) -> dict:
    """`row` with its keys in a drawn order."""
    return dict(draw(st.permutations(list(row.items()))))


@st.composite
def record_rows(draw):
    row = {"id": draw(st.sampled_from(["r1", "r2", "", "é"]) | st.integers(-3, 3)),
           "title": draw(codes), "label_path": draw(st.lists(codes, max_size=3)),
           **{key: draw(codes) for key in ("category_name", "bu_code", "ou_code", "system_code", "source")}}
    if draw(st.booleans()):
        row["cpvs"] = draw(st.none() | st.lists(st.lists(codes, min_size=2, max_size=2), max_size=2))
    return draw(shuffled({**draw(extra_keys), **row}))


@st.composite
def prediction_rows(draw):
    path = draw(st.lists(codes, max_size=3))
    row = {"id": draw(codes), "leaf": draw(codes), "path": path}
    if draw(st.booleans()):
        row["leaf_confidence"] = draw(st.integers(0, 1) | st.sampled_from([0.0, -0.0, 0.25, 1.0]))
    if draw(st.booleans()):  # a string, or any other value: scoring does not read it
        row["mode"] = draw(json_values)
    if draw(st.booleans()):  # the codes, or an unchecked value: nested lists, numbers equal to True
        row["per_level_argmax"] = draw(st.just(list(path)) | st.lists(json_values, max_size=3) | json_values)
    return draw(shuffled({**draw(extra_keys), **row}))


def reference_record(doc: dict) -> ProductRecord:
    cpvs = doc.get("cpvs")
    return ProductRecord(str(doc["id"]), doc["title"], doc["category_name"], doc["bu_code"], doc["ou_code"],
                         doc["system_code"], tuple(doc["label_path"]), doc["source"],
                         None if cpvs is None else tuple(map(tuple, cpvs)))


@UNPAUSED
@given(rows=st.lists(record_rows(), max_size=6))
def test_read_records_equals_a_json_loads_per_line(tmp_path, rows):
    path = tmp_path / "records.jsonl"
    write_lines(path, rows)
    expected = [reference_record(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]
    assert repr(read_records(path)) == repr(expected)  # repr tells True from 1 and -0.0 from 0.0


@UNPAUSED
@given(rows=st.lists(prediction_rows(), max_size=6))
def test_read_predictions_equals_a_json_loads_per_line(tmp_path, rows):
    path = tmp_path / "preds.jsonl"
    write_lines(path, rows)
    expected = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    got = read_predictions(path)
    assert repr(got) == repr(expected)  # and the keys in the file's order
    lists = [row[key] for row in got for key in ("path", "per_level_argmax") if isinstance(row.get(key), list)]
    assert len(set(map(id, lists))) == len(lists)  # no row shares a list with another
    keys = {}
    assert all(keys.setdefault(key, key) is key for row in got for key in row)  # one object per distinct key


# --- memory ------------------------------------------------------------------------

def held_bytes(read) -> int:
    """The bytes that what `read()` returns holds, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        value = read()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del value
    return held


def test_records_read_hold_at_most_three_fifths_of_unshared_records(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, synth_corpus(SynthConfig(samples=5000), seed=1).records)

    def unshared():
        with open(path, encoding="utf-8") as fh:
            return [reference_record(json.loads(line)) for line in fh]

    assert held_bytes(lambda: read_records(path)) <= 0.6 * held_bytes(unshared)


def test_prediction_rows_read_hold_at_most_seven_tenths_of_rows_with_their_own_keys(tmp_path):
    path = tmp_path / "preds.jsonl"
    records = synth_corpus(SynthConfig(samples=20_000), seed=2).records
    write_predictions(path, [r.id for r in records],
                      [PredictionPath(r.label_path, r.leaf(), MODE_REPATHED, k / 7e4, r.label_path + ("∅",))
                       for k, r in enumerate(records)])

    def unshared():  # the same rows, each with its own six key strings, as the JSON scanner makes them
        return [{key.encode().decode(): value for key, value in row.items()} for row in read_predictions(path)]

    assert held_bytes(lambda: read_predictions(path)) <= 0.7 * held_bytes(unshared)
