import gc
import json
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxpath import dataset, infer, metrics, semantic, util
from taxpath.dataset import ProductRecord, read_records, write_records
from taxpath.infer import PredictionPath, read_predictions, write_predictions
from taxpath.metrics import evaluate, write_report
from taxpath.semantic import FEATURE_NAMES, JudgeModel, annotate_corpus
from taxpath.util import (
    _ALNUM_RUNS,
    canonical_json,
    fnv1a_64,
    gc_paused,
    normalize_title,
    read_jsonl,
    tokenize,
    write_jsonl,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(value=json_values)
def test_canonical_json_equals_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert canonical_json(value) == expected
    assert canonical_json(value) == expected  # the shared encoder keeps no state between calls


def per_character_normalize_title(title):
    """The per-character rule, kept as the oracle for `normalize_title`."""
    text = unicodedata.normalize("NFKC", title).lower()
    return " ".join("".join(ch if ch.isalnum() else " " for ch in text).split())


def test_alnum_runs_match_exactly_the_isalnum_code_points():
    mismatched = [cp for cp in range(sys.maxunicode + 1)
                  if bool(_ALNUM_RUNS.fullmatch(chr(cp))) != chr(cp).isalnum()]
    assert mismatched == []


@settings(max_examples=500)
@given(title=st.text() | st.text(alphabet="aZ9_-. \t\u00a0\u00c4\u00df\u2460\uff21\u6f22"))
def test_normalize_title_equals_the_per_character_rule(title):
    assert normalize_title(title) == per_character_normalize_title(title)


@settings(max_examples=500, derandomize=True)
@given(text=st.text() | st.text(alphabet="aZ9_=-. \t\u00a0\u00c4\u00df\u2460\uff21\u6f22"))
def test_tokenize_splits_the_per_character_rule(text):
    assert tokenize(text) == per_character_normalize_title(text).split()


def bytewise_fnv1a_64(data):
    """FNV-1a 64-bit over the UTF-8 bytes of a str, byte by byte and without a memo: the oracle for `fnv1a_64`."""
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8") if isinstance(data, str) else data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


@settings(max_examples=500, derandomize=True)
@given(items=st.lists(st.text() | st.binary() | st.text(alphabet="aZ9=_ \u00c4\u00df\u6f22\U0001f600", max_size=80),
                      max_size=6))
def test_the_memoised_fnv1a_64_equals_the_byte_loop(items):
    items += [item.encode("utf-8") for item in items if isinstance(item, str)]  # a str and its bytes: two keys
    for item in items + items:  # the second time from the memo, unless too long to keep
        assert fnv1a_64(item) == bytewise_fnv1a_64(item)


def test_the_fnv_memo_keeps_at_most_its_bound_of_entries():
    util._fnv1a_64_memo.cache_clear()
    for i in range(util.FNV_MEMO_ENTRIES + 100):
        assert fnv1a_64(f"token{i}") == bytewise_fnv1a_64(f"token{i}")
        fnv1a_64("token0")  # used on every call, so the least recently used entries go first
    info = util._fnv1a_64_memo.cache_info()
    assert info.maxsize == info.currsize == util.FNV_MEMO_ENTRIES
    assert fnv1a_64("token0") == bytewise_fnv1a_64("token0")
    assert util._fnv1a_64_memo.cache_info().hits == info.hits + 1  # still kept
    assert fnv1a_64("token1") == bytewise_fnv1a_64("token1")
    assert util._fnv1a_64_memo.cache_info().misses == info.misses + 1  # gone when the memo filled


@pytest.mark.parametrize("longest", ["x" * util.FNV_MEMO_LENGTH, b"\xff" * util.FNV_MEMO_LENGTH,
                                     "\u6f22" * util.FNV_MEMO_LENGTH])
def test_an_over_long_token_is_hashed_but_not_kept(longest):
    util._fnv1a_64_memo.cache_clear()
    over = longest + longest[:1]
    for _ in range(2):
        assert fnv1a_64(over) == bytewise_fnv1a_64(over)
    assert util._fnv1a_64_memo.cache_info().currsize == 0
    assert fnv1a_64(longest) == bytewise_fnv1a_64(longest)
    assert fnv1a_64(longest) == bytewise_fnv1a_64(longest)
    assert util._fnv1a_64_memo.cache_info()[:2] == (1, 1)  # (hits, misses): the longest input is kept


def json_loads_reader(path):
    """`read_jsonl` as it read with `json.loads`, kept as the oracle for its one-call decode."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: bad JSON on line {lineno}: {exc}") from exc


def read_outcome(reader, path):
    """The rows a reader yields (repr, so NaN and -0.0 compare), or the message it raises."""
    try:
        return repr(list(reader(path)))
    except ValueError as exc:
        return f"error: {exc}"


# unicode whitespace that str.strip() removes and JSON does not accept, beside JSON's own
odd_space = st.sampled_from([" ", "\t", "  \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
junk = st.text(alphabet='{}[]",:0123456789.-+eEtrufalsnNI x\\', min_size=1, max_size=6)
encoded = st.builds(lambda value, ascii: json.dumps(value, ensure_ascii=ascii), json_values, st.booleans())
json_lines = st.one_of(
    encoded,
    st.builds(json.dumps, st.dictionaries(st.text(max_size=4), json_values, max_size=4)),
    st.builds(lambda text, space, tail: text + space + tail, encoded, odd_space, junk),  # trailing data
    st.builds(lambda text, cut: text[: max(1, int(len(text) * cut))], encoded, st.floats(0, 1)),  # truncated
    st.builds(lambda text: "\ufeff" + text, encoded),  # a leading BOM
    st.builds(lambda space, text: space + text + space, odd_space, encoded),
    st.sampled_from([
        "NaN", "-Infinity", '{"a": NaN, "b": Infinity}', '{"a": 1, "a": 2}', '"\\ud800"', '["\\udc00x"]',
        '{"a": "\\ud83d\\ude00"}', '{"a": 1} {"b": 2}', "[1,]", '{"a" 1}', "tru", "'a'", "01", "-", "", "\ufeff",
    ]),
)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(json_lines, min_size=1, max_size=4), newline=st.sampled_from(["\n", "\r\n"]))
def test_read_jsonl_reads_each_line_as_json_loads_does(tmp_path, lines, newline):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    assert read_outcome(read_jsonl, path) == read_outcome(json_loads_reader, path)


@pytest.mark.parametrize("text, message", [
    ('{"a": 1}  \t x', "Extra data: line 1 column 13 (char 12)"),
    ('\ufeff{"a": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
])
def test_read_jsonl_names_the_file_line_and_json_message(tmp_path, text, message):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"ok": true}\n\n' + text + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        list(read_jsonl(path))
    assert str(info.value) == f"{path}: bad JSON on line 3: {message}"


json_objects = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        st.none() | st.booleans() | st.floats(allow_nan=False) | st.text()
        | st.integers() | st.integers(min_value=2**53 - 2, max_value=2**70) | st.sampled_from([-0.0, 1e-7, -1e-300]),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=20,
    ),
    max_size=5,
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(json_objects, max_size=4) | st.lists(st.just({"t": "\u00e9\u6f22\U0001f600", "x": [-0.0, 1e-7, 2**64]}), min_size=1, max_size=2))
def test_write_jsonl_writes_canonical_lines_that_read_back_equal(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter(rows))
    assert path.read_bytes() == "".join(canonical_json(row) + "\n" for row in rows).encode("utf-8")
    back = list(read_jsonl(path))
    assert back == rows
    assert [canonical_json(row) for row in back] == [canonical_json(row) for row in rows]  # keeps -0.0 and big ints exact


def test_write_jsonl_of_no_rows_writes_an_empty_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter([]))
    assert path.read_bytes() == b""
    assert list(read_jsonl(path)) == []


def test_gc_paused_leaves_the_collector_as_it_found_it():
    seen = []
    probe = gc_paused(lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    probe()
    assert gc.isenabled()
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]


def test_gc_paused_turns_the_collector_back_on_when_the_function_raises():
    @gc_paused
    def fail():
        raise KeyError("boom")

    with pytest.raises(KeyError, match="boom"):
        fail()
    assert gc.isenabled()


def test_gc_paused_nests():
    inner = gc_paused(gc.isenabled)
    outer = gc_paused(lambda: (inner(), gc.isenabled()))
    assert outer() == (False, False)
    assert gc.isenabled()


def record(i, path=("A", "A.1", "A.1.1")):
    return ProductRecord(id=f"r{i:05d}", title=f"alpha one item {i}", category_name="cat", bu_code="bu00",
                         ou_code="ou00", system_code="sys0", label_path=path, source="goods_registry")


def test_the_corpus_sized_builders_run_with_the_collector_paused_and_the_writers_without(
        tmp_path, chain_taxonomy, monkeypatch):
    seen = {}

    def spy_on(owner, name, caller):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            seen.setdefault(caller, []).append(gc.isenabled())
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    spy_on(dataset, "read_jsonl", "read_records")
    spy_on(infer, "atomic_write_chunks", "write_predictions")
    spy_on(infer, "read_jsonl", "read_predictions")
    spy_on(metrics, "category_counts", "evaluate")
    spy_on(metrics, "atomic_write_text", "write_report")
    spy_on(JudgeModel, "judge_batch", "annotate_corpus")

    records_path, pred_path = tmp_path / "records.jsonl", tmp_path / "pred.jsonl"
    write_records(records_path, [record(0), record(1, ("B", "B.1"))])
    records = read_records(records_path)
    preds = [PredictionPath(r.label_path, r.leaf(), infer.MODE_LEAF_CONFIDENT, 0.9, r.label_path) for r in records]
    write_predictions(pred_path, [r.id for r in records], preds)
    report = evaluate(read_predictions(pred_path), records, chain_taxonomy)
    write_report(tmp_path / "metrics.json", report)
    judge = JudgeModel(weights=np.zeros((len(FEATURE_NAMES), 3)), bias=np.zeros(3), tau_hi=0.5, tau_lo=-0.5,
                       taxonomy_hash=chain_taxonomy.fingerprint())
    assert len(annotate_corpus(records, judge, chain_taxonomy)) == 2

    assert report.leaf_micro_f1 == 1.0
    assert set(seen) == {"read_records", "write_predictions", "read_predictions", "evaluate", "write_report",
                         "annotate_corpus"}
    writers = {"write_predictions", "write_report"}  # they keep few containers alive: a pause did not pay
    assert all(enabled == (caller in writers) for caller, calls in seen.items() for enabled in calls), seen
    assert gc.isenabled()


def test_read_records_sets_off_no_collection(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [record(i) for i in range(5000)])
    generations = []

    def callback(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        records = read_records(path)
    finally:
        gc.callbacks.remove(callback)
    assert len(records) == 5000
    assert generations == []
