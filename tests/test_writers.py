"""The writers stream: they write the bytes a one-shot join gives, hold a bounded share of the file, and
leave the target as it was when a row fails part way. The error classes of the encode and the text
layer depend on the interpreter, so these also run on the lowest Python the package allows."""
from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from taxpath.cli import dispatch
from taxpath.dataset import record_to_dict, write_records
from taxpath.infer import (
    MODE_DEEPEST_VALID,
    MODE_LEAF_CONFIDENT,
    MODE_REPATHED,
    PredictionPath,
    label_tables,
    prediction_to_dict,
    repath,
    select_prediction,
    write_predictions,
)
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.util import WRITE_LINES, canonical_json, write_jsonl

CORPUS = synth_corpus(SynthConfig(leaves=30, samples=4097, leaf_depth_min=2, leaf_depth_max=4), seed=3)
TAXONOMY = CORPUS.taxonomy
SPACES = tuple(TAXONOMY.per_level_labels[level] for level in range(1, 5))
# empty, one row, and either side of one, four and eight writes' worth of lines
COUNTS = (0, 1, WRITE_LINES - 1, WRITE_LINES, WRITE_LINES + 1, 4 * WRITE_LINES - 1, 4 * WRITE_LINES,
          4 * WRITE_LINES + 1, 8 * WRITE_LINES + 1)


def predictions(n: int, seed: int = 0):
    """A `Predictions` of `n` rows drawn around 40 prototype rows, as a dump repeats its paths, half repathed."""
    rng = np.random.default_rng(seed)
    prototype = rng.integers(40, size=n)
    probs = []
    for space in SPACES:
        logits = rng.normal(size=(40, len(space)))[prototype] * 4 + rng.normal(size=(n, len(space))) * 1e-3
        probs.append(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
    preds = select_prediction(probs, label_tables(TAXONOMY, len(SPACES)), 0.5)
    return repath(preds, TAXONOMY) if seed % 2 else preds


def reference_rows(preds) -> list[PredictionPath]:
    """The rows of a `Predictions`, read one at a time off its arrays."""
    codes, chains = preds.tables.codes, preds.tables.chains
    rows = []
    for k in range(len(preds)):
        path = chains[preds.leaf[k]] if preds.repathed[k] else tuple(codes[preds.path[k, : preds.last[k] + 1]])
        mode = (MODE_REPATHED if preds.repathed[k] else MODE_LEAF_CONFIDENT if preds.confident[k]
                else MODE_DEEPEST_VALID)
        rows.append(PredictionPath(path, path[-1], mode, float(preds.leaf_confidence[k]),
                                   tuple(codes[preds.argmax[k]])))
    return rows


def one_shot(rows) -> bytes:
    """The bytes of every row's canonical line, joined and encoded at once."""
    return "".join([canonical_json(row) + "\n" for row in rows]).encode("utf-8")


def test_the_test_predictions_hold_every_mode_and_null_argmax():
    rows = reference_rows(predictions(COUNTS[-1], seed=1)) + reference_rows(predictions(COUNTS[-1]))
    assert {row.mode for row in rows} == {MODE_REPATHED, MODE_LEAF_CONFIDENT, MODE_DEEPEST_VALID}
    assert any("∅" in row.per_level_argmax for row in rows)


@pytest.mark.parametrize("n", COUNTS)
def test_write_jsonl_and_write_records_write_the_one_shot_bytes(tmp_path, n):
    records = CORPUS.records[:n]
    write_records(tmp_path / "records.jsonl", records)
    assert (tmp_path / "records.jsonl").read_bytes() == one_shot(map(record_to_dict, records))
    rows = [{"id": r.id, "n": k, "path": list(r.label_path)} for k, r in enumerate(records)]
    write_jsonl(tmp_path / "rows.jsonl", iter(rows))
    assert (tmp_path / "rows.jsonl").read_bytes() == one_shot(rows)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_write_predictions_of_columns_and_of_rows_write_the_one_shot_bytes(tmp_path, n, seed):
    preds = predictions(n, seed)
    ids = [f"p{k:05d}" for k in range(n)]
    expected = one_shot(map(prediction_to_dict, ids, reference_rows(preds)))
    write_predictions(tmp_path / "columns.jsonl", ids, preds)
    assert (tmp_path / "columns.jsonl").read_bytes() == expected
    write_predictions(tmp_path / "rows.jsonl", ids, reference_rows(preds))
    assert (tmp_path / "rows.jsonl").read_bytes() == expected
    assert preds.rows() == reference_rows(preds)


# --- memory ------------------------------------------------------------------------

def write_peak(write) -> int:
    """The most bytes `write()` holds at once, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_20k_rows_holds_at_most_a_quarter_of_the_file(tmp_path):
    preds = predictions(20_000, seed=1)
    ids = [f"p{k:05d}" for k in range(len(preds))]
    rows = reference_rows(preds)
    dicts = [prediction_to_dict(i, row) for i, row in zip(ids, rows)]
    path = tmp_path / "pred.jsonl"
    writers = {"columns": lambda: write_predictions(path, ids, preds),
               "rows": lambda: write_predictions(path, ids, rows),
               "dicts": lambda: write_jsonl(path, dicts)}
    for name, write in writers.items():
        peak = write_peak(write)
        size = path.stat().st_size
        assert peak <= size / 4, (name, peak, size)


def test_repath_of_20k_rows_holds_at_most_a_quarter_of_the_dump(tmp_path):
    pred, tax, out = tmp_path / "pred.jsonl", tmp_path / "taxonomy.json", tmp_path / "repathed.jsonl"
    preds = predictions(20_000)  # not repathed: the subcommand rewrites the confident rows
    write_predictions(pred, [f"p{k:05d}" for k in range(len(preds))], preds)
    tax.write_bytes(TAXONOMY.to_json_bytes())
    peak = write_peak(lambda: dispatch(["repath", "--pred", str(pred), "--taxonomy", str(tax), "--out", str(out)]))
    assert out.read_bytes() != pred.read_bytes()
    assert peak <= pred.stat().st_size / 4, (peak, pred.stat().st_size)


# --- a row that fails part way -----------------------------------------------------

def bad_rows(n: int, at: int, value) -> list[dict]:
    return [{"id": f"r{k}", "value": value if k == at else k} for k in range(n)]


@pytest.mark.parametrize("value, error", [({1, 2}, TypeError), ("\ud800", UnicodeEncodeError)])
def test_a_row_that_fails_mid_stream_raises_and_leaves_the_old_file(tmp_path, value, error):
    n = 3 * WRITE_LINES
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error) as raised:
        write_jsonl(path, iter(bad_rows(n, WRITE_LINES + 5, value)))
    assert type(raised.value) is error
    preds = predictions(n)
    ids = [f"p{k}" for k in range(n)]
    ids[2 * WRITE_LINES + 1] = value
    for rows in (preds, reference_rows(preds)):
        with pytest.raises(error) as raised:
            write_predictions(path, ids, rows)
        assert type(raised.value) is error
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]  # no *.tmp left behind


def test_a_row_that_fails_leaves_no_file_where_there_was_none(tmp_path):
    with pytest.raises(TypeError):
        write_jsonl(tmp_path / "rows.jsonl", iter(bad_rows(2 * WRITE_LINES, WRITE_LINES, object())))
    assert list(tmp_path.iterdir()) == []


def test_a_row_that_fails_leaves_no_directory_the_write_made(tmp_path):
    (tmp_path / "kept").mkdir()
    for target in (tmp_path / "new" / "deeper" / "rows.jsonl", tmp_path / "kept" / "new" / "rows.jsonl"):
        with pytest.raises(TypeError):
            write_jsonl(target, iter(bad_rows(2 * WRITE_LINES, WRITE_LINES, object())))
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == ["kept"]
