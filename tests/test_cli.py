import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from taxpath.cli import build_parser, dispatch, load_config
from taxpath.dataset import cleanse, read_records, write_records
from taxpath.moe import JUDGE_MAGIC, load_checkpoint, save_checkpoint, write_container
from taxpath.semantic import FEATURE_NAMES, JudgeModel
from taxpath.taxonomy import load_taxonomy_file
from taxpath.util import ConfigError, read_jsonl


def run(*argv):
    return dispatch(list(argv))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def gen_config(tmp_path, **synth):
    doc = {
        "seed": 7,
        "synth": {
            "leaves": 15,
            "samples": 200,
            "leaf_depth_min": 2,
            "leaf_depth_max": 3,
            **synth,
        },
        "encoder": {"hash_buckets": 256, "text_dim": 8, "cat_dim": 2,
                    "fields": ["bu_code", "ou_code", "system_code"]},
        "moe": {"levels": 3, "experts_per_level": 2, "expert_hidden_dim": 12},
        "train": {"batch_size": 32, "epochs": 2, "learning_rate": 5e-3, "omega_c": 0.2, "omega_s": 0.2},
    }
    return write_config(tmp_path, doc)


def test_gen_writes_taxonomy_and_records(tmp_path):
    cfg = gen_config(tmp_path)
    out = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(out)) == 0
    assert (out / "taxonomy.json").exists()
    assert (out / "records.jsonl").exists()
    assert (out / "run_manifest.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "gen"
    assert manifest["seed"] == 7
    assert manifest["config"]["synth"]["leaves"] == 15
    assert not list(out.glob("*.tmp"))


def test_unknown_subcommand_exits_1(capsys):
    assert run("frobnicate") == 1


def test_missing_input_file_exits_2(tmp_path):
    cfg = gen_config(tmp_path)
    code = run(
        "cleanse",
        "--config", cfg,
        "--records", str(tmp_path / "nope.jsonl"),
        "--taxonomy", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "out.jsonl"),
    )
    assert code == 2


def test_invalid_config_exits_1(tmp_path):
    cfg = write_config(tmp_path, {"seed": 1, "synth": {"leaves": 0}})
    assert run("gen", "--config", cfg, "--out", str(tmp_path / "x")) == 1


def full_workflow(tmp_path, seed=7):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    run("gen", "--config", cfg, "--out", str(data))
    kept = tmp_path / "kept.jsonl"
    assert run("cleanse", "--config", cfg, "--records", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(kept)) == 0
    splits = tmp_path / "splits"
    assert run("split", "--config", cfg, "--records", str(kept), "--out", str(splits)) == 0
    model = tmp_path / "model.ckpt"
    assert run("train", "--config", cfg, "--train", str(splits / "train.jsonl"),
               "--val", str(splits / "val.jsonl"), "--taxonomy", str(data / "taxonomy.json"),
               "--out", str(model), "--log", str(tmp_path / "log.jsonl")) == 0
    preds = tmp_path / "preds.jsonl"
    assert run("predict", "--config", cfg, "--model", str(model),
               "--records", str(splits / "test.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(preds)) == 0
    report = tmp_path / "report.json"
    assert run("eval", "--config", cfg, "--pred", str(preds), "--truth", str(splits / "test.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(report)) == 0
    return cfg, data, kept, splits, model, preds, report


def test_full_cli_workflow(tmp_path, capsys):
    cfg, data, kept, splits, model, preds, report = full_workflow(tmp_path)
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["path_micro_f1"] <= 1.0
    table = capsys.readouterr().out
    assert "Path" in table and "Leaf" in table
    log_rows = list(read_jsonl(tmp_path / "log.jsonl"))
    assert len(log_rows) == 2
    assert set(log_rows[0]) == {"epoch", "train_loss", "val_leaf_acc", "seconds"}


def test_repath_then_eval_keeps_leaf_metrics(tmp_path, capsys):
    cfg, data, kept, splits, model, preds, report = full_workflow(tmp_path)
    repathed = tmp_path / "repathed.jsonl"
    assert run("repath", "--config", cfg, "--pred", str(preds),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(repathed)) == 0
    report2 = tmp_path / "report2.json"
    assert run("eval", "--config", cfg, "--pred", str(repathed), "--truth", str(splits / "test.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(report2)) == 0
    a = json.loads(report.read_text())
    b = json.loads(report2.read_text())
    assert a["leaf_macro_f1"] == b["leaf_macro_f1"]
    assert a["leaf_micro_f1"] == b["leaf_micro_f1"]
    assert b["path_micro_f1"] >= a["path_micro_f1"]


def test_eval_on_perfect_predictions(tmp_path):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    run("gen", "--config", cfg, "--out", str(data))
    records = read_records(data / "records.jsonl")
    rows = [
        {"id": r.id, "path": list(r.label_path), "leaf": r.leaf(), "mode": "leaf_confident",
         "leaf_confidence": 1.0, "per_level_argmax": list(r.label_path)}
        for r in records
    ]
    preds = tmp_path / "perfect.jsonl"
    preds.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    report = tmp_path / "report.json"
    assert run("eval", "--config", cfg, "--pred", str(preds), "--truth", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["path_macro_f1"] == doc["path_micro_f1"] == 1.0
    assert doc["leaf_macro_f1"] == doc["leaf_micro_f1"] == 1.0


def test_judge_subcommand(tmp_path, capsys):
    cfg = gen_config(tmp_path, label_noise_rate=0.2)
    data = tmp_path / "data"
    run("gen", "--config", cfg, "--out", str(data))
    judge_path = tmp_path / "judge.ckpt"
    code = run("judge", "--config", cfg, "--dev", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(judge_path),
               "--annotate", str(data / "records.jsonl"),
               "--annotations", str(tmp_path / "ann.jsonl"))
    assert code == 0
    assert judge_path.exists()
    out = capsys.readouterr().out
    assert "agreement" in out
    rows = list(read_jsonl(tmp_path / "ann.jsonl"))
    assert len(rows) == 200
    assert all(r["verdict"] in ("Y", "N", "U") for r in rows)


def test_pipeline_subcommand(tmp_path):
    cfg = gen_config(tmp_path, label_noise_rate=0.1)
    data = tmp_path / "data"
    run("gen", "--config", cfg, "--out", str(data))
    out = tmp_path / "pipe"
    assert run("pipeline", "--config", cfg, "--records", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(out)) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"cleansed.jsonl", "dev.jsonl", "judge.ckpt", "annotated.jsonl",
                     "final.ckpt", "metrics.json", "run_manifest.json"}


@pytest.mark.parametrize("command", ["pipeline", "train"])
def test_training_subcommands_use_the_configured_field_vocabs(tmp_path, command):
    cfg = gen_config(tmp_path, samples=400)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    doc = json.loads((tmp_path / "config.json").read_text())
    vocabs = {"bu_code": ["zz"], "ou_code": ["zz"], "system_code": ["zz"]}
    doc["encoder"]["field_vocabs"] = vocabs
    cfg = write_config(tmp_path, doc, "vocabs.json")
    out = tmp_path / "out"
    model = out / ("final.ckpt" if command == "pipeline" else "model.ckpt")
    inputs = ("--records" if command == "pipeline" else "--train", str(data / "records.jsonl"),
              "--taxonomy", str(data / "taxonomy.json"), "--out", str(out if command == "pipeline" else model))
    assert run(command, "--config", cfg, *inputs) == 0
    got = load_checkpoint(model, load_taxonomy_file(data / "taxonomy.json")).encoder_config.field_vocabs
    assert {name: list(vocab) for name, vocab in got.items()} == vocabs
    assert json.loads((out / "run_manifest.json").read_text())["config"]["encoder"]["field_vocabs"] == vocabs


@pytest.mark.parametrize("n", [3, 1])
def test_pipeline_on_too_few_records_exits_1_naming_the_empty_split(tmp_path, capsys, n):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    kept, _ = cleanse(read_records(data / "records.jsonl"), load_taxonomy_file(data / "taxonomy.json"))
    records = tmp_path / "records.jsonl"
    write_records(records, kept[:n])
    capsys.readouterr()
    assert run("pipeline", "--config", cfg, "--records", str(records), "--taxonomy", str(data / "taxonomy.json"),
               "--out", str(tmp_path / "pipe")) == 1
    assert "error: stage 2: the val split is empty" in capsys.readouterr().err
    assert not (tmp_path / "pipe" / "final.ckpt").exists()


def test_flag_overrides_config_file(tmp_path):
    cfg = gen_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run("gen", "--config", cfg, "--out", str(out_a))
    run("gen", "--config", cfg, "--seed", "99", "--out", str(out_b))
    a = (out_a / "records.jsonl").read_bytes()
    b = (out_b / "records.jsonl").read_bytes()
    assert a != b
    manifest = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest["seed"] == 99


def test_report_subcommand(tmp_path, capsys):
    cfg, data, kept, splits, model, preds, report = full_workflow(tmp_path)
    capsys.readouterr()
    csv_path = tmp_path / "cdf.csv"
    assert run("report", "--report", str(report), "--cdf-csv", str(csv_path)) == 0
    out = capsys.readouterr().out
    assert "Macro" in out and "per-depth" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "confidence,cumulative_fraction"
    assert len(lines) >= 2


def test_train_with_mis_shaped_judge_exits_1_naming_the_array(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    judge = tmp_path / "judge.ckpt"
    meta = {"tau_hi": 0.5, "tau_lo": -0.5, "popularity": {}, "holdout_agreement": 1.0, "feature_names": FEATURE_NAMES,
            "taxonomy_hash": load_taxonomy_file(data / "taxonomy.json").fingerprint()}
    judge.write_bytes(write_container(JUDGE_MAGIC, meta, {"weights": np.zeros((2, 3)), "bias": np.zeros(3)}))
    capsys.readouterr()
    code = run("train", "--config", cfg, "--train", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--judge", str(judge),
               "--out", str(tmp_path / "model.ckpt"))
    assert code == 1
    err = capsys.readouterr().err
    assert "'weights' has shape (2, 3)" in err
    assert not (tmp_path / "model.ckpt").exists()


# a non-finite judge meta value -> what the error says after the judge's path
NON_FINITE_JUDGES = {
    "nan-popularity": ({"popularity": {"A": float("nan")}}, "judge popularity of 'A' must be finite: nan"),
    "infinite-tau_hi": ({"tau_hi": float("inf")}, "judge thresholds must be finite: tau_hi inf, tau_lo -0.5"),
}


@pytest.mark.parametrize("fault", list(NON_FINITE_JUDGES))
def test_train_with_a_non_finite_judge_meta_value_exits_1_naming_the_judge(tmp_path, capsys, fault):
    meta_update, message = NON_FINITE_JUDGES[fault]
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    judge = tmp_path / "judge.ckpt"
    meta = {"tau_hi": 0.5, "tau_lo": -0.5, "popularity": {}, "holdout_agreement": 1.0, "feature_names": FEATURE_NAMES,
            "taxonomy_hash": load_taxonomy_file(data / "taxonomy.json").fingerprint()}
    judge.write_bytes(write_container(JUDGE_MAGIC, {**meta, **meta_update},
                                      {"weights": np.zeros((len(FEATURE_NAMES), 3)), "bias": np.zeros(3)}))
    capsys.readouterr()
    code = run("train", "--config", cfg, "--train", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--judge", str(judge),
               "--out", str(tmp_path / "model.ckpt"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {judge}: bad judge checkpoint meta: {message}\n"
    assert not (tmp_path / "model.ckpt").exists()


def test_repath_subcommand_rewrites_only_leaf_rows(tmp_path, chain_taxonomy):
    tax = tmp_path / "taxonomy.json"
    tax.write_bytes(chain_taxonomy.to_json_bytes())
    rows = [
        {"id": "a", "leaf": "A.1.1", "path": ["B", "A.1", "A.1.1"], "mode": "leaf_confident"},
        {"id": "b", "leaf": "A.1", "path": ["A", "A.1"], "mode": "deepest_valid"},
        {"id": "c", "leaf": "B.1", "path": ["A", "B.1"], "mode": "leaf_confident"},
        {"id": "d", "leaf": "zzz", "path": ["zzz"], "mode": "deepest_valid"},
    ]
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "repathed.jsonl"
    assert run("repath", "--pred", str(pred), "--taxonomy", str(tax), "--out", str(out)) == 0
    got = list(read_jsonl(out))
    assert got[0] == dict(rows[0], path=["A", "A.1", "A.1.1"], mode="repathed")
    assert got[1] == rows[1]  # an inner node is not a leaf: left alone
    assert got[2] == dict(rows[2], path=["B", "B.1"], mode="repathed")
    assert got[3] == rows[3]  # an unknown code is left alone too


def test_repath_row_without_leaf_exits_1_naming_the_key(tmp_path, chain_taxonomy, capsys):
    tax = tmp_path / "taxonomy.json"
    tax.write_bytes(chain_taxonomy.to_json_bytes())
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "a", "leaf": "A.1.1", "path": ["A"]}) + "\n\n"
                    + json.dumps({"id": "b", "path": ["A"]}) + "\n", encoding="utf-8")
    assert run("repath", "--pred", str(pred), "--taxonomy", str(tax), "--out", str(tmp_path / "out.jsonl")) == 1
    assert f"error: {pred}: the row on line 3 has no 'leaf' key" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_eval_row_without_path_exits_1_naming_the_key(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    records = read_records(data / "records.jsonl")
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps({"id": r.id, "leaf": r.leaf()}) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert run("eval", "--pred", str(pred), "--truth", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(tmp_path / "report.json")) == 1
    assert f"error: {pred}: the row on line 1 has no 'path' key" in capsys.readouterr().err


def test_eval_of_a_dump_with_a_repeated_id_exits_1_naming_the_file_and_the_id(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    records = read_records(data / "records.jsonl")
    rows = [{"id": r.id, "leaf": r.leaf(), "path": list(r.label_path)} for r in records]
    pred = tmp_path / "dup.jsonl"
    pred.write_text("".join(json.dumps(row) + "\n" for row in [*rows, rows[3], rows[1]]), encoding="utf-8")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--pred", str(pred), "--truth", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(out / "report.json")) == 1
    assert capsys.readouterr().err == f"error: {pred}: duplicate id {records[1].id!r} in prediction dump\n"
    assert not out.exists()


def test_eval_of_a_dump_whose_ids_differ_from_the_truth_exits_1_naming_both_files(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    records = read_records(data / "records.jsonl")
    pred = tmp_path / "short.jsonl"
    pred.write_text("".join(json.dumps({"id": r.id, "leaf": r.leaf(), "path": list(r.label_path)}) + "\n"
                            for r in records[1:]), encoding="utf-8")
    truth = data / "records.jsonl"
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--pred", str(pred), "--truth", str(truth),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(out / "report.json")) == 1
    assert capsys.readouterr().err == (f"error: {pred} against {truth}: id mismatch between predictions and truth: "
                                       f"missing={[records[0].id]} extra=[]\n")
    assert not out.exists()


def test_eval_row_with_an_empty_path_exits_1_naming_the_dump_and_the_id(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    records = read_records(data / "records.jsonl")
    rows = [{"id": r.id, "leaf": r.leaf(), "path": list(r.label_path)} for r in records]
    rows[5]["path"] = []
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--pred", str(pred), "--truth", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(out / "report.json")) == 1
    assert capsys.readouterr().err == (f"error: {pred}: prediction {records[5].id!r} has an empty path: "
                                       "no effective leaf\n")
    assert not out.exists()


def test_eval_row_that_is_not_an_object_exits_1(tmp_path, chain_taxonomy, capsys):
    tax = tmp_path / "taxonomy.json"
    tax.write_bytes(chain_taxonomy.to_json_bytes())
    pred = tmp_path / "pred.jsonl"
    pred.write_text('["a", ["A"], "A"]\n', encoding="utf-8")
    assert run("eval", "--pred", str(pred), "--truth", str(pred), "--taxonomy", str(tax),
               "--out", str(tmp_path / "report.json")) == 1
    assert f"error: {pred}: line 1 is not a JSON object" in capsys.readouterr().err


def test_split_records_row_that_is_not_an_object_exits_1(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text("[1, 2]\n", encoding="utf-8")
    assert run("split", "--records", str(records), "--out", str(tmp_path / "splits")) == 1
    assert f"error: {records}: line 1 is not a JSON object" in capsys.readouterr().err


def test_split_records_row_without_title_exits_1_naming_the_key(tmp_path, capsys):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    lines = (data / "records.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[1])
    del doc["title"]
    lines[1] = json.dumps(doc)
    records = tmp_path / "records.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("split", "--config", cfg, "--records", str(records), "--out", str(tmp_path / "splits")) == 1
    assert f"error: {records}: the row on line 2 has no 'title' key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("cleanse", "title", 3, "has a non-string 'title': 3"),
        ("split", "cpvs", [1], "has a 'cpvs' that is not a list of string pairs: [1]"),
    ],
)
def test_records_row_with_a_value_of_the_wrong_type_exits_1_naming_the_key(tmp_path, capsys, command, key, value, message):
    cfg = gen_config(tmp_path)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    lines = (data / "records.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[1])
    doc[key] = value
    lines[1] = json.dumps(doc)
    records = tmp_path / "records.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {"cleanse": ("--taxonomy", str(data / "taxonomy.json"), "--out", str(tmp_path / "kept.jsonl")),
            "split": ("--out", str(tmp_path / "splits"))}[command]
    capsys.readouterr()
    assert run(command, "--config", cfg, "--records", str(records), *args) == 1
    err = capsys.readouterr().err
    assert f"error: {records}: the row on line 2 {message}" in err
    assert "Traceback" not in err


def test_report_without_sample_count_exits_1_naming_the_key(tmp_path, capsys):
    cfg, data, kept, splits, model, preds, report = full_workflow(tmp_path)
    doc = json.loads(report.read_text())
    del doc["sample_count"]
    report.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run("report", "--report", str(report)) == 1
    assert f"error: {report}: evaluation report has no 'sample_count' key" in capsys.readouterr().err


def test_train_with_judge_annotates_each_training_record_once(tmp_path, monkeypatch):
    cfg = gen_config(tmp_path, label_noise_rate=0.2)
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--out", str(data)) == 0
    judge = tmp_path / "judge.ckpt"
    assert run("judge", "--config", cfg, "--dev", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--out", str(judge)) == 0
    calls = []
    original = JudgeModel.judge_batch
    monkeypatch.setattr(
        JudgeModel, "judge_batch",
        lambda self, titles, codes, taxonomy: calls.append(list(zip(titles, codes))) or original(self, titles, codes, taxonomy),
    )
    assert run("train", "--config", cfg, "--train", str(data / "records.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--judge", str(judge),
               "--out", str(tmp_path / "model.ckpt")) == 0
    records = read_records(data / "records.jsonl")
    assert sorted(pair for batch in calls for pair in batch) == sorted((r.title, r.leaf()) for r in records)


def test_train_with_a_judge_distilled_on_another_taxonomy_exits_1_naming_the_judge_and_both_hashes(tmp_path, capsys):
    cfg = gen_config(tmp_path, label_noise_rate=0.2)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("gen", "--config", cfg, "--seed", "1", "--out", str(first)) == 0
    assert run("gen", "--config", cfg, "--seed", "2", "--out", str(second)) == 0
    hashes = [load_taxonomy_file(data / "taxonomy.json").fingerprint() for data in (first, second)]
    assert hashes[0] != hashes[1]
    judge = tmp_path / "judge.ckpt"
    assert run("judge", "--config", cfg, "--dev", str(first / "records.jsonl"),
               "--taxonomy", str(first / "taxonomy.json"), "--out", str(judge)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("train", "--config", cfg, "--train", str(second / "records.jsonl"),
               "--taxonomy", str(second / "taxonomy.json"), "--judge", str(judge), "--out", str(out / "model.ckpt")) == 1
    assert capsys.readouterr().err == (f"error: {judge}: taxonomy hash mismatch: judge {hashes[0][:12]}..., "
                                       f"supplied {hashes[1][:12]}...\n")
    assert not out.exists()


BAD_PREDICTION_VALUES = [
    # eval would die hashing a list id; repath would copy it
    ("id", ["a"], "has a non-string 'id': ['a']"),
    ("id", 1, "has a non-string 'id': 1"),
    ("id", None, "has a non-string 'id': None"),
    ("path", "A", "has a 'path' that is not a list of strings: 'A'"),
    ("path", ["A", 1], "has a 'path' that is not a list of strings: ['A', 1]"),
    ("leaf", ["A.1.1"], "has a non-string 'leaf': ['A.1.1']"),
    ("leaf_confidence", None, "has a 'leaf_confidence' that is not a number: None"),
    ("leaf_confidence", True, "has a 'leaf_confidence' that is not a number: True"),
    ("leaf_confidence", "0.9", "has a 'leaf_confidence' that is not a number: '0.9'"),
    # the JSON decoder reads these tokens as floats; a NaN would reach metrics.json as a bare `NaN`
    ("leaf_confidence", float("nan"), "has a non-finite 'leaf_confidence': nan"),
    ("leaf_confidence", float("inf"), "has a non-finite 'leaf_confidence': inf"),
    ("leaf_confidence", float("-inf"), "has a non-finite 'leaf_confidence': -inf"),
    # a 401-digit JSON integer: evaluate's float() would raise OverflowError
    pytest.param("leaf_confidence", 10**400, f"has a 'leaf_confidence' too large for a float: {10**400}",
                 id="leaf_confidence-401-digit-int"),
]


@pytest.mark.parametrize("command", ["eval", "repath"])
@pytest.mark.parametrize("key, value, message", BAD_PREDICTION_VALUES)
def test_prediction_row_with_a_value_of_the_wrong_type_exits_1_naming_the_key(
    tmp_path, chain_taxonomy, capsys, command, key, value, message
):
    tax = tmp_path / "taxonomy.json"
    tax.write_bytes(chain_taxonomy.to_json_bytes())
    good = {"id": "a", "path": ["A", "A.1", "A.1.1"], "leaf": "A.1.1", "leaf_confidence": 0.9}
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{"id": "b", key: value})) + "\n", encoding="utf-8")
    out = tmp_path / "out" / "result.json"
    args = ("--truth", str(pred)) if command == "eval" else ()
    assert run(command, "--pred", str(pred), *args, "--taxonomy", str(tax), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"error: {pred}: the row on line 2 {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # neither the result nor a run manifest


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    return full_workflow(tmp_path_factory.mktemp("workflow"))


def subcommand_args(command, workflow, out):
    """Arguments that make `command` write its outputs into the directory `out`."""
    cfg, data, kept, splits, model, preds, report = workflow
    tax = ("--taxonomy", str(data / "taxonomy.json"))
    return {
        "gen": ("--out", str(out)),
        "cleanse": ("--records", str(data / "records.jsonl"), *tax, "--out", str(out / "kept.jsonl")),
        "split": ("--records", str(kept), "--out", str(out)),
        "pipeline": ("--records", str(data / "records.jsonl"), *tax, "--out", str(out)),
        "train": ("--train", str(splits / "train.jsonl"), *tax, "--out", str(out / "model.ckpt")),
        "judge": ("--dev", str(data / "records.jsonl"), *tax, "--out", str(out / "judge.ckpt")),
        "predict": ("--model", str(model), "--records", str(splits / "test.jsonl"), *tax,
                    "--out", str(out / "preds.jsonl")),
        "repath": ("--pred", str(preds), *tax, "--out", str(out / "repathed.jsonl")),
        "eval": ("--pred", str(preds), "--truth", str(splits / "test.jsonl"), *tax, "--out", str(out / "report.json")),
    }[command]


@pytest.mark.parametrize("command", ["gen", "cleanse", "split", "pipeline", "train", "judge", "predict", "repath", "eval"])
def test_each_config_subcommand_writes_one_manifest_beside_its_outputs(tmp_path, workflow, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--config", workflow[0], *subcommand_args(command, workflow, out)]
    assert run(*argv) == 0
    assert list(tmp_path.rglob("run_manifest.json")) == [out / "run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["subcommand"], manifest["argv"], manifest["seed"]) == (command, argv, 7)


def test_report_writes_no_manifest(tmp_path, workflow, capsys):
    report = tmp_path / "report.json"
    report.write_bytes(workflow[6].read_bytes())
    assert run("report", "--report", str(report), "--cdf-csv", str(tmp_path / "cdf.csv")) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cdf.csv", "report.json"]


def test_a_failing_subcommand_writes_no_manifest(tmp_path, workflow, capsys):
    cfg, data, kept, splits, model, preds, report = workflow
    out = tmp_path / "out"
    # the model was trained over another taxonomy than this one
    other = tmp_path / "taxonomy.json"
    other.write_text(json.dumps({"version": 1, "nodes": [{"code": "Z", "name": "z", "definition": "z", "level": 1}]}),
                     encoding="utf-8")
    assert run("predict", "--config", cfg, "--model", str(model), "--records", str(splits / "test.jsonl"),
               "--taxonomy", str(other), "--out", str(out / "preds.jsonl")) == 1
    assert "taxonomy hash mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_predict_with_a_non_finite_checkpoint_parameter_exits_1_writing_nothing(tmp_path, workflow, capsys):
    cfg, data, kept, splits, model, preds, report = workflow
    weights = load_checkpoint(model, load_taxonomy_file(data / "taxonomy.json"))
    weights.params["level1/head/b"][0] = np.nan  # saved as is: only the loader checks
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(weights, bad)
    out = tmp_path / "out"
    assert run("predict", "--config", cfg, "--model", str(bad), "--records", str(splits / "test.jsonl"),
               "--taxonomy", str(data / "taxonomy.json"), "--repath", "--out", str(out / "preds.jsonl")) == 1
    err = capsys.readouterr().err
    assert "checkpoint parameter 'level1/head/b' holds a non-finite value" in err
    assert "Traceback" not in err
    assert not out.exists()


def first_depth(doc):
    return next(iter(doc["per_depth"].values()))


# damage done to a written report -> the error `taxpath report` prints after the file's name
REPORT_DAMAGE = {
    "depth-without-f1": (lambda doc: first_depth(doc).pop("path_micro_f1"),
                         r"evaluation report\.per_depth\.\d+ has no 'path_micro_f1' key"),
    "depths-as-list": (lambda doc: doc.update(per_depth=list(doc["per_depth"].values())),
                       r"evaluation report\.per_depth must be a JSON object, got \[\{"),
    "depth-key-not-int": (lambda doc: doc["per_depth"].update(deep={}),
                          r"evaluation report\.per_depth keys must be integers, got 'deep'"),
    "depth-entry-not-object": (lambda doc: doc["per_depth"].update({"9": [1, 2]}),
                               r"evaluation report\.per_depth\.9 must be a JSON object, got \[1, 2\]"),
    "depth-count-float": (lambda doc: first_depth(doc).update(count=1.5),
                          r"evaluation report\.per_depth\.\d+\.count must be an integer, got 1\.5"),
    "cdf-pair-of-one": (lambda doc: doc["confidence_cdf"].append([0.5]),
                        r"evaluation report\.confidence_cdf\[\d+\] must be a list of 2 values, got \[0\.5\]"),
    "cdf-string": (lambda doc: doc["confidence_cdf"].append(["0.5", 1.0]),
                   r"evaluation report\.confidence_cdf\[\d+\]\[0\] must be a number, got '0\.5'"),
    "cdf-object": (lambda doc: doc.update(confidence_cdf={}),
                   r"evaluation report\.confidence_cdf must be a list, got \{\}"),
    "f1-string": (lambda doc: doc.update(path_micro_f1="0.9"),
                  r"evaluation report\.path_micro_f1 must be a number, got '0\.9'"),
    "f1-null": (lambda doc: doc.update(leaf_macro_f1=None),
                r"evaluation report\.leaf_macro_f1 must be a number, got None"),
    "count-float": (lambda doc: doc.update(sample_count=12.0),
                    r"evaluation report\.sample_count must be an integer, got 12\.0"),
    "count-bool": (lambda doc: doc.update(sample_count=True),
                   r"evaluation report\.sample_count must be an integer, got True"),
}


@pytest.mark.parametrize("damage", sorted(REPORT_DAMAGE))
def test_malformed_report_exits_1_naming_the_key(tmp_path, workflow, capsys, damage):
    damage, message = REPORT_DAMAGE[damage]
    doc = json.loads(workflow[6].read_text())
    damage(doc)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run("report", "--report", str(report), "--cdf-csv", str(tmp_path / "cdf.csv")) == 1
    err = capsys.readouterr().err
    assert re.search(f"error: {re.escape(str(report))}: " + message, err), err
    assert "Traceback" not in err
    assert not (tmp_path / "cdf.csv").exists()


def test_gen_with_label_noise_over_one_leaf_exits_1_naming_the_rate(tmp_path, capsys):
    cfg = gen_config(tmp_path, leaves=1, leaf_depth_min=1, leaf_depth_max=1, label_noise_rate=0.5, samples=10)
    assert run("gen", "--config", cfg, "--out", str(tmp_path / "data")) == 1
    err = capsys.readouterr().err
    assert "error: label_noise_rate 0.5 relabels a record to another leaf, but the taxonomy has only 1 leaf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "data").exists()


# each subcommand's option strings; `train` takes `--tau-leaf` because it picks its best epoch by tau_leaf
CONFIG = ["--config", "--seed"]
TRAINING = ["--epochs", "--batch-size", "--learning-rate", "--omega-c", "--omega-s", "--experts", "--levels",
            "--hidden-dim", "--tau-leaf"]
OPTIONS = {
    "gen": [*CONFIG, "--out"],
    "cleanse": [*CONFIG, "--records", "--taxonomy", "--out", "--rejected"],
    "split": [*CONFIG, "--records", "--out", "--fractions"],
    "pipeline": [*CONFIG, *TRAINING, "--confidence-threshold", "--high-conf-fraction", "--records", "--taxonomy",
                 "--out"],
    "train": [*CONFIG, *TRAINING, "--train", "--taxonomy", "--out", "--val", "--log", "--judge"],
    "judge": [*CONFIG, "--dev", "--taxonomy", "--out", "--annotate", "--annotations"],
    "predict": [*CONFIG, "--tau-leaf", "--model", "--records", "--taxonomy", "--out", "--repath"],
    "repath": [*CONFIG, "--pred", "--taxonomy", "--out"],
    "eval": [*CONFIG, "--pred", "--truth", "--taxonomy", "--out", "--include-absent"],
    "report": ["--report", "--cdf-csv"],
}


def test_each_subcommand_takes_exactly_its_options():
    (subcommands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings) for name, p in subcommands.choices.items()}
    assert got == {name: sorted(["-h", "--help", *options]) for name, options in OPTIONS.items()}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_subcommand_prints_its_help(capsys, command):
    assert run(command, "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: taxpath {command} ")


# config values the run cannot use -> the start of the one error line `taxpath train` prints
CONFIG_REFUSALS = {
    "batch_size-zero": ("train", {"batch_size": 0}, "batch_size, epochs, learning_rate must be non-negative"),
    "epochs-zero": ("train", {"epochs": 0}, "epochs must be >= 1: 0"),
    "learning_rate-infinite": ("train", {"learning_rate": float("inf")}, "learning_rate must be finite: inf"),
    "learning_rate-nan": ("train", {"learning_rate": float("nan")}, "learning_rate must be finite: nan"),
    "no-fields": ("encoder", {"fields": []}, "fields must be distinct names out of"),
    "unknown-field": ("encoder", {"fields": ["nope"]}, "fields must be distinct names out of"),
    "cpvs-field": ("encoder", {"fields": ["cpvs"]}, "fields must be distinct names out of"),
    "label-field": ("encoder", {"fields": ["label_path"]}, "fields must be distinct names out of"),
    "repeated-field": ("encoder", {"fields": ["bu_code", "bu_code"]}, "fields must be distinct names out of"),
    "misspelt-vocab-key": ("encoder", {"field_vocabs": {"bu_code": ["a"], "ou_cod": ["a"], "system_code": ["a"]}},
                           "field_vocabs must be keyed by exactly the fields ('bu_code', 'ou_code', 'system_code')"),
    "missing-vocab": ("encoder", {"field_vocabs": {"bu_code": ["a"]}}, "field_vocabs must be keyed by exactly"),
    "repeated-vocab-entry": ("encoder", {"field_vocabs": {"bu_code": ["a", "a"], "ou_code": ["a"],
                                                         "system_code": ["a"]}},
                             "field_vocabs['bu_code'] repeats an entry: ('a', 'a')"),
    "hash_buckets-zero": ("encoder", {"hash_buckets": 0}, "hash_buckets must be >= 1: 0"),
    "text_dim-zero": ("encoder", {"text_dim": 0}, "embedding dims must be >= 1"),
    "cat_dim-zero": ("encoder", {"cat_dim": 0}, "embedding dims must be >= 1"),
    "levels-zero": ("moe", {"levels": 0}, "levels, experts_per_level, expert_hidden_dim must be >= 1"),
    "experts_per_level-zero": ("moe", {"experts_per_level": 0}, "levels, experts_per_level, expert_hidden_dim must"),
    "expert_hidden_dim-zero": ("moe", {"expert_hidden_dim": 0}, "levels, experts_per_level, expert_hidden_dim must"),
    # above 1 no leaf is confident, below 0 every leaf is
    "tau_leaf-above-1": ("pipeline", {"tau_leaf": 1.5}, "tau_leaf must be in [0,1], got 1.5"),
    "tau_leaf-below-0": ("pipeline", {"tau_leaf": -0.5}, "tau_leaf must be in [0,1], got -0.5"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_train_refuses_a_config_value_it_cannot_use(tmp_path, workflow, capsys, case):
    section, values, message = CONFIG_REFUSALS[case]
    doc = json.loads(Path(workflow[0]).read_text())
    doc.setdefault(section, {}).update(values)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--config", cfg, *subcommand_args("train", workflow, out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {section}: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


# keys that older config documents and run manifests hold, each at its old default: Adam's constants are fixed,
# nothing clips gradients, and the synthetic depth is bounded by the taxonomy's level cap
REMOVED_KEYS = {"train.optimizer": "adam", "train.beta1": 0.9, "train.beta2": 0.999, "train.eps": 1e-8,
                "train.grad_clip": None, "synth.max_depth": 10, "moe.include_null_label": True,
                "moe.semantic_classes": 3, "pipeline.oracle_y_threshold": 0.5, "pipeline.oracle_n_threshold": 0.1}


@pytest.mark.parametrize("path", sorted(REMOVED_KEYS))
def test_a_removed_key_is_refused_as_unknown(tmp_path, workflow, capsys, path):
    section, key = path.split(".")
    doc = json.loads(Path(workflow[0]).read_text())
    doc.setdefault(section, {})[key] = REMOVED_KEYS[path]
    with pytest.raises(ConfigError, match=rf"^unknown config key {re.escape(path)}$"):
        load_config(doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--config", write_config(tmp_path, doc), *subcommand_args("train", workflow, out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown config key {path}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "train"])
def test_a_model_shallower_than_the_taxonomy_is_refused_naming_moe_levels_before_any_output(
        tmp_path, workflow, capsys, command):
    depth = load_taxonomy_file(workflow[1] / "taxonomy.json").max_depth
    out = tmp_path / "out"
    capsys.readouterr()
    args = subcommand_args(command, workflow, out)
    assert run(command, "--config", workflow[0], *args, "--levels", str(depth - 1)) == 1
    assert capsys.readouterr().err == f"error: moe.levels ({depth - 1}) < taxonomy depth ({depth})\n"
    assert not out.exists()


def test_pipeline_refuses_an_unknown_encoder_field_before_stage_1_writes(tmp_path, workflow, capsys):
    doc = json.loads(Path(workflow[0]).read_text())
    doc["encoder"]["fields"] = ["nope"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("pipeline", "--config", write_config(tmp_path, doc), *subcommand_args("pipeline", workflow, out)) == 1
    assert capsys.readouterr().err.startswith("error: encoder: fields must be distinct names out of")
    assert not out.exists()
