"""Golden bytes: the sha256 of every artifact of a small fixed workflow that no BLAS call touches.

`gen` and `split` draw from named RNG streams over a small synth config that
leaves most `SynthConfig` defaults as they are. `cleanse`, `repath`, `eval`
and `report --cdf-csv` read literal inputs written by this module and use no
RNG. Trained artifacts are left out: their last bits depend on the BLAS
kernels. A change that alters one of these outputs on purpose rewrites the
digests in the same commit, and the diff of `tests/golden.json` shows it:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from taxpath.cli import dispatch

GOLDEN = Path(__file__).with_name("golden.json")

CONFIG = {"seed": 7, "synth": {"leaves": 15, "samples": 200, "leaf_depth_min": 2, "leaf_depth_max": 3}}

TAXONOMY = {"version": 1, "nodes": [
    {"code": "A", "name": "apparel", "definition": "clothing shoes and accessories", "level": 1},
    {"code": "A.1", "name": "footwear", "definition": "shoes boots and sandals", "parent": "A", "level": 2},
    {"code": "A.1.1", "name": "running shoes", "definition": "athletic running shoes and trainers",
     "parent": "A.1", "level": 3},
    {"code": "A.2", "name": "outerwear", "definition": "coats jackets and parkas", "parent": "A", "level": 2},
    {"code": "B", "name": "food", "definition": "groceries and prepared food", "level": 1},
    {"code": "B.1", "name": "dairy", "definition": "milk cheese and yogurt", "parent": "B", "level": 2},
]}


def record(rec_id, title, *path, **extra):
    return {"id": rec_id, "title": title, "category_name": "goods", "bu_code": "bu1", "ou_code": "ou1",
            "system_code": "sys1", "label_path": list(path), "source": "invoice_archive", **extra}


# the records `cleanse` keeps, which `eval` scores
TRUTH = [
    record("r01", "Trail running shoe", "A", "A.1", "A.1.1"),
    record("r02", "Leather boots", "A", "A.1"),
    record("r03", "Winter parka", "A", "A.2", cpvs=[["size", "L"]]),
    record("r04", "Greek yogurt 500 g", "B", "B.1"),
    record("r05", "Crème fraîche", "B", "B.1"),
    record("r06", "Bread", "B"),
]
# one record per rejection reason, after the records they collide with
RAW = TRUTH + [
    record("r01", "Espresso beans", "B"),  # duplicate id
    record("r07", "trail RUNNING shoe!", "A", "A.1", "A.1.1"),  # duplicate of r01
    record("r08", "!!!", "A"),  # empty title
    record("r09", "Scarf", "A", "A.9"),  # unknown code
    record("r10", "Gouda", "A", "B.1"),  # invalid path
    record("r11", "Wool coat", "A", "A.2"),  # conflict: a tie with r12
    record("r12", "wool coat", "B", "B.1"),
]
# one row per truth record: right, wrong, partly right, and paths RePath rewrites
PREDICTIONS = [
    {"id": "r01", "leaf": "A.1.1", "leaf_confidence": 0.93, "mode": "leaf_confident",
     "path": ["A", "A.1", "A.1.1"], "per_level_argmax": ["A", "A.1", "A.1.1"]},
    {"id": "r02", "leaf": "A.2", "leaf_confidence": 0.41, "mode": "deepest_valid",
     "path": ["A", "A.2"], "per_level_argmax": ["A", "A.2", "∅"]},
    {"id": "r03", "leaf": "A.2", "leaf_confidence": 0.77, "mode": "leaf_confident",
     "path": ["B", "A.2"], "per_level_argmax": ["B", "A.2", "∅"]},
    {"id": "r04", "leaf": "B.1", "leaf_confidence": 0.88, "mode": "leaf_confident",
     "path": ["B", "B.1"], "per_level_argmax": ["B", "B.1", "∅"]},
    {"id": "r05", "leaf": "A.1.1", "leaf_confidence": 0.12, "mode": "deepest_valid",
     "path": ["B"], "per_level_argmax": ["B", "A.1", "A.1.1"]},
    {"id": "r06", "leaf": "B", "leaf_confidence": 0.5, "mode": "leaf_confident",
     "path": ["B"], "per_level_argmax": ["B", "∅", "∅"]},
]


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    return path


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(arg) for arg in argv])
    assert code == 0, argv


def literal_inputs(root: Path) -> dict[str, Path]:
    taxonomy = root / "taxonomy.json"
    taxonomy.write_text(json.dumps(TAXONOMY), encoding="utf-8")
    return {"taxonomy": taxonomy, "raw": write_jsonl(root / "raw.jsonl", RAW),
            "truth": write_jsonl(root / "truth.jsonl", TRUTH), "pred": write_jsonl(root / "pred.jsonl", PREDICTIONS)}


def gen(root: Path) -> dict[str, Path]:
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    run("gen", "--config", config, "--out", root / "data")
    return {"taxonomy.json": root / "data" / "taxonomy.json", "records.jsonl": root / "data" / "records.jsonl"}


def split(root: Path) -> dict[str, Path]:
    records = gen(root)["records.jsonl"]
    run("split", "--config", root / "config.json", "--records", records, "--out", root / "splits")
    return {name: root / "splits" / name for name in ("train.jsonl", "val.jsonl", "test.jsonl")}


def cleanse(root: Path) -> dict[str, Path]:
    given = literal_inputs(root)
    run("cleanse", "--records", given["raw"], "--taxonomy", given["taxonomy"], "--out", root / "kept.jsonl",
        "--rejected", root / "rejected.jsonl")
    return {"kept.jsonl": root / "kept.jsonl", "rejected.jsonl": root / "rejected.jsonl"}


def repath(root: Path) -> dict[str, Path]:
    given = literal_inputs(root)
    run("repath", "--pred", given["pred"], "--taxonomy", given["taxonomy"], "--out", root / "repathed.jsonl")
    return {"repathed.jsonl": root / "repathed.jsonl"}


def evaluate(root: Path) -> dict[str, Path]:
    given = literal_inputs(root)
    run("eval", "--pred", given["pred"], "--truth", given["truth"], "--taxonomy", given["taxonomy"],
        "--out", root / "metrics.json")
    return {"metrics.json": root / "metrics.json"}


def report(root: Path) -> dict[str, Path]:
    run("report", "--report", evaluate(root)["metrics.json"], "--cdf-csv", root / "cdf.csv")
    return {"cdf.csv": root / "cdf.csv"}


# case -> the artifacts it writes under a fresh directory; the last four use no RNG
CASES = {"gen": gen, "split": split, "cleanse": cleanse, "repath": repath, "eval": evaluate, "report": report}


def digests(case: str, root: Path) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in CASES[case](root).items()}


@pytest.mark.parametrize("case", list(CASES))
def test_artifact_bytes_match_the_golden_digests(case, tmp_path):
    assert digests(case, tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))[case]


if __name__ == "__main__":
    golden = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = digests(name, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
