"""One input contract: every file a subcommand reads fails the same way.

A file that does not decode (bad JSON, bad UTF-8, a BOM, nesting too deep, an
integer too long to convert) or does not fit its schema makes the subcommand
exit 1 with one `error:` line naming the file (and the line, for JSON Lines),
and write nothing.
"""
from __future__ import annotations

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.cli import dispatch
from taxpath.dataset import read_records
from taxpath.infer import read_predictions
from taxpath.metrics import EvalReport
from taxpath.taxonomy import load_taxonomy_file

TINY = {
    "seed": 3,
    "synth": {"leaves": 10, "samples": 150, "leaf_depth_min": 2, "leaf_depth_max": 3},
    "encoder": {"hash_buckets": 64, "text_dim": 4, "cat_dim": 2},
    "moe": {"levels": 3, "experts_per_level": 1, "expert_hidden_dim": 4},
    "train": {"batch_size": 64, "epochs": 1},
}


def run(*argv) -> tuple[int, str]:
    """The exit code of `taxpath argv` and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(arg) for arg in argv])
    return code, err.getvalue()


def assert_refused(code: int, err: str, path: Path, out: Path, line: int | None = None) -> None:
    """Exit 1, one `error:` line naming `path` (and `line`), nothing written under `out`."""
    assert code == 1, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), err
    if line is not None:
        assert f" line {line}" in lines[0], err
    assert not out.exists() or not any(out.iterdir()), sorted(out.iterdir())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """A valid input of each kind, made by the tiny workflow."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    data, splits = root / "data", root / "splits"
    paths = {"config": config, "records": data / "records.jsonl", "taxonomy": data / "taxonomy.json",
             "kept": root / "kept.jsonl", "train": splits / "train.jsonl", "test": splits / "test.jsonl",
             "model": root / "model.ckpt", "predictions": root / "preds.jsonl", "report": root / "report.json"}
    tax = ("--taxonomy", paths["taxonomy"])
    for argv in (
        ("gen", "--out", data),
        ("cleanse", "--records", paths["records"], *tax, "--out", paths["kept"]),
        ("split", "--records", paths["kept"], "--out", splits),
        ("train", "--train", paths["train"], *tax, "--out", paths["model"]),
        ("predict", "--model", paths["model"], "--records", paths["test"], *tax, "--out", paths["predictions"]),
        ("eval", "--pred", paths["predictions"], "--truth", paths["test"], *tax, "--out", paths["report"]),
    ):
        code, err = run(argv[0], "--config", config, *argv[1:])
        assert code == 0, err
    return paths


# --- taxonomy nodes ------------------------------------------------------------------

def first_child(doc: dict) -> dict:
    return next(node for node in doc["nodes"] if "parent" in node)


# damage done to the taxonomy -> what the error names after the file
TAXONOMY_DAMAGE = {
    "node-not-an-object": (lambda doc: doc["nodes"].insert(2, ["A", "a"]), "node 2 is not a JSON object"),
    "name-a-list": (lambda doc: first_child(doc).update(name=["x"]), "bad name for code '"),
    "name-null": (lambda doc: first_child(doc).update(name=None), "bad name for code '"),
    "definition-a-list": (lambda doc: first_child(doc).update(definition=["x"]), "bad definition for code '"),
    "definition-null": (lambda doc: first_child(doc).update(definition=None), "bad definition for code '"),
    "parent-a-list": (lambda doc: first_child(doc).update(parent=[first_child(doc)["parent"]]),
                      "bad parent for code '"),
    "level-true": (lambda doc: next(node for node in doc["nodes"] if "parent" not in node).update(level=True),
                   "bad level for code '"),
    "version-true": (lambda doc: doc.update(version=True), "unsupported taxonomy version: True"),
}


@pytest.mark.parametrize("damage", sorted(TAXONOMY_DAMAGE))
def test_a_malformed_taxonomy_node_exits_1_naming_the_file_and_the_node(tmp_path, inputs, damage):
    damage, message = TAXONOMY_DAMAGE[damage]
    doc = json.loads(inputs["taxonomy"].read_text(encoding="utf-8"))
    damage(doc)
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code, err = run("cleanse", "--config", inputs["config"], "--records", inputs["records"],
                    "--taxonomy", taxonomy, "--out", out / "kept.jsonl")
    assert_refused(code, err, taxonomy, out)
    assert message in err


# --- decode failures -----------------------------------------------------------------

DEEP = b"[" * 150_000 + b"]" * 150_000
# defect -> the bytes that stand in for one JSON string value, or None for a BOM before the file
DEFECTS = {"deep-nesting": DEEP, "bad-utf8": b'"\xff"', "huge-integer": b"9" * 5000, "bom": None}
PLACEHOLDER = "\u0000defect\u0000"


def with_defect(text: str, defect: str) -> bytes:
    data = text.encode("utf-8")
    if DEFECTS[defect] is None:
        return b"\xef\xbb\xbf" + data
    return data.replace(json.dumps(PLACEHOLDER).encode(), DEFECTS[defect])


def jsonl_with_placeholder(path: Path, key: str) -> str:
    """The rows of `path` with the value of `key` on line 2 replaced by the placeholder."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[1][key] = PLACEHOLDER
    return "".join(json.dumps(row) + "\n" for row in rows)


def decode_case(kind: str, inputs: dict[str, Path], bad: Path, out: Path) -> tuple[str, tuple]:
    """(text with the placeholder, the argv reading the file `bad`) for one input kind."""
    config, tax = ("--config", inputs["config"]), ("--taxonomy", inputs["taxonomy"])
    if kind == "records":
        return (jsonl_with_placeholder(inputs["records"], "title"),
                ("cleanse", *config, "--records", bad, *tax, "--out", out / "kept.jsonl"))
    if kind == "predictions":
        return (jsonl_with_placeholder(inputs["predictions"], "leaf"),
                ("eval", *config, "--pred", bad, "--truth", inputs["test"], *tax, "--out", out / "report.json"))
    if kind == "taxonomy":
        doc = json.loads(inputs["taxonomy"].read_text(encoding="utf-8"))
        doc["nodes"][0]["name"] = PLACEHOLDER
        return json.dumps(doc, indent=1), ("cleanse", *config, "--records", inputs["records"], "--taxonomy", bad,
                                           "--out", out / "kept.jsonl")
    if kind == "config":
        return json.dumps({**TINY, "synth": {"leaves": PLACEHOLDER}}), ("gen", "--config", bad, "--out", out)
    doc = json.loads(inputs["report"].read_text(encoding="utf-8"))
    doc["sample_count"] = PLACEHOLDER
    return json.dumps(doc, indent=2), ("report", "--report", bad, "--cdf-csv", out / "cdf.csv")


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("kind", ["records", "predictions", "taxonomy", "config", "report"])
def test_an_input_that_does_not_decode_exits_1_naming_the_file(tmp_path, inputs, kind, defect):
    bad, out = tmp_path / f"bad-{kind}", tmp_path / "out"
    text, argv = decode_case(kind, inputs, bad, out)
    bad.write_bytes(with_defect(text, defect))
    code, err = run(*argv)
    jsonl = kind in ("records", "predictions")
    assert_refused(code, err, bad, out, line=(1 if defect == "bom" else 2) if jsonl else None)
    assert "bad JSON" in err


@pytest.mark.parametrize("kind", ["config", "config-list", "report"])
def test_a_number_too_large_for_a_float_exits_1_naming_its_key(tmp_path, inputs, kind):
    bad, out = tmp_path / f"bad-{kind}", tmp_path / "out"
    if kind == "config":
        bad.write_text(json.dumps({**TINY, "pipeline": {"tau_leaf": 10**400}}), encoding="utf-8")
        argv, key = ("gen", "--config", bad, "--out", out), "pipeline.tau_leaf"
    elif kind == "config-list":
        bad.write_text(json.dumps({**TINY, "synth": {**TINY["synth"], "depth_weights": [10**400, 1.0]}}),
                       encoding="utf-8")
        argv, key = ("gen", "--config", bad, "--out", out), "synth.depth_weights[0]"
    else:
        doc = json.loads(inputs["report"].read_text(encoding="utf-8"))
        doc["path_micro_f1"] = 10**400
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv, key = ("report", "--report", bad, "--cdf-csv", out / "cdf.csv"), f"{bad}: evaluation report.path_micro_f1"
    code, err = run(*argv)
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: {key} must be a number a float can hold, got 1000"), err
    assert not out.exists()


def test_fractions_that_are_not_numbers_exit_1_naming_the_flag(tmp_path, inputs):
    for fractions in ("a,b,c", "0.5,0.5", "0.6,x,0.2"):
        code, err = run("split", "--config", inputs["config"], "--records", inputs["kept"],
                        "--out", tmp_path / "out", "--fractions", fractions)
        assert code == 1
        assert err == f"error: --fractions needs three comma-separated numbers, got {fractions!r}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag-nan", "flag-inf", "config-nan"])
def test_non_finite_fractions_exit_1_naming_the_rule(tmp_path, inputs, source):
    config, fractions = inputs["config"], ()
    if source == "config-nan":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "split": {"train_fraction": float("nan")}}), encoding="utf-8")
        assert "NaN" in config.read_text(encoding="utf-8")
    else:
        fractions = ("--fractions", "nan,0.5,0.5" if source == "flag-nan" else "0.5,inf,0.5")
    code, err = run("split", "--config", config, "--records", inputs["kept"], "--out", tmp_path / "out", *fractions)
    assert code == 1 and err.startswith("error: split: split fractions must be positive and finite: "), err
    assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()


PIPELINE_FLOATS = ("confidence_threshold", "high_conf_fraction", "tau_leaf")


@pytest.mark.parametrize("source", ["--tau-leaf", *PIPELINE_FLOATS])
def test_a_nan_pipeline_setting_exits_1_naming_the_key(tmp_path, inputs, source):
    """From the flag, or from the config file's pipeline section: refused before any output is written."""
    config, flag, key = inputs["config"], (), source
    if source == "--tau-leaf":
        flag, key = (source, "nan"), "tau_leaf"
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "pipeline": {key: float("nan")}}), encoding="utf-8")
    out = tmp_path / "out"
    code, err = run("predict", "--config", config, "--model", inputs["model"], "--records", inputs["test"],
                    "--taxonomy", inputs["taxonomy"], "--out", out / "preds.jsonl", *flag)
    assert code == 1 and err == f"error: pipeline: {key} must be a number, got nan\n", err
    assert not out.exists()



@pytest.mark.parametrize("flag, value, rule", [
    ("--high-conf-fraction", "5", "high_conf_fraction must be in (0,1], got 5.0"),
    ("--high-conf-fraction", "0", "high_conf_fraction must be in (0,1], got 0.0"),
    ("--confidence-threshold", "1", "confidence_threshold must be in (0,1), got 1.0"),
    ("--confidence-threshold", "-3", "confidence_threshold must be in (0,1), got -3.0"),
])
def test_a_pipeline_setting_out_of_range_exits_1_before_stage_1(tmp_path, inputs, flag, value, rule):
    """Refused when the config is read, naming the key, not after stage 1 has written its output."""
    out = tmp_path / "out"
    code, err = run("pipeline", "--config", inputs["config"], "--records", inputs["records"],
                    "--taxonomy", inputs["taxonomy"], "--out", out, flag, value)
    assert code == 1 and err == f"error: pipeline: {rule}\n", err
    assert not (out / "cleansed.jsonl").exists()


@pytest.mark.parametrize("key, value", [
    ("leaf_vocab_size", 0),
    ("shared_noise_tokens", -3),
    ("zipf_exponent", float("nan")),
    ("zipf_exponent", float("-inf")),
    ("depth_weights", [1.0, float("nan")]),
    ("depth_weights", [1.0, float("inf")]),
])
def test_a_synth_setting_the_sampler_cannot_use_exits_1_naming_its_key(tmp_path, key, value):
    """Refused when the config is read: no traceback, and nothing written."""
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps({**TINY, "synth": {**TINY["synth"], key: value}}), encoding="utf-8")
    code, err = run("gen", "--config", cfg, "--out", out)
    assert code == 1 and err.startswith(f"error: synth: {key} must "), err
    assert "Traceback" not in err and not out.exists()

# --- records that do not fit the taxonomy --------------------------------------------

# the subcommand given records whose fourth label path ends in an unknown code -> what the error says after the file
RECORD_MISFITS = {
    "eval": (lambda bad, i, out: ("--pred", i["predictions"], "--truth", bad, "--out", out / "report.json"),
             "truth record {id!r} carries an invalid path"),
    "train": (lambda bad, i, out: ("--train", bad, "--out", out / "model.ckpt"),
              "record {id!r}: code 'nope' not in level-2 label space"),
    "judge-dev": (lambda bad, i, out: ("--dev", bad, "--out", out / "judge.ckpt"), "unknown code: 'nope'"),
    "judge-annotate": (lambda bad, i, out: ("--dev", i["records"], "--annotate", bad, "--out", out / "judge.ckpt"),
                       "unknown code: 'nope'"),
}


@pytest.mark.parametrize("case", sorted(RECORD_MISFITS))
def test_a_record_that_does_not_fit_the_taxonomy_exits_1_naming_its_file(tmp_path, inputs, case):
    args, message = RECORD_MISFITS[case]
    rows = [json.loads(line) for line in inputs["test"].read_text(encoding="utf-8").splitlines()]
    rows[3]["label_path"] = [rows[3]["label_path"][0], "nope"]
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    code, err = run(case.split("-")[0], "--config", inputs["config"], *args(bad, inputs, out),
                    "--taxonomy", inputs["taxonomy"])
    assert_refused(code, err, bad, out)
    assert err == f"error: {bad}: {message.format(id=rows[3]['id'])}\n"


# --- checkpoints ---------------------------------------------------------------------

def without_manifest(blob: bytes) -> bytes:
    """`blob` with a header that lacks `manifest`; the payload and its checksum are kept."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    del header["manifest"]
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :]


# damage -> (the bytes of a broken checkpoint made from a valid model checkpoint, what the error says)
CHECKPOINT_DAMAGE = {
    "no-manifest": (lambda blob, magic: magic + without_manifest(blob)[4:], "checkpoint header has no 'manifest' key"),
    "bad-magic": (lambda blob, magic: b"NOPE" + blob[4:], "bad magic: expected "),
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
@pytest.mark.parametrize("kind", ["model", "judge"])
def test_a_broken_checkpoint_exits_1_naming_the_file(tmp_path, inputs, kind, damage):
    damage, message = CHECKPOINT_DAMAGE[damage]
    bad, out = tmp_path / "bad.ckpt", tmp_path / "out"
    bad.write_bytes(damage(inputs["model"].read_bytes(), b"TAXN" if kind == "model" else b"TXNJ"))
    config, tax = ("--config", inputs["config"]), ("--taxonomy", inputs["taxonomy"])
    if kind == "model":
        argv = ("predict", *config, "--model", bad, "--records", inputs["test"], *tax, "--out", out / "preds.jsonl")
    else:
        argv = ("train", *config, "--train", inputs["train"], "--judge", bad, *tax, "--out", out / "model.ckpt")
    code, err = run(*argv)
    assert_refused(code, err, bad, out)
    assert f"error: {bad}: {message}" in err


# --- the fuzz harness ----------------------------------------------------------------

# what refuses each kind of input, called as the subcommands call it
LOADERS = {
    "records": read_records,
    "predictions": read_predictions,
    "taxonomy": load_taxonomy_file,
    "report": lambda path: EvalReport.from_dict(json.loads(path.read_bytes().decode("utf-8"))),
}
# subcommand -> (the input it gets mutated, its kind, its argv given that file and an output directory)
COMMANDS = {
    "cleanse": ("records", "records", lambda f, i, out: (
        "--records", f, "--taxonomy", i["taxonomy"], "--out", out / "kept.jsonl")),
    "split": ("kept", "records", lambda f, i, out: ("--records", f, "--out", out)),
    "train": ("train", "records", lambda f, i, out: (
        "--train", f, "--taxonomy", i["taxonomy"], "--out", out / "model.ckpt")),
    "judge": ("test", "records", lambda f, i, out: (
        "--dev", i["records"], "--annotate", f, "--taxonomy", i["taxonomy"], "--out", out / "judge.ckpt")),
    "predict": ("test", "records", lambda f, i, out: (
        "--model", i["model"], "--records", f, "--taxonomy", i["taxonomy"], "--out", out / "preds.jsonl")),
    "repath": ("predictions", "predictions", lambda f, i, out: (
        "--pred", f, "--taxonomy", i["taxonomy"], "--out", out / "repathed.jsonl")),
    "eval": ("predictions", "predictions", lambda f, i, out: (
        "--pred", f, "--truth", i["test"], "--taxonomy", i["taxonomy"], "--out", out / "report.json")),
    "report": ("report", "report", lambda f, i, out: ("--report", f, "--cdf-csv", out / "cdf.csv")),
    "pipeline": ("taxonomy", "taxonomy", lambda f, i, out: (
        "--records", i["records"], "--taxonomy", f, "--out", out)),
}
RETYPED = [None, True, 7, 2.5, 10**400, "x", [], {}, [1, 2]]
TOKENS = {"deep": DEEP.decode(), "huge-integer": "9" * 5000, "nan": "NaN"}


def json_paths(value, prefix=()):
    """Every path below `value`: tuples of object keys and list indices."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from json_paths(item, prefix + (key,))


class Twice(dict):
    """An object that writes its member `key` twice; decoders keep the last."""

    def __init__(self, doc: dict, key: str):
        super().__init__(doc)
        self.key = key

    def items(self):
        return [*super().items(), (self.key, self[self.key])]


@st.composite
def mutated(draw, text: str, jsonl: bool) -> bytes:
    """The bytes of `text` (JSON Lines, or one JSON document) with one mutation."""
    kind = draw(st.sampled_from(["retype", "delete", "duplicate", "row", "deep", "huge-integer", "nan",
                                 "bom", "bad-utf8", "truncate"]))
    data = text.encode("utf-8")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "bad-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    if kind == "truncate":
        return data[: draw(st.integers(1, len(data) - 1))]
    doc = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    if kind == "row":  # a row, a node or a CDF pair that is not an object
        rows = doc if jsonl else doc.get("nodes") or doc["confidence_cdf"]
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from([None, 3, "x", [1], []]))
    else:
        paths = [path for path in json_paths(doc) if len(path) > 1 or not jsonl]
        *parents, key = draw(st.sampled_from(paths))
        holders = [doc]  # the values along the path, the root first
        for step in parents:
            holders.append(holders[-1][step])
        parent = holders[-1]
        if kind == "delete":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, parent[key])
        elif kind == "duplicate" and parents:
            holders[-2][parents[-1]] = Twice(parent, key)
        elif kind == "duplicate":
            doc = Twice(parent, key)
        elif kind == "retype":
            parent[key] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(parent[key])]))
        else:
            parent[key] = float("nan") if kind == "nan" else PLACEHOLDER
    rows = doc if jsonl else [doc]
    out = "".join(json.dumps(row) + "\n" for row in rows)
    return out.replace(json.dumps(PLACEHOLDER), TOKENS.get(kind, "")).encode("utf-8")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_mutated_input_is_refused_naming_its_file_or_read(inputs, command, data):
    """Mutate the input a subcommand reads. Where its loader refuses the file,
    the subcommand exits 1 with one `error:` line naming it and writes
    nothing. Where the loader reads it (a mutation can leave a valid file,
    such as one without the optional `cpvs`), the run succeeds or exits 1
    with one `error:` line and no manifest; no traceback either way."""
    name, kind, args = COMMANDS[command]
    text = inputs[name].read_text(encoding="utf-8")
    blob = data.draw(mutated(text, jsonl=kind in ("records", "predictions")))
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / f"mutated-{inputs[name].name}", Path(tmp) / "out"
        bad.write_bytes(blob)
        try:
            LOADERS[kind](bad)
            refused = False
        except (ValueError, RuntimeError):
            refused = True
        config = () if command == "report" else ("--config", inputs["config"])
        code, err = run(command, *config, *args(bad, inputs, out))
        if refused:
            assert_refused(code, err, bad, out)
            return
        assert code in (0, 1), err
        assert "Traceback" not in err
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert not list(out.rglob("run_manifest.json"))
