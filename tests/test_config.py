"""The strict config loader: dataclass defaults, unknown keys, types, round trips."""
import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.cli import config_document, dispatch, load_config
from taxpath.dataset import SplitSpec
from taxpath.encoder import CATEGORICAL_FIELDS, EncoderConfig
from taxpath.moe import CHECKPOINT_MAGIC, CheckpointError, MoEConfig, init_model, load_checkpoint, write_container
from taxpath.pipeline import PipelineConfig
from taxpath.synth import SynthConfig
from taxpath.taxonomy import MAX_LEVELS
from taxpath.train import LossWeights, TrainConfig
from taxpath.util import ConfigError, config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"

# --- round trips ----------------------------------------------------------------

names = st.text(st.characters(codec="utf-8"), max_size=8)
unit = st.floats(0.0, 1.0)
seeds = st.integers(0, 2**63 - 1)

# the configs EncoderConfig accepts: distinct categorical fields, with a vocabulary of distinct names for each or none
encoder_configs = st.lists(st.sampled_from(CATEGORICAL_FIELDS), min_size=1, max_size=4, unique=True).map(tuple).flatmap(
    lambda fields: st.builds(
        EncoderConfig,
        hash_buckets=st.integers(1, 10**6),
        text_dim=st.integers(1, 64),
        cat_dim=st.integers(1, 16),
        fields=st.just(fields),
        field_vocabs=st.just({}) | st.fixed_dictionaries(
            {name: st.lists(names, max_size=4, unique=True).map(tuple) for name in fields}),
    )
)
moe_configs = st.builds(
    MoEConfig,
    levels=st.integers(1, 12),
    experts_per_level=st.integers(1, 8),
    expert_hidden_dim=st.integers(1, 64),
)
loss_weights = st.builds(LossWeights, omega_c=unit, omega_s=unit)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
train_configs = st.builds(
    TrainConfig,
    batch_size=st.integers(1, 512),
    epochs=st.integers(0, 50),
    learning_rate=st.floats(0.0, 1.0),
    loss_weights=loss_weights,
    seed=seeds,
)


@st.composite
def split_specs(draw, seed=seeds):
    train = draw(st.floats(0.05, 0.6))
    val = draw(st.floats(0.05, 0.3))
    return SplitSpec(train, val, 1.0 - train - val, seed=draw(seed))


@st.composite
def synth_configs(draw):
    low, high = sorted(draw(st.lists(st.integers(1, MAX_LEVELS), min_size=2, max_size=2)))
    title_min, title_max = sorted(draw(st.lists(st.integers(1, 12), min_size=2, max_size=2)))
    span = high - low + 1
    noise_token_rate = draw(unit)
    return SynthConfig(
        leaves=draw(st.integers(1, 500)),
        samples=draw(st.integers(0, 10**5)),
        leaf_depth_min=low,
        leaf_depth_max=high,
        depth_weights=draw(st.none() | st.lists(st.floats(0.1, 5.0), min_size=span, max_size=span).map(tuple)),
        max_roots=draw(st.integers(1, 20)),
        branching_max=draw(st.integers(2, 12)),
        zipf_exponent=draw(st.floats(0.0, 3.0)),
        leaf_vocab_size=draw(st.integers(1, 20)),
        title_len_min=title_min,
        title_len_max=title_max,
        noise_token_rate=noise_token_rate,
        # a noisy title token draws one of the shared noise tokens
        shared_noise_tokens=draw(st.integers(1 if noise_token_rate > 0 else 0, 100)),
        label_noise_rate=draw(unit),
        metadata_correlation=draw(unit),
        intermediate_noise_rate=draw(unit),
        shared_vocab_across_roots=draw(st.booleans()),
        cpv_rate=draw(unit),
        total_nodes=draw(st.none() | st.integers(1, 5000)),
    )


@st.composite
def pipeline_configs(draw, seed=seeds):
    """PipelineConfigs whose train and split seeds are the pipeline seed, as a document sets them."""
    shared = draw(seed)
    return PipelineConfig(
        encoder=draw(encoder_configs),
        moe=draw(moe_configs),
        train=replace(draw(train_configs), seed=shared),
        split=draw(split_specs(seed=st.just(shared))),
        confidence_threshold=draw(open_unit),
        high_conf_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        tau_leaf=draw(unit),
        seed=shared,
    )


def via_json(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "cls, configs",
    [
        (EncoderConfig, encoder_configs),
        (MoEConfig, moe_configs),
        (LossWeights, loss_weights),
        (TrainConfig, train_configs),
        (SplitSpec, split_specs()),
        (SynthConfig, synth_configs()),
        (PipelineConfig, pipeline_configs()),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_from_dict_inverts_asdict_through_json(cls, configs):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=configs)
    def round_trip(config):
        assert config_from_dict(cls, via_json(asdict(config)), cls.__name__) == config

    round_trip()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=pipeline_configs(), synth=synth_configs())
def test_load_config_inverts_config_document(config, synth):
    assert load_config(via_json(config_document(config, synth))) == (config.seed, config, synth)


def test_empty_document_takes_every_dataclass_default():
    assert load_config({}) == (PipelineConfig.seed, PipelineConfig(), SynthConfig())
    assert PipelineConfig().split == SplitSpec() == SplitSpec(0.64, 0.16, 0.20)


def test_the_document_holds_39_settable_keys():
    doc = config_document(PipelineConfig(), SynthConfig())
    counts = {key: len(value) if isinstance(value, dict) else 1 for key, value in doc.items()}
    assert counts == {"seed": 1, "encoder": 5, "moe": 3, "train": 5, "split": 3, "pipeline": 3, "synth": 19}
    assert sum(counts.values()) == 39


def test_readme_minimal_config_loads():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", text, re.S)
    assert block, "README has no minimal config block"
    doc = json.loads(block.group(1))
    seed, config, synth = load_config(doc)
    assert seed == doc["seed"] == config.train.seed == config.split.seed
    assert doc["train"].keys() == config_document(PipelineConfig(), synth)["train"].keys()
    assert config_document(config, synth)["train"] == {**config_document(PipelineConfig(), synth)["train"], **doc["train"]}


def test_tuple_fields_come_back_as_tuples():
    enc = config_from_dict(EncoderConfig, {"fields": ["source"], "field_vocabs": {"source": ["x", "y"]}}, "encoder")
    assert enc.fields == ("source",) and enc.field_vocabs == {"source": ("x", "y")}
    synth = config_from_dict(SynthConfig, {"depth_weights": [1, 2, 3, 4, 5]}, "synth")
    assert synth.depth_weights == (1, 2, 3, 4, 5)


def test_construction_errors_name_the_section():
    with pytest.raises(ConfigError, match=r"^synth: need at least one leaf"):
        config_from_dict(SynthConfig, {"leaves": 0}, "synth")
    with pytest.raises(ConfigError, match=r"^split: split fractions must sum to 1"):
        config_from_dict(SplitSpec, {"train_fraction": 0.5}, "split")


# --- checkpoints ----------------------------------------------------------------

def test_checkpoint_with_an_unknown_config_key_is_rejected(chain_taxonomy, tmp_path):
    enc = EncoderConfig(hash_buckets=8, text_dim=2, cat_dim=1)
    moe = MoEConfig(levels=chain_taxonomy.max_depth, experts_per_level=1, expert_hidden_dim=2)
    model = init_model(chain_taxonomy, enc, moe, seed=0)
    meta = {
        "encoder_config": asdict(enc),
        "moe_config": {**asdict(moe), "experts": 4},
        "taxonomy_hash": model.taxonomy_hash,
    }
    path = tmp_path / "model.ckpt"
    path.write_bytes(write_container(CHECKPOINT_MAGIC, meta, model.params))  # checksum-valid
    with pytest.raises(CheckpointError, match=r"unknown config key checkpoint header\.meta\.moe_config\.experts"):
        load_checkpoint(path, chain_taxonomy)
    meta["moe_config"] = {**asdict(moe), "levels": "3"}
    path.write_bytes(write_container(CHECKPOINT_MAGIC, meta, model.params))
    with pytest.raises(CheckpointError, match=r"moe_config\.levels must be an integer"):
        load_checkpoint(path, chain_taxonomy)
    del meta["moe_config"]
    path.write_bytes(write_container(CHECKPOINT_MAGIC, meta, model.params))
    with pytest.raises(CheckpointError, match=r"meta has no 'moe_config' key"):
        load_checkpoint(path, chain_taxonomy)
    meta.update(moe_config=asdict(moe), encoder_config={**asdict(enc), "fields": ["label_path"]})
    path.write_bytes(write_container(CHECKPOINT_MAGIC, meta, model.params))
    with pytest.raises(CheckpointError, match=r"meta\.encoder_config: fields must be distinct names out of"):
        load_checkpoint(path, chain_taxonomy)


# --- the command line -----------------------------------------------------------

WRONG_TYPES = {
    "encoder": ("hash_buckets", "2048"),
    "moe": ("expert_hidden_dim", "yes"),
    "train": ("epochs", 2.5),
    "split": ("train_fraction", "0.64"),
    "pipeline": ("tau_leaf", None),
    "synth": ("leaves", True),
}
UNKNOWN_KEYS = {
    "encoder": "buckets",
    "moe": "experts",
    "train": "epoch",
    "split": "seed",
    "pipeline": "seed",
    "synth": "leafs",
}


def gen_with(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = dispatch(["gen", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("section", sorted(UNKNOWN_KEYS))
def test_unknown_key_exits_1_naming_it(tmp_path, capsys, section):
    key = UNKNOWN_KEYS[section]
    code, err = gen_with(tmp_path, capsys, {"seed": 1, section: {key: 4}})
    assert code == 1
    assert err.startswith(f"error: unknown config key {section}.{key}")


@pytest.mark.parametrize("section", sorted(UNKNOWN_KEYS))
def test_non_object_section_exits_1_naming_it(tmp_path, capsys, section):
    code, err = gen_with(tmp_path, capsys, {section: 5})
    assert code == 1
    assert err.startswith(f"error: {section} must be a JSON object, got 5")


@pytest.mark.parametrize("section", sorted(WRONG_TYPES))
def test_wrongly_typed_value_exits_1_naming_it(tmp_path, capsys, section):
    key, value = WRONG_TYPES[section]
    code, err = gen_with(tmp_path, capsys, {section: {key: value}})
    assert code == 1
    assert err.startswith(f"error: {section}.{key} must be ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "config must be a JSON object, got [1, 2]"),
        ("seven", "config must be a JSON object"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"seed": True}, "seed must be an integer"),
        ({"sead": 7}, "unknown config key sead"),
        ({"train": {"seed": 3}}, "unknown config key train.seed"),
        ({"train": {"loss_weights": {"omega_c": 0.2}}}, "unknown config key train.loss_weights"),
        ({"train": {"omega_s": "0.2"}}, "train.omega_s must be a number"),
        ({"encoder": {"fields": "bu_code"}}, "encoder.fields must be a list"),
        ({"encoder": {"field_vocabs": {"bu_code": [1]}}}, "encoder.field_vocabs.bu_code[0] must be a string"),
        ({"synth": {"depth_weights": [1, "a"]}}, "synth.depth_weights[1] must be a number"),
    ],
)
def test_malformed_document_exits_1(tmp_path, capsys, doc, message):
    code, err = gen_with(tmp_path, capsys, doc)
    assert code == 1
    assert err.startswith(f"error: {message}")


def test_pipeline_rejects_a_bad_config_before_reading_its_inputs(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"epoch": 1}}), encoding="utf-8")
    code = dispatch(["pipeline", "--config", str(path), "--records", str(tmp_path / "none.jsonl"),
                     "--taxonomy", str(tmp_path / "none.json"), "--out", str(tmp_path / "run")])
    assert code == 1  # a config error, not the i/o error (2) of the missing inputs
    assert "unknown config key train.epoch" in capsys.readouterr().err


def test_manifest_records_every_resolved_value_and_reloads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "synth": {"leaves": 12, "samples": 30, "leaf_depth_max": 3},
                                "train": {"epochs": 1}}), encoding="utf-8")
    out = tmp_path / "out"
    assert dispatch(["gen", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    config = manifest["config"]
    assert manifest["seed"] == config["seed"] == 5
    assert config["train"]["epochs"] == 1 and "epoch" not in config["train"]
    assert config["train"]["batch_size"] == TrainConfig.batch_size  # defaults are spelled out
    assert config == via_json(config_document(*load_config(config)[1:]))  # `--config` accepts it as is


def test_flags_override_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": {"leaves": 12, "samples": 30, "leaf_depth_max": 3}}), encoding="utf-8")
    data = tmp_path / "data"
    assert dispatch(["gen", "--config", str(path), "--out", str(data)]) == 0
    assert dispatch(["split", "--config", str(path), "--records", str(data / "records.jsonl"),
                     "--fractions", "0.5,0.25,0.25", "--seed", "4", "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "run_manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["config"]["split"] == {"train_fraction": 0.5, "val_fraction": 0.25, "test_fraction": 0.25}


def fit_tau_leaves(tmp_path, monkeypatch, pipeline, *flags):
    """The tau_leaf each `fit` of `taxpath train` is given, under a config whose pipeline section is `pipeline`."""
    import taxpath.cli as cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": {"leaves": 12, "samples": 40, "leaf_depth_max": 3},
                                "moe": {"levels": 3}, "train": {"epochs": 1},
                                "pipeline": pipeline}), encoding="utf-8")
    data = tmp_path / "data"
    assert dispatch(["gen", "--config", str(path), "--out", str(data)]) == 0
    seen = []
    real_fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda *args, **kw: seen.append(kw.get("tau_leaf")) or real_fit(*args, **kw))
    assert dispatch(["train", "--config", str(path), "--train", str(data / "records.jsonl"),
                     "--taxonomy", str(data / "taxonomy.json"), "--out", str(tmp_path / "m.ckpt"), *flags]) == 0
    return seen


def test_train_selects_epochs_with_the_configured_tau_leaf(tmp_path, monkeypatch):
    assert fit_tau_leaves(tmp_path, monkeypatch, {"tau_leaf": 0.7}) == [0.7]


def test_train_takes_tau_leaf_as_a_flag(tmp_path, monkeypatch):
    assert fit_tau_leaves(tmp_path, monkeypatch, {"tau_leaf": 0.3}, "--tau-leaf", "0.7") == [0.7]
    assert json.loads((tmp_path / "run_manifest.json").read_text())["config"]["pipeline"]["tau_leaf"] == 0.7
