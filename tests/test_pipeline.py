import json

import numpy as np
import pytest

from taxpath.dataset import SplitSpec, cleanse, split, stratified_dev_sample, read_records
from taxpath import pipeline
from taxpath.encoder import EncoderConfig, build_field_vocabs
from taxpath.infer import predict_batch, prediction_to_dict
from taxpath.metrics import evaluate
from taxpath.moe import MoEConfig, init_model, load_checkpoint
from taxpath.pipeline import PipelineConfig, PipelineError, run_pipeline, score_records
from taxpath.semantic import JudgeModel, load_judge, save_judge
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.train import LossWeights, TrainConfig, fit
from taxpath.util import read_jsonl

from dataclasses import replace


def small_pipeline_config(seed=5, omega_s=0.2, epochs=4):
    return PipelineConfig(
        encoder=EncoderConfig(hash_buckets=512, text_dim=12, cat_dim=3),
        moe=MoEConfig(levels=3, experts_per_level=2, expert_hidden_dim=16),
        train=TrainConfig(
            batch_size=32,
            epochs=epochs,
            learning_rate=5e-3,
            loss_weights=LossWeights(omega_c=0.2, omega_s=omega_s),
        ),
        split=SplitSpec(0.64, 0.16, 0.20),
        seed=seed,
    )


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(
        SynthConfig(leaves=20, samples=600, leaf_depth_min=2, leaf_depth_max=3,
                    label_noise_rate=0.05, noise_token_rate=0.15),
        seed=5,
    )


def test_pipeline_emits_exactly_the_artifact_manifest(tmp_path, corpus):
    out = tmp_path / "run"
    model, artifacts = run_pipeline(corpus.records, corpus.taxonomy, small_pipeline_config(), out)
    expected = {"cleansed.jsonl", "dev.jsonl", "judge.ckpt", "annotated.jsonl",
                "final.ckpt", "metrics.json"}
    assert {p.name for p in out.iterdir()} == expected
    assert set(artifacts) == {"cleansed", "dev", "judge", "annotated", "final", "metrics"}

    # artifacts are loadable and mutually consistent
    kept = read_records(artifacts["cleansed"])
    assert 0 < len(kept) <= len(corpus.records)
    dev = read_records(artifacts["dev"])
    assert 0 < len(dev) <= len(kept)
    judge = load_judge(artifacts["judge"])
    assert judge.tau_hi > judge.tau_lo
    annotations = list(read_jsonl(artifacts["annotated"]))
    assert len(annotations) == len(kept)
    assert [a["id"] for a in annotations] == sorted(a["id"] for a in annotations)
    assert all(a["verdict"] in ("Y", "N", "U") for a in annotations)
    final = load_checkpoint(artifacts["final"], corpus.taxonomy)
    assert final.tables.fingerprint == corpus.taxonomy.fingerprint()
    metrics = json.loads(artifacts["metrics"].read_text())
    assert set(metrics["test"]) == {"base", "repath"}
    for key in ("path_macro_f1", "path_micro_f1", "leaf_macro_f1", "leaf_micro_f1"):
        assert 0.0 <= metrics["test"]["base"][key] <= 1.0


def test_pipeline_dev_composition_matches_construction_rule(tmp_path, corpus):
    config = small_pipeline_config()
    _, artifacts = run_pipeline(corpus.records, corpus.taxonomy, config, tmp_path / "run")
    kept = read_records(artifacts["cleansed"])
    dev_ids = {r.id for r in read_records(artifacts["dev"])}

    # reproduce stage 2 scoring independently and recount the strata
    spec = replace(config.split, seed=config.seed)
    train_recs, val_recs, _ = split(kept, spec)
    enc = replace(config.encoder, field_vocabs=build_field_vocabs(train_recs, config.encoder.fields))
    prelim_cfg = replace(config.train, seed=config.seed,
                         loss_weights=replace(config.train.loss_weights, omega_s=1.0))
    prelim = init_model(corpus.taxonomy, enc, config.moe, config.seed)
    prelim, _ = fit(prelim, train_recs, val_recs, corpus.taxonomy, None, prelim_cfg)
    scored = score_records(prelim, kept, corpus.taxonomy, config.tau_leaf)

    high = [s for s in scored if s.correct and s.confidence >= 0.9]
    rest = [s for s in scored if not (s.correct and s.confidence >= 0.9)]
    assert len(dev_ids) == int(len(high) * 0.05 + 0.5) + len(rest)
    assert {s.record.id for s in rest} <= dev_ids
    recomputed = stratified_dev_sample(scored, 0.9, 0.05, config.seed)
    assert {r.id for r in recomputed} == dev_ids


def test_pipeline_pure_hierarchical_equals_stage2(tmp_path, corpus):
    config = small_pipeline_config(omega_s=1.0, epochs=3)
    _, artifacts = run_pipeline(corpus.records, corpus.taxonomy, config, tmp_path / "run")
    final = load_checkpoint(artifacts["final"], corpus.taxonomy)

    # stage 2 rerun by hand: with omega_s = 1 the judge contributes nothing,
    # so the stage 4 model must coincide bit-for-bit
    kept, _ = cleanse(corpus.records, corpus.taxonomy)
    spec = replace(config.split, seed=config.seed)
    train_recs, val_recs, _ = split(kept, spec)
    enc = replace(config.encoder, field_vocabs=build_field_vocabs(train_recs, config.encoder.fields))
    prelim_cfg = replace(config.train, seed=config.seed,
                         loss_weights=replace(config.train.loss_weights, omega_s=1.0))
    prelim = init_model(corpus.taxonomy, enc, config.moe, config.seed)
    prelim, _ = fit(prelim, train_recs, val_recs, corpus.taxonomy, None, prelim_cfg)

    assert set(final.params) == set(prelim.params)
    for name in final.params:
        assert np.array_equal(final.params[name], prelim.params[name]), name


def test_pipeline_errors_tagged_with_stage(corpus, tmp_path):
    bad = replace(small_pipeline_config(), split=SplitSpec(0.98, 0.01, 0.01))
    # cut the corpus so small that the val and test splits come out empty
    tiny = corpus.records[:3]
    with pytest.raises(PipelineError, match="stage"):
        run_pipeline(tiny, corpus.taxonomy, bad, tmp_path / "bad")


@pytest.mark.parametrize("stage, name", [(1, "cleanse"), (2, "fit"), (3, "distill_judge"), (4, "annotate_corpus")])
def test_an_exception_inside_a_stage_is_raised_naming_the_stage(corpus, tmp_path, monkeypatch, stage, name):
    def fail(*args, **kwargs):
        raise KeyError(f"{name} failed")

    monkeypatch.setattr(pipeline, name, fail)
    with pytest.raises(PipelineError, match=f"^stage {stage}: '{name} failed'$") as info:
        run_pipeline(corpus.records, corpus.taxonomy, small_pipeline_config(epochs=1), tmp_path / "out")
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("n, sizes", [(3, [2, 0, 1]), (1, [1, 0, 0])])
def test_pipeline_names_an_empty_split_before_training(corpus, tmp_path, monkeypatch, n, sizes):
    kept, _ = cleanse(corpus.records, corpus.taxonomy)
    config = small_pipeline_config()
    assert [len(part) for part in split(kept[:n], config.split)] == sizes

    def no_training(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(pipeline, "fit", no_training)
    with pytest.raises(PipelineError, match=f"^stage 2: the val split is empty: {n} cleansed records are too few"):
        run_pipeline(kept[:n], corpus.taxonomy, config, tmp_path / "out")


def test_score_records_fields(corpus):
    config = small_pipeline_config()
    kept, _ = cleanse(corpus.records[:100], corpus.taxonomy)
    enc = replace(config.encoder, field_vocabs=build_field_vocabs(kept, config.encoder.fields))
    model = init_model(corpus.taxonomy, enc, config.moe, seed=1)
    scored = score_records(model, kept, corpus.taxonomy)
    assert len(scored) == len(kept)
    for s in scored:
        assert 0.0 <= s.confidence <= 1.0
        assert s.correct == (s.predicted_leaf == s.record.leaf())


def test_pipeline_judges_each_kept_record_once_after_distillation(tmp_path, corpus, monkeypatch):
    # a batch goes through the class attribute `JudgeModel.judge_batch`, so wrapping it sees every one;
    # stage 3's holdout check, which ends before the judge is saved, is not counted
    calls, at_save = [], []
    original = JudgeModel.judge_batch
    monkeypatch.setattr(
        JudgeModel, "judge_batch",
        lambda self, titles, codes, taxonomy: calls.append(list(zip(titles, codes))) or original(self, titles, codes, taxonomy),
    )
    monkeypatch.setattr(pipeline, "save_judge", lambda *args: at_save.append(len(calls)) or save_judge(*args))
    _, artifacts = run_pipeline(corpus.records, corpus.taxonomy, small_pipeline_config(epochs=2), tmp_path / "run")
    kept = read_records(artifacts["cleansed"])
    judged = [pair for batch in calls[at_save[0]:] for pair in batch]
    assert len(judged) == len(kept)
    assert sorted(judged) == sorted((r.title, r.leaf()) for r in kept)


def test_final_training_reads_the_written_annotations(tmp_path, corpus, monkeypatch):
    seen = []
    monkeypatch.setattr(pipeline, "fit", lambda *args, **kw: seen.append(args[4]) or fit(*args, **kw))
    _, artifacts = run_pipeline(corpus.records, corpus.taxonomy, small_pipeline_config(epochs=2), tmp_path / "run")
    prelim_annotations, final_annotations = seen
    assert prelim_annotations is None
    written = {row["id"]: (row["verdict"], row["rationale"]) for row in read_jsonl(artifacts["annotated"])}
    assert {i: (lab.verdict, lab.rationale) for i, lab in final_annotations.items()} == written


def test_stage4_runs_one_test_forward_and_derives_repath(tmp_path, corpus, monkeypatch):
    calls = []

    def counting_predict_batch(model, records, *args, **kwargs):
        calls.append(len(records))
        return predict_batch(model, records, *args, **kwargs)

    monkeypatch.setattr(pipeline, "predict_batch", counting_predict_batch)
    config = small_pipeline_config(epochs=2)
    final, artifacts = run_pipeline(corpus.records, corpus.taxonomy, config, tmp_path / "run")
    kept = read_records(artifacts["cleansed"])
    _, _, test_recs = split(kept, replace(config.split, seed=config.seed))
    assert calls == [len(kept), len(test_recs)]  # stage 2 scoring, stage 4 test set

    # the derived RePath variant scores as a forward pass with RePath does
    preds = predict_batch(final, test_recs, corpus.taxonomy, config.tau_leaf, use_repath=True)
    rp = evaluate([prediction_to_dict(r.id, p) for r, p in zip(test_recs, preds)], test_recs, corpus.taxonomy)
    metrics = json.loads(artifacts["metrics"].read_text())
    assert metrics["test"]["repath"] == json.loads(json.dumps(rp.to_dict()))
