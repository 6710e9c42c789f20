"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not tuned at runtime."""
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from taxpath.cli import dispatch
from taxpath.dataset import (
    ProductRecord,
    ScoredRecord,
    SplitSpec,
    split,
    stratified_dev_sample,
)
from taxpath.encoder import EncoderConfig, build_field_vocabs
from taxpath.infer import predict_batch, prediction_to_dict, repath
from taxpath.metrics import evaluate, macro_f1, micro_f1
from taxpath.moe import MoEConfig, init_model
from taxpath.pipeline import PipelineConfig, run_pipeline
from taxpath.semantic import distill_judge, oracle_judge
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import ancestors, is_valid_path
from taxpath.train import (
    LossWeights,
    TrainConfig,
    backward,
    build_level_targets,
    fit,
    hierarchical_loss,
    level_loss,
    total_loss,
)

from encoder_oracles import encode_batch
from test_metrics import brute_force_scores, random_pairs


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


# --- shared fixtures -------------------------------------------------------

SEPARABLE = SynthConfig(
    leaves=50,
    samples=7800,  # 64% train split ~= 5,000 samples
    leaf_depth_min=2,
    leaf_depth_max=4,
    label_noise_rate=0.0,
    noise_token_rate=0.2,
    zipf_exponent=1.05,
)


def separable_pipeline_config(taxonomy, omega_s):
    return PipelineConfig(
        encoder=EncoderConfig(hash_buckets=2048, text_dim=24, cat_dim=4),
        moe=MoEConfig(levels=taxonomy.max_depth, experts_per_level=2, expert_hidden_dim=48),
        train=TrainConfig(batch_size=64, epochs=12, learning_rate=2e-3,
                          loss_weights=LossWeights(omega_c=0.2, omega_s=omega_s)),
        split=SplitSpec(0.64, 0.16, 0.20),
        seed=1,
    )


@pytest.fixture(scope="module")
def separable_corpus():
    return synth_corpus(SEPARABLE, seed=1)


@pytest.fixture(scope="module")
def pipeline_runs(separable_corpus, tmp_path_factory):
    """Full pipeline on the separable corpus, with and without semantic loss."""
    out = {}
    for omega_s in (0.2, 1.0):
        tmp = tmp_path_factory.mktemp(f"pipeline_{omega_s}")
        config = separable_pipeline_config(separable_corpus.taxonomy, omega_s)
        start = time.monotonic()
        _, artifacts = run_pipeline(separable_corpus.records, separable_corpus.taxonomy, config, tmp)
        metrics = json.loads(Path(artifacts["metrics"]).read_text())
        out[omega_s] = {
            "metrics": metrics,
            "seconds": time.monotonic() - start,
            "artifacts": artifacts,
        }
    return out


# --- criterion: gradient oracle -------------------------------------------

def test_gradient_oracle():
    start = time.monotonic()
    corpus = synth_corpus(
        SynthConfig(leaves=14, samples=16, leaf_depth_min=2, leaf_depth_max=3, total_nodes=20),
        seed=3,
    )
    assert len(corpus.taxonomy.nodes) == 20
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=32, text_dim=5, cat_dim=3, fields=fields,
                        field_vocabs=build_field_vocabs(corpus.records, fields))
    moe = MoEConfig(levels=3, experts_per_level=2, expert_hidden_dim=4)
    model = init_model(corpus.taxonomy, enc, moe, seed=3)
    records = corpus.records
    targets = build_level_targets(records, model)
    sem = np.array([i % 3 - 1 for i in range(len(records))], dtype=np.int64)
    weights = LossWeights(omega_c=0.3, omega_s=0.6)
    batch = encode_batch(records, model.params, enc)
    _, grads = backward(model, batch, targets, sem, weights)

    def loss_fn():
        b = encode_batch(records, model.params, enc)
        loss, _ = backward(model, b, targets, sem, weights)
        return loss

    rng = np.random.default_rng(17)
    names = sorted(model.params)
    step = 1e-6
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        name = names[int(rng.integers(len(names)))]
        arr = model.params[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        lp = loss_fn()
        arr[idx] = orig - step
        lm = loss_fn()
        arr[idx] = orig
        numeric = (lp - lm) / (2 * step)
        analytic = grads[name][idx]
        scale = max(abs(numeric), abs(analytic))
        if scale < 1e-3:
            # gradient below the resolution of a 1e-6 central difference in
            # 64-bit arithmetic: demand absolute agreement at the noise floor
            assert abs(numeric - analytic) <= 2e-9, (name, idx, numeric, analytic)
            continue
        rel = abs(numeric - analytic) / scale
        worst = max(worst, rel)
        assert rel <= 1e-6, (name, idx, numeric, analytic, rel)
        checked += 1
    elapsed = time.monotonic() - start
    verdict(
        "gradient-oracle",
        checked >= 200 and worst <= 1e-6 and elapsed < 10.0,
        f"{checked} params, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion: metric oracle ----------------------------------------------

def test_metric_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    trials = 0
    for block in range(10):
        taxonomy = synth_corpus(
            SynthConfig(leaves=12, samples=0, leaf_depth_min=2, leaf_depth_max=4),
            seed=200 + block,
        ).taxonomy
        assert len(taxonomy.nodes) <= 30
        for _ in range(100):
            pairs = random_pairs(taxonomy, rng, int(rng.integers(1, 11)))
            for mode in ("path", "leaf"):
                micro_ref, macro_ref = brute_force_scores(pairs, mode)
                got_micro = micro_f1(pairs, mode)
                got_macro = macro_f1(pairs, taxonomy, mode)
                worst = max(
                    worst,
                    *(abs(a - b) for a, b in zip(got_micro, micro_ref)),
                    *(abs(a - b) for a, b in zip(got_macro, macro_ref)),
                )
            trials += 1
    elapsed = time.monotonic() - start
    verdict(
        "metric-oracle",
        trials == 1000 and worst <= 1e-12 and elapsed < 30.0,
        f"{trials} instances, worst abs err {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion: loss collapses ----------------------------------------------

def test_loss_collapses():
    losses = [0.73, 1.41, 2.09]
    eq2 = hierarchical_loss(losses, 3, 0.0) == losses[2]
    eq4 = total_loss(1.234, 0.567, 1.0) == 1.234
    uniform_err = max(
        abs(level_loss(np.full(k, 1.0 / k), 0) - np.log(k)) for k in (2, 3, 5, 17, 101)
    )
    verdict(
        "loss-collapses",
        eq2 and eq4 and uniform_err <= 1e-12,
        f"uniform CE max err {uniform_err:.2e}",
    )


# --- criteria: repath invariants and directional gain ------------------------

def train_noisy_intermediate(seed):
    corpus = synth_corpus(
        SynthConfig(leaves=40, samples=2600, leaf_depth_min=3, leaf_depth_max=5,
                    intermediate_noise_rate=0.3, noise_token_rate=0.15,
                    zipf_exponent=1.0, max_roots=6, branching_max=5),
        seed=seed,
    )
    train_recs, val_recs, test_recs = split(corpus.records, SplitSpec(0.64, 0.16, 0.20, seed=seed))
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=1024, text_dim=16, cat_dim=4, fields=fields,
                        field_vocabs=build_field_vocabs(train_recs, fields))
    moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=2,
                    expert_hidden_dim=32)
    model = init_model(corpus.taxonomy, enc, moe, seed=seed)
    cfg = TrainConfig(batch_size=64, epochs=10, learning_rate=2e-3, seed=seed,
                      loss_weights=LossWeights(omega_c=0.2, omega_s=1.0))
    model, _ = fit(model, train_recs, val_recs, corpus.taxonomy, None, cfg,
                   target_overrides=corpus.target_overrides)
    return corpus, model, test_recs


def test_repath_invariants():
    corpus, model, test_recs = train_noisy_intermediate(seed=1)
    taxonomy = corpus.taxonomy
    base = predict_batch(model, test_recs, taxonomy, 0.5, use_repath=False)
    fixed = predict_batch(model, test_recs, taxonomy, 0.5, use_repath=True)

    base_report = evaluate(
        [prediction_to_dict(r.id, p) for r, p in zip(test_recs, base)], test_recs, taxonomy
    )
    fixed_report = evaluate(
        [prediction_to_dict(r.id, p) for r, p in zip(test_recs, fixed)], test_recs, taxonomy
    )
    leaf_identical = (
        base_report.leaf_macro_f1 == fixed_report.leaf_macro_f1
        and base_report.leaf_micro_f1 == fixed_report.leaf_micro_f1
    )
    all_valid = all(is_valid_path(taxonomy, list(p.selected_path)) for p in fixed)
    idempotent = all(
        again.selected_path == p.selected_path and again.mode == p.mode
        for again, p in zip(repath(fixed, taxonomy), fixed)
    )
    verdict(
        "repath-invariants",
        leaf_identical and all_valid and idempotent,
        f"leaf macro/micro identical={leaf_identical}, valid={all_valid}, idempotent={idempotent}",
    )


def test_repath_directional_gain():
    gains = []
    for seed in (1, 2, 3):
        start = time.monotonic()
        corpus, model, test_recs = train_noisy_intermediate(seed)
        base = predict_batch(model, test_recs, corpus.taxonomy, 0.5, use_repath=False)
        fixed = predict_batch(model, test_recs, corpus.taxonomy, 0.5, use_repath=True)
        base_f1 = evaluate(
            [prediction_to_dict(r.id, p) for r, p in zip(test_recs, base)],
            test_recs, corpus.taxonomy,
        ).path_micro_f1
        fixed_f1 = evaluate(
            [prediction_to_dict(r.id, p) for r, p in zip(test_recs, fixed)],
            test_recs, corpus.taxonomy,
        ).path_micro_f1
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"seed {seed} run took {elapsed:.0f}s"
        gains.append(100.0 * (fixed_f1 - base_f1))
    verdict(
        "repath-directional-gain",
        all(g >= 2.0 for g in gains),
        "gains in points: " + ", ".join(f"{g:.2f}" for g in gains),
    )


# --- criterion: end-to-end trainability --------------------------------------

def test_end_to_end_trainability(pipeline_runs):
    run = pipeline_runs[0.2]
    leaf_micro = run["metrics"]["test"]["base"]["leaf_micro_f1"]
    verdict(
        "end-to-end-trainability",
        leaf_micro >= 0.95 and run["seconds"] < 120.0,
        f"leaf micro F1 {leaf_micro:.4f} in {run['seconds']:.0f}s (12 epochs per stage)",
    )


# --- criterion: pipeline composition (dev sampling rule) ---------------------

def test_pipeline_composition_dev_sampling():
    base = ProductRecord(
        id="x", title="t", category_name="c", bu_code="b", ou_code="o",
        system_code="s", label_path=("A",), source="synthetic",
    )
    rng = np.random.default_rng(7)
    pool = []
    for i in range(40_000):
        rec = ProductRecord(**{**base.__dict__, "id": f"x{i:06d}"})
        pool.append(
            ScoredRecord(
                record=rec,
                predicted_leaf="A",
                confidence=float(rng.random()),
                correct=bool(rng.random() < 0.9),
            )
        )
    out = stratified_dev_sample(pool, threshold=0.9, high_conf_fraction=0.05, seed=11)
    out_ids = {r.id for r in out}
    high = [s for s in pool if s.correct and s.confidence >= 0.9]
    low = [s for s in pool if s.correct and s.confidence < 0.9]
    wrong = [s for s in pool if not s.correct]
    expected = int(len(high) * 0.05 + 0.5) + len(low) + len(wrong)
    full_strata_kept = {s.record.id for s in low} | {s.record.id for s in wrong} <= out_ids
    sampled = out_ids - {s.record.id for s in low} - {s.record.id for s in wrong}
    verdict(
        "pipeline-composition",
        len(out) == expected and full_strata_kept and sampled <= {s.record.id for s in high},
        f"dev={len(out)} = 5% of {len(high)} + {len(low)} + {len(wrong)}",
    )


# --- criterion: judge distillation and semantic-loss delta -------------------

def test_judge_distillation_and_semantic_delta(separable_corpus, pipeline_runs):
    corpus = synth_corpus(
        SynthConfig(leaves=25, samples=900, label_noise_rate=0.3, noise_token_rate=0.15),
        seed=51,
    )
    labeled = [
        (r.title, r.leaf(), oracle_judge(r.title, r.leaf(), corpus.taxonomy))
        for r in corpus.records
    ]
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)

    with_semantic = pipeline_runs[0.2]["metrics"]["test"]["base"]["leaf_micro_f1"]
    without = pipeline_runs[1.0]["metrics"]["test"]["base"]["leaf_micro_f1"]
    delta_points = 100.0 * (without - with_semantic)
    verdict(
        "judge-distillation",
        judge.holdout_agreement >= 0.95 and delta_points <= 0.5,
        f"agreement {judge.holdout_agreement:.4f}; leaf micro drop {delta_points:+.2f} pts",
    )


# --- criterion: CLI determinism ----------------------------------------------

def run_cli(*argv):
    assert dispatch(list(argv)) == 0, argv


def workflow_files(root: Path, cfg_path: str, tag: str) -> dict[str, Path]:
    base = root / tag
    data = base / "data"
    run_cli("gen", "--config", cfg_path, "--out", str(data))
    kept = base / "kept.jsonl"
    run_cli("cleanse", "--config", cfg_path, "--records", str(data / "records.jsonl"),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(kept),
            "--rejected", str(base / "rejected.jsonl"))
    splits = base / "splits"
    run_cli("split", "--config", cfg_path, "--records", str(kept), "--out", str(splits))
    model = base / "model.ckpt"
    run_cli("train", "--config", cfg_path, "--train", str(splits / "train.jsonl"),
            "--val", str(splits / "val.jsonl"), "--taxonomy", str(data / "taxonomy.json"),
            "--out", str(model))
    judge = base / "judge.ckpt"
    run_cli("judge", "--config", cfg_path, "--dev", str(kept),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(judge),
            "--annotate", str(kept), "--annotations", str(base / "ann.jsonl"))
    preds = base / "preds.jsonl"
    run_cli("predict", "--config", cfg_path, "--model", str(model),
            "--records", str(splits / "test.jsonl"),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(preds))
    repathed = base / "repathed.jsonl"
    run_cli("repath", "--config", cfg_path, "--pred", str(preds),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(repathed))
    report = base / "report.json"
    run_cli("eval", "--config", cfg_path, "--pred", str(repathed),
            "--truth", str(splits / "test.jsonl"),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(report))
    cdf = base / "cdf.csv"
    run_cli("report", "--report", str(report), "--cdf-csv", str(cdf))
    pipe = base / "pipe"
    run_cli("pipeline", "--config", cfg_path, "--records", str(data / "records.jsonl"),
            "--taxonomy", str(data / "taxonomy.json"), "--out", str(pipe))
    return {
        "taxonomy.json": data / "taxonomy.json",
        "records.jsonl": data / "records.jsonl",
        "kept.jsonl": kept,
        "rejected.jsonl": base / "rejected.jsonl",
        "train.jsonl": splits / "train.jsonl",
        "val.jsonl": splits / "val.jsonl",
        "test.jsonl": splits / "test.jsonl",
        "model.ckpt": model,
        "judge.ckpt": judge,
        "ann.jsonl": base / "ann.jsonl",
        "preds.jsonl": preds,
        "repathed.jsonl": repathed,
        "report.json": report,
        "cdf.csv": cdf,
        "pipe/cleansed.jsonl": pipe / "cleansed.jsonl",
        "pipe/dev.jsonl": pipe / "dev.jsonl",
        "pipe/judge.ckpt": pipe / "judge.ckpt",
        "pipe/annotated.jsonl": pipe / "annotated.jsonl",
        "pipe/final.ckpt": pipe / "final.ckpt",
        "pipe/metrics.json": pipe / "metrics.json",
    }


def test_cli_determinism(tmp_path, capsys):
    config = {
        "seed": 23,
        "synth": {"leaves": 15, "samples": 240, "leaf_depth_min": 2, "leaf_depth_max": 3,
                  "label_noise_rate": 0.1},
        "encoder": {"hash_buckets": 256, "text_dim": 8, "cat_dim": 2,
                    "fields": ["bu_code", "ou_code", "system_code"]},
        "moe": {"levels": 3, "experts_per_level": 2, "expert_hidden_dim": 12},
        "train": {"batch_size": 32, "epochs": 2, "learning_rate": 5e-3, "omega_c": 0.2, "omega_s": 0.2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    first = workflow_files(tmp_path, str(cfg_path), "a")
    second = workflow_files(tmp_path, str(cfg_path), "b")
    capsys.readouterr()
    diffs = [
        name
        for name in first
        if first[name].read_bytes() != second[name].read_bytes()
    ]
    verdict(
        "cli-determinism",
        not diffs,
        f"{len(first)} primary artifacts byte-compared" + (f"; diffs: {diffs}" if diffs else ""),
    )


# --- criterion: ablation direction (MoE vs linear-equivalent head) ------------

def ablation_leaf_accuracy(experts, seed):
    corpus = synth_corpus(
        SynthConfig(leaves=60, samples=3000, leaf_depth_min=2, leaf_depth_max=3,
                    shared_vocab_across_roots=True, max_roots=4, branching_max=10,
                    metadata_correlation=1.0, noise_token_rate=0.05, zipf_exponent=1.0),
        seed=seed,
    )
    train_recs, val_recs, test_recs = split(corpus.records, SplitSpec(0.64, 0.16, 0.20, seed=seed))
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=512, text_dim=12, cat_dim=2, fields=fields,
                        field_vocabs=build_field_vocabs(train_recs, fields))
    moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=experts,
                    expert_hidden_dim=6)
    model = init_model(corpus.taxonomy, enc, moe, seed=seed)
    cfg = TrainConfig(batch_size=64, epochs=14, learning_rate=3e-3, seed=seed,
                      loss_weights=LossWeights(omega_c=0.2, omega_s=1.0))
    model, _ = fit(model, train_recs, val_recs, corpus.taxonomy, None, cfg)
    preds = predict_batch(model, test_recs, corpus.taxonomy, 0.5)
    return sum(1 for p, r in zip(preds, test_recs) if p.selected_leaf == r.leaf()) / len(test_recs)


def test_ablation_moe_vs_linear():
    seeds = (1, 2, 3)
    single = [ablation_leaf_accuracy(1, s) for s in seeds]
    mixture = [ablation_leaf_accuracy(4, s) for s in seeds]
    mean_single = float(np.mean(single))
    mean_mixture = float(np.mean(mixture))
    verdict(
        "ablation-moe-direction",
        mean_mixture >= mean_single,
        f"E=4 mean {mean_mixture:.4f} vs E=1 mean {mean_single:.4f} over seeds {seeds}",
    )
