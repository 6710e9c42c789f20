"""Four-stage training pipeline: cleanse, dev-set construction, judge
distillation, and consistency-assisted final training.

Stage 1 cleanses the raw records. Stage 2 trains a preliminary model without
the semantic task, scores the cleansed corpus, and builds the
confidence-stratified dev set. Stage 3 oracle-labels the dev set (adding
mismatched title/leaf pairs when no pair is labelled N) and distills the
lightweight judge. Stage 4 annotates the full corpus with the distilled
judge and trains the final model with both objectives on those verdicts.
Each stage writes its artifact into the output directory.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .dataset import (
    ProductRecord,
    ScoredRecord,
    SplitSpec,
    cleanse,
    stratified_dev_sample,
    split,
    write_records,
)
from .encoder import EncoderConfig, build_field_vocabs
from .infer import DEFAULT_TAU_LEAF, predict_batch, prediction_to_dict, repath
from .metrics import evaluate
from .moe import MoEConfig, MoEModel, init_model, save_checkpoint
from .semantic import (
    DEFAULT_N_THRESHOLD,
    DEFAULT_Y_THRESHOLD,
    annotate_corpus,
    distill_judge,
    label_dev_set,
    save_judge,
    write_annotations,
)
from .taxonomy import Taxonomy
from .train import LossWeights, TrainConfig, fit
from .util import atomic_write_text


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderConfig = EncoderConfig()
    moe: MoEConfig = MoEConfig()
    train: TrainConfig = TrainConfig()
    split: SplitSpec = SplitSpec()
    confidence_threshold: float = 0.9
    high_conf_fraction: float = 0.05
    tau_leaf: float = DEFAULT_TAU_LEAF
    oracle_y_threshold: float = DEFAULT_Y_THRESHOLD
    oracle_n_threshold: float = DEFAULT_N_THRESHOLD
    seed: int = 0


def score_records(
    model: MoEModel, records: list[ProductRecord], taxonomy: Taxonomy, tau_leaf: float = DEFAULT_TAU_LEAF
) -> list[ScoredRecord]:
    """Prediction confidence and correctness for every record."""
    preds = predict_batch(model, records, taxonomy, tau_leaf=tau_leaf, use_repath=False)
    leaves = preds.tables.codes[preds.leaf].tolist()
    confidence = preds.leaf_confidence.clip(0.0, 1.0).tolist()
    correct = (preds.leaf == preds.tables.labels_of([rec.leaf() for rec in records])).tolist()
    return list(map(ScoredRecord, records, leaves, confidence, correct))


def run_pipeline(
    raw_records: list[ProductRecord],
    taxonomy: Taxonomy,
    config: PipelineConfig,
    out_dir: str | Path,
) -> tuple[MoEModel, dict[str, Path]]:
    """Run all four stages; returns the final model and the artifact paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    seed = config.seed

    def stage(index: int, fn):
        try:
            return fn()
        except Exception as exc:
            raise PipelineError(f"stage {index}: {exc}") from exc

    # Stage 1: cleanse
    def stage1():
        kept, _rejected = cleanse(raw_records, taxonomy)
        artifacts["cleansed"] = out / "cleansed.jsonl"
        write_records(artifacts["cleansed"], kept)
        return kept

    kept = stage(1, stage1)

    # Stage 2: preliminary model, scoring, stratified dev set
    def stage2():
        spec = replace(config.split, seed=seed)
        train_recs, val_recs, test_recs = split(kept, spec)
        for name, part in (("train", train_recs), ("val", val_recs), ("test", test_recs)):
            if not part:
                raise ValueError(f"the {name} split is empty: {len(kept)} cleansed records are too few to split")
        enc_cfg = replace(
            config.encoder,
            field_vocabs=build_field_vocabs(train_recs, config.encoder.fields),
        )
        prelim_cfg = replace(
            config.train,
            seed=seed,
            loss_weights=replace(config.train.loss_weights, omega_s=1.0),
        )
        prelim = init_model(taxonomy, enc_cfg, config.moe, seed)
        prelim, _ = fit(prelim, train_recs, val_recs, taxonomy, None, prelim_cfg, tau_leaf=config.tau_leaf)
        scored = score_records(prelim, kept, taxonomy, config.tau_leaf)
        dev = stratified_dev_sample(
            scored, config.confidence_threshold, config.high_conf_fraction, seed
        )
        artifacts["dev"] = out / "dev.jsonl"
        write_records(artifacts["dev"], dev)
        return train_recs, val_recs, test_recs, enc_cfg, dev

    train_recs, val_recs, test_recs, enc_cfg, dev = stage(2, stage2)

    # Stage 3: oracle labels on the dev set, judge distillation
    def stage3():
        labeled = label_dev_set(dev, taxonomy, config.oracle_y_threshold, config.oracle_n_threshold)
        judge = distill_judge(labeled, taxonomy, seed)
        artifacts["judge"] = out / "judge.ckpt"
        save_judge(judge, artifacts["judge"])
        return judge

    judge = stage(3, stage3)

    # Stage 4: annotate the corpus, train the final model, evaluate
    def stage4():
        annotations = annotate_corpus(kept, judge, taxonomy)
        artifacts["annotated"] = out / "annotated.jsonl"
        write_annotations(artifacts["annotated"], annotations)
        final_cfg = replace(config.train, seed=seed)
        final = init_model(taxonomy, enc_cfg, config.moe, seed)
        final, _ = fit(final, train_recs, val_recs, taxonomy, annotations, final_cfg, tau_leaf=config.tau_leaf)
        artifacts["final"] = out / "final.ckpt"
        save_checkpoint(final, artifacts["final"])

        preds = predict_batch(final, test_recs, taxonomy, config.tau_leaf, use_repath=False)
        base = evaluate([prediction_to_dict(r.id, p) for r, p in zip(test_recs, preds)], test_recs, taxonomy)
        preds_rp = repath(preds, taxonomy)
        rp = evaluate([prediction_to_dict(r.id, p) for r, p in zip(test_recs, preds_rp)], test_recs, taxonomy)
        artifacts["metrics"] = out / "metrics.json"
        atomic_write_text(
            artifacts["metrics"],
            json.dumps(
                {"test": {"base": base.to_dict(), "repath": rp.to_dict()}},
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        return final

    final = stage(4, stage4)
    return final, artifacts
