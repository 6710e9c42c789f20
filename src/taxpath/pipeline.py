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
import math
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
from .encoder import EncoderConfig
from .infer import DEFAULT_TAU_LEAF, predict_batch, prediction_to_dict, repath
from .metrics import evaluate
from .moe import MoEConfig, MoEModel, init_model, level_spaces, save_checkpoint
from .semantic import annotate_corpus, distill_judge, label_dev_set, save_judge, write_annotations
from .taxonomy import Taxonomy
from .train import LossWeights, TrainConfig, fit
from .util import atomic_write_text


# The artifacts of a run, name -> file name, in the order the stages write them.
ARTIFACTS = {"cleansed": "cleansed.jsonl", "dev": "dev.jsonl", "judge": "judge.ckpt",
             "annotated": "annotated.jsonl", "final": "final.ckpt", "metrics": "metrics.json"}


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
    seed: int = 0

    def __post_init__(self):
        for name in ("confidence_threshold", "high_conf_fraction", "tau_leaf"):
            if math.isnan(getattr(self, name)):  # every comparison with NaN is false: a NaN threshold selects nothing
                raise ValueError(f"{name} must be a number, got nan")
        if not 0.0 < self.confidence_threshold < 1.0:  # as `stratified_dev_sample` requires
            raise ValueError(f"confidence_threshold must be in (0,1), got {self.confidence_threshold}")
        if not 0.0 < self.high_conf_fraction <= 1.0:
            raise ValueError(f"high_conf_fraction must be in (0,1], got {self.high_conf_fraction}")
        if not 0.0 <= self.tau_leaf <= 1.0:  # above 1 no leaf is confident, below 0 every leaf is
            raise ValueError(f"tau_leaf must be in [0,1], got {self.tau_leaf}")


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
    """Run all four stages; returns the final model and the artifact paths.

    An exception inside a stage is raised again as a PipelineError naming it."""
    level_spaces(taxonomy, config.moe.levels)  # a model shallower than the taxonomy is refused before any output
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {name: out / file for name, file in ARTIFACTS.items()}
    seed, tau_leaf = config.seed, config.tau_leaf
    stage = 1
    try:
        # Stage 1: cleanse
        kept = cleanse(raw_records, taxonomy)[0]
        write_records(artifacts["cleansed"], kept)

        # Stage 2: preliminary model, scoring, stratified dev set
        stage = 2
        train_recs, val_recs, test_recs = split(kept, replace(config.split, seed=seed))
        for name, part in (("train", train_recs), ("val", val_recs), ("test", test_recs)):
            if not part:
                raise ValueError(f"the {name} split is empty: {len(kept)} cleansed records are too few to split")
        enc_cfg = config.encoder.fitted(train_recs)
        prelim_cfg = replace(config.train, seed=seed, loss_weights=replace(config.train.loss_weights, omega_s=1.0))
        prelim = init_model(taxonomy, enc_cfg, config.moe, seed)
        prelim = fit(prelim, train_recs, val_recs, taxonomy, None, prelim_cfg, tau_leaf=tau_leaf)[0]
        scored = score_records(prelim, kept, taxonomy, tau_leaf)
        dev = stratified_dev_sample(scored, config.confidence_threshold, config.high_conf_fraction, seed)
        write_records(artifacts["dev"], dev)

        # Stage 3: oracle labels on the dev set, judge distillation
        stage = 3
        labeled = label_dev_set(dev, taxonomy)
        judge = distill_judge(labeled, taxonomy, seed)
        save_judge(judge, artifacts["judge"])
        del prelim, scored, labeled  # freed before the final model trains

        # Stage 4: annotate the corpus, train the final model, evaluate
        stage = 4
        annotations = annotate_corpus(kept, judge, taxonomy)
        write_annotations(artifacts["annotated"], annotations)
        final = init_model(taxonomy, enc_cfg, config.moe, seed)
        final = fit(final, train_recs, val_recs, taxonomy, annotations, replace(config.train, seed=seed),
                    tau_leaf=tau_leaf)[0]
        save_checkpoint(final, artifacts["final"])

        preds = predict_batch(final, test_recs, taxonomy, tau_leaf, use_repath=False)
        base = evaluate([prediction_to_dict(r.id, p) for r, p in zip(test_recs, preds)], test_recs, taxonomy)
        preds_rp = repath(preds, taxonomy)
        rp = evaluate([prediction_to_dict(r.id, p) for r, p in zip(test_recs, preds_rp)], test_recs, taxonomy)
        report = {"test": {"base": base.to_dict(), "repath": rp.to_dict()}}
        atomic_write_text(artifacts["metrics"], json.dumps(report, indent=2, sort_keys=True) + "\n")
    except Exception as exc:
        raise PipelineError(f"stage {stage}: {exc}") from exc
    return final, artifacts
