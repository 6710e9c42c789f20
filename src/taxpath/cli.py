"""Command-line entry point for the whole workflow (`taxpath --help` lists the subcommands).

Every value can come from a JSON config file; command-line flags override
file values, which override the config dataclasses' defaults. A key no
dataclass has is an error. Each run writes a manifest with the resolved
configuration and seed next to its outputs.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, field, fields, make_dataclass
from pathlib import Path
from typing import Any

from .dataset import (
    SplitSpec,
    cleanse,
    read_records,
    split,
    write_records,
    write_rejections,
)
from .encoder import EncoderConfig
from .infer import MODE_REPATHED, check_prediction, predict_batch, read_predictions, write_predictions
from .metrics import (EvalReport, EvaluationError, InvalidPredictionsError, InvalidTruthError, evaluate, render_table,
                      write_cdf_csv, write_report)
from .moe import CheckpointError, MoEConfig, init_model, load_checkpoint, save_checkpoint
from .pipeline import PipelineConfig, run_pipeline
from .semantic import annotate_corpus, distill_judge, label_dev_set, load_judge, save_judge, write_annotations
from .synth import SynthConfig, synth_corpus
from .taxonomy import leaf_chain, load_taxonomy_file
from .train import LossWeights, TrainConfig, fit
from .util import (ConfigError, atomic_write_bytes, atomic_write_text, config_from_dict, config_value, naming, read_json,
                   read_jsonl, write_jsonl)

log = logging.getLogger("taxpath")

# Flags that set one config key: flag -> (section.key, type).
CONFIG_FLAGS = {
    "--epochs": ("train.epochs", int),
    "--batch-size": ("train.batch_size", int),
    "--learning-rate": ("train.learning_rate", float),
    "--omega-c": ("train.omega_c", float),
    "--omega-s": ("train.omega_s", float),
    "--experts": ("moe.experts_per_level", int),
    "--levels": ("moe.levels", int),
    "--hidden-dim": ("moe.expert_hidden_dim", int),
    "--tau-leaf": ("pipeline.tau_leaf", float),
    "--confidence-threshold": ("pipeline.confidence_threshold", float),
    "--high-conf-fraction": ("pipeline.high_conf_fraction", float),
}
SECTIONS = ("encoder", "moe", "train", "split", "pipeline", "synth")
# The top level of a config document: the seed, and one object per section
ConfigDocument = make_dataclass("ConfigDocument", [("seed", int, PipelineConfig.seed)] + [
    (name, dict[str, Any], field(default_factory=dict)) for name in SECTIONS], frozen=True)


def read_config(args: argparse.Namespace) -> dict:
    """The config document: the --config file (if any), then the flags the user passed."""
    doc = config_value(dict[str, Any], read_json(Path(args.config), args.config, ConfigError), "config") if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            doc[section] = {**config_value(dict[str, Any], doc.get(section, {}), section), key: value}
    if getattr(args, "fractions", None):
        try:
            parts = [float(x) for x in args.fractions.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise ValueError(f"--fractions needs three comma-separated numbers, got {args.fractions!r}")
        # the fractions are SplitSpec's first three fields
        doc["split"] = dict(zip((f.name for f in fields(SplitSpec)), parts))
    return doc


def load_config(doc: dict) -> tuple[int, PipelineConfig, SynthConfig]:
    """(seed, pipeline config, synth config) from a config document.

    The document holds the top-level `seed` and one object per section; the
    `train` section also holds the loss weights. Keys left out take the
    dataclass defaults, and an unknown key raises a ConfigError naming it.
    """
    doc = config_from_dict(ConfigDocument, config_value(dict[str, Any], doc, "config"), "")
    seed = doc.seed
    train = dict(doc.train)
    weights = {f.name: train.pop(f.name) for f in fields(LossWeights) if f.name in train}
    config = config_from_dict(
        PipelineConfig, doc.pipeline, "pipeline",
        encoder=config_from_dict(EncoderConfig, doc.encoder, "encoder"),
        moe=config_from_dict(MoEConfig, doc.moe, "moe"),
        train=config_from_dict(
            TrainConfig, train, "train", seed=seed, loss_weights=config_from_dict(LossWeights, weights, "train")
        ),
        split=config_from_dict(SplitSpec, doc.split, "split", seed=seed),
        seed=seed,
    )
    return seed, config, config_from_dict(SynthConfig, doc.synth, "synth")


def config_document(config: PipelineConfig, synth: SynthConfig) -> dict:
    """The config document `load_config` reads back into these configs, every value spelled out."""
    doc = asdict(config)
    train, split_doc = doc.pop("train"), doc.pop("split")
    del train["seed"], split_doc["seed"]
    train.update(train.pop("loss_weights"))
    return {"seed": doc.pop("seed"), "encoder": doc.pop("encoder"), "moe": doc.pop("moe"),
            "train": train, "split": split_doc, "pipeline": doc, "synth": asdict(synth)}


def _write_manifest(out_dir: Path, subcommand: str, config: PipelineConfig, synth: SynthConfig, argv: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "seed": config.seed,
        "config": config_document(config, synth),  # every value the run used, defaults included
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    atomic_write_text(out_dir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_gen(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    out_dir = Path(args.out)
    corpus = synth_corpus(synth, config.seed)
    atomic_write_bytes(out_dir / "taxonomy.json", corpus.taxonomy.to_json_bytes())
    write_records(out_dir / "records.jsonl", corpus.records)
    log.info("generated %d nodes, %d records", len(corpus.taxonomy.nodes), len(corpus.records))
    return out_dir


def cmd_cleanse(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    kept, rejected = cleanse(records, taxonomy)
    out = Path(args.out)
    write_records(out, kept)
    write_rejections(args.rejected or out.parent / "rejected.jsonl", rejected)
    log.info("kept %d records, rejected %d", len(kept), len(rejected))
    return out.parent


def cmd_split(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    records = read_records(args.records)
    train_recs, val_recs, test_recs = split(records, config.split)
    out_dir = Path(args.out)
    write_records(out_dir / "train.jsonl", train_recs)
    write_records(out_dir / "val.jsonl", val_recs)
    write_records(out_dir / "test.jsonl", test_recs)
    log.info("split %d -> %d/%d/%d", len(records), len(train_recs), len(val_recs), len(test_recs))
    return out_dir


def cmd_pipeline(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    _, artifacts = run_pipeline(records, taxonomy, config, args.out)
    for name, path in artifacts.items():
        log.info("artifact %s: %s", name, path)
    return Path(args.out)


def cmd_train(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    train_recs = read_records(args.train)
    val_recs = read_records(args.val) if args.val else []
    judge = load_judge(args.judge) if args.judge else None
    model = init_model(taxonomy, config.encoder.fitted(train_recs), config.moe, config.seed)
    with naming(args.judge, CheckpointError, CheckpointError), naming(args.train, ValueError):  # the judge's taxonomy
        annotations = annotate_corpus(train_recs, judge, taxonomy) if judge else None
    with naming(args.train):  # validation records meet no check that could refuse one
        model, logs = fit(model, train_recs, val_recs, taxonomy, annotations, config.train, tau_leaf=config.tau_leaf)
    out = Path(args.out)
    save_checkpoint(model, out)
    if args.log:
        write_jsonl(args.log, logs)
    if logs:
        log.info("final epoch: %s", logs[-1])
    return out.parent


def cmd_judge(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    dev = read_records(args.dev)
    to_annotate = read_records(args.annotate) if args.annotate else None  # every input read before any output
    with naming(args.dev):
        labeled = label_dev_set(dev, taxonomy)
        judge = distill_judge(labeled, taxonomy, config.seed)
    with naming(args.annotate):  # before any output, which a record it refuses would leave half written
        annotations = annotate_corpus(to_annotate, judge, taxonomy) if to_annotate is not None else None
    out = Path(args.out)
    save_judge(judge, out)
    print(f"judge holdout agreement: {judge.holdout_agreement:.4f}")
    if annotations is not None:
        write_annotations(args.annotations or out.parent / "annotations.jsonl", annotations)
    return out.parent


def cmd_predict(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    model = load_checkpoint(args.model, taxonomy)
    preds = predict_batch(model, records, taxonomy, tau_leaf=config.tau_leaf, use_repath=args.repath)
    out = Path(args.out)
    write_predictions(out, [r.id for r in records], preds)
    log.info("predicted %d records", len(records))
    return out.parent


def cmd_repath(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    rows = read_jsonl(args.pred, required=("id", "path", "leaf"), convert=check_prediction)

    def repathed(row: dict) -> dict:
        chain = leaf_chain(taxonomy, row["leaf"])
        return row if chain is None else dict(row, path=list(chain), mode=MODE_REPATHED)
    out = Path(args.out)
    write_jsonl(out, map(repathed, rows))  # one row read and written at a time; a bad one leaves the target as it was
    return out.parent


def cmd_eval(args: argparse.Namespace, config: PipelineConfig, synth: SynthConfig) -> Path:
    taxonomy = load_taxonomy_file(args.taxonomy)
    pred_rows = read_predictions(args.pred)
    truth = read_records(args.truth)
    with (naming(f"{args.pred} against {args.truth}", EvaluationError),  # an error of both files, such as their ids
          naming(args.pred, InvalidPredictionsError), naming(args.truth, InvalidTruthError)):
        report = evaluate(pred_rows, truth, taxonomy, include_absent=args.include_absent)
    out = Path(args.out)
    write_report(out, report)
    print(render_table(report))
    return out.parent


def cmd_report(args: argparse.Namespace) -> None:
    doc = read_json(Path(args.report), args.report, EvaluationError)
    report = EvalReport.from_dict(doc, f"{args.report}: evaluation report")
    print(render_table(report))
    if report.per_depth:
        print("\nper-depth (path micro F1 %):")
        for depth, stats in sorted(report.per_depth.items()):
            print(f"  depth {depth}: {100 * stats['path_micro_f1']:.2f}  (n={stats['count']})")
    if args.cdf_csv:
        write_cdf_csv(args.cdf_csv, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxpath",
        description="Hierarchical tax-code prediction workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *inputs, out=None, reads=()):
        """A subcommand that runs under a config; `run` returns the directory its run manifest goes in.

        It takes the flag of every config key under the prefixes `reads` (the keys `run` reads),
        the required input files `inputs` and `--out`, whose help is `out`.
        """
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file (flags override file values)")
        p.add_argument("--seed", type=int, default=None)
        for flag, (dest, kind) in CONFIG_FLAGS.items():
            if dest.startswith(reads):
                p.add_argument(flag, dest=dest, type=kind, default=None)
        for flag in inputs:
            p.add_argument(flag, required=True)
        p.add_argument("--out", required=True, help=out)
        return p

    command("gen", cmd_gen, "generate a synthetic taxonomy + corpus", out="output directory")
    p = command("cleanse", cmd_cleanse, "validate, de-duplicate, resolve label conflicts", "--records", "--taxonomy",
                out="kept records (jsonl)")
    p.add_argument("--rejected", help="rejection report (default: rejected.jsonl beside --out)")
    p = command("split", cmd_split, "stratified train/val/test split", "--records", out="output directory")
    p.add_argument("--fractions", help="comma-separated train,val,test fractions")
    command("pipeline", cmd_pipeline, "run the four-stage training pipeline", "--records", "--taxonomy",
            out="output directory", reads=("train.", "moe.", "pipeline."))
    p = command("train", cmd_train, "train a model on prepared splits", "--train", "--taxonomy",
                out="model checkpoint path", reads=("train.", "moe.", "pipeline.tau_leaf"))
    p.add_argument("--val")
    p.add_argument("--log", help="per-epoch log (jsonl)")
    p.add_argument("--judge", help="distilled judge checkpoint for the semantic task")
    p = command("judge", cmd_judge, "distill the consistency judge from a dev set", "--dev", "--taxonomy",
                out="judge checkpoint path")
    p.add_argument("--annotate", help="records to annotate with the distilled judge")
    p.add_argument("--annotations", help="annotation output path")
    p = command("predict", cmd_predict, "predict paths for records", "--model", "--records", "--taxonomy",
                reads=("pipeline.tau_leaf",))
    p.add_argument("--repath", action="store_true")
    command("repath", cmd_repath, "reconstruct paths from predicted leaves", "--pred", "--taxonomy")
    p = command("eval", cmd_eval, "score predictions against ground truth", "--pred", "--truth", "--taxonomy",
                out="report JSON path")
    p.add_argument("--include-absent", action="store_true", help="macro-average over every taxonomy category")

    p = sub.add_parser("report", help="render a stored evaluation report")
    p.add_argument("--report", required=True)
    p.add_argument("--cdf-csv", help="write the confidence CDF as CSV")

    return parser


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("TAXON_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def dispatch(argv: list[str]) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "report":
            cmd_report(args)
        else:
            _, config, synth = load_config(read_config(args))
            out_dir = args.run(args, config, synth)
            _write_manifest(out_dir, args.command, config, synth, argv)
        return 0
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
