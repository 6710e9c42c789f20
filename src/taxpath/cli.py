"""Command-line entry point for the whole workflow.

Subcommands: gen, cleanse, split, pipeline, train, judge, predict, repath,
eval, report. Every value can come from a JSON config file; command-line
flags override file values, which override built-in defaults. Each run writes
a manifest with the resolved configuration and seed next to its outputs.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .dataset import (
    SplitSpec,
    cleanse,
    read_records,
    split,
    write_records,
    write_rejections,
)
from .encoder import EncoderConfig, build_field_vocabs
from .infer import MODE_REPATHED, leaf_chain, predict_batch, read_predictions, write_predictions
from .metrics import EvalReport, evaluate, render_table, write_cdf_csv, write_report
from .moe import MoEConfig, init_model, load_checkpoint, save_checkpoint
from .pipeline import PipelineConfig, run_pipeline
from .semantic import annotate_corpus, distill_judge, label_dev_set, load_judge, save_judge
from .synth import SynthConfig, synth_corpus
from .taxonomy import load_taxonomy_file
from .train import LossWeights, TrainConfig, fit
from .util import atomic_write_bytes, atomic_write_text, write_jsonl

log = logging.getLogger("taxpath")

DEFAULTS: dict = {
    "seed": 0,
    "encoder": {"hash_buckets": 2048, "text_dim": 32, "cat_dim": 4,
                "fields": ["bu_code", "ou_code", "system_code"]},
    "moe": {"levels": 10, "experts_per_level": 2, "expert_hidden_dim": 32,
            "include_null_label": True, "semantic_classes": 3},
    "train": {"batch_size": 64, "epochs": 10, "learning_rate": 1e-3, "optimizer": "adam",
              "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "omega_c": 0.2, "omega_s": 0.2,
              "grad_clip": None},
    "split": {"train_fraction": 0.64, "val_fraction": 0.16, "test_fraction": 0.20},
    "pipeline": {"confidence_threshold": 0.9, "high_conf_fraction": 0.05, "tau_leaf": 0.5,
                 "oracle_y_threshold": 0.5, "oracle_n_threshold": 0.1},
    "synth": {},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(config_path: str | None, overrides: dict) -> dict:
    resolved = dict(DEFAULTS)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                resolved = _deep_merge(resolved, json.load(fh))
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad config file {config_path}: {exc}") from exc
    return _deep_merge(resolved, overrides)


def _write_manifest(out_dir: Path, subcommand: str, resolved: dict, argv: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "seed": resolved.get("seed"),
        "config": resolved,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    atomic_write_text(out_dir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _bundle(resolved: dict):
    """Instantiate the config dataclasses from a resolved config document."""
    seed = int(resolved["seed"])
    enc_doc = dict(resolved["encoder"])
    enc = EncoderConfig(
        hash_buckets=enc_doc["hash_buckets"],
        text_dim=enc_doc["text_dim"],
        cat_dim=enc_doc["cat_dim"],
        fields=tuple(enc_doc["fields"]),
        field_vocabs={k: tuple(v) for k, v in enc_doc.get("field_vocabs", {}).items()},
    )
    moe_doc = dict(resolved["moe"])
    moe = MoEConfig(
        levels=moe_doc["levels"],
        experts_per_level=moe_doc["experts_per_level"],
        expert_hidden_dim=moe_doc["expert_hidden_dim"],
        include_null_label=moe_doc.get("include_null_label", True),
        semantic_classes=moe_doc.get("semantic_classes", 3),
    )
    tr_doc = dict(resolved["train"])
    train_cfg = TrainConfig(
        batch_size=tr_doc["batch_size"],
        epochs=tr_doc["epochs"],
        learning_rate=tr_doc["learning_rate"],
        optimizer=tr_doc["optimizer"],
        beta1=tr_doc["beta1"],
        beta2=tr_doc["beta2"],
        eps=tr_doc["eps"],
        loss_weights=LossWeights(omega_c=tr_doc["omega_c"], omega_s=tr_doc["omega_s"]),
        grad_clip=tr_doc.get("grad_clip"),
        seed=seed,
    )
    sp_doc = resolved["split"]
    split_spec = SplitSpec(
        train_fraction=sp_doc["train_fraction"],
        val_fraction=sp_doc["val_fraction"],
        test_fraction=sp_doc["test_fraction"],
        seed=seed,
    )
    return seed, enc, moe, train_cfg, split_spec


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """Only flags the user actually passed become overrides."""
    out: dict = {}
    mapping = {
        "seed": ("seed",),
        "epochs": ("train", "epochs"),
        "batch_size": ("train", "batch_size"),
        "learning_rate": ("train", "learning_rate"),
        "omega_c": ("train", "omega_c"),
        "omega_s": ("train", "omega_s"),
        "experts": ("moe", "experts_per_level"),
        "levels": ("moe", "levels"),
        "hidden_dim": ("moe", "expert_hidden_dim"),
        "tau_leaf": ("pipeline", "tau_leaf"),
        "confidence_threshold": ("pipeline", "confidence_threshold"),
        "high_conf_fraction": ("pipeline", "high_conf_fraction"),
    }
    for attr, path in mapping.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    if getattr(args, "fractions", None):
        parts = [float(x) for x in args.fractions.split(",")]
        if len(parts) != 3:
            raise ValueError("--fractions needs three comma-separated values")
        out["split"] = {
            "train_fraction": parts[0],
            "val_fraction": parts[1],
            "test_fraction": parts[2],
        }
    return out


def cmd_gen(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    out_dir = Path(args.out)
    synth_cfg = SynthConfig.from_dict(resolved["synth"])
    corpus = synth_corpus(synth_cfg, int(resolved["seed"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(out_dir / "taxonomy.json", corpus.taxonomy.to_json_bytes())
    write_records(out_dir / "records.jsonl", corpus.records)
    _write_manifest(out_dir, "gen", resolved, argv)
    log.info("generated %d nodes, %d records", len(corpus.taxonomy.nodes), len(corpus.records))
    return 0


def cmd_cleanse(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    kept, rejected = cleanse(records, taxonomy)
    out = Path(args.out)
    write_records(out, kept)
    rejected_path = Path(args.rejected) if args.rejected else out.parent / "rejected.jsonl"
    write_rejections(rejected_path, rejected)
    _write_manifest(out.parent, "cleanse", resolved, argv)
    log.info("kept %d records, rejected %d", len(kept), len(rejected))
    return 0


def cmd_split(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    seed, _, _, _, spec = _bundle(resolved)
    records = read_records(args.records)
    train_recs, val_recs, test_recs = split(records, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "train.jsonl", train_recs)
    write_records(out_dir / "val.jsonl", val_recs)
    write_records(out_dir / "test.jsonl", test_recs)
    _write_manifest(out_dir, "split", resolved, argv)
    log.info("split %d -> %d/%d/%d", len(records), len(train_recs), len(val_recs), len(test_recs))
    return 0


def cmd_pipeline(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    seed, enc, moe, train_cfg, split_spec = _bundle(resolved)
    pl = resolved["pipeline"]
    config = PipelineConfig(
        encoder=enc,
        moe=moe,
        train=train_cfg,
        split=split_spec,
        confidence_threshold=pl["confidence_threshold"],
        high_conf_fraction=pl["high_conf_fraction"],
        tau_leaf=pl["tau_leaf"],
        oracle_y_threshold=pl["oracle_y_threshold"],
        oracle_n_threshold=pl["oracle_n_threshold"],
        seed=seed,
    )
    _, artifacts = run_pipeline(records, taxonomy, config, args.out)
    _write_manifest(Path(args.out), "pipeline", resolved, argv)
    for name, path in artifacts.items():
        log.info("artifact %s: %s", name, path)
    return 0


def cmd_train(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    train_recs = read_records(args.train)
    val_recs = read_records(args.val) if args.val else []
    seed, enc, moe, train_cfg, _ = _bundle(resolved)
    if not enc.field_vocabs:
        enc = replace(enc, field_vocabs=build_field_vocabs(train_recs, enc.fields))
    judge = load_judge(args.judge) if args.judge else None
    model = init_model(taxonomy, enc, moe, seed)
    model, logs = fit(model, train_recs, val_recs, taxonomy, judge, train_cfg)
    out = Path(args.out)
    save_checkpoint(model, out)
    if args.log:
        write_jsonl(args.log, logs)
    _write_manifest(out.parent, "train", resolved, argv)
    if logs:
        log.info("final epoch: %s", logs[-1])
    return 0


def cmd_judge(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    dev = read_records(args.dev)
    pl = resolved["pipeline"]
    labeled = label_dev_set(dev, taxonomy, pl["oracle_y_threshold"], pl["oracle_n_threshold"])
    judge = distill_judge(labeled, taxonomy, int(resolved["seed"]))
    out = Path(args.out)
    save_judge(judge, out)
    print(f"judge holdout agreement: {judge.holdout_agreement:.4f}")
    if args.annotate:
        records = read_records(args.annotate)
        annotations = annotate_corpus(records, judge, taxonomy)
        target = args.annotations or str(out.parent / "annotations.jsonl")
        write_jsonl(
            target,
            ({"id": rid, "verdict": lab.verdict, "rationale": lab.rationale}
             for rid, lab in annotations.items()),
        )
    _write_manifest(out.parent, "judge", resolved, argv)
    return 0


def cmd_predict(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    records = read_records(args.records)
    model = load_checkpoint(args.model, taxonomy)
    preds = predict_batch(
        model, records, taxonomy,
        tau_leaf=resolved["pipeline"]["tau_leaf"],
        use_repath=args.repath,
    )
    out = Path(args.out)
    write_predictions(out, [r.id for r in records], preds)
    _write_manifest(out.parent, "predict", resolved, argv)
    log.info("predicted %d records", len(records))
    return 0


def cmd_repath(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    rows = read_predictions(args.pred)
    out_rows = []
    for row in rows:
        chain = leaf_chain(taxonomy, row["leaf"])
        if chain is not None:
            row = dict(row, path=list(chain), mode=MODE_REPATHED)
        out_rows.append(row)
    out = Path(args.out)
    write_jsonl(out, out_rows)
    _write_manifest(out.parent, "repath", resolved, argv)
    return 0


def cmd_eval(args: argparse.Namespace, argv: list[str]) -> int:
    resolved = resolve_config(args.config, _overrides_from_args(args))
    taxonomy = load_taxonomy_file(args.taxonomy)
    pred_rows = read_predictions(args.pred)
    truth = read_records(args.truth)
    report = evaluate(pred_rows, truth, taxonomy, include_absent=args.include_absent)
    out = Path(args.out)
    write_report(out, report)
    print(render_table(report))
    _write_manifest(out.parent, "eval", resolved, argv)
    return 0


def cmd_report(args: argparse.Namespace, argv: list[str]) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    report = EvalReport(
        path_macro_f1=doc["path_macro_f1"],
        path_micro_f1=doc["path_micro_f1"],
        leaf_macro_f1=doc["leaf_macro_f1"],
        leaf_micro_f1=doc["leaf_micro_f1"],
        per_depth={int(k): v for k, v in doc["per_depth"].items()},
        confidence_cdf=tuple((c, f) for c, f in doc["confidence_cdf"]),
        sample_count=doc["sample_count"],
    )
    print(render_table(report))
    if doc["per_depth"]:
        print("\nper-depth (path micro F1 %):")
        for depth, stats in sorted(report.per_depth.items()):
            print(f"  depth {depth}: {100 * stats['path_micro_f1']:.2f}  (n={stats['count']})")
    if args.cdf_csv:
        write_cdf_csv(args.cdf_csv, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxpath",
        description="Hierarchical tax-code prediction workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file (flags override file values)")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a synthetic taxonomy + corpus")
    common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("cleanse", help="validate, de-duplicate, resolve label conflicts")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="kept records (jsonl)")
    p.add_argument("--rejected", help="rejection report (default: rejected.jsonl beside --out)")

    p = sub.add_parser("split", help="stratified train/val/test split")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fractions", help="comma-separated train,val,test fractions")

    p = sub.add_parser("pipeline", help="run the four-stage training pipeline")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="output directory")
    for flag in ("--epochs", "--batch-size", "--experts", "--levels", "--hidden-dim"):
        p.add_argument(flag, type=int, default=None)
    for flag in ("--learning-rate", "--omega-c", "--omega-s", "--tau-leaf",
                 "--confidence-threshold", "--high-conf-fraction"):
        p.add_argument(flag, type=float, default=None)

    p = sub.add_parser("train", help="train a model on prepared splits")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--log", help="per-epoch log (jsonl)")
    p.add_argument("--judge", help="distilled judge checkpoint for the semantic task")
    for flag in ("--epochs", "--batch-size", "--experts", "--levels", "--hidden-dim"):
        p.add_argument(flag, type=int, default=None)
    for flag in ("--learning-rate", "--omega-c", "--omega-s"):
        p.add_argument(flag, type=float, default=None)

    p = sub.add_parser("judge", help="distill the consistency judge from a dev set")
    common(p)
    p.add_argument("--dev", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="judge checkpoint path")
    p.add_argument("--annotate", help="records to annotate with the distilled judge")
    p.add_argument("--annotations", help="annotation output path")

    p = sub.add_parser("predict", help="predict paths for records")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau-leaf", type=float, default=None)
    p.add_argument("--repath", action="store_true")

    p = sub.add_parser("repath", help="reconstruct paths from predicted leaves")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--include-absent", action="store_true",
                   help="macro-average over every taxonomy category")

    p = sub.add_parser("report", help="render a stored evaluation report")
    p.add_argument("--report", required=True)
    p.add_argument("--cdf-csv", help="write the confidence CDF as CSV")

    return parser


HANDLERS = {
    "gen": cmd_gen,
    "cleanse": cmd_cleanse,
    "split": cmd_split,
    "pipeline": cmd_pipeline,
    "train": cmd_train,
    "judge": cmd_judge,
    "predict": cmd_predict,
    "repath": cmd_repath,
    "eval": cmd_eval,
    "report": cmd_report,
}


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
        return HANDLERS[args.command](args, argv)
    except (ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
