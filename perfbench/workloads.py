"""The three benchmark workloads: set-up, measured work and output checks.

Every workload works through taxpath's public functions, called through their
modules (``infer.predict_batch``, not a name imported from it) so that a
tracer patching those modules sees every call. Inputs come from ``synth``
and depend only on the seed; the program receives only the generated records
and taxonomy.

* ``pipeline``: ``run_pipeline`` on the acceptance corpus, as ``taxpath
  pipeline`` runs it (records and taxonomy read from files).
* ``score-corpus``: offline scoring of 20k held-out records with a served
  model in three phases, as ``taxpath predict --repath``, ``taxpath eval``
  and a corpus annotation pass run them.
* ``predict-one``: one closed-loop client asking for one record at a time.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import hostspeed
from taxpath import dataset, encoder, infer, metrics, moe, semantic, synth, taxonomy, train, util
from taxpath import pipeline as tp_pipeline

SETUP_REPS = 3  # set-up runs per untraced run; setup_s is their median
PIPELINE_ARTIFACTS = {"cleansed", "dev", "judge", "annotated", "final", "metrics"}
VERDICTS = {"Y", "N", "U"}
TAU_LEAF = 0.5


@dataclass(frozen=True)
class Size:
    """Input sizes and the floors the output checks hold them to."""

    train_records: int  # corpus the pipeline trains on
    heldout_records: int  # corpus the serving workloads score
    leaves: int
    noise_token_rate: float
    pipeline_epochs: int
    serving_epochs: int  # the served model only needs to be a realistic model
    min_leaf_f1: float  # acceptance bound on the pipeline's test leaf micro F1
    min_calls: int  # predict-one: at least this many calls; their outputs are digested and scored
    traced_calls: int  # predict-one calls in a traced run (fixed, so counts are exact)


SIZES = {
    # The acceptance corpus: SEPARABLE, 50 leaves, 7,800 records, depths 2-4.
    "full": Size(7800, 20000, 50, 0.2, 12, 6, 0.95, 2000, 2000),
    # Seconds-long smoke size for the benchmark's own tests; noisier titles so
    # the small dev set still holds the Y and N verdicts the judge needs.
    "tiny": Size(400, 300, 12, 0.5, 3, 3, 0.0, 50, 60),
}


def synth_config(size: Size, samples: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        leaves=size.leaves,
        samples=samples,
        leaf_depth_min=2,
        leaf_depth_max=4,
        label_noise_rate=0.0,
        noise_token_rate=size.noise_token_rate,
        zipf_exponent=1.05,
    )


def pipeline_config(tax, seed: int, epochs: int) -> tp_pipeline.PipelineConfig:
    return tp_pipeline.PipelineConfig(
        encoder=encoder.EncoderConfig(hash_buckets=2048, text_dim=24, cat_dim=4),
        moe=moe.MoEConfig(levels=tax.max_depth, experts_per_level=2, expert_hidden_dim=48),
        train=train.TrainConfig(
            batch_size=64,
            epochs=epochs,
            learning_rate=2e-3,
            loss_weights=train.LossWeights(omega_c=0.2, omega_s=0.2),
        ),
        split=dataset.SplitSpec(0.64, 0.16, 0.20),
        tau_leaf=TAU_LEAF,
        seed=seed,
    )


@dataclass
class Tally:
    """Operations attempted and failed; a failure raised or failed a check."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Outcome:
    """What one workload run measured, checked and wrote."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)


@dataclass
class Client:
    """The predict-one client: what it serves with and what it saw."""

    tax: object
    records: list
    model: object
    calls: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per call
    bad: int = 0  # calls whose output failed its check
    kept: list = field(default_factory=list)  # (record, prediction) of the first calls


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def repeat(seconds: float, work, check) -> list[tuple[float, float]]:
    """Run `work` at least once and until `seconds` have passed; its (start, end) times.

    `check` inspects each run's output outside the timer.
    """
    spans: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not spans or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        work()
        spans.append((t0, time.perf_counter()))
        check()
    return spans


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of already sorted values."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def chain_ok(tax, path, leaf) -> bool:
    """A RePath output: a valid root-down chain that ends at the predicted leaf."""
    return bool(path) and path[-1] == leaf and taxonomy.is_valid_path(tax, list(path))


class Bench:
    """One workload run: inputs, work directory, tracer and what it measured."""

    def __init__(
        self, workload: str, seed: int, seconds: float, size: Size, work: Path, speed, tracer=None
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = work
        self.speed = speed  # hostspeed.HostSpeed, probing while the run lasts
        self.tracer = tracer
        self.traced = tracer is not None
        self.out = Outcome()
        self.client: Client | None = None  # predict-one's state across its shares of calls

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else nullcontext()

    def timing(self, spans: list[tuple[float, float]]) -> tuple[float, float]:
        """Median corrected and median wall-clock duration of (start, end) spans."""
        corrected = statistics.median(self.speed.corrected(a, b) for a, b in spans)
        return corrected, statistics.median(b - a for a, b in spans)

    def run(self) -> Outcome:
        setup, between, measure = {
            "pipeline": (self.setup_training, None, self.measure_pipeline),
            "score-corpus": (self.setup_serving, None, self.measure_score_corpus),
            # The client's calls are spread over the run, a share after each
            # set-up, so they sample the host's fast and slow spells alike.
            "predict-one": (self.setup_serving, self.predict_one_calls, self.finish_predict_one),
        }[self.workload]
        reps = 1 if self.traced else SETUP_REPS
        spans = []
        for rep in range(reps):
            self.inputs = self.work / f"setup{rep}"
            t0 = time.perf_counter()
            with self.span("bench.setup"):
                setup(self.inputs)
            spans.append((t0, time.perf_counter()))
            if between is not None:
                with self.span("bench.measure"):
                    between(self.seconds / reps, last=rep == reps - 1)
        m = self.out.metrics
        m["setup_s"], m["setup_wall_s"] = self.timing(spans)
        self.out.samples["setup_s"] = reps
        with self.span("bench.measure"):
            measure()
        return self.out

    # --- set-up ------------------------------------------------------------

    def setup_corpus(self, where: Path, heldout: int) -> None:
        """Synthesise one corpus: the training records, then `heldout` more."""
        n = self.size.train_records
        corpus = synth.synth_corpus(synth_config(self.size, n + heldout), self.seed)
        where.mkdir(parents=True, exist_ok=True)
        dataset.write_records(where / "records.jsonl", corpus.records[:n])
        if heldout:
            dataset.write_records(where / "heldout.jsonl", corpus.records[n:])
        util.atomic_write_bytes(where / "taxonomy.json", corpus.taxonomy.to_json_bytes())

    def setup_training(self, where: Path) -> None:
        """The acceptance corpus alone."""
        self.setup_corpus(where, 0)

    def setup_serving(self, where: Path) -> None:
        """Training and held-out records, then the served model and its judge.

        As stages 1-3 of the pipeline: cleanse, split, train, score the corpus,
        oracle-label the confidence-stratified dev set and distill the judge.
        Then, as stage 4 begins, the judge annotates the training corpus. The
        pipeline's second, judge-assisted training is left out to keep set-up
        short; the pipeline workload measures it.
        """
        self.setup_corpus(where, self.size.heldout_records)
        tax = taxonomy.load_taxonomy_file(where / "taxonomy.json")
        records = dataset.read_records(where / "records.jsonl")
        config = pipeline_config(tax, self.seed, self.size.serving_epochs)
        kept, _ = dataset.cleanse(records, tax)
        train_recs, val_recs, _ = dataset.split(kept, replace(config.split, seed=self.seed))
        vocabs = encoder.build_field_vocabs(train_recs, config.encoder.fields)
        enc = replace(config.encoder, field_vocabs=vocabs)
        model = moe.init_model(tax, enc, config.moe, self.seed)
        train_cfg = replace(  # the pipeline's preliminary training: no semantic task
            config.train, seed=self.seed, loss_weights=replace(config.train.loss_weights, omega_s=1.0)
        )
        model, _ = train.fit(model, train_recs, val_recs, tax, None, train_cfg)
        scored = tp_pipeline.score_records(model, kept, tax, TAU_LEAF)
        dev = dataset.stratified_dev_sample(
            scored, config.confidence_threshold, config.high_conf_fraction, self.seed
        )
        labeled = [(r.title, r.leaf(), semantic.oracle_judge(r.title, r.leaf(), tax)) for r in dev]
        judge = semantic.distill_judge(labeled, tax, self.seed)
        annotations = semantic.annotate_corpus(kept, judge, tax)
        util.write_jsonl(
            where / "annotated.jsonl",
            ({"id": i, "verdict": lab.verdict, "rationale": lab.rationale} for i, lab in annotations.items()),
        )
        moe.save_checkpoint(model, where / "model.ckpt")
        semantic.save_judge(judge, where / "judge.ckpt")

    # --- pipeline ----------------------------------------------------------

    def measure_pipeline(self) -> None:
        tax = taxonomy.load_taxonomy_file(self.inputs / "taxonomy.json")
        records = dataset.read_records(self.inputs / "records.jsonl")
        config = pipeline_config(tax, self.seed, self.size.pipeline_epochs)
        state: dict = {}

        def run():
            state["artifacts"] = tp_pipeline.run_pipeline(records, tax, config, self.work / "pipeline")[1]

        seconds = 0.0 if self.traced else self.seconds
        with self.span("bench.pipeline"):
            runs = repeat(seconds, run, lambda: self.check_pipeline(tax, state["artifacts"]))
        m = self.out.metrics
        m["pipeline_s"], m["job_wall_s"] = self.timing(runs)
        m["job_s"] = m["pipeline_s"]
        self.out.samples["pipeline_s"] = len(runs)

    def check_pipeline(self, tax, artifacts: dict) -> None:
        problems = []
        if set(artifacts) != PIPELINE_ARTIFACTS:
            problems.append(f"artifacts {sorted(artifacts)}")
        missing = [name for name, path in artifacts.items() if not Path(path).is_file()]
        if missing:
            problems.append(f"missing files {missing}")
        if not problems:
            report = json.loads(Path(artifacts["metrics"]).read_text())["test"]
            leaf_f1 = report["base"]["leaf_micro_f1"]
            self.out.metrics["leaf_micro_f1"] = leaf_f1
            self.out.metrics["path_micro_f1"] = report["repath"]["path_micro_f1"]
            if leaf_f1 < self.size.min_leaf_f1:
                problems.append(f"leaf micro F1 {leaf_f1:.4f} < {self.size.min_leaf_f1}")
            moe.load_checkpoint(artifacts["final"], tax)  # raises if not a valid checkpoint
            self.out.digests = {
                f"pipeline/{Path(path).name}": sha256_file(path) for path in artifacts.values()
            }
        self.out.tally.add(1, int(bool(problems)), "; ".join(problems))

    # --- score-corpus ------------------------------------------------------

    def measure_score_corpus(self) -> None:
        tax_path = self.inputs / "taxonomy.json"
        heldout_path = self.inputs / "heldout.jsonl"
        out_dir = self.work / "score"
        out_dir.mkdir(parents=True, exist_ok=True)
        pred_path, report_path = out_dir / "predictions.jsonl", out_dir / "metrics.json"
        ann_path = out_dir / "annotations.jsonl"
        state: dict = {}

        def predict_pass():  # taxpath predict --repath
            tax = taxonomy.load_taxonomy_file(tax_path)
            records = dataset.read_records(heldout_path)
            model = moe.load_checkpoint(self.inputs / "model.ckpt", tax)
            preds = infer.predict_batch(model, records, tax, tau_leaf=TAU_LEAF, use_repath=True)
            infer.write_predictions(pred_path, [r.id for r in records], preds)
            state.update(tax=tax, records=records, preds=preds)

        def eval_pass():  # taxpath eval
            tax = taxonomy.load_taxonomy_file(tax_path)
            rows = infer.read_predictions(pred_path)
            truth = dataset.read_records(heldout_path)
            report = metrics.evaluate(rows, truth, tax)
            metrics.write_report(report_path, report)
            state.update(report=report)

        def annotate_pass():  # judge annotation of the corpus
            tax = taxonomy.load_taxonomy_file(tax_path)
            records = dataset.read_records(heldout_path)
            judge = semantic.load_judge(self.inputs / "judge.ckpt")
            labels = semantic.annotate_corpus(records, judge, tax)
            util.write_jsonl(
                ann_path,
                ({"id": i, "verdict": lab.verdict, "rationale": lab.rationale} for i, lab in labels.items()),
            )
            state.update(labels=labels)

        # Each phase repeats whole-corpus passes for a third of the run.
        share = 0.0 if self.traced else self.seconds / 3
        n = self.size.heldout_records
        predict = self.phase("predict", share, predict_pass, lambda: self.check_predictions(state))
        evaluate = self.phase("eval", share, eval_pass, lambda: self.check_report(state, n))
        annotate = self.phase("annotate", share, annotate_pass, lambda: self.check_labels(state))

        m = self.out.metrics
        m["predict_rps"] = n / predict[0]
        m["eval_s"] = evaluate[0]
        m["annotate_rps"] = n / annotate[0]
        m["job_s"] = predict[0] + evaluate[0] + annotate[0]
        m["job_wall_s"] = predict[1] + evaluate[1] + annotate[1]
        m["leaf_micro_f1"] = state["report"].leaf_micro_f1
        m["path_micro_f1"] = state["report"].path_micro_f1
        self.out.digests = {
            "score/predictions.jsonl": sha256_file(pred_path),
            "score/metrics.json": sha256_file(report_path),
            "score/annotations.jsonl": sha256_file(ann_path),
        }

    def phase(self, name: str, seconds: float, work, check) -> tuple[float, float]:
        """Median corrected and wall pass time of one phase; every pass is checked."""
        with self.span(f"bench.{name}"):
            passes = repeat(seconds, work, check)
        self.out.samples[f"{name}_passes"] = len(passes)
        return self.timing(passes)

    def check_predictions(self, state: dict) -> None:
        tax, records, preds = state["tax"], state["records"], state["preds"]
        bad = sum(1 for p in preds if not chain_ok(tax, p.selected_path, p.selected_leaf))
        bad += abs(len(records) - len(preds))
        self.out.tally.add(len(records), bad, f"{bad} predictions without a valid RePath chain")

    def check_report(self, state: dict, n: int) -> None:
        count = state["report"].sample_count
        self.out.tally.add(1, int(count != n), f"evaluate sample_count {count} != {n}")

    def check_labels(self, state: dict) -> None:
        records, labels = state["records"], state["labels"]
        bad = sum(1 for r in records if r.id not in labels or labels[r.id].verdict not in VERDICTS)
        bad += abs(len(labels) - len(records))
        self.out.tally.add(len(records), bad, f"{bad} records without one Y/N/U verdict")

    # --- predict-one -------------------------------------------------------

    def predict_one_calls(self, seconds: float, last: bool) -> None:
        """One client, one record per call, for `seconds`."""
        if self.client is None:
            tax = taxonomy.load_taxonomy_file(self.inputs / "taxonomy.json")
            self.client = Client(
                tax=tax,
                records=dataset.read_records(self.inputs / "heldout.jsonl"),
                model=moe.load_checkpoint(self.inputs / "model.ckpt", tax),
            )
        c = self.client
        start = time.perf_counter()
        next_probe = start

        def more() -> bool:
            done = len(c.calls)
            if self.traced:  # a fixed number of calls, so traced counts are exact
                return done < self.size.traced_calls
            return (last and done < self.size.min_calls) or time.perf_counter() - start < seconds

        # Probes run between calls here, never inside one, so no call's latency holds a probe.
        with self.speed.pause():
            while more():
                if time.perf_counter() >= next_probe:
                    self.speed.probe()
                    next_probe = time.perf_counter() + hostspeed.PERIOD_S
                rec = c.records[len(c.calls) % len(c.records)]
                t0 = time.perf_counter()
                (pred,) = infer.predict_batch(c.model, [rec], c.tax, TAU_LEAF, use_repath=True)
                c.calls.append((t0, time.perf_counter()))
                c.bad += not chain_ok(c.tax, pred.selected_path, pred.selected_leaf)
                if len(c.kept) < self.size.min_calls:  # digested and scored below
                    c.kept.append((rec, pred))

    def finish_predict_one(self) -> None:
        c = self.client
        tax, kept = c.tax, c.kept
        self.out.tally.add(len(c.calls), c.bad, f"{c.bad} calls returned no valid RePath chain")
        latencies = sorted(self.speed.corrected(a, b) for a, b in c.calls)
        m = self.out.metrics
        m["predict_one_p50_ms"] = statistics.median(latencies) * 1e3
        m["predict_one_p99_ms"] = quantile(latencies, 0.99) * 1e3
        m["job_s"] = statistics.median(latencies)
        m["job_wall_s"] = statistics.median(b - a for a, b in c.calls)
        self.out.samples["predict_one_calls"] = len(latencies)

        out_dir = self.work / "one"
        out_dir.mkdir(parents=True, exist_ok=True)
        pred_path, report_path = out_dir / "predictions.jsonl", out_dir / "metrics.json"
        infer.write_predictions(pred_path, [r.id for r, _ in kept], [p for _, p in kept])
        report = metrics.evaluate(
            [infer.prediction_to_dict(r.id, p) for r, p in kept], [r for r, _ in kept], tax
        )
        metrics.write_report(report_path, report)
        m["leaf_micro_f1"] = report.leaf_micro_f1
        m["path_micro_f1"] = report.path_micro_f1
        self.out.digests = {
            "one/predictions.jsonl": sha256_file(pred_path),
            "one/metrics.json": sha256_file(report_path),
        }
