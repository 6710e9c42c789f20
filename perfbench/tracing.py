"""Spans around calls into taxpath's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every loaded
``taxpath`` module that holds it, because ``train``, ``moe``, ``infer`` and
``pipeline`` import functions by name (``taxpath.train.forward_batch`` is the
same object as ``taxpath.moe.forward_batch``). Methods are wrapped on their
class. Spans (name, start, end, parent) are kept in memory and written out by
the caller when the run ends; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, defining module, attribute; "Class.method" wraps on the class)
TARGETS = (
    ("encoder.prepare_records", "taxpath.encoder", "prepare_records"),
    ("encoder.assemble_batch", "taxpath.encoder", "assemble_batch"),
    ("moe.forward_batch", "taxpath.moe", "forward_batch"),
    ("moe.load_checkpoint", "taxpath.moe", "load_checkpoint"),
    ("moe.save_checkpoint", "taxpath.moe", "save_checkpoint"),
    ("train.fit", "taxpath.train", "fit"),
    ("train.backward", "taxpath.train", "backward"),
    ("train.optimizer_step", "taxpath.train", "Adam.step"),
    ("train.optimizer_step", "taxpath.train", "SGD.step"),
    ("train.leaf_accuracy", "taxpath.train", "leaf_accuracy"),
    ("train.semantic_targets_for", "taxpath.train", "semantic_targets_for"),
    ("infer.predict_batch", "taxpath.infer", "predict_batch"),
    ("infer.select_prediction", "taxpath.infer", "select_prediction"),
    ("infer.repath", "taxpath.infer", "repath"),
    ("semantic.oracle_judge", "taxpath.semantic", "oracle_judge"),
    ("semantic.distill_judge", "taxpath.semantic", "distill_judge"),
    ("semantic.annotate_corpus", "taxpath.semantic", "annotate_corpus"),
    ("semantic.judge", "taxpath.semantic", "JudgeModel.judge"),
    ("metrics.evaluate", "taxpath.metrics", "evaluate"),
    ("dataset.cleanse", "taxpath.dataset", "cleanse"),
    ("dataset.split", "taxpath.dataset", "split"),
    ("dataset.stratified_dev_sample", "taxpath.dataset", "stratified_dev_sample"),
    ("dataset.read_records", "taxpath.dataset", "read_records"),
    ("dataset.write_records", "taxpath.dataset", "write_records"),
    ("taxonomy.fingerprint", "taxpath.taxonomy", "Taxonomy.fingerprint"),
    ("taxonomy.ancestors", "taxpath.taxonomy", "ancestors"),
    ("util.read_jsonl", "taxpath.util", "read_jsonl"),
    ("util.write_jsonl", "taxpath.util", "write_jsonl"),
    ("pipeline.run_pipeline", "taxpath.pipeline", "run_pipeline"),
    ("pipeline.score_records", "taxpath.pipeline", "score_records"),
)


def _rows_first_arg(args, kwargs, result):
    return len(args[0])


def _rows_batch(args, kwargs, result):
    return int(args[1].dense.shape[0])


def _repath_changed(args, kwargs, result):
    return int(tuple(result.selected_path) != tuple(args[0].selected_path))


# Counters measured at a boundary: span name -> {counter: fn(args, kwargs, result)}
COUNTERS = {
    "encoder.prepare_records": {"rows": _rows_first_arg},
    "moe.forward_batch": {"rows": _rows_batch},
    "metrics.evaluate": {"rows": _rows_first_arg},
    "infer.repath": {"changed": _repath_changed},
}

# Per-layer metrics reported by a traced run: (metric, unit).
PER_LAYER = (
    ("encoder.prepare_records_s", "s"),
    ("encoder.prepare_records_rows", "count"),
    ("encoder.assemble_batch_s", "s"),
    ("encoder.assemble_batch_calls", "count"),
    ("moe.forward_batch_s", "s"),
    ("moe.forward_batch_calls", "count"),
    ("moe.forward_batch_rows", "count"),
    ("moe.load_checkpoint_s", "s"),
    ("moe.save_checkpoint_s", "s"),
    ("train.fit_s", "s"),
    ("train.backward_self_s", "s"),
    ("train.backward_calls", "count"),
    ("train.optimizer_step_s", "s"),
    ("train.optimizer_steps", "count"),
    ("train.leaf_accuracy_s", "s"),
    ("train.semantic_targets_for_s", "s"),
    ("infer.predict_batch_self_s", "s"),
    ("infer.predict_batch_calls", "count"),
    ("infer.select_prediction_s", "s"),
    ("infer.select_prediction_calls", "count"),
    ("infer.repath_s", "s"),
    ("infer.repath_calls", "count"),
    ("infer.repath_changed", "count"),
    ("semantic.oracle_judge_s", "s"),
    ("semantic.oracle_judge_calls", "count"),
    ("semantic.distill_judge_s", "s"),
    ("semantic.annotate_corpus_s", "s"),
    ("semantic.judge_calls", "count"),
    ("semantic.judge_calls_per_record", "ratio"),
    ("metrics.evaluate_s", "s"),
    ("metrics.evaluate_rows", "count"),
    ("dataset.cleanse_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.stratified_dev_sample_s", "s"),
    ("dataset.read_records_s", "s"),
    ("dataset.write_records_s", "s"),
    ("taxonomy.fingerprint_s", "s"),
    ("taxonomy.fingerprint_calls", "count"),
    ("taxonomy.ancestors_calls", "count"),
    ("util.read_jsonl_s", "s"),
    ("util.write_jsonl_s", "s"),
    ("pipeline.score_records_s", "s"),
)

WRAPPED_MARK = "__perfbench_original__"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)  # "<span>.calls" / "<span>.<counter>"
        self.judged: set[tuple[str, str]] = set()  # distinct (title, code) pairs judged
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        judge = name == "semantic.judge"

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so only time spent inside the generator
            # counts, and the consumer's own work stays out of it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            setattr(gen_wrapper, WRAPPED_MARK, fn)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if judge:
                self.judged.add((args[1], args[2]))  # (self, title, code, taxonomy)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            for counter, measure in counters.items():
                self.counts[f"{name}.{counter}"] += measure(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        loaded = _taxpath_modules()
        for name, module_name, attribute in TARGETS:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name; self excludes direct children."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            if parent >= 0:
                child[self.spans[parent][0]] += duration
        self_s = {name: total[name] - child[name] for name in total}
        return dict(total), self_s

    def per_layer(self) -> dict[str, dict]:
        total, self_s = self.totals()
        values: dict[str, float] = {}
        for metric, unit in PER_LAYER:
            if metric.endswith("_self_s"):
                values[metric] = self_s.get(metric[: -len("_self_s")], 0.0)
            elif metric.endswith("_s"):
                values[metric] = total.get(metric[: -len("_s")], 0.0)
        counts = self.counts
        values.update(
            {
                "encoder.prepare_records_rows": counts["encoder.prepare_records.rows"],
                "encoder.assemble_batch_calls": counts["encoder.assemble_batch.calls"],
                "moe.forward_batch_calls": counts["moe.forward_batch.calls"],
                "moe.forward_batch_rows": counts["moe.forward_batch.rows"],
                "train.backward_calls": counts["train.backward.calls"],
                "train.optimizer_steps": counts["train.optimizer_step.calls"],
                "infer.predict_batch_calls": counts["infer.predict_batch.calls"],
                "infer.select_prediction_calls": counts["infer.select_prediction.calls"],
                "infer.repath_calls": counts["infer.repath.calls"],
                "infer.repath_changed": counts["infer.repath.changed"],
                "semantic.oracle_judge_calls": counts["semantic.oracle_judge.calls"],
                "semantic.judge_calls": counts["semantic.judge.calls"],
                "semantic.judge_calls_per_record": (
                    counts["semantic.judge.calls"] / len(self.judged) if self.judged else 0.0
                ),
                "metrics.evaluate_rows": counts["metrics.evaluate.rows"],
                "taxonomy.fingerprint_calls": counts["taxonomy.fingerprint.calls"],
                "taxonomy.ancestors_calls": counts["taxonomy.ancestors.calls"],
            }
        )
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start, end, parent index]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _taxpath_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "taxpath" or name.startswith("taxpath."))
    ]


def wrapped_attributes() -> list[str]:
    """Every loaded taxpath attribute or method that is still a tracing wrapper."""
    found = []
    for module in _taxpath_modules():
        name = module.__name__
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value) and value.__module__ == name:
                for method, member in vars(value).items():
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{name}.{attr}.{method}")
    return found
