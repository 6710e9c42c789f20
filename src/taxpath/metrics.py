"""Path- and leaf-level evaluation: set-overlap precision/recall/F1.

Path mode scores the overlap between predicted and true path node sets, each
node judged independently of position. Leaf mode compares effective leaves
(the deepest node of a possibly partial path). Both count through one table
of per-category [tp, fp, fn] (`category_counts`), which counts each distinct
pair once, weighted by how many samples have it: micro pools its columns,
macro averages its per-category scores.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TypedDict

import numpy as np

from .dataset import ProductRecord
from .taxonomy import Taxonomy, is_valid_path
from .util import ConfigError, atomic_write_text, config_from_dict, config_value, gc_paused


class EvaluationError(ValueError):
    pass


class InvalidTruthError(EvaluationError):
    """A truth record whose label path is not a chain of the taxonomy."""


class InvalidPredictionsError(EvaluationError):
    """A prediction dump that repeats an id or predicts an empty path."""


@dataclass(frozen=True)
class EvalPair:
    predicted_path: tuple[str, ...]
    true_path: tuple[str, ...]
    true_depth: int


# One entry of `EvalReport.per_depth`: the sample count and the four scores of one depth
DepthStats = TypedDict("DepthStats", {"count": int, **dict.fromkeys(
    ("path_macro_f1", "path_micro_f1", "leaf_macro_f1", "leaf_micro_f1"), float)})


@dataclass(frozen=True)
class EvalReport:
    path_macro_f1: float
    path_micro_f1: float
    leaf_macro_f1: float
    leaf_micro_f1: float
    per_depth: dict[int, DepthStats]
    confidence_cdf: tuple[tuple[float, float], ...]
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "path_macro_f1": self.path_macro_f1,
            "path_micro_f1": self.path_micro_f1,
            "leaf_macro_f1": self.leaf_macro_f1,
            "leaf_micro_f1": self.leaf_micro_f1,
            "per_depth": {str(d): stats for d, stats in sorted(self.per_depth.items())},
            "confidence_cdf": [[c, f] for c, f in self.confidence_cdf],
            "sample_count": self.sample_count,
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "evaluation report") -> EvalReport:
        """The report `to_dict` wrote. A missing or unknown key, or a value of
        another type or shape than `to_dict` writes, raises EvaluationError
        naming its key path from `where`."""
        try:
            return config_from_dict(cls, doc, where)
        except ConfigError as exc:
            raise EvaluationError(str(exc)) from exc


def effective_leaf(path: list[str] | tuple[str, ...]) -> str:
    """Deepest node of a (possibly partial) path."""
    if not path:
        raise EvaluationError("empty path has no effective leaf")
    return path[-1]


def _f1(tp: int, pred: int, true: int) -> tuple[float, float, float]:
    precision = tp / pred if pred else 0.0
    recall = tp / true if true else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


MODES = ("path", "leaf")


def category_counts(pairs: Counter[EvalPair], mode: str = "path") -> dict[str, list[int]]:
    """Per-category [tp, fp, fn] over the pairs, each distinct pair counted
    once and weighted by its multiplicity (`pairs` maps a pair to how many
    samples have it).

    Path mode compares the paths as node sets; leaf mode compares their
    effective leaves. Micro and macro scores both read this table.
    """
    if mode not in MODES:
        raise EvaluationError(f"unknown mode: {mode!r}")
    nodes = set if mode == "path" else lambda path: {effective_leaf(path)}
    tallies: dict[str, list[int]] = {}
    for pair, samples in pairs.items():
        pred = nodes(pair.predicted_path)
        true = nodes(pair.true_path)
        for slot, codes in enumerate((pred & true, pred - true, true - pred)):
            for code in codes:
                tallies.setdefault(code, [0, 0, 0])[slot] += samples
    return tallies


def _micro(tallies: dict[str, list[int]]) -> tuple[float, float, float]:
    tp = fp = fn = 0
    for t, p, n in tallies.values():
        tp, fp, fn = tp + t, fp + p, fn + n
    return _f1(tp, tp + fp, tp + fn)


def _macro(
    tallies: dict[str, list[int]], taxonomy: Taxonomy, include_absent: bool
) -> tuple[float, float, float]:
    categories = sorted(taxonomy.nodes) if include_absent else sorted(tallies)
    if not categories:
        return 0.0, 0.0, 0.0
    scores = []
    for code in categories:
        tp, fp, fn = tallies.get(code, (0, 0, 0))
        scores.append(_f1(tp, tp + fp, tp + fn))
    return tuple(sum(column) / len(categories) for column in zip(*scores))  # type: ignore[return-value]


def micro_f1(pairs: list[EvalPair], mode: str = "path") -> tuple[float, float, float]:
    """Pooled-count precision/recall/F1 over all samples: `_f1` of the column
    sums of `category_counts`.

    Leaf mode treats each sample as a single-label prediction, so micro
    precision, recall, and F1 all equal leaf accuracy.
    """
    if not pairs:
        raise EvaluationError("micro_f1 needs at least one pair")
    return _micro(category_counts(Counter(pairs), mode))


def macro_f1(
    pairs: list[EvalPair],
    taxonomy: Taxonomy,
    mode: str = "path",
    include_absent: bool = False,
) -> tuple[float, float, float]:
    """Unweighted mean of per-category precision/recall/F1.

    By default only categories touched by some prediction or truth enter the
    mean; `include_absent` averages over every taxonomy node instead (absent
    categories score 0), for strict fixed-catalogue averaging.
    """
    if not pairs:
        raise EvaluationError("macro_f1 needs at least one pair")
    return _macro(category_counts(Counter(pairs), mode), taxonomy, include_absent)


@gc_paused
def evaluate(
    pred_rows: list[dict],
    truth_records: list[ProductRecord],
    taxonomy: Taxonomy,
    include_absent: bool = False,
) -> EvalReport:
    """Full report from a prediction dump and its ground-truth records."""
    pred_by_id = {row["id"]: row for row in pred_rows}
    truth_by_id = {rec.id: rec for rec in truth_records}
    if len(pred_by_id) != len(pred_rows):
        repeated = next(i for i, n in Counter(row["id"] for row in pred_rows).items() if n > 1)  # in file order
        raise InvalidPredictionsError(f"duplicate id {repeated!r} in prediction dump")
    # as many distinct ids on each side, and each truth id predicted: the same ids
    if len(truth_by_id) != len(pred_by_id) or not all(map(pred_by_id.__contains__, truth_by_id)):
        missing = sorted(truth_by_id.keys() - pred_by_id.keys())
        extra = sorted(pred_by_id.keys() - truth_by_id.keys())
        raise EvaluationError(
            f"id mismatch between predictions and truth: missing={missing[:5]} extra={extra[:5]}"
        )
    if not pred_rows:
        raise EvaluationError("nothing to evaluate")

    # A dump holds few distinct (predicted, true) path pairs: each is counted
    # once, with its multiplicity.
    pairs = Counter(
        (tuple(pred_by_id[rec_id]["path"]), tuple(rec.label_path)) for rec_id, rec in truth_by_id.items()
    )
    if any(not pred for pred, _ in pairs):
        rec_id = next(row["id"] for row in pred_rows if not row["path"])  # in file order
        raise InvalidPredictionsError(f"prediction {rec_id!r} has an empty path: no effective leaf")
    # Predicted paths may be structurally inconsistent (that is what RePath
    # repairs); set-overlap scoring handles them fine. Ground truth, however,
    # must be a real chain.
    invalid = {true for true in {true for _, true in pairs} if not is_valid_path(taxonomy, list(true))}
    if invalid:
        rec_id = min(rec_id for rec_id, rec in truth_by_id.items() if tuple(rec.label_path) in invalid)
        raise InvalidTruthError(f"truth record {rec_id!r} carries an invalid path")
    # Each pair lands in one depth bucket, so the overall tables are the sums
    # of the bucket tables: every pair is counted once per mode.
    buckets: dict[int, Counter[EvalPair]] = {}
    for (pred, true), samples in pairs.items():
        buckets.setdefault(len(true), Counter())[EvalPair(pred, true, len(true))] = samples
    confidences = [float(row.get("leaf_confidence", 0.0)) for row in pred_rows]

    totals: dict[str, dict[str, list[int]]] = {mode: {} for mode in MODES}
    per_depth: dict[int, dict] = {}
    for depth in sorted(buckets):
        stats: dict = {"count": sum(buckets[depth].values())}
        for mode in MODES:
            tallies = category_counts(buckets[depth], mode)
            total = totals[mode]
            for code, counts in tallies.items():
                total[code] = [a + b for a, b in zip(total.get(code, (0, 0, 0)), counts)]
            stats[f"{mode}_macro_f1"] = _macro(tallies, taxonomy, include_absent)[2]
            stats[f"{mode}_micro_f1"] = _micro(tallies)[2]
        per_depth[depth] = stats

    n = len(confidences)
    distinct = sorted(set(confidences))
    covered = np.searchsorted(np.sort(np.array(confidences)), distinct, side="right")
    cdf = [(c, k / n) for c, k in zip(distinct, covered.tolist())]

    return EvalReport(
        path_macro_f1=_macro(totals["path"], taxonomy, include_absent)[2],
        path_micro_f1=_micro(totals["path"])[2],
        leaf_macro_f1=_macro(totals["leaf"], taxonomy, include_absent)[2],
        leaf_micro_f1=_micro(totals["leaf"])[2],
        per_depth=per_depth,
        confidence_cdf=tuple(cdf),
        sample_count=n,
    )


def render_table(report: EvalReport) -> str:
    """Plain-text Path/Leaf x Macro/Micro summary table."""
    rows = [
        ("Path", report.path_macro_f1, report.path_micro_f1),
        ("Leaf", report.leaf_macro_f1, report.leaf_micro_f1),
    ]
    lines = [
        f"{'Level':<6} {'Macro F1 (%)':>13} {'Micro F1 (%)':>13}",
        "-" * 34,
    ]
    for name, macro, micro in rows:
        lines.append(f"{name:<6} {100 * macro:>13.2f} {100 * micro:>13.2f}")
    lines.append(f"samples: {report.sample_count}")
    return "\n".join(lines)


# The C encoder (json.dumps uses it only without `indent`), with the item
# separator `indent=2` writes between the two numbers of a CDF pair.
_PAIRS = json.JSONEncoder(check_circular=False, separators=(",\n      ", ": "))


def write_report(path: str | Path, report: EvalReport) -> None:
    """Write `json.dumps(report.to_dict(), indent=2, sort_keys=True)` and a
    newline, byte for byte. That encoder is pure Python, so the confidence
    CDF, the bulk of the report, goes through the C encoder; numbers hold no
    brackets, so only the separators between pairs need laying out again."""
    cdf = config_value(tuple[tuple[float, float], ...], report.confidence_cdf, "confidence_cdf")
    text = json.dumps(replace(report, confidence_cdf=()).to_dict(), indent=2, sort_keys=True)
    if cdf:  # "confidence_cdf" sorts first, so the first match is the top-level key
        pairs = _PAIRS.encode(cdf)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
        text = text.replace('"confidence_cdf": []', '"confidence_cdf": [\n    [\n      ' + pairs + "\n    ]\n  ]", 1)
    atomic_write_text(path, text + "\n")


def write_cdf_csv(path: str | Path, report: EvalReport) -> None:
    lines = ["confidence,cumulative_fraction"]
    lines += [f"{c!r},{f!r}" for c, f in report.confidence_cdf]
    atomic_write_text(path, "\n".join(lines) + "\n")
