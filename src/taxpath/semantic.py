"""Consistency judging: does a product title match a tax code's definition?

A deterministic token-overlap oracle plays the expert role, labeling
(title, code) pairs Y / N / U. A lightweight 3-class linear judge is then
distilled from oracle labels over overlap statistics, and annotates whole
corpora for consistency-assisted training.
"""
from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypedDict

import numpy as np

from .dataset import ProductRecord
from .moe import JUDGE_MAGIC, CheckpointError, param_views, read_container, softmax, write_container
from .taxonomy import Taxonomy
from .util import atomic_write_bytes, gc_paused, naming, stream_rng, tokenize, write_jsonl

VERDICTS = ("Y", "N", "U")
FEATURE_NAMES = ("leaf_overlap", "ancestor_overlap", "title_length", "popularity")
# The meta of a judge checkpoint: `JudgeModel`'s scalar fields and the feature order, every key required
JudgeMeta = TypedDict("JudgeMeta", {"tau_hi": float, "tau_lo": float, "popularity": dict[str, float],
                                    "holdout_agreement": float, "feature_names": tuple[str, ...], "taxonomy_hash": str})

# The oracle's cut-offs on the title's overlap with a code's definition: Y at or above, N at or below
Y_THRESHOLD = 0.5
N_THRESHOLD = 0.1
# `distill_judge`'s held-out share of the labeled pairs, and its full-batch gradient descent
HOLDOUT_FRACTION = 0.2
DISTILL_EPOCHS = 400
DISTILL_LEARNING_RATE = 2.0


class DegenerateLabelsError(ValueError):
    pass


@dataclass(frozen=True)
class ConsistencyLabel:
    verdict: str
    rationale: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}: {self.verdict!r}")


def oracle_judge(title: str, code: str, taxonomy: Taxonomy) -> ConsistencyLabel:
    """Expert stand-in: verdict from the share of title tokens found in the
    code's name + definition. Y at or above `Y_THRESHOLD`, N at or below
    `N_THRESHOLD`, U between."""
    title_tokens = set(tokenize(title))
    def_tokens = taxonomy.definition_tokens(code)
    matched = sorted(title_tokens & def_tokens)
    s = len(matched) / len(title_tokens) if title_tokens else 0.0
    if s >= Y_THRESHOLD:
        verdict = "Y"
    elif s <= N_THRESHOLD:
        verdict = "N"
    else:
        verdict = "U"
    rationale = (
        f"overlap {s:.3f} ({len(matched)}/{len(title_tokens)}); "
        f"matched: {', '.join(matched) if matched else '(none)'}"
    )
    return ConsistencyLabel(verdict=verdict, rationale=rationale)


def label_dev_set(dev: list[ProductRecord], taxonomy: Taxonomy) -> list[tuple[str, str, ConsistencyLabel]]:
    """Oracle labels for each dev record's (title, leaf), the judge's training set.

    A dev set of confidently predicted records can hold no pair the oracle
    calls N, which leaves the judge without a negative class. Then each dev
    title is also paired with the leaf of the next dev record (cyclically)
    under a different level-1 node, standing in for a rejected invoice, and
    the pairs the oracle labels N join the set. If none does, the set stays
    without N and `distill_judge` refuses it.
    """
    labeled = [(r.title, r.leaf(), oracle_judge(r.title, r.leaf(), taxonomy)) for r in dev]
    if any(label.verdict == "N" for _, _, label in labeled):
        return labeled
    n = len(dev)
    roots = [taxonomy.chain(r.leaf())[0] for r in dev]
    partner: list[int | None] = [None] * n
    later = None  # nearest later position, over the list taken twice, under another root
    for k in range(2 * n - 2, -1, -1):
        if roots[(k + 1) % n] != roots[k % n]:
            later = k + 1
        if k < n and later is not None and later - k < n:
            partner[k] = later % n
    for rec, j in zip(dev, partner):
        if j is None:
            continue
        leaf = dev[j].leaf()
        label = oracle_judge(rec.title, leaf, taxonomy)
        if label.verdict == "N":
            labeled.append((rec.title, leaf, label))
    return labeled


def judge_feature_matrix(
    titles: list[str], codes: list[str], taxonomy: Taxonomy, popularity: dict[str, float]
) -> np.ndarray:
    """(N, 4) overlap statistics the distilled judge scores (see FEATURE_NAMES), one
    row per (title, code) pair; each distinct code's token sets are built once."""
    code_stats: dict[str, tuple[frozenset[str], frozenset[str], float]] = {}
    features = array("d")  # packed doubles: no float object outlives its row
    for title, code in zip(titles, codes):
        if code not in code_stats:  # an unknown code raises TaxonomyError
            ancestors = map(taxonomy.definition_tokens, taxonomy.chain(code)[:-1])
            code_stats[code] = (taxonomy.definition_tokens(code), frozenset().union(*ancestors), popularity.get(code, 0.0))
        leaf_tokens, anc_tokens, pop = code_stats[code]
        tokens = set(tokenize(title))
        n = len(tokens)
        features.extend(
            (len(tokens & leaf_tokens) / n, len(tokens & anc_tokens) / n if anc_tokens else 0.0, min(1.0, n / 16.0), pop)
            if n else (0.0, 0.0, 0.0, pop)
        )
    return np.array(features, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))


@dataclass
class JudgeModel:
    """Distilled 3-class linear judge plus its Y/N decision thresholds.

    The verdict comes from score = P(Y) - P(N): Y at or above tau_hi,
    N at or below tau_lo, U in between.
    """

    weights: np.ndarray  # (n_features, 3)
    bias: np.ndarray  # (3,)
    tau_hi: float
    tau_lo: float
    taxonomy_hash: str  # fingerprint of the taxonomy it was distilled on
    popularity: dict[str, float] = field(default_factory=dict)
    holdout_agreement: float = float("nan")

    def __post_init__(self):
        if not self.tau_hi > self.tau_lo:
            raise ValueError(f"tau_hi must exceed tau_lo: {self.tau_hi} <= {self.tau_lo}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("judge weights must be finite")
        if not (math.isfinite(self.tau_hi) and math.isfinite(self.tau_lo)):
            raise ValueError(f"judge thresholds must be finite: tau_hi {self.tau_hi}, tau_lo {self.tau_lo}")
        bad = next((code for code, value in self.popularity.items() if not math.isfinite(value)), None)
        if bad is not None:  # it would reach the score of every record of that code
            raise ValueError(f"judge popularity of {bad!r} must be finite: {self.popularity[bad]}")

    def scores(self, titles: list[str], codes: list[str], taxonomy: Taxonomy) -> np.ndarray:
        """(N,) P(Y) - P(N) for each (title, code) pair. The stacked `phi[:, None, :] @ W`
        makes one vector-matrix product per row, which rounds as one pair's `phi @ W`
        does; an (N, 4) @ (4, 3) product would add the terms in another order."""
        phi = judge_feature_matrix(titles, codes, taxonomy, self.popularity)
        probs = softmax((phi[:, None, :] @ self.weights)[:, 0] + self.bias)
        return probs[:, 0] - probs[:, 1]

    def judge_batch(self, titles: list[str], codes: list[str], taxonomy: Taxonomy) -> list[ConsistencyLabel]:
        """One label per (title, code) pair: Y at or above tau_hi, N at or below tau_lo."""
        tau_hi, tau_lo = self.tau_hi, self.tau_lo
        thresholds = f"(tau_hi {tau_hi:.3f}, tau_lo {tau_lo:.3f})"
        return [
            ConsistencyLabel(
                verdict="Y" if s >= tau_hi else "N" if s <= tau_lo else "U",
                rationale=f"judge score {s:.3f} {thresholds}",
            )
            for s in self.scores(titles, codes, taxonomy).tolist()
        ]

    def judge(self, title: str, code: str, taxonomy: Taxonomy) -> ConsistencyLabel:
        """The batch of one."""
        return self.judge_batch([title], [code], taxonomy)[0]


def _code_popularity(codes: list[str]) -> dict[str, float]:
    counts = Counter(codes)
    top = math.log1p(max(counts.values()))
    return {code: math.log1p(n) / top for code, n in sorted(counts.items())}


def _best_threshold(scores: np.ndarray, positive: np.ndarray, direction: str) -> float:
    """1-D sweep for the boundary maximizing agreement.

    direction "ge": predict positive when score >= t; "le": when score <= t.
    Candidates are midpoints between adjacent distinct scores plus outer
    sentinels; ties resolve to the first (lowest) candidate.
    """
    distinct = np.unique(scores)
    candidates = [distinct[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates += [distinct[-1] + 1.0]
    best_t, best_hits = candidates[0], -1
    for t in candidates:
        pred = scores >= t if direction == "ge" else scores <= t
        hits = int((pred == positive).sum())
        if hits > best_hits:
            best_hits, best_t = hits, t
    return float(best_t)


def distill_judge(
    labeled: list[tuple[str, str, ConsistencyLabel]],
    taxonomy: Taxonomy,
    seed: int,
) -> JudgeModel:
    """Fit the lightweight judge on oracle-labeled (title, code) pairs.

    Full-batch gradient descent on 3-class cross-entropy from a zero init,
    then threshold calibration on the fit split; agreement with the given
    labels is measured on a held-out split and stored on the model.
    """
    verdict_counts = {v: 0 for v in VERDICTS}
    for _, _, label in labeled:
        verdict_counts[label.verdict] += 1
    if verdict_counts["Y"] == 0 or verdict_counts["N"] == 0:
        raise DegenerateLabelsError(
            f"degenerate label set: need at least one Y and one N, got {verdict_counts}"
        )

    rng = stream_rng(seed, "judge-distill")
    order = rng.permutation(len(labeled))
    n_holdout = int(len(labeled) * HOLDOUT_FRACTION)
    holdout_idx = set(order[:n_holdout].tolist())
    fit_rows = [labeled[i] for i in range(len(labeled)) if i not in holdout_idx]
    holdout_rows = [labeled[i] for i in sorted(holdout_idx)]
    if not any(l.verdict == "Y" for _, _, l in fit_rows) or not any(
        l.verdict == "N" for _, _, l in fit_rows
    ):
        fit_rows = list(labeled)

    popularity = _code_popularity([code for _, code, _ in fit_rows])
    phi = judge_feature_matrix([t for t, _, _ in fit_rows], [c for _, c, _ in fit_rows], taxonomy, popularity)
    target = np.array([VERDICTS.index(l.verdict) for _, _, l in fit_rows])

    w = np.zeros((phi.shape[1], 3))
    b = np.zeros(3)
    n = len(fit_rows)
    onehot = np.zeros((n, 3))
    onehot[np.arange(n), target] = 1.0
    for _ in range(DISTILL_EPOCHS):
        delta = (softmax(phi @ w + b) - onehot) / n
        w -= DISTILL_LEARNING_RATE * (phi.T @ delta)
        b -= DISTILL_LEARNING_RATE * delta.sum(axis=0)

    probs = softmax(phi @ w + b)
    scores = probs[:, 0] - probs[:, 1]
    tau_hi = _best_threshold(scores, target == 0, "ge")
    tau_lo = _best_threshold(scores, target == 1, "le")
    if tau_lo >= tau_hi:
        mid = (tau_lo + tau_hi) / 2.0
        tau_hi, tau_lo = mid + 1e-6, mid - 1e-6

    model = JudgeModel(w, b, tau_hi, tau_lo, taxonomy.fingerprint(), popularity)
    check_rows = holdout_rows if holdout_rows else fit_rows
    judged = model.judge_batch([t for t, _, _ in check_rows], [c for _, c, _ in check_rows], taxonomy)
    hits = sum(1 for (_, _, l), got in zip(check_rows, judged) if got.verdict == l.verdict)
    model.holdout_agreement = hits / len(check_rows)
    return model


@gc_paused
def annotate_corpus(
    records: list[ProductRecord], judge: JudgeModel, taxonomy: Taxonomy
) -> dict[str, ConsistencyLabel]:
    """One consistency label per record for its (title, effective leaf), all
    judged in one `judge_batch`.

    Output ordering is stable: keys ascend by record id. Records must not
    share an id, since a label is looked up by it. The judge must have been distilled on `taxonomy`.
    """
    if judge.taxonomy_hash != taxonomy.fingerprint():
        raise CheckpointError(f"taxonomy hash mismatch: judge {judge.taxonomy_hash[:12]}..., "
                              f"supplied {taxonomy.fingerprint()[:12]}...")
    ordered = sorted(records, key=lambda r: r.id)
    labels = judge.judge_batch([r.title for r in ordered], [r.leaf() for r in ordered], taxonomy)
    table = dict(zip((r.id for r in ordered), labels))
    if len(table) < len(records):
        repeated = next(rec_id for rec_id, n in Counter(rec.id for rec in records).items() if n > 1)
        raise ValueError(f"record id {repeated!r} is not unique")
    return table


def write_annotations(path, annotations: dict[str, ConsistencyLabel]) -> None:
    """One `{"id", "verdict", "rationale"}` JSON line per annotation, in mapping order."""
    write_jsonl(path, ({"id": i, "verdict": lab.verdict, "rationale": lab.rationale} for i, lab in annotations.items()))


def save_judge(judge: JudgeModel, path: str | Path) -> None:
    """Write the judge's checkpoint to `path`, atomically."""
    meta = {
        "tau_hi": judge.tau_hi,
        "tau_lo": judge.tau_lo,
        "taxonomy_hash": judge.taxonomy_hash,
        "popularity": judge.popularity,
        "holdout_agreement": judge.holdout_agreement,
        "feature_names": list(FEATURE_NAMES),
    }
    atomic_write_bytes(path, write_container(JUDGE_MAGIC, meta, {"weights": judge.weights, "bias": judge.bias}))


def load_judge(path: str | Path) -> JudgeModel:
    """The judge checkpoint at `path`. Every CheckpointError it raises names `path`."""
    with naming(path, CheckpointError, CheckpointError):
        meta, manifest, flat = read_container(Path(path).read_bytes(), JUDGE_MAGIC, JudgeMeta)
        shapes = dict(manifest)
        for name, expected in (("weights", (len(FEATURE_NAMES), len(VERDICTS))), ("bias", (len(VERDICTS),))):
            if name not in shapes:
                raise CheckpointError(f"judge checkpoint has no {name!r} array (found {sorted(shapes)})")
            if shapes[name] != expected:
                raise CheckpointError(f"judge array {name!r} has shape {shapes[name]}, expected {expected}")
        feature_names = meta.pop("feature_names")
        if feature_names != FEATURE_NAMES:
            raise CheckpointError(f"judge checkpoint feature_names {list(feature_names)} differ from {list(FEATURE_NAMES)}")
        params = param_views(flat, manifest)
        try:
            return JudgeModel(weights=params["weights"], bias=params["bias"], **meta)
        except ValueError as exc:
            raise CheckpointError(f"bad judge checkpoint meta: {exc}") from exc
