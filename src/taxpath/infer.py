"""Final prediction assembly and leaf-to-path reconstruction.

A prediction prefers the most confident leaf-level argmax: the path is the
per-level argmax prefix down to that leaf, kept even when an intermediate
argmax strays off the chain (per-level heads decide independently, so a
correct leaf can sit under a wrong intermediate node). Without a confident
leaf, the fallback keeps the longest valid prefix of argmax codes. RePath
replaces the selected path with the ancestor chain of the selected leaf,
repairing structural inconsistencies without touching the leaf decision.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .dataset import ProductRecord
from .encoder import EncodedBatch, assemble_batch, prepare_records
from .moe import CheckpointError, LevelDistribution, MoEModel, distributions_from_probs, forward_batch
from .taxonomy import NULL_CODE, Taxonomy
from .util import read_jsonl, write_jsonl

MODE_LEAF_CONFIDENT = "leaf_confident"
MODE_DEEPEST_VALID = "deepest_valid"
MODE_REPATHED = "repathed"

DEFAULT_TAU_LEAF = 0.5


@dataclass(frozen=True, eq=False)  # holds distributions: compare fields, not objects
class PredictionPath:
    per_level: tuple[LevelDistribution, ...]
    selected_path: tuple[str, ...]
    selected_leaf: str
    mode: str
    leaf_confidence: float


def _code_probability(dist: LevelDistribution, taxonomy: Taxonomy, code: str) -> float:
    return float(dist.probs[taxonomy.label_index(dist.level, code)])


def select_prediction(
    dists: list[LevelDistribution], taxonomy: Taxonomy, tau_leaf: float = DEFAULT_TAU_LEAF
) -> PredictionPath:
    """Pick the final path from per-level distributions.

    Leaf-first: among levels whose argmax is a taxonomy leaf with confidence
    at least `tau_leaf`, take the most confident one; its argmax prefix
    becomes the path as-is, even when an intermediate argmax breaks the
    parent chain (RePath exists to repair exactly that inconsistency). A NULL
    argmax above the chosen leaf forfeits the branch. Otherwise fall back to
    the longest valid prefix of argmax codes, which always contains the
    level-1 argmax over non-NULL labels.
    """
    for i, dist in enumerate(dists, start=1):
        if dist.level != i:
            raise ValueError(f"missing level distribution: expected level {i}, got {dist.level}")

    argmaxes = [d.argmax_code for d in dists]
    best: tuple[float, int] | None = None  # (confidence, level)
    for dist in dists:
        code = dist.argmax_code
        if code == NULL_CODE or code not in taxonomy.nodes:
            continue
        if taxonomy.nodes[code].is_leaf and dist.confidence >= tau_leaf:
            if best is None or dist.confidence > best[0]:
                best = (dist.confidence, dist.level)
    if best is not None:
        conf, level = best
        prefix = argmaxes[:level]
        if NULL_CODE not in prefix:
            return PredictionPath(
                per_level=tuple(dists),
                selected_path=tuple(prefix),
                selected_leaf=prefix[-1],
                mode=MODE_LEAF_CONFIDENT,
                leaf_confidence=conf,
            )

    # Fallback: longest valid prefix; level 1 restricted to real codes.
    level1_codes = taxonomy.per_level_labels[1][:-1]
    level1_probs = dists[0].probs[: len(level1_codes)]
    first = level1_codes[int(level1_probs.argmax())]
    path = [first]
    for dist in dists[1:]:
        code = dist.argmax_code
        node = taxonomy.nodes.get(code)
        if code == NULL_CODE or node is None or node.parent != path[-1]:
            break
        path.append(code)
    leaf_conf = _code_probability(dists[len(path) - 1], taxonomy, path[-1])
    return PredictionPath(
        per_level=tuple(dists),
        selected_path=tuple(path),
        selected_leaf=path[-1],
        mode=MODE_DEEPEST_VALID,
        leaf_confidence=leaf_conf,
    )


def leaf_chain(taxonomy: Taxonomy, leaf: str) -> tuple[str, ...] | None:
    """Ancestor chain RePath puts in place for `leaf`; None unless `leaf` is
    a taxonomy leaf node (inner nodes and unknown codes are left alone)."""
    node = taxonomy.nodes.get(leaf)
    if node is None or not node.is_leaf:
        return None
    return taxonomy.chain(leaf)


def repath(pred: PredictionPath, taxonomy: Taxonomy) -> PredictionPath:
    """Rebuild the path as the ancestor chain of the selected leaf.

    Applies only when the selected leaf is a taxonomy leaf node; leaf-level
    fields are never altered, so leaf metrics are invariant under repath.
    """
    chain = leaf_chain(taxonomy, pred.selected_leaf)
    if chain is None:
        return pred
    return replace(pred, selected_path=chain, mode=MODE_REPATHED)


def predict_batch(
    model: MoEModel,
    records: list[ProductRecord],
    taxonomy: Taxonomy,
    tau_leaf: float = DEFAULT_TAU_LEAF,
    use_repath: bool = False,
) -> list[PredictionPath]:
    """Order-preserving batch prediction; verifies the model/taxonomy pairing."""
    enc = model.encoder_config
    batch = assemble_batch(prepare_records(records, enc), model.params, enc)
    return predict_encoded(model, batch, taxonomy, tau_leaf, use_repath)


def predict_encoded(
    model: MoEModel,
    batch: EncodedBatch,
    taxonomy: Taxonomy,
    tau_leaf: float = DEFAULT_TAU_LEAF,
    use_repath: bool = False,
) -> list[PredictionPath]:
    """`predict_batch` over a batch already encoded with the model's parameters."""
    if model.taxonomy_hash != taxonomy.fingerprint():
        raise CheckpointError(
            f"taxonomy hash mismatch: model {model.taxonomy_hash[:12]}..., "
            f"supplied {taxonomy.fingerprint()[:12]}..."
        )
    n = batch.dense.shape[0]
    if not n:
        return []
    cache = forward_batch(model, batch, for_backward=False)
    out = []
    for dists in distributions_from_probs(model, cache.probs):
        pred = select_prediction(dists, taxonomy, tau_leaf)
        if use_repath:
            pred = repath(pred, taxonomy)
        out.append(pred)
    return out


def prediction_to_dict(record_id: str, pred: PredictionPath) -> dict:
    return {
        "id": record_id,
        "path": list(pred.selected_path),
        "leaf": pred.selected_leaf,
        "mode": pred.mode,
        "leaf_confidence": pred.leaf_confidence,
        "per_level_argmax": [d.argmax_code for d in pred.per_level],
    }


def write_predictions(path: str | Path, ids: list[str], preds: list[PredictionPath]) -> None:
    write_jsonl(path, (prediction_to_dict(i, p) for i, p in zip(ids, preds)))


def read_predictions(path: str | Path) -> list[dict]:
    return list(read_jsonl(path))
