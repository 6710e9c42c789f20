"""Final prediction assembly and leaf-to-path reconstruction, over columns.

A prediction prefers the most confident leaf-level argmax: the path is the
per-level argmax prefix down to that leaf, kept even when an intermediate
argmax strays off the chain (per-level heads decide independently, so a
correct leaf can sit under a wrong intermediate node). Without a confident
leaf, the fallback keeps the longest valid prefix of argmax codes. RePath
replaces the selected path with the ancestor chain of the selected leaf,
repairing structural inconsistencies without touching the leaf decision.

Selection is columnar: one `select_prediction` call turns a batch's per-level
`(N, K_l)` probabilities into a `Predictions` of label arrays (`LabelTables`
numbers the model's labels level by level), and RePath marks the rows whose
path becomes their leaf's entry in a chain table; a lone row takes the rules
over its Python floats. Rows are built only where they are read one by one.
The rules hold exactly as per row: ties in a level's argmax go to the lowest
label; between equally confident leaves the shallowest level wins; a NULL
argmax at or above the chosen leaf forfeits the leaf-first branch; the
fallback's first level is the argmax over non-NULL labels only; and a fallback
of length 1 reports that label's probability, not the level-1 argmax confidence.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import ProductRecord, is_string_list
from .encoder import PreparedRecords, assemble_batch, encode_one, prepare_records
from .moe import CheckpointError, MoEModel, forward_batch, level_spaces
from .taxonomy import NULL_CODE, Taxonomy
from .util import _ENCODE, WRITE_LINES, atomic_write_chunks, canonical_json, gc_paused, read_jsonl

MODE_LEAF_CONFIDENT = "leaf_confident"
MODE_DEEPEST_VALID = "deepest_valid"
MODE_REPATHED = "repathed"

DEFAULT_TAU_LEAF = 0.5

# The most rows prediction assembles, forwards and selects at once (see `predict_prepared`)
FORWARD_CHUNK_ROWS = 2048


# One row of a `Predictions`, as a prediction dump holds it. The path and the argmax are tuples of codes,
# which `write_predictions` looks up by value.
PredictionPath = namedtuple("PredictionPath", "selected_path selected_leaf mode leaf_confidence per_level_argmax")


@dataclass(frozen=True, eq=False)  # holds arrays: compare by identity
class LabelTables:
    """Lookups over a model's label spaces concatenated level by level."""

    fingerprint: str  # of the taxonomy the tables were built from
    codes: np.ndarray  # (G,) object: the code of each label, NULL included
    label: dict[str, int]  # code -> label; NULL has none
    is_leaf: np.ndarray  # (G,) taxonomy leaf nodes
    is_null: np.ndarray  # (G,)
    parent: np.ndarray  # (G,) label of the node's parent; -1 at level 1, for NULL and unknown codes
    chains: tuple  # (G,) a leaf's root-first chain of codes, RePath's path; None for other labels
    roots: int  # non-NULL level-1 labels, labels 0 .. roots-1
    sizes: tuple[int, ...]  # (L,) the labels of each level
    gather: np.ndarray  # (L, Kmax) each level's labels, padded with its first label
    next_column: np.ndarray  # (L,) 1, 2, ..., L-1, 0

    def labels_of(self, codes: list[str]) -> np.ndarray:
        """Label of each code; -1 for NULL and codes outside the label spaces."""
        return np.array([self.label.get(code, -1) for code in codes], dtype=np.intp)


_TABLES: dict[tuple[str, int], LabelTables] = {}  # the last few built, by content


def label_tables(taxonomy: Taxonomy, levels: int) -> LabelTables:
    """The tables of a `levels`-level model's label spaces over `taxonomy` (`level_spaces`),
    built once per content (taxonomy fingerprint, levels) however often the taxonomy is loaded."""
    key = (taxonomy.fingerprint(), levels)
    tables = _TABLES.get(key)
    if tables is not None:
        return tables
    if len(_TABLES) >= 16:
        _TABLES.clear()
    level_labels = level_spaces(taxonomy, levels)
    codes = [code for labels in level_labels for code in labels]
    sizes = np.array([len(labels) for labels in level_labels])
    label = {code: g for g, code in enumerate(codes) if code != NULL_CODE}
    chains = tuple(leaf_chain(taxonomy, code) for code in codes)
    width = np.arange(sizes.max())
    tables = _TABLES[key] = LabelTables(
        fingerprint=key[0],
        codes=np.array(codes, dtype=object),
        label=label,
        is_leaf=np.array([links is not None for links in chains]),
        is_null=np.array([code == NULL_CODE for code in codes]),
        parent=np.array([label.get(getattr(taxonomy.nodes.get(code), "parent", None), -1) for code in codes]),
        chains=chains,
        roots=sum(code != NULL_CODE for code in level_labels[0]),
        sizes=tuple(sizes.tolist()),
        gather=(np.cumsum(sizes) - sizes)[:, None] + np.where(width < sizes[:, None], width, 0),
        next_column=np.roll(np.arange(len(sizes)), -1),
    )
    return tables


@dataclass(eq=False, slots=True)  # holds arrays: compare by identity; not frozen, which costs µs per batch
class Predictions:
    """Selections for N rows as columns of labels (see `LabelTables`); iterating yields rows."""

    tables: LabelTables
    argmax: np.ndarray  # (N, L) per-level argmax label
    confidence: np.ndarray  # (N, L) its probability
    path: np.ndarray  # (N, L) the selected path before RePath in columns 0 .. last; the rest mean nothing
    last: np.ndarray  # (N,) the column of `path` that holds the leaf, the leaf's level - 1
    leaf: np.ndarray  # (N,) selected leaf label: path[i, last[i]]
    confident: np.ndarray  # (N,) bool: chosen leaf-first (MODE_LEAF_CONFIDENT), else MODE_DEEPEST_VALID
    repathed: np.ndarray  # (N,) bool: the selected path is the leaf's chain, not `path` (MODE_REPATHED)
    leaf_confidence: np.ndarray  # (N,) the leaf's probability at its level

    def __len__(self) -> int:
        return len(self.leaf)

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, rows: slice) -> Predictions:
        """The rows `rows` (a slice), over views of these columns."""
        return Predictions(self.tables, *(getattr(self, column.name)[rows] for column in fields(Predictions)[1:]))

    @property
    def selected_path(self) -> tuple[tuple[str, ...], ...]:
        """Each row's selected path as codes."""
        chains, paths = self.tables.chains, self.tables.codes[self.path].tolist()
        return tuple(chains[g] if r else tuple(p[: n + 1])
                     for p, n, g, r in zip(paths, self.last.tolist(), self.leaf.tolist(), self.repathed.tolist()))

    def columns(self) -> tuple:
        """The fields of `PredictionPath`, in its order, each as one sequence over the rows."""
        paths = self.selected_path
        modes = [MODE_REPATHED if r else MODE_LEAF_CONFIDENT if c else MODE_DEEPEST_VALID
                 for c, r in zip(self.confident.tolist(), self.repathed.tolist())]
        return (paths, [p[-1] for p in paths], modes, self.leaf_confidence.tolist(),
                list(map(tuple, self.tables.codes[self.argmax].tolist())))

    def rows(self) -> list[PredictionPath]:
        return list(map(PredictionPath, *self.columns()))


def select_prediction(
    probs: list[np.ndarray], tables: LabelTables, tau_leaf: float = DEFAULT_TAU_LEAF
) -> Predictions:
    """Pick the final path of every row from per-level `(N, K_l)` probabilities
    by the rules in the module docstring; `tau_leaf` is the least confidence
    of a leaf-first selection."""
    flat = np.concatenate(probs, axis=1)  # (N, G)
    widths = tuple(p.shape[1] for p in probs)
    if widths != tables.sizes:
        raise ValueError(f"missing level distribution: need levels of {tables.sizes} labels, got {widths}")
    if len(flat) == 1:
        return _select_row(flat, tables, tau_leaf)
    rows = np.arange(flat.shape[0])
    # padding repeats a level's first label, so a tie never goes to it
    argmax = flat[:, tables.gather].argmax(axis=2) + tables.gather[:, 0]  # (N, L)
    confidence = flat[rows[:, None], argmax]

    eligible = tables.is_leaf[argmax] & (confidence >= tau_leaf)
    best = np.where(eligible, confidence, -np.inf).argmax(axis=1)  # first maximum: shallowest
    confident = (eligible & ~np.logical_or.accumulate(tables.is_null[argmax], axis=1))[rows, best]

    path = argmax.copy()
    path[:, 0] = flat[:, : tables.roots].argmax(axis=1)  # equals argmax[:, 0] unless that is NULL
    # the first column whose next label is no child of it; the wrap-around to column 0 never is one
    fallback = (tables.parent[path[:, tables.next_column]] == path).argmin(axis=1)
    last = np.where(confident, best, fallback)
    leaf = path[rows, last]
    repathed = np.zeros(len(rows), dtype=bool)
    return Predictions(tables, argmax, confidence, path, last, leaf, confident, repathed, flat[rows, leaf])


def _select_row(flat: np.ndarray, tables: LabelTables, tau_leaf: float) -> Predictions:
    """`select_prediction` of one row `flat` (1, G), to the same bytes: NumPy places each argmax (ties, NaN),
    and the rules run over Python values, which one row reads faster than arrays."""
    row = flat[0]  # a 1-D row indexes faster
    argmax = row[tables.gather].argmax(axis=1) + tables.gather[:, 0]  # (L,)
    confidence = row[argmax]
    labels, values = argmax.tolist(), confidence.tolist()
    eligible = [tables.chains[g] is not None and c >= tau_leaf for g, c in zip(labels, values)]
    best = max(range(len(labels)), key=lambda col: values[col] if eligible[col] else -math.inf)  # first maximum
    confident = eligible[best] and not any(tables.is_null[g] for g in labels[: best + 1])
    path = argmax.copy()
    if labels[0] >= tables.roots:  # NULL: the first maximum over the roots instead
        path[0] = row[: tables.roots].argmax()
    last = best if confident else (tables.parent[path[tables.next_column]] == path).argmin()
    return Predictions(tables, argmax[None], confidence[None], path[None], np.array([last]), path[last : last + 1],
                       np.array([confident]), np.zeros(1, dtype=bool), row[path[last] : path[last] + 1])


def leaf_chain(taxonomy: Taxonomy, leaf: str) -> tuple[str, ...] | None:
    """Ancestor chain RePath puts in place for `leaf`; None unless `leaf` is
    a taxonomy leaf node (inner nodes and unknown codes are left alone)."""
    node = taxonomy.nodes.get(leaf)
    if node is None or not node.is_leaf:
        return None
    return taxonomy.chain(leaf)


def repath(preds: Predictions, taxonomy: Taxonomy) -> Predictions:
    """Rebuild each path as the ancestor chain of its selected leaf.

    Applies to the rows whose selected leaf is a taxonomy leaf node, which it
    marks `repathed`: their selected path becomes the leaf's entry in the
    chain table. Leaf-level fields are never altered, so leaf metrics are
    invariant under repath.
    """
    tables = preds.tables
    if tables.fingerprint != taxonomy.fingerprint():
        raise ValueError("predictions were made over another taxonomy")
    return Predictions(tables, preds.argmax, preds.confidence, preds.path, preds.last, preds.leaf, preds.confident,
                       tables.is_leaf[preds.leaf], preds.leaf_confidence)


def predict_batch(
    model: MoEModel, records: list[ProductRecord], taxonomy: Taxonomy,
    tau_leaf: float = DEFAULT_TAU_LEAF, use_repath: bool = False,
) -> Predictions:
    """Order-preserving batch prediction; verifies the model/taxonomy pairing. One record is
    featurised by `encode_one` (the batch path's bytes without its scaffolding), more by `prepare_records`."""
    if len(records) != 1:
        return predict_prepared(model, prepare_records(records, model.encoder_config), taxonomy, tau_leaf, use_repath)
    return _predict(model, [encode_one(records[0], model.params, model.encoder_config)], taxonomy, tau_leaf, use_repath)


def predict_prepared(
    model: MoEModel, prepared: PreparedRecords, taxonomy: Taxonomy,
    tau_leaf: float = DEFAULT_TAU_LEAF, use_repath: bool = False,
) -> Predictions:
    """`predict_batch` over records prepared with the model's encoder config.

    Rows are assembled, forwarded and selected in ceil(N / FORWARD_CHUNK_ROWS)
    chunks of near-equal size, so the features and activations held at once
    stay bounded however large N is. A GEMM over a large chunk gives the same
    rows as one over the whole batch (a short tail would not), and every other
    step is row-wise: the result is the one a single pass over all rows gives.
    """
    n = len(prepared)
    chunks = max(1, -(-n // FORWARD_CHUNK_ROWS))
    bounds = [n * i // chunks for i in range(chunks + 1)]
    batches = (assemble_batch(prepared, model.params, model.encoder_config, rows=np.arange(lo, hi))
               for lo, hi in zip(bounds, bounds[1:]))
    return _predict(model, batches, taxonomy, tau_leaf, use_repath)


def _predict(model: MoEModel, batches, taxonomy: Taxonomy, tau_leaf: float, use_repath: bool) -> Predictions:
    """Check the taxonomy, then forward and select each of `batches` (consecutive rows' features) and join them."""
    if model.taxonomy_hash != taxonomy.fingerprint():
        raise CheckpointError(f"taxonomy hash mismatch: model {model.taxonomy_hash[:12]}..., "
                              f"supplied {taxonomy.fingerprint()[:12]}...")
    tables = label_tables(taxonomy, model.moe_config.levels)
    parts = []
    for batch in batches:
        parts.append(select_prediction(forward_batch(model, batch, for_backward=False).probs, tables, tau_leaf))
        del batch  # before the next chunk's features exist
    preds = parts[0] if len(parts) == 1 else Predictions(
        tables, *(np.concatenate([getattr(part, column.name) for part in parts]) for column in fields(Predictions)[1:]))
    return repath(preds, taxonomy) if use_repath else preds


def prediction_to_dict(record_id: str, pred: PredictionPath) -> dict:
    return {"id": record_id, "path": list(pred.selected_path), "leaf": pred.selected_leaf, "mode": pred.mode,
            "leaf_confidence": pred.leaf_confidence, "per_level_argmax": list(pred.per_level_argmax)}


class _JSONTexts(dict):
    """value -> `canonical_json(value)`, encoded at the first lookup."""

    def __missing__(self, value):
        text = self[value] = canonical_json(value)
        return text


def write_predictions(path: str | Path, ids: list[str], preds: Predictions | list[PredictionPath]) -> None:
    """The lines `write_jsonl(path, map(prediction_to_dict, ids, preds))` writes, keys in its sorted order.

    The rows go WRITE_LINES at a time, from their columns. The leaves, modes, paths and argmax tuples of a
    dump are bounded by the label spaces, so each distinct one is encoded once; the id and the confidence
    are encoded per row.
    """
    texts = _JSONTexts()

    def chunks():
        for lo in range(0, len(preds), WRITE_LINES):
            part = preds[lo:lo + WRITE_LINES]
            yield "".join([
                f'{{"id":{"".join(_ENCODE(i, 0))},"leaf":{texts[leaf]},'
                f'"leaf_confidence":{"".join(_ENCODE(conf, 0))},"mode":{texts[mode]},'
                f'"path":{texts[p]},"per_level_argmax":{texts[a]}}}\n'
                for i, p, leaf, mode, conf, a in zip(
                    ids[lo:lo + WRITE_LINES], *(part.columns() if isinstance(part, Predictions) else zip(*part)))
            ])
    atomic_write_chunks(path, map(str.encode, chunks()))


def check_prediction(row: dict, same) -> dict:
    """`row`, rebuilt in its key order; a ValueError names the first key whose value has a type scoring cannot read.

    Its keys and codes come from `same` (see `util.read_jsonl`): the leaf, the
    items of the path and of a `per_level_argmax` list of strings, and a string
    mode. The row keeps its own lists, so changing one row's path changes no other."""
    # Checked by hand, not by `config_value`: a per-value walk of 20k rows took 733 against 15 ms
    if not isinstance(row["id"], str):
        raise ValueError(f"has a non-string 'id': {row['id']!r}")
    path, leaf = row["path"], row["leaf"]
    if not is_string_list(path):
        raise ValueError(f"has a 'path' that is not a list of strings: {path!r}")
    if not isinstance(leaf, str):
        raise ValueError(f"has a non-string 'leaf': {leaf!r}")
    confidence = row.get("leaf_confidence", 0.0)
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise ValueError(f"has a 'leaf_confidence' that is not a number: {confidence!r}")
    try:
        finite = math.isfinite(confidence)  # the JSON decoder reads NaN and ±Infinity as floats
    except OverflowError:  # a JSON integer beyond the float range; scoring's float() would raise
        raise ValueError(f"has a 'leaf_confidence' too large for a float: {confidence!r}") from None
    if not finite:
        raise ValueError(f"has a non-finite 'leaf_confidence': {confidence!r}")
    row = dict(zip(map(same, row, row), row.values()))  # the scanner makes each line's key strings anew
    row["leaf"] = same(leaf, leaf)
    path[:] = map(same, path, path)
    mode, argmax = row.get("mode"), row.get("per_level_argmax")
    if isinstance(mode, str):
        row["mode"] = same(mode, mode)
    if is_string_list(argmax):
        argmax[:] = map(same, argmax, argmax)
    return row


@gc_paused
def read_predictions(path: str | Path) -> list[dict]:
    """Prediction rows, each an object with `id`, `path` and `leaf`, checked by
    `check_prediction`; a bad row raises ValueError naming the file, the line and the key."""
    return list(read_jsonl(path, required=("id", "path", "leaf"), convert=check_prediction))
