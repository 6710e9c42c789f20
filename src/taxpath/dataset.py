"""Product records: ingestion, cleansing, splitting, and dev-set sampling."""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from json.encoder import encode_basestring  # the text canonical_json gives a string; a TypeError for a non-string
from pathlib import Path

from .taxonomy import Taxonomy, build_taxonomy, is_valid_path
from .util import (WRITE_LINES, JSONTexts, atomic_write_chunks, canonical_json, gc_paused, normalize_title, read_jsonl,
                   stream_rng, tokenize, write_jsonl)

REJECT_EMPTY_TITLE = "empty-title"
REJECT_UNKNOWN_CODE = "unknown-code"
REJECT_INVALID_PATH = "invalid-path"
REJECT_CONFLICT = "conflicting-label"
REJECT_DUPLICATE = "duplicate"
REJECT_DUPLICATE_ID = "duplicate-id"


class DatasetError(ValueError):
    pass


@dataclass  # not frozen: a frozen __init__ sets each field through object.__setattr__, µs per record
class ProductRecord:
    id: str
    title: str
    category_name: str
    bu_code: str
    ou_code: str
    system_code: str
    label_path: tuple[str, ...]
    source: str
    cpvs: tuple[tuple[str, str], ...] | None = None

    def leaf(self) -> str:
        """Deepest annotated code; the record's effective leaf label."""
        return self.label_path[-1]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.64
    val_fraction: float = 0.16
    test_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(not f > 0 or not math.isfinite(f) for f in fracs):  # `not f > 0` holds for NaN too
            raise DatasetError(f"split fractions must be positive and finite: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise DatasetError(f"split fractions must sum to 1: {fracs}")


@dataclass(frozen=True)
class ScoredRecord:
    record: ProductRecord
    predicted_leaf: str
    confidence: float
    correct: bool

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise DatasetError(f"confidence out of range: {self.confidence}")


def cleanse(
    records: list[ProductRecord], taxonomy: Taxonomy
) -> tuple[list[ProductRecord], list[tuple[ProductRecord, str]]]:
    """Stage-1 cleansing: validity filtering, conflict resolution, de-duplication.

    A record whose id an earlier input record carries is rejected. Records
    sharing a normalized title must agree on the leaf code; the majority leaf
    wins (ties reject the whole group) and surviving records collapse to one
    per (normalized title, leaf).
    """
    reasons: dict[int, str] = {}  # input index -> rejection reason
    by_title: dict[str, list[tuple[int, ProductRecord]]] = defaultdict(list)
    ids: set[str] = set()
    for i, rec in enumerate(records):
        norm = normalize_title(rec.title)
        if rec.id in ids:
            reasons[i] = REJECT_DUPLICATE_ID
        elif not norm:
            reasons[i] = REJECT_EMPTY_TITLE
        elif any(code not in taxonomy.nodes for code in rec.label_path):
            reasons[i] = REJECT_UNKNOWN_CODE
        elif not is_valid_path(taxonomy, list(rec.label_path)):
            reasons[i] = REJECT_INVALID_PATH
        else:
            by_title[norm].append((i, rec))
        ids.add(rec.id)

    for group in by_title.values():
        counts: dict[str, int] = defaultdict(int)
        for _, rec in group:
            counts[rec.leaf()] += 1
        best = max(counts.values())
        winners = [leaf for leaf, n in counts.items() if n == best]
        if len(winners) != 1:
            for i, _ in group:
                reasons[i] = REJECT_CONFLICT
            continue
        majority = winners[0]
        seen_majority = False
        for i, rec in group:
            if rec.leaf() != majority:
                reasons[i] = REJECT_CONFLICT
            elif seen_majority:
                reasons[i] = REJECT_DUPLICATE
            else:
                seen_majority = True

    kept = [rec for i, rec in enumerate(records) if i not in reasons]
    rejected = [(records[i], reason) for i, reason in sorted(reasons.items())]
    return kept, rejected


def largest_remainder(total: int, fractions: tuple[float, ...]) -> list[int]:
    """Integer apportionment: counts sum to `total`, each within 1 of its quota."""
    quotas = [total * f for f in fractions]
    counts = [math.floor(q) for q in quotas]
    leftovers = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


def _align_column_totals(
    counts: list[list[int]], bounds: list[list[tuple[int, int]]], targets: list[int]
) -> None:
    """Nudge a per-group apportionment so column sums hit `targets`.

    Each move shifts one unit between two columns of one row while keeping
    every cell inside its [floor, ceil] bound, so per-group ±1 guarantees
    survive. Column targets are themselves a valid apportionment, which makes
    the exchange walk always feasible.
    """
    n_cols = len(targets)
    while True:
        sums = [sum(row[c] for row in counts) for c in range(n_cols)]
        over = [c for c in range(n_cols) if sums[c] > targets[c]]
        under = [c for c in range(n_cols) if sums[c] < targets[c]]
        if not over:
            return
        src, dst = over[0], under[0]
        moved = False
        for row, rb in zip(counts, bounds):
            if row[src] > rb[src][0] and row[dst] < rb[dst][1]:
                row[src] -= 1
                row[dst] += 1
                moved = True
                break
        if moved:
            continue
        # No single row has slack on both columns: route through a middle column.
        for mid in range(n_cols):
            if mid in (src, dst):
                continue
            first = next(
                (r for r, rb in zip(counts, bounds) if r[src] > rb[src][0] and r[mid] < rb[mid][1]),
                None,
            )
            second = next(
                (r for r, rb in zip(counts, bounds) if r[mid] > rb[mid][0] and r[dst] < rb[dst][1]),
                None,
            )
            if first is not None and second is not None:
                first[src] -= 1
                first[mid] += 1
                second[mid] -= 1
                second[dst] += 1
                moved = True
                break
        if not moved:  # pragma: no cover - targets are always feasible
            raise RuntimeError("stratified split apportionment failed")


def split(
    records: list[ProductRecord], spec: SplitSpec
) -> tuple[list[ProductRecord], list[ProductRecord], list[ProductRecord]]:
    """Deterministic stratified split by label-path depth.

    Global and per-depth split sizes both land within 1 of the exact quotas.
    Output preserves input order within each part.
    """
    fractions = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    depths = sorted({len(r.label_path) for r in records})
    groups = {d: [i for i, r in enumerate(records) if len(r.label_path) == d] for d in depths}

    counts = [largest_remainder(len(groups[d]), fractions) for d in depths]
    bounds = [
        [
            (math.floor(len(groups[d]) * f), math.ceil(len(groups[d]) * f))
            for f in fractions
        ]
        for d in depths
    ]
    _align_column_totals(counts, bounds, largest_remainder(len(records), fractions))

    rng = stream_rng(spec.seed, "split")
    assigned: list[list[int]] = [[], [], []]
    for d, row in zip(depths, counts):
        perm = rng.permutation(len(groups[d]))
        shuffled = [groups[d][j] for j in perm]
        assigned[0].extend(shuffled[: row[0]])
        assigned[1].extend(shuffled[row[0] : row[0] + row[1]])
        assigned[2].extend(shuffled[row[0] + row[1] :])
    return tuple([records[i] for i in sorted(part)] for part in assigned)  # type: ignore[return-value]


def stratified_dev_sample(
    scored: list[ScoredRecord],
    threshold: float,
    high_conf_fraction: float,
    seed: int,
) -> list[ProductRecord]:
    """Confidence-stratified dev-set construction.

    Keeps every incorrect record, every correct record below the confidence
    threshold, and a seeded random fraction of the high-confidence correct
    stratum. Output preserves input order.
    """
    if not 0.0 < threshold < 1.0:
        raise DatasetError(f"threshold must be in (0,1): {threshold}")
    if not 0.0 < high_conf_fraction <= 1.0:
        raise DatasetError(f"fraction must be in (0,1]: {high_conf_fraction}")
    high_idx = [
        i for i, s in enumerate(scored) if s.correct and s.confidence >= threshold
    ]
    keep = {i for i, s in enumerate(scored) if not (s.correct and s.confidence >= threshold)}
    n_sample = int(len(high_idx) * high_conf_fraction + 0.5)
    rng = stream_rng(seed, "dev-sample")
    chosen = rng.choice(len(high_idx), size=n_sample, replace=False) if n_sample else []
    keep.update(high_idx[j] for j in chosen)
    return [scored[i].record for i in sorted(keep)]


def record_to_dict(record: ProductRecord) -> dict:
    doc = {
        "id": record.id,
        "title": record.title,
        "category_name": record.category_name,
        "bu_code": record.bu_code,
        "ou_code": record.ou_code,
        "system_code": record.system_code,
        "label_path": list(record.label_path),
        "source": record.source,
    }
    if record.cpvs is not None:
        doc["cpvs"] = [list(kv) for kv in record.cpvs]
    return doc


RECORD_KEYS = ("id", "title", "category_name", "bu_code", "ou_code", "system_code", "label_path", "source")
STRING_KEYS = ("title", "category_name", "bu_code", "ou_code", "system_code", "source")


_is_str = str.__instancecheck__  # isinstance(value, str) as a function `map` calls from C, no generator frame


def is_string_list(values) -> bool:
    """Whether a JSON value is a list of strings."""
    return isinstance(values, list) and all(map(_is_str, values))


def record_from_dict(doc: dict, same) -> ProductRecord:
    """The record a row holds; a ValueError names the first key whose value has the wrong type.

    The id is a string or an integer, read as its decimal digits. The values
    records repeat come from `same` (see `util.read_jsonl`): each distinct
    label path, (category, BU, OU, system, source) tuple and CPV pair is one object."""
    # Checked by hand, not by `config_value`: a per-value walk of 20k rows took 666 against 106 ms
    record_id = doc["id"]
    if not isinstance(record_id, str):
        if not isinstance(record_id, int) or isinstance(record_id, bool):
            raise ValueError(f"has an 'id' that is neither a string nor an integer: {record_id!r}")
        record_id = str(record_id)
    title = doc["title"]
    kinds = (doc["category_name"], doc["bu_code"], doc["ou_code"], doc["system_code"], doc["source"])
    if not (isinstance(title, str) and all(map(_is_str, kinds))):
        key = next(key for key in STRING_KEYS if not isinstance(doc[key], str))
        raise ValueError(f"has a non-string {key!r}: {doc[key]!r}")
    label_path, cpvs = doc["label_path"], doc.get("cpvs")
    if not is_string_list(label_path):
        raise ValueError(f"has a 'label_path' that is not a list of strings: {label_path!r}")
    if cpvs is not None and not (isinstance(cpvs, list) and all(is_string_list(p) and len(p) == 2 for p in cpvs)):
        raise ValueError(f"has a 'cpvs' that is not a list of string pairs: {cpvs!r}")
    category_name, bu_code, ou_code, system_code, source = same(kinds, kinds)
    label_path = tuple(label_path)
    if cpvs is not None:
        cpvs = tuple([same(pair, pair) for pair in map(tuple, cpvs)])
    return ProductRecord(record_id, title, category_name, bu_code, ou_code, system_code, same(label_path, label_path),
                         source, cpvs)


@gc_paused
def read_records(path: str | Path) -> list[ProductRecord]:
    """Records from JSON Lines; a row that is not an object, lacks one of
    `RECORD_KEYS` or holds a value of the wrong type raises ValueError naming
    the file, the line and the key."""
    return list(read_jsonl(path, required=RECORD_KEYS, convert=record_from_dict))


def write_records(path: str | Path, records: list[ProductRecord]) -> None:
    """The bytes `write_jsonl(path, map(record_to_dict, records))` writes, keys in its sorted order. Each distinct
    code, category name, source, label path and CPV tuple is encoded once (`util.JSONTexts`), the id and the title
    per row; a row with a non-string id or title, or a value no dict can key, is written from `record_to_dict`."""
    texts = JSONTexts()

    def line(r: ProductRecord) -> str:
        try:
            cpvs = "" if r.cpvs is None else f'"cpvs":{texts[tuple(map(tuple, r.cpvs))]},'
            return (f'{{"bu_code":{texts[r.bu_code]},"category_name":{texts[r.category_name]},{cpvs}'
                    f'"id":{encode_basestring(r.id)},"label_path":{texts[tuple(r.label_path)]},"ou_code":'
                    f'{texts[r.ou_code]},"source":{texts[r.source]},"system_code":{texts[r.system_code]},'
                    f'"title":{encode_basestring(r.title)}}}\n')
        except TypeError:
            return canonical_json(record_to_dict(r)) + "\n"
    lines = map(line, records)  # joined, encoded and written WRITE_LINES at a time, as by `write_jsonl`
    atomic_write_chunks(path, map(str.encode, iter(lambda: "".join(itertools.islice(lines, WRITE_LINES)), "")))


def write_rejections(path: str | Path, rejected: list[tuple[ProductRecord, str]]) -> None:
    write_jsonl(path, ({"id": rec.id, "reason": reason} for rec, reason in rejected))


def _slug(label: str) -> str:
    return "-".join(tokenize(label)) or "blank"


def load_wos(path: str | Path) -> tuple[Taxonomy, list[ProductRecord]]:
    """Adapt (text, level-1 label, level-2 label) TSV rows to a 2-level corpus."""
    rows: list[tuple[str, str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            rows.append((parts[0], parts[1], parts[2]))

    nodes: dict[str, dict] = {}
    for _, l1, l2 in rows:
        c1 = _slug(l1)
        c2 = f"{c1}/{_slug(l2)}"
        nodes.setdefault(c1, {"code": c1, "name": l1, "definition": l1, "level": 1})
        nodes.setdefault(
            c2, {"code": c2, "name": l2, "definition": f"{l1} {l2}", "parent": c1, "level": 2}
        )
    taxonomy = build_taxonomy(list(nodes.values()))
    records = [
        ProductRecord(
            id=f"wos{i:06d}",
            title=text,
            category_name=l1,
            bu_code="na",
            ou_code="na",
            system_code="na",
            label_path=(_slug(l1), f"{_slug(l1)}/{_slug(l2)}"),
            source="knowledge_base",
        )
        for i, (text, l1, l2) in enumerate(rows)
    ]
    return taxonomy, records
