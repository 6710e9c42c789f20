"""Record encoding: hashed-token text embeddings + structured-code features.

Titles and category names are embedded by hashing whitespace tokens into a
shared bucket table (FNV-1a 64-bit, fixed constants) and averaging the rows.
Structured codes contribute learned embeddings to the dense block and one-hot
blocks to a separate routing vector; the routing vector is what the MoE gates
read, so gate decisions depend only on structured metadata.

A batch is prepared once (`prepare_records`) and assembled per step or chunk
(`assemble_batch`); `encode_one` featurises one record served alone, to the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dataset import ProductRecord
from .util import fnv1a_64, tokenize

UNK = "<unk>"

DEFAULT_FIELDS = ("bu_code", "ou_code", "system_code")
# The record fields a config may one-hot: its categorical strings. The others are not categories: an `id`
# names one record, so its one-hot would only memorise the training set; a `title` is free text, embedded
# by its hashed tokens; `label_path` is the target, which the gates would then read; `cpvs` is a list of
# pairs, or None, not one value.
CATEGORICAL_FIELDS = ("category_name", "bu_code", "ou_code", "system_code", "source")


@dataclass(frozen=True)
class EncoderConfig:
    hash_buckets: int = 2048
    text_dim: int = 32
    cat_dim: int = 4
    fields: tuple[str, ...] = DEFAULT_FIELDS
    field_vocabs: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.hash_buckets < 1:
            raise ValueError(f"hash_buckets must be >= 1: {self.hash_buckets}")
        if self.text_dim < 1 or self.cat_dim < 1:
            raise ValueError("embedding dims must be >= 1")
        named = set(self.fields)
        if not self.fields or len(named) < len(self.fields) or not named <= set(CATEGORICAL_FIELDS):
            raise ValueError(f"fields must be distinct names out of {CATEGORICAL_FIELDS}, at least one: {self.fields}")
        if self.field_vocabs and set(self.field_vocabs) != named:
            raise ValueError(
                f"field_vocabs must be keyed by exactly the fields {self.fields}: {tuple(self.field_vocabs)}")
        for name, vocab in self.field_vocabs.items():
            if len(set(vocab)) < len(vocab):
                raise ValueError(f"field_vocabs[{name!r}] repeats an entry: {vocab}")

    def vocab(self, name: str) -> tuple[str, ...]:
        return self.field_vocabs.get(name, ())

    @cached_property  # kept in the instance's __dict__, which a frozen dataclass allows
    def value_indices(self) -> dict[str, dict[str, int]]:
        """Each field's value -> its index in `vocab(field)`, built once: `tuple.index` is linear in the vocabulary."""
        return {name: {value: i for i, value in enumerate(self.vocab(name))} for name in self.fields}

    def fitted(self, train_records: list[ProductRecord]) -> EncoderConfig:
        """This config as a model is built with: its field vocabularies if it gives any, else the training records'."""
        return self if self.field_vocabs else replace(self, field_vocabs=build_field_vocabs(train_records, self.fields))

    @property
    def dense_dim(self) -> int:
        return 2 * self.text_dim + len(self.fields) * self.cat_dim

    @property
    def routing_dim(self) -> int:
        return sum(len(self.vocab(f)) + 1 for f in self.fields)


def build_field_vocabs(records: list[ProductRecord], fields: tuple[str, ...]) -> dict:
    """Sorted distinct values per structured field, for one-hot layouts."""
    return {f: tuple(sorted({getattr(r, f) for r in records})) for f in fields}


def cpv_token(key: str, value: str) -> str:
    """A CPV pair as one title token: `key=value`, each side's tokens joined by `_`."""
    return "_".join(tokenize(key)) + "=" + "_".join(tokenize(value))


def field_index(config: EncoderConfig, name: str, value: str) -> int:
    """Index of `value` in the field's one-hot block; unseen values map to UNK."""
    indices = config.value_indices[name]
    return indices.get(value, len(indices))  # UNK slot


@dataclass(eq=False)  # holds arrays: compare by identity
class TokenLists:
    """One token list per record, stored flat (CSR): record i's tokens are
    `tokens[starts[i] : starts[i] + lengths[i]]`."""

    tokens: np.ndarray  # every record's bucket ids, back to back
    lengths: np.ndarray  # (N,) tokens per record

    def __post_init__(self):
        self.starts = np.cumsum(self.lengths) - self.lengths
        for array in (self.tokens, self.lengths, self.starts):
            array.setflags(write=False)


@dataclass(eq=False)  # holds arrays: compare by identity
class PreparedRecords:
    """Parameter-independent encoding state for N records."""

    title: TokenLists  # title buckets, CPV pairs folded in
    cat: TokenLists  # category-name buckets
    field_idx: np.ndarray  # (N, n_fields) vocab index per structured field

    def __post_init__(self):
        self.field_idx.setflags(write=False)

    def __len__(self) -> int:
        return self.field_idx.shape[0]


@dataclass
class EncodedBatch:
    """Dense + routing features for a batch, with the token and field indices
    the backward pass scatters gradients into the embedding tables by."""

    dense: np.ndarray  # (B, dense_dim)
    routing: np.ndarray  # (B, routing_dim)
    title_tok: np.ndarray  # flat bucket ids over the whole batch
    title_len: np.ndarray  # (B,) title tokens per row
    cat_tok: np.ndarray
    cat_len: np.ndarray  # (B,) category tokens per row
    field_idx: np.ndarray  # (B, n_fields) embedding-row per structured field


def prepare_records(records: list[ProductRecord], config: EncoderConfig) -> PreparedRecords:
    """Hash tokens and resolve vocab indices once; reused across training steps.

    Each token's bucket is `fnv1a_64(token) % hash_buckets`; a title's
    tokens are followed by its CPV pairs, each folded by `cpv_token`. Each
    distinct token, CPV pair and category name is hashed, and each distinct
    combination of field values resolved by `field_index`, only once. The
    memo is local to this call, so its memory ends with the call. The
    result's arrays are read-only.
    """
    hash_buckets = config.hash_buckets
    buckets: dict[str, int] = {}  # token (title, category or folded CPV) -> bucket
    cpv_buckets: dict[tuple[str, str], int] = {}
    cat_lists: dict[str, list[int]] = {}
    field_rows: dict[tuple[str, ...], tuple[int, ...]] = {}

    def bucket(token: str) -> int:
        b = buckets.get(token)
        if b is None:
            b = buckets[token] = fnv1a_64(token) % hash_buckets
        return b

    def cpv_bucket(pair: tuple[str, str]) -> int:
        b = cpv_buckets.get(pair)
        if b is None:
            b = cpv_buckets[pair] = bucket(cpv_token(*pair))
        return b

    title_tok: list[int] = []
    title_len: list[int] = []
    cat_tok: list[int] = []
    cat_len: list[int] = []
    field_idx: list[tuple[int, ...]] = []
    for rec in records:
        cat = cat_lists.get(rec.category_name)
        if cat is None:
            cat = cat_lists[rec.category_name] = [bucket(t) for t in tokenize(rec.category_name)]
        cat_tok += cat
        cat_len.append(len(cat))
        values = tuple(getattr(rec, name) for name in config.fields)
        row = field_rows.get(values)
        if row is None:
            row = field_rows[values] = tuple(field_index(config, name, v) for name, v in zip(config.fields, values))
        field_idx.append(row)
        start = len(title_tok)
        title_tok += [bucket(t) for t in tokenize(rec.title)]
        title_tok += [cpv_bucket(tuple(pair)) for pair in rec.cpvs or ()]
        title_len.append(len(title_tok) - start)
    return PreparedRecords(
        title=TokenLists(np.array(title_tok, dtype=np.int64), np.array(title_len, dtype=np.int64)),
        cat=TokenLists(np.array(cat_tok, dtype=np.int64), np.array(cat_len, dtype=np.int64)),
        field_idx=np.array(field_idx, dtype=np.int64).reshape(len(records), len(config.fields)),
    )


# Rows whose embeddings `_token_means` gathers at once: bounds its
# (rows, longest, dim) scratch however large the batch.
GATHER_ROWS = 256


def _token_means(table: np.ndarray, lists: TokenLists, rows: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the mean of the table rows of each listed record's tokens into
    `out` (zeros for a record without tokens); return the records' tokens,
    flat, and their lengths.

    The records' tokens form one (B, longest) padded matrix. Its embedding
    rows are gathered (GATHER_ROWS records at a time) and summed one
    position at a time, first position assigned and later ones added, which
    is exactly the order `table[tokens].mean(axis=0)` adds in
    (`np.add.reduceat` sums in another order and differs in the last bit).
    Pad slots hold exact zeros, and adding zero changes no sum.
    """
    lengths = lists.lengths[rows]
    longest = int(lengths.max()) if rows.size else 0
    if not longest:
        out[...] = 0.0
        return np.zeros(0, dtype=np.int64), lengths
    slots = np.arange(longest)
    real = slots < lengths[:, None]  # (B, longest)
    tokens = lists.tokens.take(lists.starts[rows][:, None] + slots, mode="clip")  # pads: zeroed below
    for lo in range(0, len(rows), GATHER_ROWS):
        block = slice(lo, lo + GATHER_ROWS)
        gathered = table.take(tokens[block], axis=0)  # (rows, longest, dim)
        gathered[~real[block]] = 0.0
        sums = out[block]
        sums[...] = gathered[:, 0]
        for j in range(1, longest):
            sums += gathered[:, j]
    out /= np.maximum(lengths, 1)[:, None]
    return tokens[real], lengths


def assemble_batch(
    prepared: PreparedRecords, tables: dict, config: EncoderConfig, rows: np.ndarray | None = None
) -> EncodedBatch:
    """Features of the prepared records `rows` (all of them by default), in that order."""
    if rows is None:
        rows = np.arange(len(prepared))
    n = len(rows)
    text_table = tables["text_table"]
    dt = config.text_dim
    dense = np.empty((n, config.dense_dim))
    routing = np.zeros((n, config.routing_dim))

    title_tok, title_len = _token_means(text_table, prepared.title, rows, dense[:, :dt])
    cat_tok, cat_len = _token_means(text_table, prepared.cat, rows, dense[:, dt : 2 * dt])

    field_idx = prepared.field_idx[rows]
    samples = np.arange(n, dtype=np.int64)
    dense_off, block_off = 2 * dt, 0
    for f_pos, name in enumerate(config.fields):
        idx = field_idx[:, f_pos]
        dense[:, dense_off : dense_off + config.cat_dim] = tables[f"field/{name}/table"][idx]
        routing[samples, block_off + idx] = 1.0
        dense_off += config.cat_dim
        block_off += len(config.vocab(name)) + 1

    return EncodedBatch(dense, routing, title_tok, title_len, cat_tok, cat_len, field_idx)


def encode_one(record: ProductRecord, tables: dict, config: EncoderConfig) -> EncodedBatch:
    """The features `assemble_batch(prepare_records([record], config), tables, config)`
    builds, byte for byte, without a batch's memo, CSR lists and padded gather.

    Each mean adds its table rows in `_token_means`'s order, the first row copied and later rows added,
    which `np.add.accumulate` keeps at any width (`np.add.reduce` sums a one-column gather pairwise)."""
    hash_buckets, dt = config.hash_buckets, config.text_dim
    title = tokenize(record.title) + [cpv_token(*pair) for pair in record.cpvs or ()]
    title_tok, cat_tok = (np.array([fnv1a_64(t) % hash_buckets for t in tokens], dtype=np.int64)
                          for tokens in (title, tokenize(record.category_name)))
    dense = np.zeros((1, config.dense_dim))  # a record without tokens keeps zero means
    routing = np.zeros((1, config.routing_dim))
    for lo, tokens in ((0, title_tok), (dt, cat_tok)):
        if tokens.size:
            np.divide(np.add.accumulate(tables["text_table"].take(tokens, axis=0))[-1], tokens.size, out=dense[0, lo : lo + dt])
    field_idx = [field_index(config, name, getattr(record, name)) for name in config.fields]
    dense_off, block_off = 2 * dt, 0
    for name, idx in zip(config.fields, field_idx):
        dense[0, dense_off : dense_off + config.cat_dim] = tables[f"field/{name}/table"][idx]
        routing[0, block_off + idx] = 1.0
        dense_off += config.cat_dim
        block_off += len(config.vocab(name)) + 1
    title_len, cat_len = (np.array([tokens.size], dtype=np.int64) for tokens in (title_tok, cat_tok))
    return EncodedBatch(dense, routing, title_tok, title_len, cat_tok, cat_len, np.array([field_idx], dtype=np.int64))
