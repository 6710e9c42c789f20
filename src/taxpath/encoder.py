"""Record encoding: hashed-token text embeddings + structured-code features.

Titles and category names are embedded by hashing whitespace tokens into a
shared bucket table (FNV-1a 64-bit, fixed constants) and averaging the rows.
Structured codes contribute learned embeddings to the dense block and one-hot
blocks to a separate routing vector; the routing vector is what the MoE gates
read, so gate decisions depend only on structured metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ProductRecord, normalize_title
from .util import fnv1a_64

UNK = "<unk>"

DEFAULT_FIELDS = ("bu_code", "ou_code", "system_code")


@dataclass(frozen=True)
class EncoderConfig:
    hash_buckets: int = 2048
    text_dim: int = 32
    cat_dim: int = 4
    fields: tuple[str, ...] = DEFAULT_FIELDS
    field_vocabs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.hash_buckets < 1:
            raise ValueError(f"hash_buckets must be >= 1: {self.hash_buckets}")
        if self.text_dim < 1 or self.cat_dim < 1:
            raise ValueError("embedding dims must be >= 1")

    def vocab(self, name: str) -> tuple[str, ...]:
        return self.field_vocabs.get(name, ())

    @property
    def dense_dim(self) -> int:
        return 2 * self.text_dim + len(self.fields) * self.cat_dim

    @property
    def routing_dim(self) -> int:
        return sum(len(self.vocab(f)) + 1 for f in self.fields)

    def to_dict(self) -> dict:
        return {
            "hash_buckets": self.hash_buckets,
            "text_dim": self.text_dim,
            "cat_dim": self.cat_dim,
            "fields": list(self.fields),
            "field_vocabs": {k: list(v) for k, v in self.field_vocabs.items()},
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "EncoderConfig":
        return EncoderConfig(
            hash_buckets=doc["hash_buckets"],
            text_dim=doc["text_dim"],
            cat_dim=doc["cat_dim"],
            fields=tuple(doc["fields"]),
            field_vocabs={k: tuple(v) for k, v in doc["field_vocabs"].items()},
            seed=doc["seed"],
        )


@dataclass(frozen=True)
class FeatureVector:
    dense: np.ndarray
    routing: np.ndarray


def build_field_vocabs(records: list[ProductRecord], fields: tuple[str, ...]) -> dict:
    """Sorted distinct values per structured field, for one-hot layouts."""
    return {f: tuple(sorted({getattr(r, f) for r in records})) for f in fields}


def token_buckets(text: str, hash_buckets: int) -> np.ndarray:
    tokens = normalize_title(text).split()
    return np.array([fnv1a_64(tok) % hash_buckets for tok in tokens], dtype=np.int64)


def title_buckets(record: ProductRecord, hash_buckets: int) -> np.ndarray:
    """Title token buckets, with CPV pairs folded in as key=value tokens."""
    buckets = list(token_buckets(record.title, hash_buckets))
    for key, value in record.cpvs or ():
        token = f"{normalize_title(key)}={normalize_title(value)}".replace(" ", "_")
        buckets.append(fnv1a_64(token) % hash_buckets)
    return np.array(buckets, dtype=np.int64)


def encode_text(text: str, embedding_table: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Mean of the hashed tokens' embedding rows; zeros for empty text."""
    buckets = token_buckets(text, config.hash_buckets)
    if buckets.size == 0:
        return np.zeros(embedding_table.shape[1])
    return embedding_table[buckets].mean(axis=0)


def field_index(config: EncoderConfig, name: str, value: str) -> int:
    """Index of `value` in the field's one-hot block; unseen values map to UNK."""
    vocab = config.vocab(name)
    try:
        return vocab.index(value)
    except ValueError:
        return len(vocab)  # UNK slot


@dataclass(frozen=True)
class PreparedRecord:
    """Parameter-independent encoding state for one record."""

    title_tok: np.ndarray
    cat_tok: np.ndarray
    field_idx: np.ndarray  # (n_fields,)


@dataclass
class EncodedBatch:
    """Dense + routing features for a batch, with the index bookkeeping the
    backward pass needs to scatter gradients into the embedding tables."""

    dense: np.ndarray  # (B, dense_dim)
    routing: np.ndarray  # (B, routing_dim)
    title_tok: np.ndarray  # flat bucket ids over the whole batch
    title_sample: np.ndarray  # sample index per title token
    title_weight: np.ndarray  # 1/token-count of the owning sample
    cat_tok: np.ndarray
    cat_sample: np.ndarray
    cat_weight: np.ndarray
    field_idx: np.ndarray  # (B, n_fields) embedding-row per structured field


def _read_only(values: list[int]) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)  # `flags.writeable = False` costs about 1 µs more per array
    return array


def prepare_records(records: list[ProductRecord], config: EncoderConfig) -> list[PreparedRecord]:
    """Hash tokens and resolve vocab indices once; reused across training steps.

    Gives the same buckets and indices as `title_buckets`, `token_buckets`
    and `field_index` per record, but hashes each distinct token, CPV pair
    and category name, and resolves each distinct combination of field
    values, only once. The memo is local to this call, so its memory ends
    with the call. Records with the same category name share one read-only
    `cat_tok` array, and records with the same field values one `field_idx`.
    """
    hash_buckets = config.hash_buckets
    buckets: dict[str, int] = {}  # token (title, category or folded CPV) -> bucket
    cpv_buckets: dict[tuple[str, str], int] = {}
    cat_arrays: dict[str, np.ndarray] = {}
    field_arrays: dict[tuple[str, ...], np.ndarray] = {}

    def bucket(token: str) -> int:
        b = buckets.get(token)
        if b is None:
            b = buckets[token] = fnv1a_64(token) % hash_buckets
        return b

    def cpv_bucket(pair: tuple[str, str]) -> int:
        b = cpv_buckets.get(pair)
        if b is None:
            key, value = pair
            b = cpv_buckets[pair] = bucket(f"{normalize_title(key)}={normalize_title(value)}".replace(" ", "_"))
        return b

    prepared = []
    for rec in records:
        cat_tok = cat_arrays.get(rec.category_name)
        if cat_tok is None:
            tokens = normalize_title(rec.category_name).split()
            cat_tok = cat_arrays[rec.category_name] = _read_only([bucket(t) for t in tokens])
        values = tuple(getattr(rec, name) for name in config.fields)
        field_idx = field_arrays.get(values)
        if field_idx is None:
            indices = [field_index(config, name, v) for name, v in zip(config.fields, values)]
            field_idx = field_arrays[values] = _read_only(indices)
        title = [bucket(t) for t in normalize_title(rec.title).split()]
        title += [cpv_bucket(tuple(pair)) for pair in rec.cpvs or ()]
        prepared.append(
            PreparedRecord(title_tok=np.array(title, dtype=np.int64), cat_tok=cat_tok, field_idx=field_idx)
        )
    return prepared


def _flatten_tokens(token_lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated token ids and the token count of each sample."""
    lengths = np.array([t.size for t in token_lists], dtype=np.int64)
    flat = np.concatenate(token_lists) if token_lists else np.zeros(0, dtype=np.int64)
    return flat, lengths


def _token_means(table: np.ndarray, flat: np.ndarray, lengths: np.ndarray, out: np.ndarray) -> None:
    """Write each sample's mean of the table rows of its tokens into `out`;
    rows of samples without tokens are left untouched.

    Summed one token position at a time, first position assigned and later
    ones added, which is exactly the order `table[tokens].mean(axis=0)` adds
    in (`np.add.reduceat` sums in another order and differs in the last bit).
    Samples go longest first, so those with more than j tokens form a prefix
    and each step works on slices of two preallocated buffers.
    """
    order = np.argsort(-lengths, kind="stable")
    counts = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    with_tokens = int(np.count_nonzero(counts))
    sums = np.empty((with_tokens, table.shape[1]))
    rows = np.empty_like(sums)
    for j in range(int(counts[0]) if with_tokens else 0):
        k = int(np.count_nonzero(counts > j))
        np.take(table, flat[starts[:k] + j], axis=0, out=rows[:k])
        if j == 0:
            sums[:k] = rows[:k]
        else:
            sums[:k] += rows[:k]
    sums /= counts[:with_tokens, None]
    out[order[:with_tokens]] = sums


def assemble_batch(prepared: list[PreparedRecord], tables: dict, config: EncoderConfig) -> EncodedBatch:
    n = len(prepared)
    text_table = tables["text_table"]
    dt = config.text_dim
    dense = np.zeros((n, config.dense_dim))
    routing = np.zeros((n, config.routing_dim))

    title_tok, title_len = _flatten_tokens([p.title_tok for p in prepared])
    cat_tok, cat_len = _flatten_tokens([p.cat_tok for p in prepared])
    _token_means(text_table, title_tok, title_len, dense[:, :dt])
    _token_means(text_table, cat_tok, cat_len, dense[:, dt : 2 * dt])

    field_idx = np.zeros((n, len(config.fields)), dtype=np.int64)
    if n:
        field_idx[:] = np.stack([p.field_idx for p in prepared])
    samples = np.arange(n, dtype=np.int64)
    dense_off, block_off = 2 * dt, 0
    for f_pos, name in enumerate(config.fields):
        idx = field_idx[:, f_pos]
        dense[:, dense_off : dense_off + config.cat_dim] = tables[f"field/{name}/table"][idx]
        routing[samples, block_off + idx] = 1.0
        dense_off += config.cat_dim
        block_off += len(config.vocab(name)) + 1

    return EncodedBatch(
        dense=dense,
        routing=routing,
        title_tok=title_tok,
        title_sample=np.repeat(samples, title_len),
        title_weight=np.repeat(1.0 / np.maximum(title_len, 1), title_len),
        cat_tok=cat_tok,
        cat_sample=np.repeat(samples, cat_len),
        cat_weight=np.repeat(1.0 / np.maximum(cat_len, 1), cat_len),
        field_idx=field_idx,
    )


def encode_batch(records: list[ProductRecord], tables: dict, config: EncoderConfig) -> EncodedBatch:
    return assemble_batch(prepare_records(records, config), tables, config)


def encode(record: ProductRecord, tables: dict, config: EncoderConfig) -> FeatureVector:
    """Encode one record into its dense + routing feature vector."""
    batch = encode_batch([record], tables, config)
    return FeatureVector(dense=batch.dense[0], routing=batch.routing[0])
