"""Per-record encoding references for the tests: each record hashed and
encoded on its own, as `encoder.prepare_records` must match."""
import numpy as np

from taxpath.encoder import EncodedBatch, EncoderConfig, assemble_batch, cpv_token, prepare_records
from taxpath.util import fnv1a_64, tokenize


def token_buckets(text: str, hash_buckets: int) -> np.ndarray:
    return np.array([fnv1a_64(tok) % hash_buckets for tok in tokenize(text)], dtype=np.int64)


def title_buckets(record, hash_buckets: int) -> np.ndarray:
    """Title token buckets, with CPV pairs folded in as key=value tokens."""
    buckets = list(token_buckets(record.title, hash_buckets))
    for key, value in record.cpvs or ():
        buckets.append(fnv1a_64(cpv_token(key, value)) % hash_buckets)
    return np.array(buckets, dtype=np.int64)


def encode_batch(records, tables: dict, config: EncoderConfig) -> EncodedBatch:
    """Features of `records` for a training step, prepared and assembled in one call."""
    return assemble_batch(prepare_records(records, config), tables, config)
