"""Per-level feature-gating mixture-of-experts model and its checkpoint format.

One MoE block per taxonomy level: a gate reads the structured one-hot routing
vector and softmax-mixes E experts (affine -> tanh -> affine) applied to the
full dense feature; a per-level head maps the mixed hidden state to that
level's label space (codes + NULL). A semantic head classifies the mean of
the per-level hidden states into consistency classes.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncodedBatch, EncoderConfig, FeatureVector
from .taxonomy import NULL_CODE, Taxonomy

CHECKPOINT_MAGIC = b"TAXN"
JUDGE_MAGIC = b"TXNJ"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class MoEConfig:
    levels: int = 10
    experts_per_level: int = 2
    expert_hidden_dim: int = 32
    include_null_label: bool = True
    semantic_classes: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.levels < 1 or self.experts_per_level < 1 or self.expert_hidden_dim < 1:
            raise ValueError("levels, experts_per_level, expert_hidden_dim must be >= 1")
        if self.semantic_classes < 2:
            raise ValueError("semantic_classes must be >= 2")

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "experts_per_level": self.experts_per_level,
            "expert_hidden_dim": self.expert_hidden_dim,
            "include_null_label": self.include_null_label,
            "semantic_classes": self.semantic_classes,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "MoEConfig":
        return MoEConfig(**doc)


@dataclass(frozen=True, eq=False)  # ndarray field: compare by identity
class LevelDistribution:
    level: int
    probs: np.ndarray
    argmax_code: str
    confidence: float


@dataclass(eq=False)  # holds a parameter buffer: compare by identity
class MoEModel:
    """The model's parameters live in one contiguous float64 buffer, `flat`,
    laid out in manifest order (`_param_specs`); `params` names views into it.
    Update parameters in place (`flat[:] = ...`, `params[name][...] = ...`):
    rebinding `flat` would leave the views on the old buffer.
    """

    encoder_config: EncoderConfig
    moe_config: MoEConfig
    taxonomy_hash: str
    level_labels: tuple[tuple[str, ...], ...]  # label space per level, NULL last
    flat: np.ndarray | None = field(repr=False, default=None)  # None: all zeros

    def __post_init__(self):
        manifest = param_manifest(self.encoder_config, self.moe_config, self.level_labels)
        size = sum(math.prod(shape) for _, shape in manifest)
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(
                f"parameter buffer {self.flat.dtype}{self.flat.shape} does not match "
                f"the model's float64({size},)"
            )
        self._views = param_views(self.flat, manifest)

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Named views into `flat`, in manifest order."""
        return self._views


def level_spaces(taxonomy: Taxonomy, moe_config: MoEConfig) -> tuple[tuple[str, ...], ...]:
    """Per-level label spaces for a model over `taxonomy`.

    Levels beyond the taxonomy's depth get a NULL-only space, so a 10-level
    model over a shallower taxonomy stays well-defined.
    """
    if moe_config.levels < taxonomy.max_depth:
        raise ValueError(
            f"model levels ({moe_config.levels}) < taxonomy depth ({taxonomy.max_depth})"
        )
    spaces = []
    for level in range(1, moe_config.levels + 1):
        labels = taxonomy.per_level_labels.get(level, (NULL_CODE,))
        if not moe_config.include_null_label:
            labels = labels[:-1]
            if not labels:
                raise ValueError(f"level {level} has no labels and NULL is disabled")
        spaces.append(labels)
    return tuple(spaces)


def _param_specs(encoder_config: EncoderConfig, moe_config: MoEConfig, spaces) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) for every parameter, in canonical manifest order."""
    dd = encoder_config.dense_dim
    rd = encoder_config.routing_dim
    h = moe_config.expert_hidden_dim
    specs: list[tuple[str, tuple[int, ...], int]] = [
        ("text_table", (encoder_config.hash_buckets, encoder_config.text_dim), encoder_config.text_dim)
    ]
    for name in encoder_config.fields:
        rows = len(encoder_config.vocab(name)) + 1
        specs.append((f"field/{name}/table", (rows, encoder_config.cat_dim), encoder_config.cat_dim))
    for level in range(1, moe_config.levels + 1):
        k = len(spaces[level - 1])
        specs.append((f"level{level}/gate/W", (rd, moe_config.experts_per_level), rd))
        specs.append((f"level{level}/gate/b", (moe_config.experts_per_level,), rd))
        for e in range(moe_config.experts_per_level):
            specs.append((f"level{level}/expert{e}/W1", (dd, h), dd))
            specs.append((f"level{level}/expert{e}/b1", (h,), dd))
            specs.append((f"level{level}/expert{e}/W2", (h, h), h))
            specs.append((f"level{level}/expert{e}/b2", (h,), h))
        specs.append((f"level{level}/head/W", (h, k), h))
        specs.append((f"level{level}/head/b", (k,), h))
    specs.append(("semantic/W", (h, moe_config.semantic_classes), h))
    specs.append(("semantic/b", (moe_config.semantic_classes,), h))
    return specs


def param_manifest(
    encoder_config: EncoderConfig, moe_config: MoEConfig, spaces
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in canonical manifest order."""
    return [(name, shape) for name, shape, _ in _param_specs(encoder_config, moe_config, spaces)]


def param_views(flat: np.ndarray, manifest) -> dict[str, np.ndarray]:
    """Views into `flat` for (name, shape) pairs laid out back to back."""
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in manifest:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def init_model(
    taxonomy: Taxonomy,
    encoder_config: EncoderConfig,
    moe_config: MoEConfig,
    seed: int,
) -> MoEModel:
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) parameters."""
    from .util import stream_rng

    spaces = level_spaces(taxonomy, moe_config)
    rng = stream_rng(seed, "init")
    model = MoEModel(
        encoder_config=encoder_config,
        moe_config=moe_config,
        taxonomy_hash=taxonomy.fingerprint(),
        level_labels=spaces,
    )
    for name, shape, fan_in in _param_specs(encoder_config, moe_config, spaces):
        scale = 1.0 / np.sqrt(fan_in)
        model.params[name][...] = rng.uniform(-scale, scale, size=shape)
    return model


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def gate_forward(model: MoEModel, routing: np.ndarray, level: int) -> np.ndarray:
    """Expert mixing weights for one routing vector at one level (1-based)."""
    w = model.params[f"level{level}/gate/W"]
    b = model.params[f"level{level}/gate/b"]
    return softmax(routing @ w + b)


@dataclass
class ForwardCache:
    """Batched activations retained for the backward pass."""

    batch: EncodedBatch
    gates: list[np.ndarray]  # per level: (B, E)
    tanh_out: list[list[np.ndarray]]  # per level, per expert: (B, H)
    expert_out: list[list[np.ndarray]]  # per level, per expert: (B, H)
    hidden: list[np.ndarray]  # per level: (B, H)
    probs: list[np.ndarray]  # per level: (B, K_level)
    pool: np.ndarray  # (B, H)
    semantic_probs: np.ndarray  # (B, semantic_classes)


def forward_batch(model: MoEModel, batch: EncodedBatch, for_backward: bool = True) -> ForwardCache:
    """Forward pass over a batch. With `for_backward=False` each expert's
    activations are dropped once mixed (`tanh_out`/`expert_out` stay empty),
    which is all prediction needs and keeps a large batch's memory down."""
    cfg = model.moe_config
    x, r = batch.dense, batch.routing
    gates, tanh_out, expert_out, hidden, probs = [], [], [], [], []
    for level in range(1, cfg.levels + 1):
        g = softmax(r @ model.params[f"level{level}/gate/W"] + model.params[f"level{level}/gate/b"])
        t_list, h_list = [], []
        u = np.zeros((x.shape[0], cfg.expert_hidden_dim))
        for e in range(cfg.experts_per_level):
            t = np.tanh(x @ model.params[f"level{level}/expert{e}/W1"] + model.params[f"level{level}/expert{e}/b1"])
            h = t @ model.params[f"level{level}/expert{e}/W2"] + model.params[f"level{level}/expert{e}/b2"]
            if for_backward:
                t_list.append(t)
                h_list.append(h)
            u += g[:, e : e + 1] * h
        p = softmax(u @ model.params[f"level{level}/head/W"] + model.params[f"level{level}/head/b"])
        gates.append(g)
        tanh_out.append(t_list)
        expert_out.append(h_list)
        hidden.append(u)
        probs.append(p)
    pool = np.mean(hidden, axis=0)
    semantic_probs = softmax(pool @ model.params["semantic/W"] + model.params["semantic/b"])
    return ForwardCache(
        batch=batch,
        gates=gates,
        tanh_out=tanh_out,
        expert_out=expert_out,
        hidden=hidden,
        probs=probs,
        pool=pool,
        semantic_probs=semantic_probs,
    )


def distributions_from_probs(model: MoEModel, probs: list[np.ndarray]) -> list[list[LevelDistribution]]:
    """Per-row level distributions from per-level (N, K) probability arrays.

    One argmax per level over the whole batch; ties break toward the
    smallest label index. Each distribution's `probs` is a view of its row.
    """
    n = probs[0].shape[0] if probs else 0
    rows = np.arange(n)
    levels = []
    for level, (p, labels) in enumerate(zip(probs, model.level_labels), start=1):
        idx = p.argmax(axis=1)
        levels.append((level, p, [labels[i] for i in idx.tolist()], p[rows, idx].tolist()))
    return [  # positional fields: a frozen dataclass builds faster that way
        [LevelDistribution(level, p[i], codes[i], confidence[i]) for level, p, codes, confidence in levels]
        for i in range(n)
    ]


def forward(model: MoEModel, fv: FeatureVector) -> tuple[list[LevelDistribution], np.ndarray]:
    """Single-sample forward pass: per-level distributions + semantic probs."""
    batch = _single_feature_batch(model, fv)
    cache = forward_batch(model, batch)
    (dists,) = distributions_from_probs(model, cache.probs)
    return dists, cache.semantic_probs[0]


def _single_feature_batch(model: MoEModel, fv: FeatureVector) -> EncodedBatch:
    cfg = model.encoder_config
    if fv.dense.shape != (cfg.dense_dim,) or fv.routing.shape != (cfg.routing_dim,):
        raise ValueError(
            f"feature dims {fv.dense.shape}/{fv.routing.shape} do not match "
            f"model dims ({cfg.dense_dim},)/({cfg.routing_dim},)"
        )
    empty = np.array([], dtype=np.int64)
    return EncodedBatch(
        dense=fv.dense[None, :],
        routing=fv.routing[None, :],
        title_tok=empty,
        title_sample=empty,
        title_weight=np.array([]),
        cat_tok=empty,
        cat_sample=empty,
        cat_weight=np.array([]),
        field_idx=np.zeros((1, len(cfg.fields)), dtype=np.int64),
    )


# --- checkpoint container (shared by model and judge checkpoints) ---


def write_container(magic: bytes, meta: dict, params: dict[str, np.ndarray]) -> bytes:
    payload = b"".join(np.ascontiguousarray(v, dtype="<f8").tobytes() for v in params.values())
    header = {
        "meta": meta,
        "manifest": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return (
        magic
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + payload
    )


def read_container(blob: bytes, magic: bytes) -> tuple[dict, list[tuple[str, tuple[int, ...]]], np.ndarray]:
    """(meta, manifest of (name, shape), flat float64 payload) of a verified container."""
    if len(blob) < 16 or blob[:4] != magic:
        raise CheckpointError(f"bad magic: expected {magic!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version mismatch: {version} != {CHECKPOINT_VERSION}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise CheckpointError("truncated checkpoint: header incomplete")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    payload = memoryview(blob)[16 + header_len :]
    expected = sum(int(np.prod(item["shape"])) for item in header["manifest"]) * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"truncated checkpoint: payload has {len(payload)} bytes, expected {expected}"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("truncated or corrupt checkpoint: payload checksum mismatch")
    manifest = [(item["name"], tuple(item["shape"])) for item in header["manifest"]]
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)  # the one copy
    return header["meta"], manifest, flat


def save_checkpoint(model: MoEModel, sink) -> None:
    """Serialize to a binary sink (file-like or path)."""
    meta = {
        "encoder_config": model.encoder_config.to_dict(),
        "moe_config": model.moe_config.to_dict(),
        "taxonomy_hash": model.taxonomy_hash,
        "level_labels": [list(labels) for labels in model.level_labels],
    }
    blob = write_container(CHECKPOINT_MAGIC, meta, model.params)
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        from .util import atomic_write_bytes

        atomic_write_bytes(sink, blob)


def load_checkpoint(source, taxonomy: Taxonomy | None = None) -> MoEModel:
    """Load a model checkpoint; verifies the taxonomy hash when one is given."""
    if hasattr(source, "read"):
        blob = source.read()
    else:
        with open(source, "rb") as fh:
            blob = fh.read()
    meta, manifest, flat = read_container(blob, CHECKPOINT_MAGIC)
    encoder_config = EncoderConfig.from_dict(meta["encoder_config"])
    moe_config = MoEConfig.from_dict(meta["moe_config"])
    level_labels = tuple(tuple(labels) for labels in meta["level_labels"])
    if manifest != param_manifest(encoder_config, moe_config, level_labels):
        raise CheckpointError("parameter manifest does not match the checkpoint's model configuration")
    model = MoEModel(
        encoder_config=encoder_config,
        moe_config=moe_config,
        taxonomy_hash=meta["taxonomy_hash"],
        level_labels=level_labels,
        flat=flat,
    )
    if taxonomy is not None and taxonomy.fingerprint() != model.taxonomy_hash:
        raise CheckpointError(
            f"taxonomy hash mismatch: checkpoint {model.taxonomy_hash[:12]}..., "
            f"supplied {taxonomy.fingerprint()[:12]}..."
        )
    return model
