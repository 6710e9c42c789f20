"""Per-level feature-gating mixture-of-experts model and its checkpoint format.

One MoE block per taxonomy level: a gate reads the structured one-hot routing
vector and softmax-mixes E experts (affine -> tanh -> affine) applied to the
full dense feature; a per-level head maps the mixed hidden state to that
level's label space (codes + NULL; `LabelTables` numbers every level's labels
for training and prediction alike). A semantic head classifies the mean of
the per-level hidden states into consistency classes.

Parameters live in one flat buffer laid out kind by kind (the manifest
order): the text table, the field tables, every level's gate weights, every
gate bias, then every expert's W1, b1, W2 and b2 (level-major,
expert-minor), the heads and the semantic head. Each kind is therefore one
contiguous block, and `StackedViews` reshapes the blocks without copying:
gates as (L, routing_dim, E) and (L, E), experts as (L*E, dense_dim, H),
(L*E, H), (L*E, H, H) and (L*E, H), with row l*E + e holding level l+1's
expert e. The forward and backward passes run each kind as one batched
matmul over its stack (the multi-gate MoE formulation); only the heads,
whose label spaces differ per level, keep a loop. A forward-only pass runs
the expert stacks a slab of levels at a time (`SLAB_BYTES`).
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, TypedDict

import numpy as np

from .encoder import EncodedBatch, EncoderConfig
from .taxonomy import NULL_CODE, Taxonomy, leaf_chain
from .util import ConfigError, atomic_write_bytes, config_from_dict, config_value, naming, read_json, stream_rng

CHECKPOINT_MAGIC = b"TAXN"
JUDGE_MAGIC = b"TXNJ"
CHECKPOINT_VERSION = 4
# Width of the semantic head: one class per consistency verdict, Y, N and U (`semantic.VERDICTS`)
SEMANTIC_CLASSES = 3


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class MoEConfig:
    levels: int = 10
    experts_per_level: int = 2
    expert_hidden_dim: int = 32

    def __post_init__(self):
        if self.levels < 1 or self.experts_per_level < 1 or self.expert_hidden_dim < 1:
            raise ValueError("levels, experts_per_level, expert_hidden_dim must be >= 1")


@dataclass(frozen=True, eq=False)  # holds arrays: compare by identity
class LabelTables:
    """A model's label spaces concatenated level by level: a label is one code at one level. Each level
    holds its codes sorted, NULL last; a level beyond the taxonomy's depth holds NULL only."""

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


def label_tables(taxonomy: Taxonomy, levels: int) -> LabelTables:
    """The label tables of a `levels`-level model over `taxonomy`; a model shallower than it is refused."""
    if levels < taxonomy.max_depth:
        raise ValueError(f"moe.levels ({levels}) < taxonomy depth ({taxonomy.max_depth})")
    spaces = [taxonomy.per_level_labels.get(level, (NULL_CODE,)) for level in range(1, levels + 1)]
    codes = [code for labels in spaces for code in labels]
    sizes = np.array([len(labels) for labels in spaces])
    label = {code: g for g, code in enumerate(codes) if code != NULL_CODE}
    chains = tuple(leaf_chain(taxonomy, code) for code in codes)
    width = np.arange(sizes.max())
    return LabelTables(
        fingerprint=taxonomy.fingerprint(),
        codes=np.array(codes, dtype=object),
        label=label,
        is_leaf=np.array([links is not None for links in chains]),
        is_null=np.array([code == NULL_CODE for code in codes]),
        parent=np.array([label.get(getattr(taxonomy.nodes.get(code), "parent", None), -1) for code in codes]),
        chains=chains,
        roots=sum(code != NULL_CODE for code in spaces[0]),
        sizes=tuple(sizes.tolist()),
        gather=(np.cumsum(sizes) - sizes)[:, None] + np.where(width < sizes[:, None], width, 0),
        next_column=np.roll(np.arange(len(sizes)), -1),
    )


@dataclass(frozen=True, eq=False)  # holds views: compare by identity
class StackedViews:
    """Copy-free views of one buffer laid out like `MoEModel.flat`, each kind
    of parameter as one array (see the module docstring for the layout)."""

    text_table: np.ndarray  # (hash_buckets, text_dim)
    field_tables: tuple[np.ndarray, ...]  # per structured field: (vocab + 1, cat_dim)
    gate_W: np.ndarray  # (L, routing_dim, E)
    gate_b: np.ndarray  # (L, E)
    W1: np.ndarray  # (L*E, dense_dim, H)
    b1: np.ndarray  # (L*E, H)
    W2: np.ndarray  # (L*E, H, H)
    b2: np.ndarray  # (L*E, H)
    head_W: tuple[np.ndarray, ...]  # per level: (H, K_level)
    head_b: tuple[np.ndarray, ...]  # per level: (K_level,)
    semantic_W: np.ndarray  # (H, SEMANTIC_CLASSES)
    semantic_b: np.ndarray  # (SEMANTIC_CLASSES,)


@dataclass(eq=False)  # holds a parameter buffer: compare by identity
class MoEModel:
    """The model's parameters live in one contiguous float64 buffer, `flat`,
    laid out in manifest order (`param_manifest`); `params` names views into
    it and `stacks` groups them by kind. Update parameters in place
    (`flat[:] = ...`, `params[name][...] = ...`): rebinding `flat` would
    leave the views on the old buffer.
    """

    encoder_config: EncoderConfig
    moe_config: MoEConfig
    tables: LabelTables  # of its taxonomy; a head's width is its level's size
    flat: np.ndarray | None = field(repr=False, default=None)  # None: all zeros

    def __post_init__(self):
        self._manifest = param_manifest(self.encoder_config, self.moe_config, self.tables.sizes)
        size = sum(math.prod(shape) for _, shape in self._manifest)
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(
                f"parameter buffer {self.flat.dtype}{self.flat.shape} does not match "
                f"the model's float64({size},)"
            )
        self._views = param_views(self.flat, self._manifest)
        self._stacks = self._stack(self.flat, self._views)
        self._other: tuple | None = None  # (buffer, named views, stacks) of the last other buffer

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Named views into `flat`, in manifest order."""
        return self._views

    @property
    def stacks(self) -> StackedViews:
        """`flat` grouped by kind."""
        return self._stacks

    def buffer_views(self, buffer: np.ndarray) -> tuple[dict[str, np.ndarray], StackedViews]:
        """Named and stacked views of a buffer laid out like `flat`, such as a
        gradient buffer. The views of the last buffer asked for are kept, so
        a loop that reuses one buffer builds them once."""
        if self._other is None or self._other[0] is not buffer:
            if buffer.dtype != np.float64 or buffer.shape != self.flat.shape:
                raise ValueError(
                    f"buffer {buffer.dtype}{buffer.shape} is not laid out like the parameters "
                    f"(float64{self.flat.shape})"
                )
            named = param_views(buffer, self._manifest)
            self._other = (buffer, named, self._stack(buffer, named))
        return self._other[1], self._other[2]

    def _stack(self, buffer: np.ndarray, named: dict[str, np.ndarray]) -> StackedViews:
        enc, cfg = self.encoder_config, self.moe_config
        levels, experts, h = cfg.levels, cfg.experts_per_level, cfg.expert_hidden_dim
        offset, starts = 0, {}
        for name, shape in self._manifest:
            starts[name] = offset
            offset += math.prod(shape)

        def block(first: str, shape: tuple[int, ...]) -> np.ndarray:
            return buffer[starts[first] : starts[first] + math.prod(shape)].reshape(shape)

        stacked = levels * experts
        return StackedViews(
            text_table=named["text_table"],
            field_tables=tuple(named[f"field/{name}/table"] for name in enc.fields),
            gate_W=block("level1/gate/W", (levels, enc.routing_dim, experts)),
            gate_b=block("level1/gate/b", (levels, experts)),
            W1=block("level1/expert0/W1", (stacked, enc.dense_dim, h)),
            b1=block("level1/expert0/b1", (stacked, h)),
            W2=block("level1/expert0/W2", (stacked, h, h)),
            b2=block("level1/expert0/b2", (stacked, h)),
            head_W=tuple(named[f"level{level}/head/W"] for level in range(1, levels + 1)),
            head_b=tuple(named[f"level{level}/head/b"] for level in range(1, levels + 1)),
            semantic_W=named["semantic/W"],
            semantic_b=named["semantic/b"],
        )


def _param_specs(
    encoder_config: EncoderConfig, moe_config: MoEConfig, sizes: tuple[int, ...]
) -> list[tuple[str, tuple[int, ...], int, int]]:
    """(name, shape, fan_in, kind) for every parameter, in initialisation
    order (level by level, expert by expert); `kind` ranks its manifest group."""
    dd = encoder_config.dense_dim
    rd = encoder_config.routing_dim
    h = moe_config.expert_hidden_dim
    specs: list[tuple[str, tuple[int, ...], int, int]] = [
        ("text_table", (encoder_config.hash_buckets, encoder_config.text_dim), encoder_config.text_dim, 0)
    ]
    for name in encoder_config.fields:
        rows = len(encoder_config.vocab(name)) + 1
        specs.append((f"field/{name}/table", (rows, encoder_config.cat_dim), encoder_config.cat_dim, 1))
    for level in range(1, moe_config.levels + 1):
        k = sizes[level - 1]
        specs.append((f"level{level}/gate/W", (rd, moe_config.experts_per_level), rd, 2))
        specs.append((f"level{level}/gate/b", (moe_config.experts_per_level,), rd, 3))
        for e in range(moe_config.experts_per_level):
            specs.append((f"level{level}/expert{e}/W1", (dd, h), dd, 4))
            specs.append((f"level{level}/expert{e}/b1", (h,), dd, 5))
            specs.append((f"level{level}/expert{e}/W2", (h, h), h, 6))
            specs.append((f"level{level}/expert{e}/b2", (h,), h, 7))
        specs.append((f"level{level}/head/W", (h, k), h, 8))
        specs.append((f"level{level}/head/b", (k,), h, 8))
    specs.append(("semantic/W", (h, SEMANTIC_CLASSES), h, 9))
    specs.append(("semantic/b", (SEMANTIC_CLASSES,), h, 9))
    return specs


def param_manifest(
    encoder_config: EncoderConfig, moe_config: MoEConfig, sizes: tuple[int, ...]
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, with `sizes` labels per level, in manifest order: grouped
    by kind, level-major and expert-minor within a kind (a stable sort keeps that)."""
    specs = sorted(_param_specs(encoder_config, moe_config, sizes), key=lambda spec: spec[3])
    return [(name, shape) for name, shape, _, _ in specs]


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
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) parameters,
    drawn level by level and expert by expert whatever the buffer layout."""
    tables = label_tables(taxonomy, moe_config.levels)
    rng = stream_rng(seed, "init")
    model = MoEModel(encoder_config, moe_config, tables)
    for name, shape, fan_in, _ in _param_specs(encoder_config, moe_config, tables.sizes):
        scale = 1.0 / np.sqrt(fan_in)
        model.params[name][...] = rng.uniform(-scale, scale, size=shape)
    return model


def softmax(logits: np.ndarray) -> np.ndarray:  # over the last axis, in one array, by the ufuncs ndarray.max/sum wrap
    out = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True))
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


@dataclass
class ForwardCache:
    """Batched activations retained for the backward pass."""

    gates: np.ndarray  # (L, B, E)
    tanh_out: np.ndarray | None  # (L*E, B, H); None from the forward-only pass
    expert_out: np.ndarray | None  # (L*E, B, H); None from the forward-only pass
    hidden: np.ndarray | None  # (L, B, H); None from the forward-only pass
    probs: list[np.ndarray]  # per level: (B, K_level)
    pool: np.ndarray | None  # (B, H); None from the forward-only pass
    semantic_probs: np.ndarray | None  # (B, SEMANTIC_CLASSES); None from the forward-only pass


# Most float64 bytes of (E, B, H) expert activations a forward-only pass holds per
# slab of levels (one level may hold more); a slab's matmuls slice the stacked ones.
SLAB_BYTES = 1 << 20


def forward_batch(model: MoEModel, batch: EncodedBatch, for_backward: bool = True) -> ForwardCache:
    """Forward pass over a batch.

    With `for_backward=False` only the gates and the per-level probabilities,
    which prediction reads, are kept: the backward activations and the
    semantic head are None, and the experts run a slab of levels at a time
    (SLAB_BYTES of activations, or one level if that holds more).
    """
    cfg = model.moe_config
    levels, experts, h = cfg.levels, cfg.experts_per_level, cfg.expert_hidden_dim
    s = model.stacks
    n = batch.dense.shape[0]
    # (L, B, E): one (B, E) GEMM per level. A single (routing_dim, L*E) GEMM
    # would pick another kernel and differ in the last bits.
    logits = np.matmul(batch.routing, s.gate_W)
    logits += s.gate_b[:, None, :]
    gates = softmax(logits)
    slab = levels if for_backward else max(1, SLAB_BYTES // (8 * experts * max(n, 1) * h))
    probs = []
    for lo in range(0, levels, slab):
        hi = min(lo + slab, levels)
        stack = slice(lo * experts, hi * experts)
        tanh_out = np.matmul(batch.dense, s.W1[stack])  # (slab*E, B, H)
        tanh_out += s.b1[stack, None, :]
        np.tanh(tanh_out, out=tanh_out)
        expert_out = np.matmul(tanh_out, s.W2[stack])
        if not for_backward:
            tanh_out = None
        expert_out += s.b2[stack, None, :]
        # one expert at a time into zeros: the summation order the outputs are defined by
        per_level = expert_out.reshape(hi - lo, experts, n, h)
        hidden = np.zeros((hi - lo, n, h))
        for e in range(experts):
            hidden += gates[lo:hi, :, e : e + 1] * per_level[:, e]
        if not for_backward:
            expert_out = per_level = None
        probs += [softmax(u @ w + b) for u, w, b in zip(hidden, s.head_W[lo:hi], s.head_b[lo:hi])]
        if not for_backward:
            hidden = None
    if not for_backward:
        return ForwardCache(gates, None, None, None, probs, None, None)
    pool = np.mean(hidden, axis=0)
    semantic_probs = softmax(pool @ s.semantic_W + s.semantic_b)
    return ForwardCache(gates, tanh_out, expert_out, hidden, probs, pool, semantic_probs)


# --- checkpoint container (shared by model and judge checkpoints) ---

# The container's JSON header, one array of its manifest, and a model checkpoint's meta
ArraySpec = TypedDict("ArraySpec", {"name": str, "shape": tuple[int, ...]})
ContainerHeader = TypedDict("ContainerHeader", {"meta": Any, "manifest": tuple[ArraySpec, ...], "payload_sha256": str})
ModelMeta = TypedDict("ModelMeta", {"encoder_config": EncoderConfig, "moe_config": MoEConfig, "taxonomy_hash": str})


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


def read_container(blob: bytes, magic: bytes, meta_schema=dict[str, Any]) -> tuple[dict, list, np.ndarray]:
    """(meta, manifest of (name, shape), flat float64 payload) of a verified
    container, its meta checked against the type hint `meta_schema`."""
    if len(blob) < 16 or blob[:4] != magic:
        raise CheckpointError(f"bad magic: expected {magic!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version mismatch: {version} != {CHECKPOINT_VERSION}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise CheckpointError("truncated checkpoint: header incomplete")
    header = read_json(blob[16 : 16 + header_len], "checkpoint header", CheckpointError)
    try:
        header = config_from_dict(ContainerHeader, header, "checkpoint header")
        meta = config_value(meta_schema, header["meta"], "checkpoint header.meta")
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from exc
    manifest = [(array["name"], array["shape"]) for array in header["manifest"]]
    if any(d < 0 for _, shape in manifest for d in shape):
        raise CheckpointError("checkpoint header.manifest: every array needs a shape of non-negative integers")
    payload = memoryview(blob)[16 + header_len :]
    expected = sum(math.prod(shape) for _, shape in manifest) * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"truncated checkpoint: payload has {len(payload)} bytes, expected {expected}"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("truncated or corrupt checkpoint: payload checksum mismatch")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)  # the one copy
    return meta, manifest, flat


def save_checkpoint(model: MoEModel, path: str | Path) -> None:
    """Write the model's checkpoint to `path`, atomically."""
    meta = {
        "encoder_config": asdict(model.encoder_config),
        "moe_config": asdict(model.moe_config),
        "taxonomy_hash": model.tables.fingerprint,
    }
    atomic_write_bytes(path, write_container(CHECKPOINT_MAGIC, meta, model.params))


def load_checkpoint(path: str | Path, taxonomy: Taxonomy) -> MoEModel:
    """The model checkpoint at `path`, over `taxonomy`: its hash must be the checkpoint's, and the model's
    label tables are built from it (`label_tables`). Every CheckpointError it raises names `path`."""
    with naming(path, CheckpointError, CheckpointError):
        meta, manifest, flat = read_container(Path(path).read_bytes(), CHECKPOINT_MAGIC, ModelMeta)
        if meta["taxonomy_hash"] != taxonomy.fingerprint():
            raise CheckpointError(f"taxonomy hash mismatch: checkpoint {meta['taxonomy_hash'][:12]}..., "
                                  f"supplied {taxonomy.fingerprint()[:12]}...")
        encoder_config, moe_config = meta["encoder_config"], meta["moe_config"]
        # the count first, so a header naming huge configs is refused before its tables or manifest are built
        count = 3 + len(encoder_config.fields) + moe_config.levels * (4 + 4 * moe_config.experts_per_level)
        tables = (label_tables(taxonomy, moe_config.levels)
                  if moe_config.levels >= taxonomy.max_depth and len(manifest) == count else None)
        if tables is None or manifest != param_manifest(encoder_config, moe_config, tables.sizes):
            raise CheckpointError("label spaces or parameter manifest do not match the checkpoint's model configuration")
        model = MoEModel(encoder_config, moe_config, tables, flat)
        if not np.isfinite(flat).all():  # a NaN weight would reach every confidence of the model
            name = next(name for name, value in model.params.items() if not np.isfinite(value).all())
            raise CheckpointError(f"checkpoint parameter {name!r} holds a non-finite value")
        return model
