"""Losses, analytic gradients, optimizers, and the epoch loop.

The objective combines a hierarchical classification loss (cross-entropy at
every level, leaf level weighted against the rest) with an auxiliary semantic
consistency loss over judge verdicts. All gradients are derived by hand and
checked against central finite differences in the test suite.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import ProductRecord
from .encoder import EncodedBatch, PreparedRecords, assemble_batch, prepare_records
from .infer import DEFAULT_TAU_LEAF, predict_batch, predict_prepared  # noqa: F401 (perfbench patches train.predict_batch)
from .moe import MoEModel, forward_batch
from .semantic import ConsistencyLabel
from .taxonomy import NULL_CODE, Taxonomy
from .util import stream_rng

PROB_FLOOR = 1e-12

SEMANTIC_CLASS_INDEX = {"Y": 0, "N": 1, "U": -1}  # U is excluded from the loss


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LossWeights:
    omega_c: float = 0.2
    omega_s: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.omega_c <= 1.0 and 0.0 <= self.omega_s <= 1.0):
            raise ValueError(f"loss weights must lie in [0,1]: {self}")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    learning_rate: float = 1e-3
    loss_weights: LossWeights = LossWeights()
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0 or self.learning_rate < 0:
            raise ValueError("batch_size, epochs, learning_rate must be non-negative (batch >= 1)")
        if self.epochs < 1:  # no epoch, no trained model
            raise ValueError(f"epochs must be >= 1: {self.epochs}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite: {self.learning_rate}")


@dataclass(frozen=True)
class LevelTargets:
    indices: np.ndarray  # (B, levels) target index per level
    leaf_level: np.ndarray  # (B,) deepest annotated level per sample


def build_level_targets(
    records: list[ProductRecord],
    model: MoEModel,
    target_overrides: dict[str, tuple[str, ...]] | None = None,
) -> LevelTargets:
    """Per-level target indices: the label path's code at each level, NULL beyond. A level's index
    is the code's label in `model.tables` less the level's first label; NULL is the level's last."""
    levels, tables = model.moe_config.levels, model.tables
    firsts = tables.gather[:, 0].tolist()
    indices = np.zeros((len(records), levels), dtype=np.int64)
    leaf_level = np.zeros(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        if not 1 <= len(rec.label_path) <= levels:
            raise TrainingError(
                f"record {rec.id!r}: label path of {len(rec.label_path)} codes, model has {levels} levels"
            )
        codes = list(rec.label_path)
        if target_overrides is not None and rec.id in target_overrides:
            codes = list(target_overrides[rec.id])
        leaf_level[i] = len(rec.label_path)
        for level, first, size in zip(range(1, levels + 1), firsts, tables.sizes):
            code = codes[level - 1] if level <= len(codes) else NULL_CODE
            index = size - 1 if code == NULL_CODE else tables.label.get(code, -1) - first
            if not 0 <= index < size:  # a code's label is never its level's NULL
                raise TrainingError(f"record {rec.id!r}: code {code!r} not in level-{level} label space")
            indices[i, level - 1] = index
    return LevelTargets(indices=indices, leaf_level=leaf_level)


def level_loss(probs: np.ndarray, target_index) -> np.ndarray:
    """Cross-entropy of (K,) probabilities and an int target, or of (N, K) rows and (N,) targets."""
    target = np.asarray(target_index)
    if target.size and target.min() < 0:  # an index >= K fails the gather
        raise IndexError(f"negative target index in {target_index}")
    pt = probs[target] if probs.ndim == 1 else probs[np.arange(len(target)), target]
    return -np.log(np.maximum(pt, PROB_FLOOR))


def level_weights(leaf_level, levels: int, omega_c: float) -> np.ndarray:
    """(L,) weights for an int leaf level or (L, N) for (N,) leaf levels:
    1 - omega_c at the leaf level, omega_c at every other level."""
    leaf = np.asarray(leaf_level)
    if leaf.size and not (1 <= leaf.min() and leaf.max() <= levels):
        raise IndexError(f"leaf level {leaf_level} out of range 1..{levels}")
    is_leaf = leaf == np.arange(1, levels + 1).reshape((-1,) + (1,) * leaf.ndim)
    return np.where(is_leaf, 1.0 - omega_c, omega_c)


def hierarchical_loss(level_losses, leaf_level, omega_c: float) -> np.ndarray:
    """omega_c * non-leaf losses + (1 - omega_c) * leaf loss, added level by level from zero,
    over (L,) losses and an int leaf level or (L, N) losses and (N,) leaf levels."""
    losses = np.asarray(level_losses, dtype=np.float64)
    total = 0.0
    for weighted in level_weights(leaf_level, len(losses), omega_c) * losses:
        total = total + weighted
    return total


def semantic_loss(semantic_probs: np.ndarray, target_index) -> np.ndarray:
    """Cross-entropy against the consistency class index (SEMANTIC_CLASS_INDEX),
    one (C,) row and an int or (N, C) rows and (N,) indices; -1 costs 0."""
    target = np.asarray(target_index)
    if target.size and target.min() < -1:
        raise IndexError(f"semantic class index in {target_index} below -1")
    return np.where(target >= 0, level_loss(semantic_probs, np.maximum(target, 0)), 0.0)[()]


def total_loss(l_c, l_s, omega_s: float):
    return omega_s * l_c + (1.0 - omega_s) * l_s


def backward(
    model: MoEModel,
    batch: EncodedBatch,
    targets: LevelTargets,
    semantic_targets: np.ndarray,
    weights: LossWeights,
    sample_ids: Sequence[str] | None = None,
    grad_flat: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean total loss over the batch and its gradient for every parameter.

    `semantic_targets` holds class indices with -1 marking excluded samples.
    The gradient is exact for the clamped loss: levels whose target probability
    sits at the clamp floor contribute zero. Gradients are named views into one
    buffer laid out like `model.flat`: `grad_flat` when given, a fresh one
    otherwise. Every region of the buffer is assigned, never accumulated
    into, so its previous contents do not matter.
    """
    cfg = model.moe_config
    enc = model.encoder_config
    cache = forward_batch(model, batch)
    n = batch.dense.shape[0]
    levels, experts, hidden_dim = cfg.levels, cfg.experts_per_level, cfg.expert_hidden_dim
    ar = np.arange(n)
    omega_c, omega_s = weights.omega_c, weights.omega_s

    if grad_flat is None:
        grad_flat = np.empty_like(model.flat)
    grads, out = model.buffer_views(grad_flat)
    params = model.stacks

    # Semantic branch
    sp = cache.semantic_probs
    sem_mask = semantic_targets >= 0
    sem_losses = semantic_loss(sp, semantic_targets)
    d_sem = np.zeros_like(sp)
    if sem_mask.any():
        pt = sp[ar[sem_mask], semantic_targets[sem_mask]]
        live = np.zeros(n, dtype=bool)
        live[sem_mask] = pt > PROB_FLOOR
        coef = np.where(live, (1.0 - omega_s) / n, 0.0)
        onehot = np.zeros_like(sp)
        onehot[ar[sem_mask], semantic_targets[sem_mask]] = 1.0
        d_sem = coef[:, None] * (sp - onehot)
    np.matmul(cache.pool.T, d_sem, out=out.semantic_W)
    d_sem.sum(axis=0, out=out.semantic_b)
    d_pool = d_sem @ params.semantic_W.T

    # Hierarchical branch: one head per level (label spaces differ)
    level_w = level_weights(targets.leaf_level, levels, omega_c)
    level_losses = np.empty((levels, n))
    d_u = np.empty((levels, n, hidden_dim))  # gradient of each level's mixed hidden state
    for level in range(levels):
        p = cache.probs[level]
        t_idx = targets.indices[:, level]
        level_losses[level] = level_loss(p, t_idx)
        pt = p[ar, t_idx]
        coef = omega_s * level_w[level] / n
        coef = np.where(pt > PROB_FLOOR, coef, 0.0)
        onehot = np.zeros_like(p)
        onehot[ar, t_idx] = 1.0
        d_logits = coef[:, None] * (p - onehot)

        np.matmul(cache.hidden[level].T, d_logits, out=out.head_W[level])
        d_logits.sum(axis=0, out=out.head_b[level])
        np.matmul(d_logits, params.head_W[level].T, out=d_u[level])

    per_sample = total_loss(hierarchical_loss(level_losses, targets.leaf_level, omega_c), sem_losses, omega_s)
    if not np.isfinite(per_sample).all():
        bad = int(np.argmax(~np.isfinite(per_sample)))
        label = sample_ids[bad] if sample_ids is not None and len(sample_ids) else f"batch index {bad}"
        raise TrainingError(f"non-finite loss for sample {label}")

    # Mixture and expert backward, plus pooled semantic path, over the stacks
    d_u += d_pool / levels
    g = cache.gates  # (L, B, E)
    expert_out = cache.expert_out.reshape(levels, experts, n, hidden_dim)
    d_gate = np.einsum("lbh,lebh->lbe", d_u, expert_out)
    d_gate_logits = g * (d_gate - (g * d_gate).sum(axis=2, keepdims=True))
    np.matmul(batch.routing.T, d_gate_logits, out=out.gate_W)
    d_gate_logits.sum(axis=1, out=out.gate_b)

    t = cache.tanh_out  # (L*E, B, H)
    d_h = (g.transpose(0, 2, 1)[..., None] * d_u[:, None]).reshape(t.shape)
    np.matmul(t.transpose(0, 2, 1), d_h, out=out.W2)
    d_h.sum(axis=1, out=out.b2)
    d_a = np.matmul(d_h, params.W2.transpose(0, 2, 1))
    d_a *= 1.0 - t * t
    np.matmul(batch.dense.T, d_a, out=out.W1)
    d_a.sum(axis=1, out=out.b1)
    # one product per expert, summed in (level, expert) order: a single GEMM
    # over the (L*E*H)-long inner dimension would add in another order
    d_dense = np.matmul(d_a, params.W1.transpose(0, 2, 1)).sum(axis=0)

    # Scatter dense-feature gradients back into the embedding tables: each
    # token takes its row's gradient over the row's token count
    dt = enc.text_dim
    tokens = np.concatenate((batch.title_tok, batch.cat_tok))
    contrib = np.concatenate([
        d_dense[np.repeat(ar, lengths), lo : lo + dt] * np.repeat(1.0 / np.maximum(lengths, 1), lengths)[:, None]
        for lo, lengths in ((0, batch.title_len), (dt, batch.cat_len))
    ])
    out.text_table[...] = _row_sums(tokens, contrib, out.text_table.shape[0])
    off = 2 * dt
    for f_pos, table in enumerate(out.field_tables):
        table[...] = _row_sums(batch.field_idx[:, f_pos], d_dense[:, off : off + enc.cat_dim], table.shape[0])
        off += enc.cat_dim

    return float(per_sample.mean()), grads


def _row_sums(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """(rows, width) sums of the rows of `values` by `index`, as `np.add.at`
    onto zeros gives them: one bincount over (row, column) cells, which adds
    each cell's values in occurrence order starting from zero."""
    width = values.shape[1]
    cells = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=values.ravel(), minlength=rows * width).reshape(rows, width)


class SGD:
    """Plain gradient descent over a flat parameter buffer, in place; `fit` steps with Adam."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._step: np.ndarray | None = None  # scratch

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self._step is None:
            self._step = np.empty_like(params)
        np.multiply(grads, self.learning_rate, out=self._step)
        params -= self._step


class Adam:
    """Adam (Kingma & Ba 2015) over a flat parameter buffer, in place.

    Moments and scratch are allocated on the first step; each step evaluates
    b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and lr*m_hat/(sqrt(v_hat)+eps) in
    that order, so it matches the same update applied array by array.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._a: np.ndarray | None = None  # scratch
        self._b: np.ndarray | None = None  # scratch

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self._a, self._b = np.empty_like(params), np.empty_like(params)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= b1
        np.multiply(grads, 1 - b1, out=a)
        m += a
        v *= b2
        np.multiply(grads, 1 - b2, out=a)
        a *= grads
        v += a
        np.divide(m, 1 - b1**self.t, out=a)  # m_hat
        a *= self.learning_rate
        np.divide(v, 1 - b2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def semantic_targets_for(
    records: list[ProductRecord], annotations: dict[str, ConsistencyLabel] | None
) -> np.ndarray:
    """Class index per record from its verdict in `annotations` (record id ->
    label, as `annotate_corpus` returns it); all -1 when there are none."""
    if annotations is None:
        return np.full(len(records), -1, dtype=np.int64)
    try:
        return np.array([SEMANTIC_CLASS_INDEX[annotations[r.id].verdict] for r in records], dtype=np.int64)
    except KeyError as exc:
        raise TrainingError(f"training record {exc.args[0]!r} has no annotation") from None


def leaf_accuracy(
    model: MoEModel, prepared: PreparedRecords, truth: np.ndarray, taxonomy: Taxonomy,
    tau_leaf: float = DEFAULT_TAU_LEAF,
) -> float:
    """Share of prepared records whose selected leaf is the true one, given as labels in `truth`."""
    if not len(prepared):
        return float("nan")
    preds = predict_prepared(model, prepared, taxonomy, tau_leaf=tau_leaf, use_repath=False)
    return int(np.count_nonzero(preds.leaf == truth)) / len(prepared)


def fit(
    model: MoEModel,
    train_records: list[ProductRecord],
    val_records: list[ProductRecord],
    taxonomy: Taxonomy,
    annotations: dict[str, ConsistencyLabel] | None,
    config: TrainConfig,
    target_overrides: dict[str, tuple[str, ...]] | None = None,
    tau_leaf: float = DEFAULT_TAU_LEAF,
) -> tuple[MoEModel, list[dict]]:
    """Mini-batch training; returns the parameters of the best validation epoch.

    Consistency targets are the verdicts in `annotations`, keyed by record
    id (None trains without the semantic task, as in the preliminary stage).
    Epochs are ranked by validation leaf accuracy under `tau_leaf`. Shuffling
    draws from per-epoch named streams of `config.seed`, so runs replay exactly.
    """
    if not train_records:
        raise TrainingError("empty training set")
    enc = model.encoder_config
    prepared = prepare_records(train_records, enc)
    targets = build_level_targets(train_records, model, target_overrides)
    sem_targets = semantic_targets_for(train_records, annotations)
    ids = np.array([r.id for r in train_records], dtype=object)
    val_prepared = prepare_records(val_records, enc)
    val_truth = model.tables.labels_of([r.leaf() for r in val_records])

    optimizer = Adam(config.learning_rate)
    grad_flat = np.zeros_like(model.flat)
    logs: list[dict] = []
    best_flat = model.flat.copy()
    best_acc = -1.0
    for epoch in range(1, config.epochs + 1):
        t0 = time.monotonic()
        order = stream_rng(config.seed, f"shuffle-epoch-{epoch}").permutation(len(train_records))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            take = order[start : start + config.batch_size]
            batch = assemble_batch(prepared, model.params, enc, rows=take)
            sub_targets = LevelTargets(
                indices=targets.indices[take], leaf_level=targets.leaf_level[take]
            )
            loss, _ = backward(
                model,
                batch,
                sub_targets,
                sem_targets[take],
                config.loss_weights,
                sample_ids=ids[take],
                grad_flat=grad_flat,
            )
            optimizer.step(model.flat, grad_flat)
            epoch_loss += loss * len(take)
        epoch_loss /= len(train_records)

        val_acc = leaf_accuracy(model, val_prepared, val_truth, taxonomy, tau_leaf)
        logs.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss,
                "val_leaf_acc": None if np.isnan(val_acc) else val_acc,
                "seconds": time.monotonic() - t0,
            }
        )
        score = val_acc if not np.isnan(val_acc) else float(epoch)  # no val: keep last
        if score > best_acc:
            best_acc = score
            best_flat[:] = model.flat

    model.flat[:] = best_flat
    return model, logs
