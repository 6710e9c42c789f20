import io
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taxpath.encoder import EncodedBatch, EncoderConfig, build_field_vocabs, encode_batch
from taxpath.moe import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    MoEConfig,
    distributions_from_probs,
    forward_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax,
    write_container,
)
from taxpath.synth import SynthConfig, synth_corpus


def small_setup(seed=0, experts=2, hidden=4, text_dim=4, cat_dim=2, buckets=32):
    corpus = synth_corpus(SynthConfig(leaves=10, samples=60, leaf_depth_min=2, leaf_depth_max=3), seed=seed)
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(
        hash_buckets=buckets,
        text_dim=text_dim,
        cat_dim=cat_dim,
        fields=fields,
        field_vocabs=build_field_vocabs(corpus.records, fields),
    )
    moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=experts, expert_hidden_dim=hidden)
    model = init_model(corpus.taxonomy, enc, moe, seed=seed)
    return corpus, enc, moe, model


def one_row_batch(model, dense, routing):
    """A one-row batch of raw dense and routing vectors, without token bookkeeping."""
    empty = np.array([], dtype=np.int64)
    return EncodedBatch(
        dense=dense[None, :],
        routing=routing[None, :],
        title_tok=empty,
        title_sample=empty,
        title_weight=np.array([]),
        cat_tok=empty,
        cat_sample=empty,
        cat_weight=np.array([]),
        field_idx=np.zeros((1, len(model.encoder_config.fields)), dtype=np.int64),
    )


def gate_weights(model, routing, level):
    """Expert mixing weights of one routing vector at one level (1-based)."""
    dense = np.zeros(model.encoder_config.dense_dim)
    return forward_batch(model, one_row_batch(model, dense, routing)).gates[level - 1][0]


def forward_one(model, batch):
    """Per-level distributions and semantic probs of a one-row batch."""
    cache = forward_batch(model, batch)
    (dists,) = distributions_from_probs(model, cache.probs)
    return dists, cache.semantic_probs[0]


def test_init_deterministic_and_seed_sensitive():
    corpus, enc, moe, model_a = small_setup(seed=1)
    model_b = init_model(corpus.taxonomy, enc, moe, seed=1)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    model_c = init_model(corpus.taxonomy, enc, moe, seed=2)
    assert any(not np.array_equal(model_a.params[n], model_c.params[n]) for n in model_a.params)


def test_init_fan_in_scaling():
    corpus, enc, moe, _ = small_setup()
    big_enc = EncoderConfig(
        hash_buckets=2500,
        text_dim=40,
        cat_dim=2,
        fields=enc.fields,
        field_vocabs=enc.field_vocabs,
    )
    model = init_model(corpus.taxonomy, big_enc, moe, seed=3)
    table = model.params["text_table"]  # 100,000 parameters, fan_in = 40
    assert table.size == 100_000
    expected_std = 1.0 / np.sqrt(3 * 40)
    assert abs(table.std() - expected_std) / expected_std < 0.10
    assert abs(table.mean()) < 0.01


def test_gate_singleton_expert():
    corpus, enc, moe, model = small_setup(experts=1)
    routing = np.zeros(enc.routing_dim)
    routing[0] = 1.0
    assert np.array_equal(gate_weights(model, routing, 1), np.array([1.0]))


def test_gate_zero_params_uniform():
    corpus, enc, moe, model = small_setup(experts=4)
    model.params["level1/gate/W"][:] = 0.0
    model.params["level1/gate/b"][:] = 0.0
    routing = np.zeros(enc.routing_dim)
    routing[1] = 1.0
    assert np.allclose(gate_weights(model, routing, 1), 0.25, atol=1e-15)


def test_gate_hand_softmax():
    corpus, enc, moe, model = small_setup(experts=2)
    w = model.params["level2/gate/W"]
    b = model.params["level2/gate/b"]
    w[:] = 0.0
    b[:] = [0.3, -0.2]
    w[2, 0] = 1.5
    w[2, 1] = 0.5
    routing = np.zeros(enc.routing_dim)
    routing[2] = 1.0
    logits = np.array([0.3 + 1.5, -0.2 + 0.5])
    expected = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(gate_weights(model, routing, 2), expected, atol=1e-12)


def test_forward_zero_heads_uniform():
    corpus, enc, moe, model = small_setup()
    for level in range(1, moe.levels + 1):
        model.params[f"level{level}/head/W"][:] = 0.0
        model.params[f"level{level}/head/b"][:] = 0.0
    batch = encode_batch(corpus.records[:1], model.params, enc)
    dists, _ = forward_one(model, batch)
    for level, dist in enumerate(dists, start=1):
        k = len(model.level_labels[level - 1])
        assert np.allclose(dist.probs, 1.0 / k, atol=1e-12)


def test_forward_single_expert_matches_reference():
    corpus, enc, moe, model = small_setup(experts=1, seed=5)
    record = corpus.records[3]
    batch = encode_batch([record], model.params, enc)
    dists, sem = forward_one(model, batch)
    # reference: plain two-layer forward with the gate pinned at 1
    hiddens = []
    for level in range(1, moe.levels + 1):
        t = np.tanh(batch.dense[0] @ model.params[f"level{level}/expert0/W1"] + model.params[f"level{level}/expert0/b1"])
        u = t @ model.params[f"level{level}/expert0/W2"] + model.params[f"level{level}/expert0/b2"]
        hiddens.append(u)
        logits = u @ model.params[f"level{level}/head/W"] + model.params[f"level{level}/head/b"]
        assert np.allclose(dists[level - 1].probs, softmax(logits), atol=1e-12)
    pool = np.mean(hiddens, axis=0)
    sem_ref = softmax(pool @ model.params["semantic/W"] + model.params["semantic/b"])
    assert np.allclose(sem, sem_ref, atol=1e-12)


def test_forward_single_expert_ignores_gate_params():
    corpus, enc, moe, model = small_setup(experts=1, seed=5)
    batch = encode_batch(corpus.records[:1], model.params, enc)
    before, _ = forward_one(model, batch)
    model.params["level1/gate/W"][:] = 7.5
    model.params["level1/gate/b"][:] = -3.0
    after, _ = forward_one(model, batch)
    for a, b in zip(before, after):
        assert np.array_equal(a.probs, b.probs)


def test_probs_normalized_on_random_inputs():
    corpus, enc, moe, model = small_setup(seed=7)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dense = rng.normal(size=enc.dense_dim)
        routing = np.zeros(enc.routing_dim)
        off = 0
        for name in enc.fields:
            width = len(enc.vocab(name)) + 1
            routing[off + rng.integers(width)] = 1.0
            off += width
        dists, sem = forward_one(model, one_row_batch(model, dense, routing))
        for dist in dists:
            assert abs(dist.probs.sum() - 1.0) <= 1e-9
            assert dist.confidence == dist.probs.max()
        assert abs(sem.sum() - 1.0) <= 1e-9


def test_gate_reads_routing_only():
    corpus, enc, moe, model = small_setup(seed=9, experts=3)
    base = corpus.records[0]
    variant = type(base)(**{**base.__dict__, "title": "completely different text"})
    batch = encode_batch([base, variant], model.params, enc)
    cache = forward_batch(model, batch)
    for g in cache.gates:
        assert np.array_equal(g[0], g[1])


def test_gate_weights_positive_and_normalized():
    corpus, enc, moe, model = small_setup(seed=9, experts=4)
    batch = encode_batch(corpus.records, model.params, enc)
    cache = forward_batch(model, batch)
    for g in cache.gates:
        assert np.all(g > 0.0)
        assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-9


def test_checkpoint_round_trip():
    corpus, enc, moe, model = small_setup(seed=11)
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    loaded = load_checkpoint(io.BytesIO(buf.getvalue()), corpus.taxonomy)
    assert loaded.taxonomy_hash == model.taxonomy_hash
    assert loaded.level_labels == model.level_labels
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    batch = encode_batch(corpus.records[:1], model.params, enc)
    a, sa = forward_one(model, batch)
    b, sb = forward_one(loaded, batch)
    assert np.array_equal(sa, sb)
    for da, db in zip(a, b):
        assert np.array_equal(da.probs, db.probs)


def test_checkpoint_taxonomy_mismatch():
    corpus, enc, moe, model = small_setup(seed=13)
    other = synth_corpus(SynthConfig(leaves=10, samples=0, leaf_depth_min=2, leaf_depth_max=3), seed=99).taxonomy
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint(io.BytesIO(buf.getvalue()), other)


def test_checkpoint_corrupt_and_truncated():
    corpus, enc, moe, model = small_setup(seed=13)
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    blob = bytearray(buf.getvalue())
    blob[-1] ^= 0xFF
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(io.BytesIO(bytes(blob)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(io.BytesIO(buf.getvalue()[:-9]))


def test_checkpoint_version_mismatch():
    corpus, enc, moe, model = small_setup(seed=13)
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    blob = bytearray(buf.getvalue())
    blob[4] = 99
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(io.BytesIO(bytes(blob)))


def test_checkpoint_is_version_2_and_its_meta_has_no_seed():
    import json
    import struct

    corpus, enc, moe, model = small_setup(seed=13)
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    blob = buf.getvalue()
    assert struct.unpack("<I", blob[4:8]) == (2,)
    (header_len,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16 : 16 + header_len])["meta"]
    assert "seed" not in meta["encoder_config"] and "seed" not in meta["moe_config"]
    assert not hasattr(enc, "seed") and not hasattr(moe, "seed")
    v1 = bytearray(blob)
    v1[4:8] = struct.pack("<I", 1)  # the level-major layout has no reader
    with pytest.raises(CheckpointError, match="version mismatch: 1 != 2"):
        load_checkpoint(io.BytesIO(bytes(v1)))


def test_head_width_includes_null():
    corpus, enc, moe, model = small_setup()
    tax = corpus.taxonomy
    for level in range(1, moe.levels + 1):
        width = model.params[f"level{level}/head/W"].shape[1]
        assert width == len(tax.per_level_labels[level]) == len(tax.per_level_labels[level][:-1]) + 1


def test_params_are_views_into_one_flat_buffer():
    corpus, enc, moe, model = small_setup(seed=14)
    offset = 0
    for name, view in model.params.items():
        assert np.shares_memory(view, model.flat), name
        assert np.array_equal(view.ravel(), model.flat[offset : offset + view.size]), name
        offset += view.size
    assert offset == model.flat.size
    model.params["semantic/b"][0] = 42.0
    assert model.flat[-moe.semantic_classes] == 42.0
    with pytest.raises(AttributeError):
        model.params = {}


def test_checkpoint_payload_is_the_flat_buffer():
    corpus, enc, moe, model = small_setup(seed=15)
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    blob = buf.getvalue()
    assert blob.endswith(model.flat.astype("<f8").tobytes())
    loaded = load_checkpoint(io.BytesIO(blob), corpus.taxonomy)
    assert np.array_equal(loaded.flat, model.flat)
    assert loaded.flat.flags.writeable and loaded.flat.flags.c_contiguous
    assert all(np.shares_memory(v, loaded.flat) for v in loaded.params.values())


def test_checkpoint_manifest_must_match_its_config():
    corpus, enc, moe, model = small_setup(seed=16)
    meta = {
        "encoder_config": asdict(enc),
        "moe_config": {**asdict(moe), "expert_hidden_dim": moe.expert_hidden_dim + 1},
        "taxonomy_hash": model.taxonomy_hash,
        "level_labels": [list(labels) for labels in model.level_labels],
    }
    blob = write_container(CHECKPOINT_MAGIC, meta, model.params)
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(io.BytesIO(blob))


def test_forward_without_backward_cache_gives_identical_outputs():
    corpus, enc, moe, model = small_setup(seed=17, experts=3)
    batch = encode_batch(corpus.records, model.params, enc)
    full = forward_batch(model, batch)
    lean = forward_batch(model, batch, for_backward=False)
    assert lean.tanh_out is None and lean.expert_out is None and lean.hidden is None
    for a, b in zip([*full.probs, full.pool, *full.gates], [*lean.probs, lean.pool, *lean.gates]):
        assert np.array_equal(a, b)
    assert np.array_equal(full.semantic_probs, lean.semantic_probs)


def per_row_distributions(model, probs, i):
    """The per-row, per-level argmax the batched version replaced."""
    out = []
    for level, p in enumerate(probs, start=1):
        row = p[i]
        idx = int(np.argmax(row))
        out.append((level, model.level_labels[level - 1][idx], float(row[idx])))
    return out


@st.composite
def level_probs(draw):
    n = draw(st.integers(0, 20))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    # a few coarse values, so rows often tie for their maximum
    values = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))
    return [draw(hnp.arrays(np.float64, (n, k), elements=values)) for k in widths]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(probs=level_probs())
def test_distributions_from_probs_matches_per_row_argmax(probs):
    labels = tuple(tuple(f"L{level}c{j}" for j in range(p.shape[1])) for level, p in enumerate(probs))
    model = SimpleNamespace(level_labels=labels)
    rows = distributions_from_probs(model, probs)
    assert len(rows) == probs[0].shape[0]
    for i, dists in enumerate(rows):
        got = [(d.level, d.argmax_code, d.confidence) for d in dists]
        assert got == per_row_distributions(model, probs, i)
        assert all(type(d.confidence) is float for d in dists)
        for d, p in zip(dists, probs):
            assert np.shares_memory(d.probs, p) and np.array_equal(d.probs, p[i])


def test_distributions_from_probs_ties_go_to_the_lowest_label():
    model = SimpleNamespace(level_labels=(("a", "b", "c"),))
    (dists,) = distributions_from_probs(model, [np.array([[0.2, 0.4, 0.4]])])
    assert (dists[0].argmax_code, dists[0].confidence) == ("b", 0.4)
