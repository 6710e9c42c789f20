import dataclasses
import functools
import json
import re
import struct
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.encoder import EncodedBatch, EncoderConfig, assemble_batch, build_field_vocabs, prepare_records
from taxpath.infer import label_tables, select_prediction
from taxpath.moe import (
    CHECKPOINT_MAGIC,
    SEMANTIC_CLASSES,
    SLAB_BYTES,
    CheckpointError,
    MoEConfig,
    MoEModel,
    forward_batch,
    init_model,
    load_checkpoint,
    param_manifest,
    save_checkpoint,
    softmax,
    write_container,
)
from taxpath.semantic import VERDICTS, JudgeModel, load_judge, save_judge
from taxpath.synth import SynthConfig, synth_corpus

from encoder_oracles import encode_batch
from test_stacked_experts import BENCH_DIMS, setup


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


def saved(save, obj) -> bytes:
    """The bytes `save(obj, path)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        save(obj, Path(tmp) / "saved.ckpt")
        return (Path(tmp) / "saved.ckpt").read_bytes()


def loaded(load, blob: bytes, *args):
    """`load(path, *args)` of a file holding `blob`."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "blob.ckpt").write_bytes(blob)
        return load(Path(tmp) / "blob.ckpt", *args)


def one_row_batch(model, dense, routing):
    """A one-row batch of raw dense and routing vectors, without tokens."""
    empty, no_tokens = np.array([], dtype=np.int64), np.zeros(1, dtype=np.int64)
    return EncodedBatch(
        dense=dense[None, :],
        routing=routing[None, :],
        title_tok=empty,
        title_len=no_tokens,
        cat_tok=empty,
        cat_len=no_tokens,
        field_idx=np.zeros((1, len(model.encoder_config.fields)), dtype=np.int64),
    )


def gate_weights(model, routing, level):
    """Expert mixing weights of one routing vector at one level (1-based)."""
    dense = np.zeros(model.encoder_config.dense_dim)
    return forward_batch(model, one_row_batch(model, dense, routing)).gates[level - 1][0]


def forward_one(model, batch):
    """Per-level probability rows and semantic probs of a one-row batch."""
    cache = forward_batch(model, batch)
    return [p[0] for p in cache.probs], cache.semantic_probs[0]


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


def three_line_softmax(logits):
    """`softmax` as it was before it ran in one array: its oracle."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@pytest.mark.numpy_floor
@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 70)),
                       st.tuples(st.integers(1, 6), st.integers(1, 40), st.integers(1, 70))),
       scale=st.sampled_from([1e-6, 1.0, 40.0, 1e3, 1e150, 1e300]), transposed=st.booleans(),
       seed=st.integers(0, 2**16))
def test_softmax_equals_the_three_line_formula(shape, scale, transposed, seed):
    """Byte for byte, on (N, K) and (L, N, K) logits of large magnitude, contiguous or strided."""
    logits = np.random.default_rng(seed).standard_normal(shape) * scale
    if transposed:
        logits = logits.swapaxes(-1, -2)
    got, want = softmax(logits), three_line_softmax(logits)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_forward_zero_heads_uniform():
    corpus, enc, moe, model = small_setup()
    for level in range(1, moe.levels + 1):
        model.params[f"level{level}/head/W"][:] = 0.0
        model.params[f"level{level}/head/b"][:] = 0.0
    batch = encode_batch(corpus.records[:1], model.params, enc)
    probs, _ = forward_one(model, batch)
    for level, p in enumerate(probs, start=1):
        k = len(model.level_labels[level - 1])
        assert np.allclose(p, 1.0 / k, atol=1e-12)


def test_forward_single_expert_matches_reference():
    corpus, enc, moe, model = small_setup(experts=1, seed=5)
    record = corpus.records[3]
    batch = encode_batch([record], model.params, enc)
    probs, sem = forward_one(model, batch)
    # reference: plain two-layer forward with the gate pinned at 1
    hiddens = []
    for level in range(1, moe.levels + 1):
        t = np.tanh(batch.dense[0] @ model.params[f"level{level}/expert0/W1"] + model.params[f"level{level}/expert0/b1"])
        u = t @ model.params[f"level{level}/expert0/W2"] + model.params[f"level{level}/expert0/b2"]
        hiddens.append(u)
        logits = u @ model.params[f"level{level}/head/W"] + model.params[f"level{level}/head/b"]
        assert np.allclose(probs[level - 1], softmax(logits), atol=1e-12)
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
        assert np.array_equal(a, b)


def test_probs_normalized_on_random_inputs():
    corpus, enc, moe, model = small_setup(seed=7)
    tables = label_tables(corpus.taxonomy, moe.levels)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dense = rng.normal(size=enc.dense_dim)
        routing = np.zeros(enc.routing_dim)
        off = 0
        for name in enc.fields:
            width = len(enc.vocab(name)) + 1
            routing[off + rng.integers(width)] = 1.0
            off += width
        probs, sem = forward_one(model, one_row_batch(model, dense, routing))
        (confidence,) = select_prediction([p[None] for p in probs], tables).confidence
        for p, c in zip(probs, confidence):
            assert abs(p.sum() - 1.0) <= 1e-9
            assert c == p.max()
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


def test_checkpoint_round_trip(tmp_path):
    corpus, enc, moe, model = small_setup(seed=11)
    save_checkpoint(model, tmp_path / "model.ckpt")
    back = load_checkpoint(tmp_path / "model.ckpt", corpus.taxonomy)
    assert back.taxonomy_hash == model.taxonomy_hash
    assert back.level_labels == model.level_labels
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name])
    batch = encode_batch(corpus.records[:1], model.params, enc)
    a, sa = forward_one(model, batch)
    b, sb = forward_one(back, batch)
    assert np.array_equal(sa, sb)
    for da, db in zip(a, b):
        assert np.array_equal(da, db)


def test_checkpoint_round_trips_through_a_path_or_its_string(tmp_path):
    corpus, enc, moe, model = small_setup(seed=13)
    save_checkpoint(model, str(tmp_path / "model.ckpt"))
    assert (tmp_path / "model.ckpt").read_bytes() == saved(save_checkpoint, model)
    for source in (tmp_path / "model.ckpt", str(tmp_path / "model.ckpt")):
        back = load_checkpoint(source, corpus.taxonomy)
        assert back.level_labels == model.level_labels
        assert np.array_equal(back.flat, model.flat)


def test_checkpoint_taxonomy_mismatch():
    corpus, enc, moe, model = small_setup(seed=13)
    other = synth_corpus(SynthConfig(leaves=10, samples=0, leaf_depth_min=2, leaf_depth_max=3), seed=99).taxonomy
    with pytest.raises(CheckpointError, match="hash mismatch"):
        loaded(load_checkpoint, saved(save_checkpoint, model), other)


def test_checkpoint_corrupt_and_truncated():
    corpus, enc, moe, model = small_setup(seed=13)
    good = saved(save_checkpoint, model)
    blob = bytearray(good)
    blob[-1] ^= 0xFF
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        loaded(load_checkpoint, bytes(blob), corpus.taxonomy)
    with pytest.raises(CheckpointError, match="truncated"):
        loaded(load_checkpoint, good[:-9], corpus.taxonomy)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_parameter_is_refused_naming_it(value, tmp_path):
    corpus, enc, moe, model = small_setup(seed=13)
    model.params["level2/head/b"][1] = value
    model.params["semantic/W"][0, 0] = value  # later in the manifest: not the one named
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    message = rf"^{re.escape(str(path))}: checkpoint parameter 'level2/head/b' holds a non-finite value$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path, corpus.taxonomy)


def test_checkpoint_version_mismatch():
    corpus, enc, moe, model = small_setup(seed=13)
    blob = bytearray(saved(save_checkpoint, model))
    blob[4] = 99
    with pytest.raises(CheckpointError, match="version"):
        loaded(load_checkpoint, bytes(blob), corpus.taxonomy)


def test_checkpoint_is_version_4_and_its_meta_has_no_seed_and_no_label_spaces(tmp_path):
    corpus, enc, moe, model = small_setup(seed=13)
    blob = saved(save_checkpoint, model)
    assert struct.unpack("<I", blob[4:8]) == (4,)
    (header_len,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16 : 16 + header_len])["meta"]
    assert sorted(meta) == ["encoder_config", "moe_config", "taxonomy_hash"]
    assert "seed" not in meta["encoder_config"]
    assert sorted(meta["moe_config"]) == ["expert_hidden_dim", "experts_per_level", "levels"]
    assert not hasattr(enc, "seed") and not hasattr(moe, "seed")
    # version 1 had the level-major layout; version 2's moe_config also held these two keys;
    # version 3's meta also held the label spaces
    v2_meta = {**meta, "moe_config": {**meta["moe_config"], "include_null_label": True, "semantic_classes": 3}}
    v3_meta = {**meta, "level_labels": [list(labels) for labels in model.level_labels]}
    olds = (blob, write_container(CHECKPOINT_MAGIC, v2_meta, model.params),
            write_container(CHECKPOINT_MAGIC, v3_meta, model.params))
    for version, old in enumerate(olds, start=1):
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(old[:4] + struct.pack("<I", version) + old[8:])
        message = rf"^{re.escape(str(path))}: checkpoint version mismatch: {version} != 4$"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, corpus.taxonomy)


def test_a_checkpoint_header_holding_label_spaces_is_refused_as_an_unknown_key(tmp_path):
    """The label spaces come from the taxonomy alone: a file cannot carry others, such as permuted ones."""
    corpus, enc, moe, model = small_setup(seed=13)
    blob = saved(save_checkpoint, model)
    (header_len,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16 : 16 + header_len])["meta"]
    permuted = [list(labels) for labels in model.level_labels]
    permuted[0] = [permuted[0][-1], *reversed(permuted[0][:-1])]  # NULL first, the codes reversed
    path = tmp_path / "permuted.ckpt"
    path.write_bytes(write_container(CHECKPOINT_MAGIC, {**meta, "level_labels": permuted}, model.params))
    message = rf"^{re.escape(str(path))}: unknown config key checkpoint header\.meta\.level_labels"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path, corpus.taxonomy)


def test_the_semantic_head_has_one_class_per_verdict():
    corpus, enc, moe, model = small_setup()
    assert SEMANTIC_CLASSES == len(VERDICTS) == 3
    assert model.params["semantic/W"].shape == (moe.expert_hidden_dim, len(VERDICTS))
    assert model.params["semantic/b"].shape == (len(VERDICTS),)


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
    assert model.flat[-SEMANTIC_CLASSES] == 42.0
    with pytest.raises(AttributeError):
        model.params = {}


@pytest.mark.parametrize("fault", ["float32", "short", "long", "two-dimensional"])
def test_a_model_refuses_a_parameter_buffer_of_another_layout(fault):
    corpus, enc, moe, model = small_setup(seed=15)
    flat = {"float32": model.flat.astype(np.float32), "short": model.flat[:-1],
            "long": np.append(model.flat, 0.0), "two-dimensional": model.flat[None, :]}[fault]
    message = rf"^parameter buffer {flat.dtype}\({', '.join(map(str, flat.shape))},?\) does not match the model's "
    with pytest.raises(ValueError, match=message + rf"float64\({model.flat.size},\)$"):
        MoEModel(enc, moe, model.taxonomy_hash, model.level_labels, flat=flat)
    MoEModel(enc, moe, model.taxonomy_hash, model.level_labels, flat=model.flat.copy())  # the layout itself builds


def test_checkpoint_payload_is_the_flat_buffer():
    corpus, enc, moe, model = small_setup(seed=15)
    blob = saved(save_checkpoint, model)
    assert blob.endswith(model.flat.astype("<f8").tobytes())
    back = loaded(load_checkpoint, blob, corpus.taxonomy)
    assert np.array_equal(back.flat, model.flat)
    assert back.flat.flags.writeable and back.flat.flags.c_contiguous
    assert all(np.shares_memory(v, back.flat) for v in back.params.values())


def test_checkpoint_manifest_must_match_its_config():
    corpus, enc, moe, model = small_setup(seed=16)
    meta = {
        "encoder_config": asdict(enc),
        "moe_config": {**asdict(moe), "expert_hidden_dim": moe.expert_hidden_dim + 1},
        "taxonomy_hash": model.taxonomy_hash,
    }
    blob = write_container(CHECKPOINT_MAGIC, meta, model.params)
    with pytest.raises(CheckpointError, match="manifest"):
        loaded(load_checkpoint, blob, corpus.taxonomy)


def test_a_checkpoint_shallower_than_its_taxonomy_is_refused():
    """Its header names fewer levels than the taxonomy's depth, with the manifest of that many levels."""
    corpus, enc, moe, model = small_setup(seed=16)
    shallow = dataclasses.replace(moe, levels=moe.levels - 1)
    params = {name: np.zeros(shape) for name, shape in param_manifest(enc, shallow, model.level_labels)}
    meta = {"encoder_config": asdict(enc), "moe_config": asdict(shallow), "taxonomy_hash": model.taxonomy_hash}
    with pytest.raises(CheckpointError, match="label spaces or parameter manifest do not match"):
        loaded(load_checkpoint, write_container(CHECKPOINT_MAGIC, meta, params), corpus.taxonomy)


@functools.cache
def bench_setup(experts):
    """A bench-sized model over a depth-4 taxonomy with one level past its
    depth, and a batch of 2,048 rows or, if more, as many as one level's
    activations fill a slab with."""
    rows = max(2048, SLAB_BYTES // (8 * experts * BENCH_DIMS["hidden"]))
    corpus, model = setup(experts, extra_levels=1, samples=rows, seed=experts, depth=4, **BENCH_DIMS)
    assert model.level_labels[-1] == ("∅",) and model.moe_config.levels == 5
    batch = assemble_batch(prepare_records(corpus.records, model.encoder_config), model.params, model.encoder_config)
    return model, batch


def first_rows(batch, n):
    assert n <= len(batch.dense)
    return dataclasses.replace(batch, dense=batch.dense[:n], routing=batch.routing[:n])


# levels per slab of the forward-only pass over the 5 levels: 5 is one slab,
# 1 five equal slabs, 3 and 2 an uneven last slab
@pytest.mark.numpy_floor
@pytest.mark.parametrize("slab", [5, 3, 2, 1])
@pytest.mark.parametrize("experts", [1, 2, 3])
def test_forward_without_backward_cache_gives_identical_outputs(experts, slab):
    model, batch = bench_setup(experts)
    n = SLAB_BYTES // (8 * experts * model.moe_config.expert_hidden_dim * slab)  # the most rows with `slab` levels
    batch = first_rows(batch, n)
    full = forward_batch(model, batch)  # one slab: backward reads every level
    lean = forward_batch(model, batch, for_backward=False)
    assert lean.tanh_out is None and lean.expert_out is None and lean.hidden is None
    assert len(lean.probs) == len(full.probs) == 5 and lean.gates.shape == full.gates.shape
    for a, b in zip([*full.probs, *full.gates], [*lean.probs, *lean.gates]):
        assert np.array_equal(a, b)
    # prediction reads no semantic head; its values are pinned by the full-forward reference test
    assert lean.pool is None and lean.semantic_probs is None


def test_forward_without_backward_cache_holds_one_slab_of_activations():
    model, batch = bench_setup(2)
    batch = first_rows(batch, 2048)

    def traced_peak(for_backward) -> int:
        tracemalloc.start()
        try:
            forward_batch(model, batch, for_backward)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full, lean = traced_peak(True), traced_peak(False)
    assert lean <= 0.4 * full, (lean, full)


def test_a_checkpoint_loaded_from_a_path_is_refused_naming_the_path(tmp_path):
    corpus, enc, moe, model = small_setup(seed=13)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, bad)
    bad.write_bytes(bad.read_bytes()[:-9])
    for source in (bad, str(bad)):
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(bad))}: truncated checkpoint: payload has "):
            load_checkpoint(source, corpus.taxonomy)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(bad))}: bad magic: expected b'TXNJ'$"):
            load_judge(source)


# --- container fuzzing: only CheckpointError escapes the loaders -------------


def json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


@st.composite
def header_paths(draw, header):
    """A key or index path into a decoded header: a random walk from the top
    that may stop at any level, so shallow keys are drawn as often as deep ones."""
    path, node = [], header
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return path


def with_header(blob, header):
    """`blob` with its header replaced by `header`; the payload and its checksum are kept."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :]


@st.composite
def mutated_containers(draw, blob):
    kind = draw(st.sampled_from(["flip", "truncate", "delete", "retype"]))
    if kind == "flip":
        out = bytearray(blob)
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3)):
            out[at] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    path = draw(header_paths(header))
    holder = header
    for key in path[:-1]:
        holder = holder[key]
    if kind == "delete":
        del holder[path[-1]]
    else:
        holder[path[-1]] = draw(json_values())
    return with_header(blob, header)


def judge_container():
    judge = JudgeModel(weights=np.zeros((4, 3)), bias=np.zeros(3), tau_hi=0.1, tau_lo=-0.1,
                       taxonomy_hash=FUZZ_SETUP[0].taxonomy.fingerprint(), popularity={"A": 0.5}, holdout_agreement=0.9)
    return saved(save_judge, judge)


FUZZ_SETUP = small_setup(seed=21)
FUZZ_MODEL = saved(save_checkpoint, FUZZ_SETUP[3])


@settings(max_examples=300)
@given(blob=mutated_containers(FUZZ_MODEL))
def test_only_checkpoint_error_escapes_a_mutated_model_container(blob):
    try:
        loaded(load_checkpoint, blob, FUZZ_SETUP[0].taxonomy)
    except CheckpointError:
        pass


@settings(max_examples=300)
@given(blob=mutated_containers(judge_container()))
def test_only_checkpoint_error_escapes_a_mutated_judge_container(blob):
    try:
        loaded(load_judge, blob)
    except CheckpointError:
        pass


@pytest.mark.parametrize("key", ["moe_config", "taxonomy_hash"])
def test_checkpoint_header_without_a_key_raises_checkpoint_error(key):
    blob = FUZZ_MODEL
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    del header["meta"][key]
    with pytest.raises(CheckpointError, match=key):
        loaded(load_checkpoint, with_header(blob, header), FUZZ_SETUP[0].taxonomy)
    header = json.loads(blob[16 : 16 + header_len])
    del header["manifest"]
    with pytest.raises(CheckpointError, match="manifest"):
        loaded(load_checkpoint, with_header(blob, header), FUZZ_SETUP[0].taxonomy)
    header["manifest"], header["meta"] = json.loads(blob[16 : 16 + header_len])["manifest"], [1]
    with pytest.raises(CheckpointError, match="meta must be a JSON object"):
        loaded(load_checkpoint, with_header(blob, header), FUZZ_SETUP[0].taxonomy)
    header = json.loads(blob[16 : 16 + header_len])
    rows, cols = header["manifest"][0]["shape"]
    header["manifest"][0]["shape"] = [-rows, -cols]  # the same element count
    with pytest.raises(CheckpointError, match="non-negative"):
        loaded(load_checkpoint, with_header(blob, header), FUZZ_SETUP[0].taxonomy)
