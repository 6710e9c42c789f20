"""The stacked-expert forward and backward against the per-expert loops they
replaced, prediction's chunking, and the kind-major layout."""
import tracemalloc

import numpy as np
import pytest

from taxpath.encoder import EncoderConfig, assemble_batch, build_field_vocabs, prepare_records
from taxpath.infer import FORWARD_CHUNK_ROWS, predict_batch, select_prediction
from taxpath.moe import (
    MoEConfig,
    forward_batch,
    init_model,
    param_manifest,
    softmax,
)
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.train import PROB_FLOOR, LossWeights, backward, build_level_targets

from encoder_oracles import encode_batch


def loop_forward(model, batch):
    """Reference: the per-level, per-expert forward loop, read by parameter name."""
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
    return dict(gates=gates, tanh_out=tanh_out, expert_out=expert_out, hidden=hidden, probs=probs,
                pool=pool, semantic_probs=semantic_probs)


def loop_backward(model, batch, targets, semantic_targets, weights):
    """Reference: the per-expert backward with zeroed gradients and `np.add.at`."""
    cfg = model.moe_config
    enc = model.encoder_config
    cache = loop_forward(model, batch)
    n = batch.dense.shape[0]
    ar = np.arange(n)
    omega_c, omega_s = weights.omega_c, weights.omega_s
    grads = {name: np.zeros_like(v) for name, v in model.params.items()}
    d_dense = np.zeros_like(batch.dense)

    sp = cache["semantic_probs"]
    sem_mask = semantic_targets >= 0
    sem_losses = np.zeros(n)
    d_sem = np.zeros_like(sp)
    if sem_mask.any():
        pt = sp[ar[sem_mask], semantic_targets[sem_mask]]
        sem_losses[sem_mask] = -np.log(np.maximum(pt, PROB_FLOOR))
        live = np.zeros(n, dtype=bool)
        live[sem_mask] = pt > PROB_FLOOR
        coef = np.where(live, (1.0 - omega_s) / n, 0.0)
        onehot = np.zeros_like(sp)
        onehot[ar[sem_mask], semantic_targets[sem_mask]] = 1.0
        d_sem = coef[:, None] * (sp - onehot)
    grads["semantic/W"] += cache["pool"].T @ d_sem
    grads["semantic/b"] += d_sem.sum(axis=0)
    d_pool = d_sem @ model.params["semantic/W"].T

    hier_losses = np.zeros(n)
    d_hidden_levels = []
    for level in range(1, cfg.levels + 1):
        p = cache["probs"][level - 1]
        t_idx = targets.indices[:, level - 1]
        pt = p[ar, t_idx]
        hier_losses_l = -np.log(np.maximum(pt, PROB_FLOOR))
        level_w = np.where(targets.leaf_level == level, 1.0 - omega_c, omega_c)
        hier_losses += level_w * hier_losses_l
        coef = np.where(pt > PROB_FLOOR, omega_s * level_w / n, 0.0)
        onehot = np.zeros_like(p)
        onehot[ar, t_idx] = 1.0
        d_logits = coef[:, None] * (p - onehot)
        grads[f"level{level}/head/W"] += cache["hidden"][level - 1].T @ d_logits
        grads[f"level{level}/head/b"] += d_logits.sum(axis=0)
        d_hidden_levels.append(d_logits @ model.params[f"level{level}/head/W"].T)
    per_sample = omega_s * hier_losses + (1.0 - omega_s) * sem_losses

    for level in range(1, cfg.levels + 1):
        d_u = d_hidden_levels[level - 1] + d_pool / cfg.levels
        g = cache["gates"][level - 1]
        d_gate = np.zeros_like(g)
        for e in range(cfg.experts_per_level):
            d_gate[:, e] = np.einsum("bh,bh->b", d_u, cache["expert_out"][level - 1][e])
        d_gate_logits = g * (d_gate - (g * d_gate).sum(axis=1, keepdims=True))
        grads[f"level{level}/gate/W"] += batch.routing.T @ d_gate_logits
        grads[f"level{level}/gate/b"] += d_gate_logits.sum(axis=0)
        for e in range(cfg.experts_per_level):
            t = cache["tanh_out"][level - 1][e]
            d_h = g[:, e : e + 1] * d_u
            grads[f"level{level}/expert{e}/W2"] += t.T @ d_h
            grads[f"level{level}/expert{e}/b2"] += d_h.sum(axis=0)
            d_t = d_h @ model.params[f"level{level}/expert{e}/W2"].T
            d_a = d_t * (1.0 - t * t)
            grads[f"level{level}/expert{e}/W1"] += batch.dense.T @ d_a
            grads[f"level{level}/expert{e}/b1"] += d_a.sum(axis=0)
            d_dense += d_a @ model.params[f"level{level}/expert{e}/W1"].T

    dt = enc.text_dim
    for lo, tokens, lengths in ((0, batch.title_tok, batch.title_len), (dt, batch.cat_tok, batch.cat_len)):
        sample = [i for i, k in enumerate(lengths) for _ in range(k)]  # the row of each token
        weight = [1.0 / k for k in lengths for _ in range(k)]
        if tokens.size:
            np.add.at(grads["text_table"], tokens, d_dense[sample, lo : lo + dt] * np.array(weight)[:, None])
    off = 2 * dt
    for f_pos, name in enumerate(enc.fields):
        np.add.at(grads[f"field/{name}/table"], batch.field_idx[:, f_pos], d_dense[:, off : off + enc.cat_dim])
        off += enc.cat_dim
    return float(per_sample.mean()), grads


def setup(experts, extra_levels=0, samples=320, seed=0, hidden=5, leaves=14, text_dim=6, cat_dim=3, buckets=97,
          depth=3):
    corpus = synth_corpus(
        SynthConfig(leaves=leaves, samples=samples, leaf_depth_min=2, leaf_depth_max=depth, cpv_rate=0.3), seed=seed
    )
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=buckets, text_dim=text_dim, cat_dim=cat_dim, fields=fields,
                        field_vocabs=build_field_vocabs(corpus.records, fields))
    moe = MoEConfig(levels=corpus.taxonomy.max_depth + extra_levels, experts_per_level=experts,
                    expert_hidden_dim=hidden)
    return corpus, init_model(corpus.taxonomy, enc, moe, seed=seed)


def assert_forward_equal(cache, ref):
    for level, (g, t_list, h_list) in enumerate(zip(ref["gates"], ref["tanh_out"], ref["expert_out"])):
        assert np.array_equal(cache.gates[level], g), level
        for e, (t, h) in enumerate(zip(t_list, h_list)):
            row = level * len(t_list) + e
            assert np.array_equal(cache.tanh_out[row], t), (level, e)
            assert np.array_equal(cache.expert_out[row], h), (level, e)
    for a, b in zip(cache.probs, ref["probs"]):
        assert np.array_equal(a, b)
    assert np.array_equal(cache.hidden, np.array(ref["hidden"]))
    assert np.array_equal(cache.pool, ref["pool"])
    assert np.array_equal(cache.semantic_probs, ref["semantic_probs"])


# the benchmark's dimensions: 50 leaves, text 24, fields 4, 48 hidden, 2,048 buckets
BENCH_DIMS = dict(leaves=50, text_dim=24, cat_dim=4, hidden=48, buckets=2048)


@pytest.mark.parametrize("dims", [{}, BENCH_DIMS], ids=["small", "bench"])
@pytest.mark.parametrize("experts", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [1, 7, 64, 300])
def test_stacked_forward_and_backward_match_the_per_expert_loops(experts, batch_size, dims):
    # one level past the taxonomy's depth: a NULL-only label space
    corpus, model = setup(experts, extra_levels=1, seed=experts, **dims)
    assert model.tables.codes[-1] == "∅" and model.tables.sizes[-1] == 1
    records = corpus.records[:batch_size]
    batch = encode_batch(records, model.params, model.encoder_config)
    assert_forward_equal(forward_batch(model, batch), loop_forward(model, batch))

    targets = build_level_targets(records, model)
    sem = np.arange(batch_size, dtype=np.int64) % 4 - 1  # Y, N, U and class 2
    sem = np.where(sem > 1, 0, sem)
    weights = LossWeights(omega_c=0.3, omega_s=0.6)
    grad_flat = np.full_like(model.flat, np.nan)  # stale contents must all be overwritten
    loss, grads = backward(model, batch, targets, sem, weights, grad_flat=grad_flat)
    ref_loss, ref_grads = loop_backward(model, batch, targets, sem, weights)
    assert loss == ref_loss
    assert list(grads) == list(ref_grads)
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name
    assert np.isfinite(grad_flat).all()


def test_stacked_backward_matches_without_semantic_targets():
    corpus, model = setup(2, seed=5)
    records = corpus.records[:64]
    batch = encode_batch(records, model.params, model.encoder_config)
    targets = build_level_targets(records, model)
    sem = np.full(len(records), -1, dtype=np.int64)
    weights = LossWeights(omega_c=0.2, omega_s=1.0)
    loss, grads = backward(model, batch, targets, sem, weights)
    ref_loss, ref_grads = loop_backward(model, batch, targets, sem, weights)
    assert loss == ref_loss
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


def test_backward_builds_the_views_of_a_reused_buffer_once():
    corpus, model = setup(2, samples=40)
    records = corpus.records[:8]
    batch = encode_batch(records, model.params, model.encoder_config)
    targets = build_level_targets(records, model)
    sem = np.zeros(len(records), dtype=np.int64)
    grad_flat = np.zeros_like(model.flat)
    _, first = backward(model, batch, targets, sem, LossWeights(), grad_flat=grad_flat)
    _, second = backward(model, batch, targets, sem, LossWeights(), grad_flat=grad_flat)
    assert first is second
    _, fresh = backward(model, batch, targets, sem, LossWeights())
    assert fresh is not first and not np.shares_memory(fresh["text_table"], grad_flat)


def predictions_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in (
        "argmax", "confidence", "path", "last", "leaf", "confident", "repathed", "leaf_confidence"))


@pytest.mark.numpy_floor
@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 6151])
def test_chunked_forward_equals_one_pass(n):
    corpus, model = setup(2, extra_levels=1, samples=n, seed=7, hidden=8)
    batch = assemble_batch(prepare_records(corpus.records, model.encoder_config), model.params, model.encoder_config)
    assert batch.dense.shape[0] == n
    one_pass = forward_batch(model, batch, for_backward=False)  # all rows at once
    want = select_prediction(one_pass.probs, model.tables, 0.3)
    got = predict_batch(model, corpus.records, corpus.taxonomy, tau_leaf=0.3)  # in chunks
    assert len(got) == n and predictions_equal(got, want)


@pytest.mark.numpy_floor
def test_chunks_are_balanced(monkeypatch):
    import taxpath.infer as infer

    corpus, model = setup(2, samples=100, hidden=4)
    sizes = []
    real = infer.forward_batch

    def spy(model, batch, for_backward=True):
        sizes.append(batch.dense.shape[0])
        return real(model, batch, for_backward)

    monkeypatch.setattr(infer, "forward_batch", spy)
    monkeypatch.setattr(infer, "FORWARD_CHUNK_ROWS", 32)
    predict_batch(model, corpus.records, corpus.taxonomy)
    assert sizes == [25, 25, 25, 25]  # ceil(100 / 32) = 4 chunks, no short tail
    sizes.clear()
    predict_batch(model, corpus.records[:32], corpus.taxonomy)
    assert sizes == [32]
    assert FORWARD_CHUNK_ROWS == 2048


def test_prediction_memory_stays_flat_in_the_number_of_chunks():
    corpus, model = setup(1, samples=400, seed=11)
    predict_batch(model, corpus.records[:8], corpus.taxonomy)  # label tables built outside the traced peaks

    def traced_peak(records) -> int:
        tracemalloc.start()
        try:
            predict_batch(model, records, corpus.taxonomy)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    records = (corpus.records * (4 * FORWARD_CHUNK_ROWS // len(corpus.records) + 1))[: 4 * FORWARD_CHUNK_ROWS]
    one, four = traced_peak(records[:FORWARD_CHUNK_ROWS]), traced_peak(records)
    assert four < 2 * one, (one, four)


def test_manifest_lists_each_kind_as_one_contiguous_stack():
    corpus, model = setup(3, extra_levels=1, samples=40)
    enc, cfg = model.encoder_config, model.moe_config
    names = [name for name, _ in param_manifest(enc, cfg, model.tables.sizes)]
    levels = range(1, cfg.levels + 1)
    experts = range(cfg.experts_per_level)
    expected = ["text_table", *(f"field/{f}/table" for f in enc.fields)]
    expected += [f"level{l}/gate/W" for l in levels] + [f"level{l}/gate/b" for l in levels]
    for kind in ("W1", "b1", "W2", "b2"):
        expected += [f"level{l}/expert{e}/{kind}" for l in levels for e in experts]
    expected += [f"level{l}/head/{kind}" for l in levels for kind in ("W", "b")]
    expected += ["semantic/W", "semantic/b"]
    assert names == expected == list(model.params)

    s = model.stacks
    for l in levels:
        assert np.shares_memory(s.gate_W[l - 1], model.params[f"level{l}/gate/W"])
        assert np.array_equal(s.gate_W[l - 1], model.params[f"level{l}/gate/W"])
        assert np.array_equal(s.gate_b[l - 1], model.params[f"level{l}/gate/b"])
        for e in experts:
            row = (l - 1) * cfg.experts_per_level + e
            for kind in ("W1", "b1", "W2", "b2"):
                view = getattr(s, kind)[row]
                assert np.shares_memory(view, model.flat)
                assert np.array_equal(view, model.params[f"level{l}/expert{e}/{kind}"]), (l, e, kind)
    for stack in (s.gate_W, s.gate_b, s.W1, s.b1, s.W2, s.b2):
        assert stack.base is not None and stack.flags.c_contiguous


def test_init_draws_the_same_values_in_the_new_layout():
    # the draw order is level by level, expert by expert: a seed gives each
    # named array the values it had in the level-major layout
    from taxpath.util import stream_rng

    corpus, model = setup(2, samples=40, seed=3)
    enc, cfg = model.encoder_config, model.moe_config
    rng = stream_rng(3, "init")
    order = ["text_table", *(f"field/{f}/table" for f in enc.fields)]
    for l in range(1, cfg.levels + 1):
        order += [f"level{l}/gate/W", f"level{l}/gate/b"]
        for e in range(cfg.experts_per_level):
            order += [f"level{l}/expert{e}/{kind}" for kind in ("W1", "b1", "W2", "b2")]
        order += [f"level{l}/head/W", f"level{l}/head/b"]
    order += ["semantic/W", "semantic/b"]
    h = cfg.expert_hidden_dim
    fan_in = {"gate/W": enc.routing_dim, "gate/b": enc.routing_dim, "W1": enc.dense_dim, "b1": enc.dense_dim,
              "W2": h, "b2": h, "head/W": h, "head/b": h}
    for name in order:
        if name == "text_table":
            fan = enc.text_dim
        elif name.startswith("field/"):
            fan = enc.cat_dim
        elif name.startswith("semantic/"):
            fan = h
        else:  # "level<l>/<kind>" or "level<l>/expert<e>/<kind>"
            kind = name.split("/", 1)[1]
            fan = fan_in[kind.split("/", 1)[1] if kind.startswith("expert") else kind]
        scale = 1.0 / np.sqrt(fan)
        want = rng.uniform(-scale, scale, size=model.params[name].shape)
        assert np.array_equal(model.params[name], want), name
