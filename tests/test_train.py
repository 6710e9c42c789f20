import math
from dataclasses import fields, replace

import numpy as np
import pytest

from taxpath.encoder import EncoderConfig, build_field_vocabs
from taxpath.moe import MoEConfig, forward_batch, init_model
from taxpath.semantic import ConsistencyLabel
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import NULL_CODE
from taxpath.train import (
    Adam,
    LossWeights,
    SGD,
    TrainConfig,
    SEMANTIC_CLASS_INDEX,
    TrainingError,
    backward,
    build_level_targets,
    fit,
    hierarchical_loss,
    level_loss,
    semantic_loss,
    total_loss,
)

from encoder_oracles import encode_batch


def test_level_loss_values():
    uniform = np.full(5, 0.2)
    assert level_loss(uniform, 3) == pytest.approx(math.log(5), abs=1e-12)
    certain = np.array([0.0, 1.0, 0.0])
    assert level_loss(certain, 1) == 0.0
    probs = np.array([0.7, 0.2, 0.1])
    assert level_loss(probs, 1) == pytest.approx(-math.log(0.2), abs=1e-12)
    with pytest.raises(IndexError):
        level_loss(probs, 3)


def test_level_loss_clamps_zero_probability():
    probs = np.array([1.0, 0.0])
    assert level_loss(probs, 1) == pytest.approx(-math.log(1e-12), rel=1e-9)


def test_hierarchical_loss_collapses_exactly():
    losses = [1.0, 2.0, 3.0]
    assert hierarchical_loss(losses, 3, 0.0) == losses[2]
    assert hierarchical_loss(losses, 2, 1.0) == losses[0] + losses[2]
    assert hierarchical_loss(losses, 3, 0.2) == pytest.approx(0.2 * 3.0 + 0.8 * 3.0, abs=1e-15)
    with pytest.raises(IndexError):
        hierarchical_loss(losses, 4, 0.2)


def test_semantic_loss_values():
    assert semantic_loss(np.array([0.3, 0.3, 0.4]), SEMANTIC_CLASS_INDEX["U"]) == 0.0
    uniform = np.full(3, 1.0 / 3.0)
    assert semantic_loss(uniform, SEMANTIC_CLASS_INDEX["Y"]) == pytest.approx(math.log(3), abs=1e-12)
    probs = np.array([0.1, 0.8, 0.1])
    assert semantic_loss(probs, SEMANTIC_CLASS_INDEX["N"]) == pytest.approx(-math.log(0.8), abs=1e-12)


def test_loss_helpers_on_arrays_match_them_row_by_row():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(5), size=7)
    probs[2, 4] = 0.0  # clamped
    targets = np.array([0, 4, 4, 1, 2, 3, 0])
    losses = level_loss(probs, targets)
    assert losses.tolist() == [level_loss(p, t) for p, t in zip(probs, targets)]
    level_losses = rng.uniform(0.0, 3.0, size=(3, 7))
    leaf = np.array([1, 2, 3, 3, 2, 1, 3])
    hier = hierarchical_loss(level_losses, leaf, 0.3)
    assert hier.tolist() == [hierarchical_loss(list(col), d, 0.3) for col, d in zip(level_losses.T, leaf)]
    sem_probs = rng.dirichlet(np.ones(3), size=7)
    sem = np.array([0, 1, -1, 0, -1, 1, 0])
    sem_losses = semantic_loss(sem_probs, sem)
    assert sem_losses.tolist() == [semantic_loss(p, t) for p, t in zip(sem_probs, sem)]
    assert sem_losses[sem < 0].tolist() == [0.0, 0.0]
    assert total_loss(hier, sem_losses, 0.2).tolist() == [
        total_loss(h, s, 0.2) for h, s in zip(hier, sem_losses)
    ]


def test_loss_helpers_reject_out_of_range_indices():
    probs = np.full((2, 3), 1.0 / 3.0)
    for bad in ([0, -1], [0, 3]):
        with pytest.raises(IndexError):
            level_loss(probs, np.array(bad))
    with pytest.raises(IndexError):
        level_loss(probs[0], -1)
    with pytest.raises(IndexError):
        semantic_loss(probs, np.array([-2, 0]))
    with pytest.raises(IndexError):
        hierarchical_loss(np.zeros((2, 2)), np.array([1, 0]), 0.2)
    with pytest.raises(IndexError):
        hierarchical_loss(np.zeros((2, 2)), np.array([1, 3]), 0.2)


def test_total_loss_weighting():
    assert total_loss(2.0, 1.0, 1.0) == 2.0
    assert total_loss(2.0, 1.0, 0.0) == 1.0
    assert total_loss(2.0, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)


def test_loss_weight_validation():
    with pytest.raises(ValueError):
        LossWeights(omega_c=1.2, omega_s=0.2)
    with pytest.raises(ValueError):
        LossWeights(omega_c=0.2, omega_s=-0.1)


def tiny_setup(seed=0, experts=2, hidden=4, levels=None, samples=40):
    corpus = synth_corpus(
        SynthConfig(leaves=12, samples=samples, leaf_depth_min=2, leaf_depth_max=3), seed=seed
    )
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(
        hash_buckets=64,
        text_dim=4,
        cat_dim=2,
        fields=fields,
        field_vocabs=build_field_vocabs(corpus.records, fields),
    )
    moe = MoEConfig(
        levels=levels or corpus.taxonomy.max_depth,
        experts_per_level=experts,
        expert_hidden_dim=hidden,
    )
    model = init_model(corpus.taxonomy, enc, moe, seed=seed)
    return corpus, enc, moe, model


def test_build_level_targets_lie_on_ancestor_chain():
    corpus, enc, moe, model = tiny_setup()
    records = corpus.records[:10]
    targets = build_level_targets(records, model)
    for i, rec in enumerate(records):
        d = len(rec.label_path)
        assert targets.leaf_level[i] == d
        for level in range(1, moe.levels + 1):
            label = model.level_labels[level - 1][targets.indices[i, level - 1]]
            if level <= d:
                assert label == rec.label_path[level - 1]
            else:
                assert label == "∅"


def test_zero_model_head_bias_gradient_closed_form():
    corpus, enc, moe, model = tiny_setup(seed=2)
    for name in model.params:
        model.params[name][:] = 0.0
    records = corpus.records[:8]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.full(len(records), -1, dtype=np.int64)
    weights = LossWeights(omega_c=0.0, omega_s=1.0)
    _, grads = backward(model, batch, targets, sem, weights)
    cache = forward_batch(model, batch)
    for level in range(1, moe.levels + 1):
        p = cache.probs[level - 1]  # uniform rows
        onehot = np.zeros_like(p)
        onehot[np.arange(len(records)), targets.indices[:, level - 1]] = 1.0
        is_leaf = (targets.leaf_level == level).astype(float)
        expected = ((p - onehot) * is_leaf[:, None]).sum(axis=0) / len(records)
        assert np.allclose(grads[f"level{level}/head/b"], expected, atol=1e-12)


def numeric_gradient(model, records, enc, targets, sem, weights, name, idx, step=1e-6):
    arr = model.params[name]
    orig = arr[idx]

    def loss_at(value):
        arr[idx] = value
        batch = encode_batch(records, model.params, enc)
        loss, _ = backward(model, batch, targets, sem, weights)
        return loss

    lp = loss_at(orig + step)
    lm = loss_at(orig - step)
    arr[idx] = orig
    return (lp - lm) / (2 * step)


def test_gradients_match_finite_differences():
    corpus, enc, moe, model = tiny_setup(seed=4, experts=2, hidden=4)
    records = corpus.records[:6]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.array([0, 1, -1, 0, 1, 0], dtype=np.int64)
    weights = LossWeights(omega_c=0.3, omega_s=0.6)
    _, grads = backward(model, batch, targets, sem, weights)
    rng = np.random.default_rng(4)
    names = sorted(model.params)
    checked = 0
    for _ in range(60):
        name = names[int(rng.integers(len(names)))]
        idx = tuple(int(rng.integers(s)) for s in model.params[name].shape)
        num = numeric_gradient(model, records, enc, targets, sem, weights, name, idx)
        ana = grads[name][idx]
        assert abs(num - ana) <= max(2e-9, 1e-6 * max(abs(num), abs(ana))), (name, idx, num, ana)
        checked += 1
    assert checked == 60


def test_gate_gradients_zero_with_single_expert():
    corpus, enc, moe, model = tiny_setup(seed=5, experts=1)
    records = corpus.records[:6]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.zeros(len(records), dtype=np.int64)
    _, grads = backward(model, batch, targets, sem, LossWeights(0.2, 0.2))
    for level in range(1, moe.levels + 1):
        assert np.all(grads[f"level{level}/gate/W"] == 0.0)
        assert np.all(grads[f"level{level}/gate/b"] == 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_backward_reports_offending_sample():
    corpus, enc, moe, model = tiny_setup(seed=6)
    model.params["level1/head/b"][0] = np.inf
    records = corpus.records[:3]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.full(3, -1, dtype=np.int64)
    with pytest.raises(TrainingError, match=records[0].id):
        backward(model, batch, targets, sem, LossWeights(0.2, 1.0), sample_ids=[r.id for r in records])


@pytest.mark.parametrize("sem", [[-1, -1, -1, -1, -1, -1], [0, 1, -1, 0, 1, 0]])
def test_backward_loss_is_the_mean_of_the_scalar_helper_losses(sem):
    corpus, enc, moe, model = tiny_setup(seed=4)
    records = corpus.records[:6]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.array(sem, dtype=np.int64)
    weights = LossWeights(omega_c=0.3, omega_s=0.6)
    loss, _ = backward(model, batch, targets, sem, weights)
    cache = forward_batch(model, batch)
    per_sample = []
    for i in range(len(records)):
        level_losses = [level_loss(cache.probs[lv][i], targets.indices[i, lv]) for lv in range(moe.levels)]
        l_c = hierarchical_loss(level_losses, targets.leaf_level[i], weights.omega_c)
        l_s = semantic_loss(cache.semantic_probs[i], sem[i])
        per_sample.append(total_loss(l_c, l_s, weights.omega_s))
    assert loss == np.mean(per_sample)


def test_build_level_targets_rejects_a_path_the_model_cannot_hold():
    corpus, enc, moe, model = tiny_setup(seed=3)
    rec = corpus.records[0]
    for path in ((), rec.label_path + ("X",) * moe.levels):
        with pytest.raises(TrainingError, match=f"{rec.id}.*{len(path)} codes"):
            build_level_targets([replace(rec, label_path=path)], model)


def test_optimizer_zero_learning_rate_is_identity():
    corpus, enc, moe, model = tiny_setup(seed=7)
    records = corpus.records[:6]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.zeros(len(records), dtype=np.int64)
    grad_flat = np.zeros_like(model.flat)
    backward(model, batch, targets, sem, LossWeights(0.2, 0.5), grad_flat=grad_flat)
    for opt in (Adam(0.0), SGD(0.0)):
        before = {k: v.copy() for k, v in model.params.items()}
        opt.step(model.flat, grad_flat)
        for name in before:
            assert np.array_equal(model.params[name], before[name])


class DictAdam:
    """Reference: the per-array Adam the flat in-place one replaced."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def dict_sgd_step(learning_rate, params, grads):
    """Reference: the per-array SGD step."""
    for name, g in grads.items():
        params[name] -= learning_rate * g


def optimizer_oracle_run(flat_optimizer, dict_step, steps):
    """Train two copies of one model on the same batches: one with the flat
    in-place optimizer, one with a per-array reference; require equal bits."""
    corpus, enc, moe, model = tiny_setup(seed=12, samples=80)
    ref_model = init_model(corpus.taxonomy, enc, moe, seed=12)
    start = model.flat.copy()
    grad_flat = np.zeros_like(model.flat)
    weights = LossWeights(0.3, 0.6)
    for t in range(steps):
        records = corpus.records[8 * (t % 9) : 8 * (t % 9) + 8]
        targets = build_level_targets(records, model)
        sem = np.arange(len(records), dtype=np.int64) % 3 - 1
        batch = encode_batch(records, model.params, enc)
        backward(model, batch, targets, sem, weights, grad_flat=grad_flat)
        flat_optimizer.step(model.flat, grad_flat)
        ref_batch = encode_batch(records, ref_model.params, enc)
        _, ref_grads = backward(ref_model, ref_batch, targets, sem, weights)
        dict_step(ref_model.params, ref_grads)
        assert np.array_equal(model.flat, ref_model.flat), t
    assert not np.array_equal(model.flat, start)


def test_flat_adam_matches_per_array_adam_for_20_steps():
    optimizer_oracle_run(Adam(5e-3), DictAdam(5e-3).step, steps=20)


def test_flat_sgd_matches_per_array_sgd():
    optimizer_oracle_run(SGD(5e-2), lambda params, grads: dict_sgd_step(5e-2, params, grads), steps=5)


def test_backward_reuses_and_zeroes_the_gradient_buffer():
    corpus, enc, moe, model = tiny_setup(seed=13)
    records = corpus.records[:6]
    batch = encode_batch(records, model.params, enc)
    targets = build_level_targets(records, model)
    sem = np.zeros(len(records), dtype=np.int64)
    _, fresh = backward(model, batch, targets, sem, LossWeights(0.2, 0.5))
    grad_flat = np.full_like(model.flat, 7.0)  # stale contents must not leak in
    _, grads = backward(model, batch, targets, sem, LossWeights(0.2, 0.5), grad_flat=grad_flat)
    assert list(grads) == list(model.params)
    for name, g in grads.items():
        assert np.shares_memory(g, grad_flat), name
        assert np.array_equal(g, fresh[name]), name


def test_fit_zero_learning_rate_keeps_parameters():
    corpus, enc, moe, model = tiny_setup(seed=8)
    before = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainConfig(batch_size=16, epochs=1, learning_rate=0.0, seed=8)
    model, logs = fit(model, corpus.records[:30], corpus.records[30:40], corpus.taxonomy, None, cfg)
    assert len(logs) == 1
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_fit_selects_epochs_with_the_given_tau_leaf():
    # tau_leaf above 1 admits no leaf-confident prediction, so validation
    # scores the deepest-valid fallback; training itself is unchanged
    from taxpath.infer import MODE_DEEPEST_VALID, predict_batch

    corpus, enc, moe, _ = tiny_setup(seed=2, samples=200, hidden=8)
    cfg = TrainConfig(batch_size=16, epochs=3, learning_rate=2e-2, seed=2,
                      loss_weights=LossWeights(0.2, 1.0))
    train, val = corpus.records[:150], corpus.records[150:]
    runs = {}
    for tau in (0.5, 1.5):
        model = init_model(corpus.taxonomy, enc, moe, seed=2)
        runs[tau] = fit(model, train, val, corpus.taxonomy, None, cfg, tau_leaf=tau)
    (_, logs_default), (model, logs_strict) = runs[0.5], runs[1.5]
    assert [r["train_loss"] for r in logs_default] == [r["train_loss"] for r in logs_strict]
    assert [r["val_leaf_acc"] for r in logs_default] != [r["val_leaf_acc"] for r in logs_strict]
    preds = predict_batch(model, val, corpus.taxonomy, tau_leaf=1.5)
    assert {p.mode for p in preds} == {MODE_DEEPEST_VALID}
    acc = sum(p.selected_leaf == r.leaf() for p, r in zip(preds, val)) / len(val)
    assert acc == max(r["val_leaf_acc"] for r in logs_strict)


def test_fit_deterministic_replay():
    corpus, enc, moe, _ = tiny_setup(seed=9, samples=80)
    cfg = TrainConfig(batch_size=16, epochs=3, learning_rate=1e-2, seed=9)
    train, val = corpus.records[:60], corpus.records[60:]

    def run():
        model = init_model(corpus.taxonomy, enc, moe, seed=9)
        return fit(model, train, val, corpus.taxonomy, None, cfg)

    model_a, logs_a = run()
    model_b, logs_b = run()
    strip = lambda logs: [{k: v for k, v in row.items() if k != "seconds"} for row in logs]
    assert strip(logs_a) == strip(logs_b)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
        assert np.shares_memory(model_a.params[name], model_a.flat)  # restored in place


def test_fit_names_a_training_record_without_annotation():
    corpus, enc, moe, model = tiny_setup(seed=10)
    train = corpus.records[:8]
    annotations = {r.id: ConsistencyLabel("Y", "") for r in train if r.id != train[5].id}
    with pytest.raises(TrainingError, match=f"'{train[5].id}' has no annotation"):
        fit(model, train, [], corpus.taxonomy, annotations, TrainConfig(epochs=1, seed=0))


def test_fit_empty_training_set():
    corpus, enc, moe, model = tiny_setup(seed=10)
    with pytest.raises(TrainingError, match="empty"):
        fit(model, [], corpus.records[:5], corpus.taxonomy, None, TrainConfig(epochs=1, seed=0))


def test_loss_decreases_over_first_epochs():
    # statistical check on a separable corpus, three seeds
    for seed in (1, 2, 3):
        corpus = synth_corpus(
            SynthConfig(leaves=15, samples=300, leaf_depth_min=2, leaf_depth_max=3,
                        noise_token_rate=0.1, zipf_exponent=1.0),
            seed=seed,
        )
        fields = ("bu_code", "ou_code", "system_code")
        enc = EncoderConfig(hash_buckets=256, text_dim=8, cat_dim=2, fields=fields,
                            field_vocabs=build_field_vocabs(corpus.records, fields))
        moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=2,
                        expert_hidden_dim=16)
        model = init_model(corpus.taxonomy, enc, moe, seed=seed)
        cfg = TrainConfig(batch_size=32, epochs=5, learning_rate=5e-3, seed=seed,
                          loss_weights=LossWeights(omega_c=0.2, omega_s=1.0))
        _, logs = fit(model, corpus.records[:250], corpus.records[250:], corpus.taxonomy, None, cfg)
        losses = [row["train_loss"] for row in logs]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.01, losses
        assert losses[-1] < losses[0]


def test_train_config_validation():
    assert [f.name for f in fields(TrainConfig)] == ["batch_size", "epochs", "learning_rate", "loss_weights", "seed"]
    for bad in ({"batch_size": 0}, {"epochs": -1}, {"learning_rate": -1e-3}, {"learning_rate": math.inf}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for gone in ("optimizer", "beta1", "beta2", "eps", "grad_clip"):  # Adam's constants; no clipping
        with pytest.raises(TypeError, match=gone):
            TrainConfig(**{gone: 0.5})


def test_fixed_depth_corpus_carries_a_null_label_that_is_never_a_target(tmp_path):
    # every path reaches full depth: each level's head still holds NULL, and no record targets it
    from taxpath.dataset import SplitSpec, load_wos, split
    from taxpath.infer import predict_batch

    topics = {
        "Biology": {"Genetics": "gene dna allele locus", "Ecology": "habitat species biome niche"},
        "CS": {"Vision": "pixel image convolution edge", "NLP": "token corpus parse embedding"},
        "Physics": {"Optics": "lens photon refraction beam", "Plasma": "ion discharge torus coil"},
    }
    rng = np.random.default_rng(0)
    rows = []
    for i in range(600):
        l1 = list(topics)[rng.integers(3)]
        l2 = list(topics[l1])[rng.integers(2)]
        words = topics[l1][l2].split()
        text = " ".join(words[rng.integers(4)] for _ in range(6))
        rows.append(f"{text}\t{l1}\t{l2}")
    src = tmp_path / "wos.tsv"
    src.write_text("\n".join(rows), encoding="utf-8")
    taxonomy, records = load_wos(src)

    train_recs, val_recs, test_recs = split(records, SplitSpec(0.64, 0.16, 0.20, seed=3))
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=256, text_dim=8, cat_dim=2, fields=fields,
                        field_vocabs=build_field_vocabs(train_recs, fields))
    moe = MoEConfig(levels=2, experts_per_level=2, expert_hidden_dim=16)
    model = init_model(taxonomy, enc, moe, seed=3)
    assert [w.shape[1] for w in (model.params["level1/head/W"], model.params["level2/head/W"])] == [4, 7]
    assert all(labels[-1] == NULL_CODE for labels in model.level_labels)
    assert all(len(r.label_path) == 2 for r in records)
    cfg = TrainConfig(batch_size=32, epochs=6, learning_rate=5e-3, seed=3,
                      loss_weights=LossWeights(0.2, 1.0))
    model, _ = fit(model, train_recs, val_recs, taxonomy, None, cfg)
    preds = predict_batch(model, test_recs, taxonomy, 0.5)
    acc = sum(1 for p, r in zip(preds, test_recs) if p.selected_leaf == r.leaf()) / len(test_recs)
    assert acc >= 0.95
