import numpy as np
import pytest

from taxpath.encoder import EncoderConfig, build_field_vocabs
from taxpath.infer import (
    MODE_DEEPEST_VALID,
    MODE_LEAF_CONFIDENT,
    MODE_REPATHED,
    predict_batch,
    repath,
    select_prediction,
)
from taxpath.moe import CheckpointError, LevelDistribution, MoEConfig, init_model
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import NULL_CODE, ancestors, build_taxonomy, is_valid_path


def dist_for(taxonomy, level, weights):
    """LevelDistribution with given label probabilities; the rest of the mass
    spreads uniformly over the unspecified labels."""
    labels = taxonomy.per_level_labels[level]
    probs = np.zeros(len(labels))
    for code, w in weights.items():
        probs[labels.index(code)] = w
    rest = [i for i, code in enumerate(labels) if code not in weights]
    if rest:
        probs[rest] = (1.0 - sum(weights.values())) / len(rest)
    idx = int(probs.argmax())
    return LevelDistribution(level=level, probs=probs, argmax_code=labels[idx], confidence=float(probs[idx]))


def same_selection(a, b):
    return (
        a.selected_path == b.selected_path
        and a.selected_leaf == b.selected_leaf
        and a.mode == b.mode
        and a.leaf_confidence == b.leaf_confidence
    )


@pytest.fixture
def skip_taxonomy():
    # A -> A.1 -> A.1.1 chain plus a parallel B branch at every level
    return build_taxonomy(
        [
            {"code": "A", "name": "a", "definition": "d", "level": 1},
            {"code": "A.1", "name": "a1", "definition": "d", "parent": "A", "level": 2},
            {"code": "A.1.1", "name": "a11", "definition": "d", "parent": "A.1", "level": 3},
            {"code": "B", "name": "b", "definition": "d", "level": 1},
            {"code": "B.1", "name": "b1", "definition": "d", "parent": "B", "level": 2},
            {"code": "B.1.1", "name": "b11", "definition": "d", "parent": "B.1", "level": 3},
        ]
    )


def test_select_confident_leaf(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {"A.1": 0.8}),
        dist_for(skip_taxonomy, 3, {"A.1.1": 0.99}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    assert pred.selected_path == ("A", "A.1", "A.1.1")
    assert pred.mode == MODE_LEAF_CONFIDENT
    assert pred.selected_leaf == "A.1.1"
    assert pred.leaf_confidence == pytest.approx(0.99)


def test_select_two_level_leaf_with_null_below():
    two_level = build_taxonomy(
        [
            {"code": "A", "name": "a", "definition": "d", "level": 1},
            {"code": "A.1", "name": "a1", "definition": "d", "parent": "A", "level": 2},
            {"code": "B", "name": "b", "definition": "d", "level": 1},
        ]
    )
    dists = [
        dist_for(two_level, 1, {"A": 0.9}),
        dist_for(two_level, 2, {"A.1": 0.99}),
    ]
    pred = select_prediction(dists, two_level, tau_leaf=0.5)
    assert pred.selected_path == ("A", "A.1")
    assert pred.mode == MODE_LEAF_CONFIDENT


def test_select_broken_chain_falls_back(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {"B.1": 0.85}),
        dist_for(skip_taxonomy, 3, {NULL_CODE: 0.9}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    assert pred.selected_path == ("A",)
    assert pred.mode == MODE_DEEPEST_VALID


def test_select_uniform_ties_break_lexicographic():
    # opaque codes: the lexicographically first level-2 code belongs to the
    # other root, so the uniform argmax chain stops after level 1
    taxonomy = build_taxonomy(
        [
            {"code": "A", "name": "a", "definition": "d", "level": 1},
            {"code": "B", "name": "b", "definition": "d", "level": 1},
            {"code": "k1", "name": "k1", "definition": "d", "parent": "B", "level": 2},
            {"code": "k2", "name": "k2", "definition": "d", "parent": "A", "level": 2},
        ]
    )
    dists = [dist_for(taxonomy, 1, {}), dist_for(taxonomy, 2, {})]
    pred = select_prediction(dists, taxonomy, tau_leaf=0.5)
    assert pred.selected_path == ("A",)
    assert pred.mode == MODE_DEEPEST_VALID


def test_select_low_confidence_leaf_uses_fallback_chain(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"B": 0.6}),
        dist_for(skip_taxonomy, 2, {"B.1": 0.45}),
        dist_for(skip_taxonomy, 3, {NULL_CODE: 0.8}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    assert pred.selected_path == ("B", "B.1")
    assert pred.mode == MODE_DEEPEST_VALID
    assert pred.leaf_confidence == pytest.approx(0.45)


def test_select_missing_level_errors(skip_taxonomy):
    dists = [dist_for(skip_taxonomy, 1, {"A": 0.9}), dist_for(skip_taxonomy, 3, {"A.1.1": 0.9})]
    with pytest.raises(ValueError, match="missing level"):
        select_prediction(dists, skip_taxonomy)


def test_confident_leaf_keeps_off_chain_prefix(skip_taxonomy):
    # per-level heads decide independently: the level-2 argmax strays to the
    # other subtree while the leaf head is confident and right
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {"B.1": 0.8}),
        dist_for(skip_taxonomy, 3, {"A.1.1": 0.95}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    assert pred.mode == MODE_LEAF_CONFIDENT
    assert pred.selected_path == ("A", "B.1", "A.1.1")
    assert pred.selected_leaf == "A.1.1"

    fixed = repath(pred, skip_taxonomy)
    assert fixed.selected_path == ("A", "A.1", "A.1.1")
    assert fixed.mode == MODE_REPATHED
    assert fixed.selected_leaf == "A.1.1"
    assert fixed.leaf_confidence == pred.leaf_confidence
    assert is_valid_path(skip_taxonomy, list(fixed.selected_path))


def test_confident_leaf_with_null_above_falls_back(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {NULL_CODE: 0.8}),
        dist_for(skip_taxonomy, 3, {"A.1.1": 0.95}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    assert pred.mode == MODE_DEEPEST_VALID
    assert pred.selected_path == ("A",)


def test_repath_fixed_point_and_idempotent(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {"A.1": 0.9}),
        dist_for(skip_taxonomy, 3, {"A.1.1": 0.95}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.5)
    once = repath(pred, skip_taxonomy)
    assert once.selected_path == pred.selected_path
    twice = repath(once, skip_taxonomy)
    assert same_selection(twice, once)


def test_repath_internal_leaf_untouched(skip_taxonomy):
    dists = [
        dist_for(skip_taxonomy, 1, {"A": 0.9}),
        dist_for(skip_taxonomy, 2, {NULL_CODE: 0.5, "A.1": 0.4}),
        dist_for(skip_taxonomy, 3, {NULL_CODE: 0.9}),
    ]
    pred = select_prediction(dists, skip_taxonomy, tau_leaf=0.95)
    assert pred.selected_leaf == "A"
    assert repath(pred, skip_taxonomy) is pred


def untrained_model(seed=17):
    corpus = synth_corpus(
        SynthConfig(leaves=15, samples=80, leaf_depth_min=2, leaf_depth_max=4), seed=seed
    )
    fields = ("bu_code", "ou_code", "system_code")
    enc = EncoderConfig(hash_buckets=128, text_dim=6, cat_dim=2, fields=fields,
                        field_vocabs=build_field_vocabs(corpus.records, fields))
    moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=2,
                    expert_hidden_dim=8)
    model = init_model(corpus.taxonomy, enc, moe, seed=seed)
    return corpus, model


def test_predict_batch_basics():
    corpus, model = untrained_model()
    assert predict_batch(model, [], corpus.taxonomy) == []
    preds = predict_batch(model, corpus.records, corpus.taxonomy, tau_leaf=0.5)
    assert len(preds) == len(corpus.records)
    for pred in preds:
        assert pred.selected_leaf == pred.selected_path[-1]
        if pred.mode == MODE_DEEPEST_VALID:
            assert is_valid_path(corpus.taxonomy, list(pred.selected_path))
        else:
            assert corpus.taxonomy.nodes[pred.selected_leaf].is_leaf


def test_predict_batch_repath_composition():
    corpus, model = untrained_model(seed=19)
    base = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=False)
    external = [repath(p, corpus.taxonomy) for p in base]
    internal = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=True)
    assert all(same_selection(a, b) for a, b in zip(external, internal))


def test_predict_batch_leaf_invariance_under_repath():
    corpus, model = untrained_model(seed=23)
    base = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=False)
    after = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=True)
    for a, b in zip(base, after):
        assert a.selected_leaf == b.selected_leaf
        assert a.leaf_confidence == b.leaf_confidence
        assert is_valid_path(corpus.taxonomy, list(b.selected_path))


def test_predict_batch_hash_mismatch():
    corpus, model = untrained_model(seed=29)
    other = synth_corpus(SynthConfig(leaves=15, samples=0), seed=77).taxonomy
    with pytest.raises(CheckpointError, match="mismatch"):
        predict_batch(model, corpus.records[:2], other)


def test_correct_leaf_plus_repath_recovers_true_path():
    corpus, model = untrained_model(seed=31)
    preds = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=True)
    for rec, pred in zip(corpus.records, preds):
        true_leaf = rec.label_path[-1]
        if pred.selected_leaf == true_leaf and corpus.taxonomy.nodes[true_leaf].is_leaf:
            assert pred.selected_path == tuple(ancestors(corpus.taxonomy, true_leaf))
