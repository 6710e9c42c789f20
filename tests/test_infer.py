import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taxpath.dataset import ProductRecord
from taxpath.encoder import EncoderConfig, build_field_vocabs, prepare_records
from taxpath.infer import (
    MODE_DEEPEST_VALID,
    MODE_LEAF_CONFIDENT,
    MODE_REPATHED,
    PredictionPath,
    Predictions,
    label_tables,
    predict_batch,
    predict_prepared,
    prediction_to_dict,
    read_predictions,
    repath,
    select_prediction,
    write_predictions,
)
from taxpath.moe import CheckpointError, MoEConfig, init_model, level_spaces
from taxpath.synth import SynthConfig, SynthConfigError, synth_corpus
from taxpath.taxonomy import NULL_CODE, ancestors, build_taxonomy, is_valid_path
from taxpath.train import leaf_accuracy


# --- the per-row selector the columnar one replaced, kept as its oracle ------


def scalar_select(probs, spaces, taxonomy, tau_leaf):
    """Rows selected one at a time from per-level (N, K) probabilities over
    the label spaces `spaces`, as the per-row code did."""
    rows = []
    for i in range(probs[0].shape[0]):
        dists = []  # (level, probability row, argmax code, confidence)
        for level, (p, labels) in enumerate(zip(probs, spaces), start=1):
            idx = int(np.argmax(p[i]))
            dists.append((level, p[i], labels[idx], float(p[i][idx])))
        rows.append(scalar_select_row(dists, taxonomy, tau_leaf))
    return rows


def scalar_select_row(dists, taxonomy, tau_leaf):
    argmaxes = tuple(code for _, _, code, _ in dists)
    best = None  # (confidence, level)
    for level, _, code, confidence in dists:
        if code == NULL_CODE or code not in taxonomy.nodes:
            continue
        if taxonomy.nodes[code].is_leaf and confidence >= tau_leaf:
            if best is None or confidence > best[0]:
                best = (confidence, level)
    if best is not None:
        confidence, level = best
        prefix = argmaxes[:level]
        if NULL_CODE not in prefix:
            return PredictionPath(prefix, prefix[-1], MODE_LEAF_CONFIDENT, confidence, argmaxes)
    # fallback: longest valid prefix; level 1 restricted to real codes
    level1_codes = taxonomy.per_level_labels[1][:-1]
    first = level1_codes[int(dists[0][1][: len(level1_codes)].argmax())]
    path = [first]
    for _, _, code, _ in dists[1:]:
        node = taxonomy.nodes.get(code)
        if code == NULL_CODE or node is None or node.parent != path[-1]:
            break
        path.append(code)
    leaf_conf = float(dists[len(path) - 1][1][taxonomy.per_level_labels[len(path)].index(path[-1])])
    return PredictionPath(tuple(path), path[-1], MODE_DEEPEST_VALID, leaf_conf, argmaxes)


def scalar_repath(row, taxonomy):
    node = taxonomy.nodes.get(row.selected_leaf)
    if node is None or not node.is_leaf:
        return row
    return row._replace(selected_path=taxonomy.chain(row.selected_leaf), mode=MODE_REPATHED)


@st.composite
def selection_cases(draw):
    """A random taxonomy, a model's label spaces over it (possibly deeper
    than the taxonomy) and per-level probabilities."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))  # codes per level
    nodes, above = [], []
    for level, count in enumerate(counts, start=1):
        codes = [f"{chr(ord('a') + draw(st.integers(0, 25)))}{level}{j}" for j in range(count)]
        for code in codes:
            parent = draw(st.sampled_from(above)) if above else None
            nodes.append({"code": code, "name": code, "definition": code, "level": level,
                          **({"parent": parent} if parent else {})})
        above = codes
    taxonomy = build_taxonomy(nodes)
    spaces = level_spaces(taxonomy, len(counts) + draw(st.integers(0, 2)))
    n = draw(st.integers(0, 12))
    # a few coarse values, so rows often tie for their maximum
    values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    probs = [draw(hnp.arrays(np.float64, (n, len(labels)), elements=values)) for labels in spaces]
    tau = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return taxonomy, spaces, probs, tau


@settings(max_examples=400)
@given(case=selection_cases())
def test_columnar_selection_and_repath_match_the_scalar_oracle(case):
    taxonomy, spaces, probs, tau = case
    preds = select_prediction(probs, label_tables(taxonomy, len(spaces)), tau)
    expected = scalar_select(probs, spaces, taxonomy, tau)
    assert len(preds) == len(expected)
    for got, want in zip(preds, expected):
        for field in PredictionPath._fields:
            assert getattr(got, field) == getattr(want, field), field
        assert type(got.leaf_confidence) is float
    for got, want in zip(repath(preds, taxonomy), expected):
        assert got == scalar_repath(want, taxonomy)


@settings(max_examples=200)
@given(case=selection_cases())
def test_select_prediction_argmax_matches_per_row_argmax(case):
    taxonomy, spaces, probs, _ = case
    preds = select_prediction(probs, label_tables(taxonomy, len(spaces)))
    assert len(preds) == probs[0].shape[0]
    codes = label_tables(taxonomy, len(spaces)).codes
    for i in range(len(preds)):
        got = [(level, codes[g], c) for level, (g, c) in
               enumerate(zip(preds.argmax[i].tolist(), preds.confidence[i].tolist()), start=1)]
        assert got == per_row_argmax(spaces, probs, i)


def per_row_argmax(spaces, probs, i):
    """The per-row, per-level argmax the batched version replaced."""
    out = []
    for level, p in enumerate(probs, start=1):
        row = p[i]
        idx = int(np.argmax(row))
        out.append((level, spaces[level - 1][idx], float(row[idx])))
    return out


def test_select_prediction_argmax_ties_go_to_the_lowest_label():
    taxonomy = build_taxonomy([{"code": c, "name": c, "definition": c, "level": 1} for c in ("a", "b")])
    spaces = (("a", "b", NULL_CODE),)
    preds = select_prediction([np.array([[0.2, 0.4, 0.4]])], label_tables(taxonomy, len(spaces)))
    (pred,) = preds
    assert (pred.per_level_argmax[0], float(preds.confidence[0, 0])) == ("b", 0.4)


# --- one row, selected over Python values, against its columnar selection ----


def assert_same_columns(got, want):
    for column in dataclasses.fields(Predictions)[1:]:
        a, b = getattr(got, column.name), getattr(want, column.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column.name


def assert_one_row_selects_as_the_columns(probs, taxonomy, spaces, tau):
    """`select_prediction` of one row, then RePath, equal that row selected as the first of two copies, which
    selects columns, field by field."""
    tables = label_tables(taxonomy, len(spaces))
    got = select_prediction(probs, tables, tau)
    want = select_prediction([np.concatenate([p, p]) for p in probs], tables, tau)
    assert_same_columns(got, want[:1])
    assert_same_columns(repath(got, taxonomy), repath(want, taxonomy)[:1])


edge_values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan, math.inf, -math.inf]) | st.floats()


@pytest.mark.numpy_floor
@settings(max_examples=400, derandomize=True)
@given(case=selection_cases(), data=st.data())
def test_one_row_selection_equals_the_columnar_row(case, data):
    """Over random taxonomies and label spaces, with or without NULL, and rows of coarse values (ties), signed
    zeros, NaN and ±inf, at τ 0, 1 and between."""
    taxonomy, spaces, _, _ = case
    probs = [data.draw(hnp.arrays(np.float64, (1, len(labels)), elements=edge_values)) for labels in spaces]
    tau = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    assert_one_row_selects_as_the_columns(probs, taxonomy, spaces, tau)


NAN, INF = math.nan, math.inf
EDGE_ROWS = {  # over skip_taxonomy's label spaces: (A, B, NULL), (A.1, B.1, NULL), (A.1.1, B.1.1, NULL)
    "ties at every level": [[0.4, 0.4, 0.2], [0.5, 0.5, 0.0], [0.45, 0.45, 0.1]],
    "NULL argmax above the leaf": [[0.9, 0.1, 0.0], [0.1, 0.1, 0.8], [0.95, 0.0, 0.05]],
    "NULL argmax at level 1": [[0.2, 0.1, 0.7], [0.8, 0.1, 0.1], [0.9, 0.05, 0.05]],
    "NULL argmax at the leaf level": [[0.9, 0.1, 0.0], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
    "fallback of length 1": [[0.6, 0.4, 0.0], [0.0, 0.9, 0.1], [0.0, 0.2, 0.8]],
    "first NaN wins its level": [[NAN, 0.5, NAN], [0.2, NAN, 0.9], [0.9, NAN, 0.0]],
    "NaN everywhere": [[NAN, NAN, NAN], [NAN, NAN, NAN], [NAN, NAN, NAN]],
    "+inf and -inf": [[-INF, INF, 0.0], [INF, INF, -INF], [-INF, -INF, -INF]],
    "signed zeros": [[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, 0.0]],
}


@pytest.mark.numpy_floor
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", EDGE_ROWS)
def test_one_row_selection_equals_the_columnar_row_on_edge_rows(skip_taxonomy, name, tau):
    spaces = tuple(skip_taxonomy.per_level_labels[l] for l in (1, 2, 3))
    assert_one_row_selects_as_the_columns([np.array([level]) for level in EDGE_ROWS[name]], skip_taxonomy, spaces, tau)


# --- the selection rules on hand-built distributions -------------------------


def probs_for(taxonomy, level, weights):
    """A one-row distribution with the given label probabilities; the rest of
    the mass spreads uniformly over the unspecified labels."""
    labels = taxonomy.per_level_labels[level]
    probs = np.zeros(len(labels))
    for code, w in weights.items():
        probs[labels.index(code)] = w
    rest = [i for i, code in enumerate(labels) if code not in weights]
    if rest:
        probs[rest] = (1.0 - sum(weights.values())) / len(rest)
    return probs[None, :]


def select(taxonomy, per_level, tau_leaf=0.5):
    """Predictions of one row whose level l has the weights per_level[l - 1]."""
    probs = [probs_for(taxonomy, level, w) for level, w in enumerate(per_level, start=1)]
    tables = label_tables(taxonomy, taxonomy.max_depth)
    return select_prediction(probs, tables, tau_leaf)


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
    (pred,) = select(skip_taxonomy, [{"A": 0.9}, {"A.1": 0.8}, {"A.1.1": 0.99}], tau_leaf=0.5)
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
    (pred,) = select(two_level, [{"A": 0.9}, {"A.1": 0.99}], tau_leaf=0.5)
    assert pred.selected_path == ("A", "A.1")
    assert pred.mode == MODE_LEAF_CONFIDENT


def test_select_broken_chain_falls_back(skip_taxonomy):
    (pred,) = select(skip_taxonomy, [{"A": 0.9}, {"B.1": 0.85}, {NULL_CODE: 0.9}], tau_leaf=0.5)
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
    (pred,) = select(taxonomy, [{}, {}], tau_leaf=0.5)
    assert pred.selected_path == ("A",)
    assert pred.mode == MODE_DEEPEST_VALID


def test_select_low_confidence_leaf_uses_fallback_chain(skip_taxonomy):
    (pred,) = select(skip_taxonomy, [{"B": 0.6}, {"B.1": 0.45}, {NULL_CODE: 0.8}], tau_leaf=0.5)
    assert pred.selected_path == ("B", "B.1")
    assert pred.mode == MODE_DEEPEST_VALID
    assert pred.leaf_confidence == pytest.approx(0.45)


def test_select_missing_level_errors(skip_taxonomy):
    tables = label_tables(skip_taxonomy, 3)
    probs = [probs_for(skip_taxonomy, 1, {"A": 0.9}), probs_for(skip_taxonomy, 3, {"A.1.1": 0.9})]
    with pytest.raises(ValueError, match="missing level"):
        select_prediction(probs, tables)


@pytest.mark.parametrize("rows", [1, 3])
def test_select_refuses_level_widths_that_only_sum_right(rows):
    # label spaces of 3 and 4 labels: widths 4 and 3 have the right count and total, not the right levels
    taxonomy = build_taxonomy([{"code": c, "name": c, "definition": "d", "level": 1} for c in "AB"]
                              + [{"code": c, "name": c, "definition": "d", "parent": c[0], "level": 2}
                                 for c in ("A.1", "A.2", "B.1")])
    tables = label_tables(taxonomy, 2)
    assert tables.sizes == (3, 4) and tables.codes.tolist() == ["A", "B", NULL_CODE, "A.1", "A.2", "B.1", NULL_CODE]
    probs = [np.full((rows, 4), 0.25), np.full((rows, 3), 1 / 3)]
    with pytest.raises(ValueError, match=r"missing level distribution: need levels of \(3, 4\) labels, got \(4, 3\)"):
        select_prediction(probs, tables)


def test_confident_leaf_keeps_off_chain_prefix(skip_taxonomy):
    # per-level heads decide independently: the level-2 argmax strays to the
    # other subtree while the leaf head is confident and right
    preds = select(skip_taxonomy, [{"A": 0.9}, {"B.1": 0.8}, {"A.1.1": 0.95}], tau_leaf=0.5)
    (pred,) = preds
    assert pred.mode == MODE_LEAF_CONFIDENT
    assert pred.selected_path == ("A", "B.1", "A.1.1")
    assert pred.selected_leaf == "A.1.1"

    (fixed,) = repath(preds, skip_taxonomy)
    assert fixed.selected_path == ("A", "A.1", "A.1.1")
    assert fixed.mode == MODE_REPATHED
    assert fixed.selected_leaf == "A.1.1"
    assert fixed.leaf_confidence == pred.leaf_confidence
    assert is_valid_path(skip_taxonomy, list(fixed.selected_path))


def test_confident_leaf_with_null_above_falls_back(skip_taxonomy):
    (pred,) = select(skip_taxonomy, [{"A": 0.9}, {NULL_CODE: 0.8}, {"A.1.1": 0.95}], tau_leaf=0.5)
    assert pred.mode == MODE_DEEPEST_VALID
    assert pred.selected_path == ("A",)


def test_repath_fixed_point_and_idempotent(skip_taxonomy):
    preds = select(skip_taxonomy, [{"A": 0.9}, {"A.1": 0.9}, {"A.1.1": 0.95}], tau_leaf=0.5)
    once = repath(preds, skip_taxonomy)
    assert once.selected_path == preds.selected_path
    twice = repath(once, skip_taxonomy)
    assert all(same_selection(a, b) for a, b in zip(twice, once))


def test_repath_internal_leaf_untouched(skip_taxonomy):
    preds = select(skip_taxonomy, [{"A": 0.9}, {NULL_CODE: 0.5, "A.1": 0.4}, {NULL_CODE: 0.9}], tau_leaf=0.95)
    (pred,) = preds
    assert pred.selected_leaf == "A"
    assert repath(preds, skip_taxonomy).rows() == [pred]


def test_repath_refuses_another_taxonomy(skip_taxonomy, chain_taxonomy):
    preds = select(skip_taxonomy, [{"A": 0.9}, {"A.1": 0.9}, {"A.1.1": 0.95}])
    with pytest.raises(ValueError, match="another taxonomy"):
        repath(preds, chain_taxonomy)


def test_label_tables_are_kept_by_content(skip_taxonomy):
    reloaded = build_taxonomy([
        {"code": n.code, "name": n.name, "definition": n.definition, "level": n.level,
         **({"parent": n.parent} if n.parent else {})}
        for n in skip_taxonomy.nodes.values()
    ])
    assert reloaded is not skip_taxonomy
    assert label_tables(reloaded, 3) is label_tables(skip_taxonomy, 3) is not label_tables(skip_taxonomy, 4)


# --- RePath and leaf accuracy properties on synth taxonomies -----------------


@st.composite
def synth_selections(draw):
    """Predictions from random probabilities over a synth taxonomy."""
    seed = draw(st.integers(0, 2**16))
    config = SynthConfig(leaves=draw(st.integers(2, 20)), samples=0,
                         leaf_depth_min=1, leaf_depth_max=draw(st.integers(1, 5)))
    try:
        taxonomy = synth_corpus(config, seed=seed).taxonomy
    except SynthConfigError:
        reject()  # a shape the generator cannot build
    spaces = level_spaces(taxonomy, taxonomy.max_depth + draw(st.integers(0, 2)))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 30))
    probs = [rng.dirichlet(np.full(len(labels), 0.3), size=n) for labels in spaces]
    tau = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    return taxonomy, select_prediction(probs, label_tables(taxonomy, len(spaces)), tau)


@settings(max_examples=100)
@given(case=synth_selections())
def test_repath_keeps_the_leaf_is_idempotent_and_yields_chains(case):
    taxonomy, preds = case
    once = repath(preds, taxonomy)
    twice = repath(once, taxonomy)
    for before, after, again in zip(preds, once, twice):
        assert (after.selected_leaf, after.leaf_confidence) == (before.selected_leaf, before.leaf_confidence)
        assert again == after
        if taxonomy.nodes[before.selected_leaf].is_leaf:
            assert after.selected_path == tuple(ancestors(taxonomy, before.selected_leaf))
            assert is_valid_path(taxonomy, list(after.selected_path))
        else:
            assert after == before


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


@settings(max_examples=20)
@given(seed=st.integers(0, 2**16), tau=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), inner=st.integers(0, 10))
def test_leaf_accuracy_equals_a_brute_force_count(seed, tau, inner):
    corpus, model = untrained_model(seed)
    records = corpus.records
    # some truths end at inner nodes, which only a fallback path selects
    records = [ProductRecord(**{**r.__dict__, "label_path": r.label_path[:1]}) if i < inner else r
               for i, r in enumerate(records)]
    leaves = [r.leaf() for r in records]
    truth = label_tables(corpus.taxonomy, model.moe_config.levels).labels_of(leaves)
    prepared = prepare_records(records, model.encoder_config)
    rows = predict_batch(model, records, corpus.taxonomy, tau_leaf=tau)
    hits = sum(1 for row, leaf in zip(rows, leaves) if row.selected_leaf == leaf)
    assert leaf_accuracy(model, prepared, truth, corpus.taxonomy, tau) == hits / len(records)


# --- batch prediction -------------------------------------------------------


def test_predict_batch_basics():
    corpus, model = untrained_model()
    assert list(predict_batch(model, [], corpus.taxonomy)) == []
    preds = predict_batch(model, corpus.records, corpus.taxonomy, tau_leaf=0.5)
    assert len(preds) == len(corpus.records)
    for pred in preds:
        assert pred.selected_leaf == pred.selected_path[-1]
        if pred.mode == MODE_DEEPEST_VALID:
            assert is_valid_path(corpus.taxonomy, list(pred.selected_path))
        else:
            assert corpus.taxonomy.nodes[pred.selected_leaf].is_leaf


def test_a_prediction_dump_reads_back_equal(tmp_path):
    corpus, model = untrained_model(seed=29)
    preds = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=True)
    ids = [r.id for r in corpus.records]
    write_predictions(tmp_path / "preds.jsonl", ids, preds)
    assert read_predictions(tmp_path / "preds.jsonl") == [prediction_to_dict(i, p) for i, p in zip(ids, preds)]


def test_predict_batch_repath_composition():
    corpus, model = untrained_model(seed=19)
    base = predict_batch(model, corpus.records, corpus.taxonomy, use_repath=False)
    external = repath(base, corpus.taxonomy)
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


@functools.cache
def one_record_setup():
    """An untrained model whose text table holds -0.0 entries, and records to predict one at a time:
    titles without tokens, repeated tokens and CPVs, unseen field values and a category name without
    tokens, then the corpus's."""
    corpus, model = untrained_model(seed=41)
    table = model.params["text_table"]
    table[np.random.default_rng(41).random(table.shape) < 0.3] = -0.0
    table[::3] = -0.0
    base = corpus.records[0]
    edits = [dict(title=""), dict(title=" !! ..,"), dict(category_name="?!"),
             dict(title="steel steel bolt steel", cpvs=(("colour", "red"), ("colour", "red"))),
             dict(bu_code="unseen", ou_code="unseen", system_code="unseen"),
             dict(title="", category_name="", cpvs=None, bu_code="unseen")]
    return corpus, model, [dataclasses.replace(base, **edit) for edit in edits] + corpus.records


@pytest.mark.numpy_floor
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), tau=st.sampled_from([0.0, 0.3, 0.5, 1.0]), use_repath=st.booleans())
def test_predict_one_equals_the_prepared_batch_of_one(data, tau, use_repath):
    corpus, model, records = one_record_setup()
    rec = records[data.draw(st.integers(0, len(records) - 1))]
    got = predict_batch(model, [rec], corpus.taxonomy, tau, use_repath)
    want = predict_prepared(model, prepare_records([rec], model.encoder_config), corpus.taxonomy, tau, use_repath)
    for column in dataclasses.fields(Predictions)[1:]:
        a, b = getattr(got, column.name), getattr(want, column.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column.name
    assert got.rows() == want.rows()


def test_predict_one_checks_the_taxonomy():
    corpus, model = untrained_model(seed=29)
    other = synth_corpus(SynthConfig(leaves=15, samples=0), seed=77).taxonomy
    with pytest.raises(CheckpointError, match="mismatch"):
        predict_batch(model, corpus.records[:1], other)
