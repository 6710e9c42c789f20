import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxpath.dataset import stratified_dev_sample
from taxpath.encoder import EncoderConfig, build_field_vocabs
from taxpath.moe import (
    JUDGE_MAGIC,
    CheckpointError,
    MoEConfig,
    init_model,
    param_views,
    read_container,
    write_container,
)
from taxpath.pipeline import score_records
from taxpath.semantic import (
    FEATURE_NAMES,
    N_THRESHOLD,
    Y_THRESHOLD,
    ConsistencyLabel,
    DegenerateLabelsError,
    JudgeModel,
    annotate_corpus,
    distill_judge,
    judge_feature_matrix,
    label_dev_set,
    load_judge,
    oracle_judge,
    save_judge,
    write_annotations,
)
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import TaxonomyError
from taxpath.train import SEMANTIC_CLASS_INDEX, LossWeights, TrainConfig, fit, semantic_targets_for
from taxpath.util import normalize_title


def scalar_features(title, code, taxonomy, popularity):
    """The per-pair feature rule, kept as the oracle for `judge_feature_matrix`."""
    title_tokens = set(normalize_title(title).split())
    if not title_tokens:
        return np.array([0.0, 0.0, 0.0, popularity.get(code, 0.0)])
    leaf_tokens = taxonomy.definition_tokens(code)
    anc_tokens = frozenset().union(*map(taxonomy.definition_tokens, taxonomy.chain(code)[:-1]))
    return np.array(
        [
            len(title_tokens & leaf_tokens) / len(title_tokens),
            len(title_tokens & anc_tokens) / len(title_tokens) if anc_tokens else 0.0,
            min(1.0, len(title_tokens) / 16.0),
            popularity.get(code, 0.0),
        ]
    )


def scalar_score(judge, title, code, taxonomy):
    """The per-pair scorer, kept as the oracle for `JudgeModel.scores`."""
    phi = scalar_features(title, code, taxonomy, judge.popularity)
    logits = phi @ judge.weights + judge.bias
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    return float(probs[0] - probs[1])


def scalar_judge(judge, title, code, taxonomy):
    """The per-pair labeller, kept as the oracle for `JudgeModel.judge_batch`."""
    s = scalar_score(judge, title, code, taxonomy)
    verdict = "Y" if s >= judge.tau_hi else "N" if s <= judge.tau_lo else "U"
    return ConsistencyLabel(
        verdict=verdict,
        rationale=f"judge score {s:.3f} (tau_hi {judge.tau_hi:.3f}, tau_lo {judge.tau_lo:.3f})",
    )


def test_oracle_full_overlap_is_yes(chain_taxonomy):
    label = oracle_judge("alpha one one things", "A.1.1", chain_taxonomy)
    assert label.verdict == "Y"
    assert "1.000" in label.rationale


def test_oracle_zero_overlap_is_no(chain_taxonomy):
    label = oracle_judge("quantum flux capacitor", "A.1.1", chain_taxonomy)
    assert label.verdict == "N"
    assert "(none)" in label.rationale


def test_oracle_partial_overlap_is_uncertain(chain_taxonomy):
    # 2 of 6 distinct tokens match the definition: s = 1/3
    label = oracle_judge("alpha one box crate jar lid", "A.1.1", chain_taxonomy)
    assert label.verdict == "U"
    assert "0.333" in label.rationale
    assert "alpha, one" in label.rationale


def test_oracle_empty_title_is_no(chain_taxonomy):
    assert oracle_judge("", "A", chain_taxonomy).verdict == "N"


def test_oracle_pure_function(chain_taxonomy):
    a = oracle_judge("alpha thing", "A", chain_taxonomy)
    b = oracle_judge("alpha thing", "A", chain_taxonomy)
    assert a == b


def test_oracle_monotone_in_matching_tokens(chain_taxonomy):
    # appending definition tokens never moves the verdict toward N
    order = {"N": 0, "U": 1, "Y": 2}
    title = "box crate jar"
    previous = order[oracle_judge(title, "A.1.1", chain_taxonomy).verdict]
    for extra in ["alpha", "one", "things"]:
        title = f"{title} {extra}"
        current = order[oracle_judge(title, "A.1.1", chain_taxonomy).verdict]
        assert current >= previous
        previous = current


@pytest.mark.parametrize("title, verdict", [
    ("alpha one box crate", "Y"),  # overlap exactly 0.5
    ("alpha one things box crate jar lid", "U"),  # 3/7
    ("alpha one box crate jar lid", "U"),  # 1/3
    ("alpha b c d e f g h i", "U"),  # 1/9
    ("alpha b c d e f g h i j", "N"),  # exactly 0.1
])
def test_oracle_cut_offs_are_fixed(chain_taxonomy, title, verdict):
    assert (Y_THRESHOLD, N_THRESHOLD) == (0.5, 0.1)
    assert oracle_judge(title, "A.1.1", chain_taxonomy).verdict == verdict


def test_consistency_label_validation():
    with pytest.raises(ValueError):
        ConsistencyLabel(verdict="maybe", rationale="")


def oracle_labeled_corpus(seed, samples=700, noise=0.3):
    corpus = synth_corpus(
        SynthConfig(leaves=25, samples=samples, label_noise_rate=noise, noise_token_rate=0.15),
        seed=seed,
    )
    labeled = [
        (r.title, r.leaf(), oracle_judge(r.title, r.leaf(), corpus.taxonomy))
        for r in corpus.records
    ]
    return corpus, labeled


def test_distill_judge_agreement():
    corpus, labeled = oracle_labeled_corpus(seed=31)
    judge = distill_judge(labeled, corpus.taxonomy, seed=1)
    assert judge.holdout_agreement >= 0.95
    assert judge.tau_hi > judge.tau_lo


def test_distill_degenerate_labels(chain_taxonomy):
    labeled = [("alpha", "A", ConsistencyLabel("Y", ""))] * 3
    with pytest.raises(DegenerateLabelsError, match="degenerate"):
        distill_judge(labeled, chain_taxonomy, seed=0)


def test_label_dev_set_keeps_a_dev_set_with_y_and_n_as_the_oracle_labels_it(tmp_path):
    corpus, labeled = oracle_labeled_corpus(seed=31, samples=300)
    assert {label.verdict for _, _, label in labeled} >= {"Y", "N"}
    got = label_dev_set(corpus.records, corpus.taxonomy)
    assert got == labeled
    for name, rows in (("labeled.ckpt", labeled), ("got.ckpt", got)):
        save_judge(distill_judge(rows, corpus.taxonomy, seed=1), tmp_path / name)
    assert (tmp_path / "labeled.ckpt").read_bytes() == (tmp_path / "got.ckpt").read_bytes()


def test_label_dev_set_adds_mismatched_pairs_when_no_pair_is_n():
    corpus, labeled = oracle_labeled_corpus(seed=31, samples=300)
    dev = [r for r, (_, _, label) in zip(corpus.records, labeled) if label.verdict != "N"]
    with pytest.raises(DegenerateLabelsError):  # the dev set alone has no N
        distill_judge([row for row in labeled if row[2].verdict != "N"], corpus.taxonomy, seed=1)
    got = label_dev_set(dev, corpus.taxonomy)
    tax = corpus.taxonomy
    assert got[: len(dev)] == [(r.title, r.leaf(), oracle_judge(r.title, r.leaf(), tax)) for r in dev]
    extra = got[len(dev) :]
    assert extra and all(label.verdict == "N" for _, _, label in extra)
    roots = [tax.chain(r.leaf())[0] for r in dev]
    partners = {}
    for i, rec in enumerate(dev):  # the next dev record, cyclically, under another level-1 node
        j = next((i + k) % len(dev) for k in range(1, len(dev)) if roots[(i + k) % len(dev)] != roots[i])
        partners[rec.title] = partners.get(rec.title, set()) | {dev[j].leaf()}
    for title, leaf, _ in extra:
        assert leaf in partners[title]
    judge = distill_judge(got, tax, seed=1)
    assert judge.tau_hi > judge.tau_lo


def test_label_dev_set_without_a_second_level1_node_stays_degenerate(chain_taxonomy):
    from taxpath.dataset import ProductRecord

    dev = [
        ProductRecord(id=f"r{i}", title=title, category_name="c", bu_code="b", ou_code="o", system_code="s",
                      label_path=("A", "A.1", "A.1.1"), source="goods_registry")
        for i, title in enumerate(["alpha one one things", "alpha one things box"])
    ]
    labeled = label_dev_set(dev, chain_taxonomy)
    assert len(labeled) == 2 and "N" not in {label.verdict for _, _, label in labeled}
    with pytest.raises(DegenerateLabelsError):
        distill_judge(labeled, chain_taxonomy, seed=0)


def test_distill_deterministic():
    corpus, labeled = oracle_labeled_corpus(seed=33, samples=300)
    a = distill_judge(labeled, corpus.taxonomy, seed=4)
    b = distill_judge(labeled, corpus.taxonomy, seed=4)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert (a.tau_hi, a.tau_lo) == (b.tau_hi, b.tau_lo)
    assert a.popularity == b.popularity


def test_annotate_corpus_bijective_and_sorted():
    corpus, labeled = oracle_labeled_corpus(seed=35, samples=100)
    judge = distill_judge(labeled, corpus.taxonomy, seed=2)
    table = annotate_corpus(corpus.records, judge, corpus.taxonomy)
    assert sorted(table) == sorted(r.id for r in corpus.records)
    assert list(table) == sorted(table)
    assert annotate_corpus([], judge, corpus.taxonomy) == {}


def test_annotate_oracle_vs_distilled_agreement():
    corpus, labeled = oracle_labeled_corpus(seed=37, samples=1000)
    judge = distill_judge(labeled, corpus.taxonomy, seed=3)
    by_oracle = {r.id: oracle_judge(r.title, r.leaf(), corpus.taxonomy) for r in corpus.records}
    by_judge = annotate_corpus(corpus.records, judge, corpus.taxonomy)
    agree = sum(
        1 for rid in by_oracle if by_oracle[rid].verdict == by_judge[rid].verdict
    )
    assert agree / len(by_oracle) >= 0.95


def test_every_judge_is_called_as_judge_title_code_taxonomy(monkeypatch):
    corpus, labeled = oracle_labeled_corpus(seed=41, samples=120)
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)
    records = corpus.records[:40]
    titles, codes = [r.title for r in records], [r.leaf() for r in records]
    assert judge.judge_batch(titles, codes, corpus.taxonomy) == [
        judge.judge(t, c, corpus.taxonomy) for t, c in zip(titles, codes)
    ]
    verdicts = [judge.judge(r.title, r.leaf(), corpus.taxonomy).verdict for r in records]
    expected = np.array([SEMANTIC_CLASS_INDEX[v] for v in verdicts])
    assert np.array_equal(semantic_targets_for(records, annotate_corpus(records, judge, corpus.taxonomy)), expected)
    # a batch goes through the class attribute `JudgeModel.judge_batch`, so wrapping it sees every one
    calls = []
    original = JudgeModel.judge_batch
    monkeypatch.setattr(
        JudgeModel, "judge_batch",
        lambda self, titles, codes, taxonomy: calls.append(list(zip(titles, codes))) or original(self, titles, codes, taxonomy),
    )
    semantic_targets_for(records, annotate_corpus(records, judge, corpus.taxonomy))
    assert len(calls) == 1
    assert sorted(pair for batch in calls for pair in batch) == sorted(zip(titles, codes))


def test_semantic_targets_for_without_annotations_is_all_excluded():
    corpus, _ = oracle_labeled_corpus(seed=41, samples=30)
    assert semantic_targets_for(corpus.records, None).tolist() == [-1] * len(corpus.records)


def test_annotate_corpus_rejects_a_repeated_record_id():
    corpus, labeled = oracle_labeled_corpus(seed=41, samples=30)
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)
    records = corpus.records[:5] + [replace(corpus.records[6], id=corpus.records[2].id)]
    with pytest.raises(ValueError, match=f"{corpus.records[2].id!r} is not unique"):
        annotate_corpus(records, judge, corpus.taxonomy)


ORACLE_TITLES = ["", "!!!", " -- ", "alpha", "Alpha One", "alpha one one things", "beta, one!",
                 "beta things and more things", "quantum flux", "ALPHA alpha ÄLPHA", "one one one one"]


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])  # the taxonomy is immutable
@given(
    pairs=st.lists(st.tuples(st.sampled_from(ORACLE_TITLES), st.sampled_from(["A", "A.1", "A.1.1", "B", "B.1"])),
                   max_size=12),
    weights=st.lists(st.floats(-8.0, 8.0), min_size=15, max_size=15),
    popularity=st.dictionaries(st.sampled_from(["A", "A.1.1", "B.1"]), st.floats(0.0, 1.0)),
    tau_lo=st.floats(-1.0, 0.9),
    gap=st.floats(1e-6, 1.0),
)
def test_judge_batch_matches_the_scalar_judge(chain_taxonomy, pairs, weights, popularity, tau_lo, gap):
    judge = JudgeModel(weights=np.array(weights[:12]).reshape(4, 3), bias=np.array(weights[12:]),
                       tau_hi=tau_lo + gap, tau_lo=tau_lo, taxonomy_hash=chain_taxonomy.fingerprint(),
                       popularity=popularity)
    titles, codes = [t for t, _ in pairs], [c for _, c in pairs]
    phi = judge_feature_matrix(titles, codes, chain_taxonomy, popularity)
    assert phi.shape == (len(pairs), len(FEATURE_NAMES))
    expected_phi = [scalar_features(t, c, chain_taxonomy, popularity) for t, c in pairs]
    assert np.array_equal(phi, np.array(expected_phi).reshape(phi.shape))
    expected = np.array([scalar_score(judge, t, c, chain_taxonomy) for t, c in pairs])
    assert np.array_equal(judge.scores(titles, codes, chain_taxonomy), expected)
    assert judge.judge_batch(titles, codes, chain_taxonomy) == [
        scalar_judge(judge, t, c, chain_taxonomy) for t, c in pairs
    ]


def test_judge_batch_of_a_distilled_judge_matches_the_scalar_judge():
    corpus, labeled = oracle_labeled_corpus(seed=43, samples=600)
    judge = distill_judge(labeled, corpus.taxonomy, seed=7)
    titles, codes = [r.title for r in corpus.records], [r.leaf() for r in corpus.records]
    expected = np.array([scalar_score(judge, t, c, corpus.taxonomy) for t, c in zip(titles, codes)])
    assert np.array_equal(judge.scores(titles, codes, corpus.taxonomy), expected)
    assert judge.judge_batch([], [], corpus.taxonomy) == []


def test_judge_batch_rejects_an_unknown_code(chain_taxonomy):
    judge = JudgeModel(weights=np.ones((4, 3)), bias=np.zeros(3), tau_hi=0.1, tau_lo=-0.1,
                       taxonomy_hash=chain_taxonomy.fingerprint())
    for title in ("alpha thing", ""):
        with pytest.raises(TaxonomyError):
            judge.judge_batch(["alpha", title], ["A", "Z.9"], chain_taxonomy)
        with pytest.raises(TaxonomyError):
            judge.judge(title, "Z.9", chain_taxonomy)


def test_annotations_file_equals_the_per_record_judge(tmp_path):
    corpus, labeled = oracle_labeled_corpus(seed=45, samples=400)
    judge = distill_judge(labeled, corpus.taxonomy, seed=9)
    write_annotations(tmp_path / "batch.jsonl", annotate_corpus(corpus.records, judge, corpus.taxonomy))
    per_row = {r.id: scalar_judge(judge, r.title, r.leaf(), corpus.taxonomy)
               for r in sorted(corpus.records, key=lambda r: r.id)}
    write_annotations(tmp_path / "per_row.jsonl", per_row)
    assert (tmp_path / "batch.jsonl").read_bytes() == (tmp_path / "per_row.jsonl").read_bytes()


def test_judge_checkpoint_round_trip(chain_taxonomy, tmp_path):
    corpus, labeled = oracle_labeled_corpus(seed=39, samples=200)
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)
    save_judge(judge, tmp_path / "judge.ckpt")
    loaded = load_judge(tmp_path / "judge.ckpt")
    assert np.array_equal(loaded.weights, judge.weights)
    assert np.array_equal(loaded.bias, judge.bias)
    assert (loaded.tau_hi, loaded.tau_lo) == (judge.tau_hi, judge.tau_lo)
    assert loaded.popularity == judge.popularity
    assert loaded.taxonomy_hash == judge.taxonomy_hash == corpus.taxonomy.fingerprint()
    sample = corpus.records[0]
    assert (
        loaded.judge(sample.title, sample.leaf(), corpus.taxonomy)
        == judge.judge(sample.title, sample.leaf(), corpus.taxonomy)
    )


def test_judge_checkpoint_round_trips_through_a_path_or_its_string(tmp_path):
    corpus, labeled = oracle_labeled_corpus(seed=39, samples=200)
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)
    save_judge(judge, str(tmp_path / "judge.ckpt"))
    save_judge(judge, tmp_path / "again.ckpt")
    assert (tmp_path / "judge.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()
    for source in (tmp_path / "judge.ckpt", str(tmp_path / "judge.ckpt")):
        loaded = load_judge(source)
        assert np.array_equal(loaded.weights, judge.weights) and np.array_equal(loaded.bias, judge.bias)
        assert (loaded.tau_hi, loaded.tau_lo, loaded.popularity) == (judge.tau_hi, judge.tau_lo, judge.popularity)


@pytest.mark.parametrize("version", [2, 3])
def test_an_older_judge_checkpoint_is_refused_naming_its_path(tmp_path, version):
    corpus, labeled = oracle_labeled_corpus(seed=39, samples=200)
    save_judge(distill_judge(labeled, corpus.taxonomy, seed=5), tmp_path / "judge.ckpt")
    blob = (tmp_path / "judge.ckpt").read_bytes()
    assert blob[4:8] == (4).to_bytes(4, "little")
    path = tmp_path / f"v{version}.ckpt"
    path.write_bytes(blob[:4] + version.to_bytes(4, "little") + blob[8:])
    message = rf"^{re.escape(str(path))}: checkpoint version mismatch: {version} != 4$"
    with pytest.raises(CheckpointError, match=message):
        load_judge(path)


def test_annotate_corpus_refuses_a_judge_distilled_on_another_taxonomy_naming_both_hashes():
    corpus, labeled = oracle_labeled_corpus(seed=39, samples=200)
    other = oracle_labeled_corpus(seed=40, samples=0)[0].taxonomy
    judge = distill_judge(labeled, corpus.taxonomy, seed=5)
    assert judge.taxonomy_hash == corpus.taxonomy.fingerprint() != other.fingerprint()
    message = (rf"^taxonomy hash mismatch: judge {judge.taxonomy_hash[:12]}\.\.\., "
               rf"supplied {other.fingerprint()[:12]}\.\.\.$")
    with pytest.raises(CheckpointError, match=message):
        annotate_corpus(corpus.records, judge, other)


def test_high_confidence_stratum_has_higher_yes_rate():
    # noisy labels concentrate in the incorrect stratum, which the judge flags
    for seed in (41, 42, 43):
        corpus = synth_corpus(
            SynthConfig(leaves=20, samples=500, label_noise_rate=0.15,
                        noise_token_rate=0.15, leaf_depth_max=3),
            seed=seed,
        )
        fields = ("bu_code", "ou_code", "system_code")
        enc = EncoderConfig(hash_buckets=512, text_dim=12, cat_dim=2, fields=fields,
                            field_vocabs=build_field_vocabs(corpus.records, fields))
        moe = MoEConfig(levels=corpus.taxonomy.max_depth, experts_per_level=2,
                        expert_hidden_dim=24)
        model = init_model(corpus.taxonomy, enc, moe, seed=seed)
        cfg = TrainConfig(batch_size=32, epochs=6, learning_rate=5e-3, seed=seed,
                          loss_weights=LossWeights(0.2, 1.0))
        model, _ = fit(model, corpus.records, [], corpus.taxonomy, None, cfg)
        scored = score_records(model, corpus.records, corpus.taxonomy)

        def y_rate(stratum):
            verdicts = [
                oracle_judge(s.record.title, s.record.leaf(), corpus.taxonomy).verdict
                for s in stratum
            ]
            return sum(1 for v in verdicts if v == "Y") / max(1, len(verdicts))

        high = [s for s in scored if s.correct and s.confidence >= 0.9]
        incorrect = [s for s in scored if not s.correct]
        assert len(high) > 10 and len(incorrect) > 10
        assert y_rate(high) > y_rate(incorrect)


def judge_file_with(directory, arrays=None, drop_meta=None, set_meta=None):
    """The path of a checksum-valid judge container written in `directory`: a
    real judge's meta and arrays, with the arrays replaced by `arrays`, the
    meta key `drop_meta` removed or the meta keys in `set_meta` overwritten."""
    corpus, labeled = oracle_labeled_corpus(seed=39, samples=200)
    path = directory / "judge.ckpt"
    save_judge(distill_judge(labeled, corpus.taxonomy, seed=5), path)
    meta, manifest, flat = read_container(path.read_bytes(), JUDGE_MAGIC)
    meta.pop(drop_meta, None)
    meta.update(set_meta or {})
    if arrays is None:
        arrays = param_views(flat, manifest)
    path.write_bytes(write_container(JUDGE_MAGIC, meta, arrays))
    return path


W_SHAPE = (len(FEATURE_NAMES), 3)


@pytest.mark.parametrize(
    "arrays, missing",
    [
        ({"w": np.zeros(W_SHAPE), "b": np.zeros(3)}, "weights"),
        ({"weights": np.zeros(W_SHAPE), "b": np.zeros(3)}, "bias"),
        ({}, "weights"),
    ],
)
def test_load_judge_names_a_missing_array(arrays, missing, tmp_path):
    with pytest.raises(CheckpointError, match=f"no '{missing}' array"):
        load_judge(judge_file_with(tmp_path, arrays))


@pytest.mark.parametrize(
    "arrays, bad",
    [
        ({"weights": np.zeros((3, 3)), "bias": np.zeros(3)}, "weights"),
        ({"weights": np.zeros((3, len(FEATURE_NAMES))), "bias": np.zeros(3)}, "weights"),
        ({"weights": np.zeros(W_SHAPE), "bias": np.zeros(4)}, "bias"),
        ({"weights": np.zeros(W_SHAPE), "bias": np.zeros((1, 3))}, "bias"),
    ],
)
def test_load_judge_names_a_mis_shaped_array(arrays, bad, tmp_path):
    with pytest.raises(CheckpointError, match=f"'{bad}' has shape"):
        load_judge(judge_file_with(tmp_path, arrays))


@pytest.mark.parametrize("key", ["tau_hi", "tau_lo", "popularity", "holdout_agreement", "feature_names", "taxonomy_hash"])
def test_load_judge_names_a_missing_meta_key(key, tmp_path):
    load_judge(judge_file_with(tmp_path))  # the rebuilt container alone loads
    with pytest.raises(CheckpointError, match=f"meta has no '{key}'"):
        load_judge(judge_file_with(tmp_path, drop_meta=key))


def test_load_judge_rejects_features_in_another_order(tmp_path):
    path = judge_file_with(tmp_path, set_meta={"feature_names": list(reversed(FEATURE_NAMES))})
    with pytest.raises(CheckpointError, match="feature_names.*popularity.*leaf_overlap.*leaf_overlap.*popularity"):
        load_judge(path)


# a judge meta value that is not finite -> what the refusal says after the path
NON_FINITE_META = {
    "popularity-nan": ("popularity", float("nan"), r"judge popularity of '.+' must be finite: nan"),
    "popularity-inf": ("popularity", float("inf"), r"judge popularity of '.+' must be finite: inf"),
    "tau_hi-inf": ("tau_hi", float("inf"), r"judge thresholds must be finite: tau_hi inf, tau_lo "),
    "tau_lo-minus-inf": ("tau_lo", float("-inf"), r"judge thresholds must be finite: tau_hi \S+, tau_lo -inf"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_META))
def test_load_judge_refuses_a_non_finite_threshold_or_popularity_naming_the_path(case, tmp_path):
    key, value, message = NON_FINITE_META[case]
    meta = read_container(judge_file_with(tmp_path).read_bytes(), JUDGE_MAGIC)[0]
    if key == "popularity":  # one code's value, the others as they were
        value = {**meta["popularity"], next(iter(meta["popularity"])): value}
    path = judge_file_with(tmp_path, set_meta={key: value})
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: bad judge checkpoint meta: {message}"):
        load_judge(path)


@pytest.mark.parametrize("tau_hi", ["equal", "below"])
def test_load_judge_refuses_thresholds_out_of_order_naming_the_path(tau_hi, tmp_path):
    meta = read_container(judge_file_with(tmp_path).read_bytes(), JUDGE_MAGIC)[0]
    tau_lo = meta["tau_lo"]
    path = judge_file_with(tmp_path, set_meta={"tau_hi": tau_lo if tau_hi == "equal" else tau_lo - 0.5})
    message = rf"^{re.escape(str(path))}: bad judge checkpoint meta: tau_hi must exceed tau_lo: "
    with pytest.raises(CheckpointError, match=message):
        load_judge(path)


@pytest.mark.parametrize("array", ["weights", "bias"])
def test_load_judge_refuses_a_nan_weight_naming_the_path(array, tmp_path):
    _, manifest, flat = read_container(judge_file_with(tmp_path).read_bytes(), JUDGE_MAGIC)
    arrays = {name: view.copy() for name, view in param_views(flat, manifest).items()}
    arrays[array].flat[-1] = np.nan
    path = judge_file_with(tmp_path, arrays)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: bad judge checkpoint meta: "
                                              r"judge weights must be finite$"):
        load_judge(path)
