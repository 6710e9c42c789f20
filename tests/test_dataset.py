import dataclasses
import json
import re
import string

import numpy as np
import pytest

from taxpath.dataset import (
    STRING_KEYS,
    DatasetError,
    ProductRecord,
    ScoredRecord,
    SplitSpec,
    cleanse,
    load_wos,
    normalize_title,
    read_records,
    split,
    stratified_dev_sample,
    write_records,
    write_rejections,
)
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import is_valid_path
from taxpath.util import read_jsonl


def rec(i, title, path, **kw):
    fields = dict(
        id=f"r{i:03d}",
        title=title,
        category_name="cat",
        bu_code="bu00",
        ou_code="ou00",
        system_code="sys0",
        label_path=tuple(path),
        source="goods_registry",
    )
    fields.update(kw)
    return ProductRecord(**fields)


def test_normalize_title_rules():
    assert (
        normalize_title("  Fully  Automatic Washing-Machine 3 L ")
        == "fully automatic washing machine 3 l"
    )
    assert normalize_title("") == ""
    assert normalize_title("!!!") == ""
    assert normalize_title("ＡＢＣ①") == "abc1"  # NFKC folds width and circled digits


def test_normalize_title_idempotent():
    rng = np.random.default_rng(42)
    alphabet = string.printable + "ÄöüßÉ漢字－"
    for _ in range(1000):
        s = "".join(alphabet[rng.integers(len(alphabet))] for _ in range(rng.integers(0, 30)))
        once = normalize_title(s)
        assert normalize_title(once) == once


def test_cleanse_duplicates(chain_taxonomy):
    records = [rec(0, "same thing", ["A", "A.1"]), rec(1, "Same  THING", ["A", "A.1"])]
    kept, rejected = cleanse(records, chain_taxonomy)
    assert [r.id for r in kept] == ["r000"]
    assert [(r.id, reason) for r, reason in rejected] == [("r001", "duplicate")]


def test_cleanse_majority_conflict(chain_taxonomy):
    records = [
        rec(0, "widget", ["A", "A.1"]),
        rec(1, "widget", ["A", "A.1"]),
        rec(2, "widget", ["B", "B.1"]),
    ]
    kept, rejected = cleanse(records, chain_taxonomy)
    assert [r.id for r in kept] == ["r000"]
    assert sorted((r.id, reason) for r, reason in rejected) == [
        ("r001", "duplicate"),
        ("r002", "conflicting-label"),
    ]


def test_cleanse_tie_rejects_all(chain_taxonomy):
    records = [rec(0, "widget", ["A", "A.1"]), rec(1, "widget", ["B", "B.1"])]
    kept, rejected = cleanse(records, chain_taxonomy)
    assert kept == []
    assert {reason for _, reason in rejected} == {"conflicting-label"}


def test_cleanse_rejects_bad_records(chain_taxonomy):
    records = [
        rec(0, "ok item", ["A", "A.1"]),
        rec(1, "bad path", ["A", "B.1"]),
        rec(2, "unknown", ["A", "zz"]),
        rec(3, "  !! ", ["A", "A.1"]),
    ]
    kept, rejected = cleanse(records, chain_taxonomy)
    assert [r.id for r in kept] == ["r000"]
    assert dict((r.id, reason) for r, reason in rejected) == {
        "r001": "invalid-path",
        "r002": "unknown-code",
        "r003": "empty-title",
    }


def test_cleanse_rejects_a_repeated_id(chain_taxonomy):
    records = [
        rec(0, "empty !!", ["A", "zz"]),
        rec(1, "first item", ["A", "A.1"]),
        rec(2, "second item", ["B", "B.1"], id="r001"),
        rec(3, "third item", ["A", "A.1"], id="r000"),
    ]
    kept, rejected = cleanse(records, chain_taxonomy)
    assert [(r.id, r.title) for r in kept] == [("r001", "first item")]
    assert [(r.title, reason) for r, reason in rejected] == [
        ("empty !!", "unknown-code"),
        ("second item", "duplicate-id"),
        ("third item", "duplicate-id"),  # the id's first carrier was itself rejected
    ]


def test_cleanse_idempotent():
    corpus = synth_corpus(SynthConfig(leaves=30, samples=400, label_noise_rate=0.1), seed=21)
    kept, _ = cleanse(corpus.records, corpus.taxonomy)
    again, rejected = cleanse(kept, corpus.taxonomy)
    assert again == kept
    assert rejected == []
    assert all(is_valid_path(corpus.taxonomy, list(r.label_path)) for r in kept)


def test_split_exact_fractions():
    records = [rec(i, f"item {i}", ["A", "A.1"]) for i in range(100)]
    spec = SplitSpec(0.64, 0.16, 0.20, seed=7)
    train, val, test = split(records, spec)
    assert (len(train), len(val), len(test)) == (64, 16, 20)
    again = split(records, spec)
    assert again == (train, val, test)


def test_split_partitions_and_stratification():
    corpus = synth_corpus(SynthConfig(leaves=40, samples=997, leaf_depth_max=5), seed=3)
    records = corpus.records
    spec = SplitSpec(0.64, 0.16, 0.20, seed=11)
    parts = split(records, spec)
    ids = [r.id for part in parts for r in part]
    assert sorted(ids) == sorted(r.id for r in records)
    assert len(set(ids)) == len(records)
    for part, frac in zip(parts, (0.64, 0.16, 0.20)):
        assert abs(len(part) - frac * len(records)) <= 1
    depths = sorted({len(r.label_path) for r in records})
    for d in depths:
        total_d = sum(1 for r in records if len(r.label_path) == d)
        for part, frac in zip(parts, (0.64, 0.16, 0.20)):
            got = sum(1 for r in part if len(r.label_path) == d)
            assert abs(got - frac * total_d) <= 1, (d, got, frac * total_d)


def test_split_bad_fractions():
    with pytest.raises(DatasetError):
        SplitSpec(0.5, 0.2, 0.2)
    with pytest.raises(DatasetError):
        SplitSpec(0.8, 0.3, -0.1)
    for fracs in ((float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan")), (float("inf"), 0.5, 0.5)):
        with pytest.raises(DatasetError, match=r"^split fractions must be positive and finite: "):
            SplitSpec(*fracs)


def scored(record, conf, correct):
    return ScoredRecord(record=record, predicted_leaf="A.1", confidence=conf, correct=correct)


def test_dev_sample_table_shape():
    base = rec(0, "x", ["A", "A.1"])
    pool = (
        [scored(base, 0.95, True)] * 650_713
        + [scored(base, 0.5, True)] * 19_300
        + [scored(base, 0.95, False)] * 12_194
    )
    out = stratified_dev_sample(pool, threshold=0.9, high_conf_fraction=0.05, seed=1)
    assert len(out) == 32_536 + 19_300 + 12_194


def test_dev_sample_all_incorrect():
    base = rec(0, "x", ["A", "A.1"])
    pool = [scored(base, 0.99, False) for _ in range(50)]
    out = stratified_dev_sample(pool, 0.9, 0.05, seed=3)
    assert out == [s.record for s in pool]


def test_dev_sample_against_recount():
    rng = np.random.default_rng(17)
    pool = []
    for i in range(10_000):
        r = rec(i, f"t {i}", ["A", "A.1"])
        pool.append(
            ScoredRecord(
                record=r,
                predicted_leaf="A.1",
                confidence=float(rng.random()),
                correct=bool(rng.random() < 0.8),
            )
        )
    out = stratified_dev_sample(pool, 0.9, 0.05, seed=5)
    out_ids = {r.id for r in out}
    # independent recount
    high = [s for s in pool if s.correct and s.confidence >= 0.9]
    rest = [s for s in pool if not (s.correct and s.confidence >= 0.9)]
    assert len(out) == int(len(high) * 0.05 + 0.5) + len(rest)
    assert {s.record.id for s in rest} <= out_ids
    sampled_high = out_ids - {s.record.id for s in rest}
    assert sampled_high <= {s.record.id for s in high}
    assert out == stratified_dev_sample(pool, 0.9, 0.05, seed=5)


def test_synth_taxonomy_only():
    corpus = synth_corpus(SynthConfig(leaves=5, samples=0), seed=1)
    assert corpus.records == []
    assert len(corpus.taxonomy.nodes) >= 5


def test_synth_zero_noise_truth_matches():
    corpus = synth_corpus(SynthConfig(leaves=20, samples=300, label_noise_rate=0.0), seed=2)
    assert all(corpus.truth[r.id] == tuple(r.label_path) for r in corpus.records)


def test_synth_label_noise_recorded():
    corpus = synth_corpus(SynthConfig(leaves=20, samples=500, label_noise_rate=0.2), seed=2)
    flipped = sum(1 for r in corpus.records if corpus.truth[r.id] != tuple(r.label_path))
    assert 0.1 <= flipped / 500 <= 0.3
    assert all(is_valid_path(corpus.taxonomy, list(r.label_path)) for r in corpus.records)


def test_synth_depth_histogram_matches_paper_weights():
    weights = (11, 17, 176, 2730, 477)
    corpus = synth_corpus(
        SynthConfig(
            leaves=60,
            samples=3411,
            leaf_depth_min=2,
            leaf_depth_max=6,
            depth_weights=weights,
            max_roots=8,
            branching_max=8,
        ),
        seed=9,
    )
    hist = {d: 0 for d in range(2, 7)}
    for r in corpus.records:
        hist[len(r.label_path)] += 1
    for depth, expected in zip(range(2, 7), weights):
        assert abs(hist[depth] - expected) / 3411 <= 0.01


def test_synth_determinism():
    cfg = SynthConfig(leaves=15, samples=100)
    a = synth_corpus(cfg, seed=4)
    b = synth_corpus(cfg, seed=4)
    assert a.records == b.records
    assert a.taxonomy == b.taxonomy
    c = synth_corpus(cfg, seed=5)
    assert c.records != a.records


def test_record_jsonl_round_trip(tmp_path):
    corpus = synth_corpus(SynthConfig(leaves=10, samples=40, cpv_rate=0.5), seed=6)
    path = tmp_path / "records.jsonl"
    write_records(path, corpus.records)
    assert read_records(path) == corpus.records


def test_product_record_compares_by_value_and_replaces(tmp_path):
    base = rec(0, "a thing", ["A", "A.1"])
    assert base == rec(0, "a thing", ["A", "A.1"])
    assert base != rec(0, "a thing", ["A"])
    changed = dataclasses.replace(base, title="b thing", cpvs=(("k", "v"),))
    assert (changed.title, changed.cpvs, changed.label_path) == ("b thing", (("k", "v"),), ("A", "A.1"))
    assert base.title == "a thing" and base.cpvs is None
    for records in ([base], [changed], [base, changed], []):
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert read_records(path) == records


@pytest.mark.parametrize(
    "key, value, message",
    [(key, 3, f"has a non-string {key!r}: 3") for key in STRING_KEYS]
    + [
        ("title", None, "has a non-string 'title': None"),
        ("label_path", "A", "has a 'label_path' that is not a list of strings: 'A'"),
        ("label_path", ["A", 1], "has a 'label_path' that is not a list of strings: ['A', 1]"),
        ("cpvs", [1], "has a 'cpvs' that is not a list of string pairs: [1]"),
        ("cpvs", "ab", "has a 'cpvs' that is not a list of string pairs: 'ab'"),
        ("cpvs", [["k"]], "has a 'cpvs' that is not a list of string pairs: [['k']]"),
        ("cpvs", [["k", "v", "w"]], "has a 'cpvs' that is not a list of string pairs: [['k', 'v', 'w']]"),
        ("cpvs", [["k", 2]], "has a 'cpvs' that is not a list of string pairs: [['k', 2]]"),
        ("cpvs", ["kv"], "has a 'cpvs' that is not a list of string pairs: ['kv']"),
        # an id that is no string or integer would be read as its Python repr
        ("id", ["a"], "has an 'id' that is neither a string nor an integer: ['a']"),
        ("id", {"k": 1}, "has an 'id' that is neither a string nor an integer: {'k': 1}"),
        ("id", None, "has an 'id' that is neither a string nor an integer: None"),
        ("id", True, "has an 'id' that is neither a string nor an integer: True"),
        ("id", 7.0, "has an 'id' that is neither a string nor an integer: 7.0"),
    ],
)
def test_read_records_names_the_line_and_key_of_a_value_of_the_wrong_type(tmp_path, key, value, message):
    path = tmp_path / "records.jsonl"
    write_records(path, [rec(0, "a thing", ["A"]), rec(1, "b thing", ["A", "A.1"], cpvs=(("k", "v"),))])
    rows = list(read_jsonl(path))
    rows[1][key] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: the row on line 2 {message}")):
        read_records(path)


def test_read_records_reads_an_integer_id_as_its_decimal_digits(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [rec(0, "a thing", ["A"]), rec(1, "b thing", ["A", "A.1"])])
    rows = list(read_jsonl(path))
    rows[0]["id"], rows[1]["id"] = 12, -2**70
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert [r.id for r in read_records(path)] == ["12", str(-2**70)]


def test_rejection_report(tmp_path, chain_taxonomy):
    records = [rec(0, "a thing", ["A", "A.1"]), rec(1, "a thing", ["A", "A.1"])]
    _, rejected = cleanse(records, chain_taxonomy)
    path = tmp_path / "rejected.jsonl"
    write_rejections(path, rejected)
    assert list(read_jsonl(path)) == [{"id": "r001", "reason": "duplicate"}]


def test_wos_adapter(tmp_path):
    src = tmp_path / "wos.tsv"
    src.write_text(
        "An abstract about proteins\tBiology\tGenetics\n"
        "Deep nets for vision\tCS\tMachine Learning\n"
        "Another genetics paper\tBiology\tGenetics\n",
        encoding="utf-8",
    )
    taxonomy, records = load_wos(src)
    assert taxonomy.max_depth == 2
    assert len(records) == 3
    assert all(is_valid_path(taxonomy, list(r.label_path)) for r in records)
    assert records[0].label_path == ("biology", "biology/genetics")
    assert records[1].title == "Deep nets for vision"
