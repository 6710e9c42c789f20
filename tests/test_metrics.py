import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.dataset import ProductRecord
from taxpath.metrics import (
    EvalPair,
    EvalReport,
    EvaluationError,
    InvalidPredictionsError,
    effective_leaf,
    evaluate,
    macro_f1,
    micro_f1,
    render_table,
)
from taxpath import metrics
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import ancestors, is_valid_path


def pair(pred, true):
    return EvalPair(predicted_path=tuple(pred), true_path=tuple(true), true_depth=len(true))


def test_path_counts_examples():
    # one pair: precision = overlap / predicted size, recall = overlap / true size
    assert micro_f1([pair(["A", "A.1", "A.1.1"], ["A", "A.1", "A.1.2"])], "path")[:2] == (2 / 3, 2 / 3)
    assert micro_f1([pair(["A", "A.1"], ["A", "A.1"])], "path")[:2] == (2 / 2, 2 / 2)
    assert micro_f1([pair(["A"], ["B", "B.1"])], "path")[:2] == (0 / 1, 0 / 2)


def test_per_sample_f1_from_counts():
    precision, recall, f1 = micro_f1([pair(["A", "A.1", "A.1.1"], ["A", "A.1", "A.1.2"])], "path")
    assert (precision, recall) == (2 / 3, 2 / 3)
    assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
    assert f1 == pytest.approx(2 / 3)


def test_micro_f1_pooled():
    pairs = [
        pair(["A", "A.1", "A.1.1"], ["A", "A.1", "A.1.2"]),  # counts (2,3,3)
        pair(["B", "B.1", "B.1.1"], ["B", "B.1", "B.1.1"]),  # counts (3,3,3)
    ]
    precision, recall, f1 = micro_f1(pairs, "path")
    assert precision == pytest.approx(5 / 6)
    assert recall == pytest.approx(5 / 6)
    assert f1 == pytest.approx(5 / 6)


def test_micro_f1_all_correct_and_leaf_mode():
    pairs = [pair(["A", "A.1"], ["A", "A.1"]) for _ in range(4)]
    assert micro_f1(pairs, "path")[2] == 1.0
    leaf_pairs = [
        pair(["A", "A.1"], ["A", "A.1"]),
        pair(["A", "A.1"], ["A", "A.2"]),
        pair(["B"], ["B"]),
        pair(["C"], ["C"]),
    ]
    precision, recall, f1 = micro_f1(leaf_pairs, "leaf")
    assert precision == recall == f1 == 0.75


def test_micro_f1_empty_errors():
    with pytest.raises(EvaluationError):
        micro_f1([], "path")


def test_unknown_mode_errors(chain_taxonomy):
    pairs = [pair(["A"], ["A"])]
    with pytest.raises(EvaluationError, match="unknown mode"):
        micro_f1(pairs, "node")
    with pytest.raises(EvaluationError, match="unknown mode"):
        macro_f1(pairs, chain_taxonomy, "node")


def test_macro_f1_hand_example(chain_taxonomy):
    pairs = [pair(["A", "A.1"], ["A", "B.1"])]
    # per-category F1: A = 1, A.1 = 0, B.1 = 0 -> macro = 1/3
    _, _, f1 = macro_f1(pairs, chain_taxonomy, "path")
    assert f1 == pytest.approx(1 / 3)
    assert macro_f1([pair(["A", "A.1"], ["A", "A.1"])], chain_taxonomy, "path")[2] == 1.0


def test_macro_f1_of_pairs_with_only_empty_paths_scores_zero_like_micro(chain_taxonomy):
    """No category is touched, so the mean has no terms: it scores 0, as the pooled counts do."""
    pairs = [pair([], [])]
    assert macro_f1(pairs, chain_taxonomy, "path") == micro_f1(pairs, "path") == (0.0, 0.0, 0.0)


def test_macro_include_absent_flag(chain_taxonomy):
    pairs = [pair(["A", "A.1"], ["A", "A.1"])]
    default = macro_f1(pairs, chain_taxonomy, "path")[2]
    strict = macro_f1(pairs, chain_taxonomy, "path", include_absent=True)[2]
    assert default == 1.0
    assert strict == pytest.approx(2 / len(chain_taxonomy.nodes))


def test_micro_equals_macro_when_categories_symmetric(chain_taxonomy):
    # every touched category ends with precision = recall = 1/2
    pairs = [
        pair(["A"], ["B"]),
        pair(["B"], ["A"]),
        pair(["A"], ["A"]),
        pair(["B"], ["B"]),
    ]
    micro = micro_f1(pairs, "path")
    macro = macro_f1(pairs, chain_taxonomy, "path")
    assert micro == pytest.approx(macro)


def test_effective_leaf():
    assert effective_leaf(["A", "A.1", "A.1.1"]) == "A.1.1"
    assert effective_leaf(["A"]) == "A"
    assert effective_leaf(["A", "A.1"]) == "A.1"  # partial path: deepest node
    with pytest.raises(EvaluationError):
        effective_leaf([])


def brute_force_scores(pairs, mode):
    """Independent tally used as the oracle for micro/macro agreement."""

    def sets(p):
        if mode == "path":
            return set(p.predicted_path), set(p.true_path)
        return {p.predicted_path[-1]}, {p.true_path[-1]}

    def prf(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    tp = fp = fn = 0
    per_cat = {}
    for p in pairs:
        pred, true = sets(p)
        for c in pred | true:
            cat = per_cat.setdefault(c, [0, 0, 0])
            cat[0] += int(c in pred and c in true)
            cat[1] += int(c in pred and c not in true)
            cat[2] += int(c not in pred and c in true)
        tp += len(pred & true)
        fp += len(pred - true)
        fn += len(true - pred)
    micro = prf(tp, fp, fn)
    cats = sorted(per_cat)
    parts = [prf(*per_cat[c]) for c in cats]
    macro = tuple(sum(x[i] for x in parts) / len(cats) for i in range(3))
    return micro, macro


def random_pairs(taxonomy, rng, n):
    leaves = sorted(c for c, node in taxonomy.nodes.items() if node.is_leaf)
    all_codes = sorted(taxonomy.nodes)
    pairs = []
    for _ in range(n):
        true = ancestors(taxonomy, leaves[rng.integers(len(leaves))])
        if rng.random() < 0.5:
            pred = ancestors(taxonomy, leaves[rng.integers(len(leaves))])
        else:
            depth = int(rng.integers(1, len(true) + 1))
            pred = ancestors(taxonomy, all_codes[rng.integers(len(all_codes))])[:depth] or true[:1]
        pairs.append(pair(pred, true))
    return pairs


def test_micro_macro_match_brute_force_oracle():
    rng = np.random.default_rng(123)
    taxonomy = synth_corpus(SynthConfig(leaves=12, samples=0, leaf_depth_max=4), seed=55).taxonomy
    assert len(taxonomy.nodes) <= 30
    for trial in range(300):
        pairs = random_pairs(taxonomy, rng, int(rng.integers(1, 11)))
        for mode in ("path", "leaf"):
            micro_ref, macro_ref = brute_force_scores(pairs, mode)
            assert micro_f1(pairs, mode) == pytest.approx(micro_ref, abs=1e-12)
            assert macro_f1(pairs, taxonomy, mode) == pytest.approx(macro_ref, abs=1e-12)


def make_records(taxonomy, paths):
    records = []
    for i, path in enumerate(paths):
        records.append(
            ProductRecord(
                id=f"e{i:05d}",
                title=f"item {i}",
                category_name="c",
                bu_code="b",
                ou_code="o",
                system_code="s",
                label_path=tuple(path),
                source="synthetic",
            )
        )
    return records


def pred_rows_for(records, paths, confidences=None):
    rows = []
    for i, (rec, path) in enumerate(zip(records, paths)):
        rows.append(
            {
                "id": rec.id,
                "path": list(path),
                "leaf": path[-1],
                "mode": "leaf_confident",
                "leaf_confidence": confidences[i] if confidences else 0.9,
                "per_level_argmax": list(path),
            }
        )
    return rows


def test_evaluate_depth_buckets_match_paper_distribution():
    taxonomy = synth_corpus(
        SynthConfig(leaves=30, samples=0, leaf_depth_min=2, leaf_depth_max=6,
                    depth_weights=(1, 1, 1, 1, 1), branching_max=8),
        seed=3,
    ).taxonomy
    by_depth = {}
    for code, node in taxonomy.nodes.items():
        if node.is_leaf:
            by_depth.setdefault(node.level, code)
    counts = {2: 11, 3: 17, 4: 176, 5: 2730, 6: 477}
    paths = []
    for depth, n in counts.items():
        paths.extend([ancestors(taxonomy, by_depth[depth])] * n)
    records = make_records(taxonomy, paths)
    report = evaluate(pred_rows_for(records, paths), records, taxonomy)
    assert {d: s["count"] for d, s in report.per_depth.items()} == counts
    assert report.sample_count == 3411
    assert sum(s["count"] for s in report.per_depth.values()) == report.sample_count


def test_evaluate_perfect_predictions(chain_taxonomy):
    paths = [["A", "A.1", "A.1.1"], ["B", "B.1"], ["A", "A.1"]]
    records = make_records(chain_taxonomy, paths)
    report = evaluate(pred_rows_for(records, paths), records, chain_taxonomy)
    assert report.path_macro_f1 == report.path_micro_f1 == 1.0
    assert report.leaf_macro_f1 == report.leaf_micro_f1 == 1.0


def test_evaluate_deterministic_json(chain_taxonomy):
    paths = [["A", "A.1"], ["B", "B.1"], ["A"]]
    truth = [["A", "A.1"], ["B", "B.1"], ["B"]]
    records = make_records(chain_taxonomy, truth)
    rows = pred_rows_for(records, paths, confidences=[0.4, 0.8, 0.6])
    a = evaluate(rows, records, chain_taxonomy)
    b = evaluate(rows, records, chain_taxonomy)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.confidence_cdf == ((0.4, 1 / 3), (0.6, 2 / 3), (0.8, 1.0))


def test_evaluate_id_mismatch(chain_taxonomy):
    paths = [["A", "A.1"]]
    records = make_records(chain_taxonomy, paths)
    rows = pred_rows_for(records, paths)
    rows[0]["id"] = "other"
    with pytest.raises(EvaluationError, match="id mismatch"):
        evaluate(rows, records, chain_taxonomy)


def test_repath_changes_path_metrics_only(chain_taxonomy):
    # prediction hits the right leaf through an off-chain intermediate node;
    # repath rebuilds the chain without moving the leaf
    truth_paths = [["A", "A.1", "A.1.1"], ["B", "B.1"]]
    records = make_records(chain_taxonomy, truth_paths)
    before = pred_rows_for(records, [["A", "B.1", "A.1.1"], ["B", "B.1"]])
    after = pred_rows_for(records, [["A", "A.1", "A.1.1"], ["B", "B.1"]])
    r_before = evaluate(before, records, chain_taxonomy)
    r_after = evaluate(after, records, chain_taxonomy)
    assert r_after.path_micro_f1 > r_before.path_micro_f1
    assert r_after.path_macro_f1 > r_before.path_macro_f1
    # leaf metrics come from the paths' effective leaves, which repath fixes
    assert r_before.leaf_micro_f1 == r_after.leaf_micro_f1 == 1.0
    assert r_before.leaf_macro_f1 == r_after.leaf_macro_f1 == 1.0


def test_render_table_layout(chain_taxonomy):
    paths = [["A", "A.1"]]
    records = make_records(chain_taxonomy, paths)
    table = render_table(evaluate(pred_rows_for(records, paths), records, chain_taxonomy))
    assert "Path" in table and "Leaf" in table
    assert "Macro" in table and "Micro" in table
    assert "100.00" in table


def brute_force_cdf(confidences):
    """Reference: the O(N * distinct) cumulative-fraction loop."""
    n = len(confidences)
    return [(c, sum(1 for x in confidences if x <= c) / n) for c in sorted(set(confidences))]


def test_confidence_cdf_matches_brute_force_with_ties():
    taxonomy = synth_corpus(SynthConfig(leaves=8, samples=0, leaf_depth_min=2, leaf_depth_max=3), seed=4).taxonomy
    leaves = sorted(c for c, n in taxonomy.nodes.items() if n.is_leaf)
    rng = np.random.default_rng(4)
    for n in (1, 7, 500):
        paths = [ancestors(taxonomy, leaves[int(rng.integers(len(leaves)))]) for _ in range(n)]
        # few distinct values, so most confidences tie with others
        confidences = [float(x) for x in rng.choice([0.0, 0.1, 1 / 3, 0.5, 0.97, 1.0], size=n)]
        confidences[: min(n, 3)] = [float(x) for x in rng.random(min(n, 3))]
        records = make_records(taxonomy, paths)
        report = evaluate(pred_rows_for(records, paths, confidences), records, taxonomy)
        # evaluate visits records in id order; the CDF does not depend on order
        expected = brute_force_cdf(confidences)
        assert list(report.confidence_cdf) == expected
        assert all(type(c) is float and type(f) is float for c, f in report.confidence_cdf)
        assert report.confidence_cdf[-1][1] == 1.0


@pytest.mark.parametrize("include_absent", [False, True])
def test_evaluate_merged_bucket_tables_match_per_pair_scores(include_absent):
    # evaluate counts each depth bucket once and adds the bucket tables for
    # the overall scores; both must equal scoring the pairs directly
    rng = np.random.default_rng(8)
    taxonomy = synth_corpus(SynthConfig(leaves=12, samples=0, leaf_depth_min=2, leaf_depth_max=5), seed=9).taxonomy
    for trial in range(60):
        pairs = random_pairs(taxonomy, rng, int(rng.integers(1, 30)))
        records = make_records(taxonomy, [p.true_path for p in pairs])
        report = evaluate(pred_rows_for(records, [p.predicted_path for p in pairs]), records, taxonomy, include_absent)
        # evaluate visits records in id order, which make_records keeps
        groups = {"all": pairs}
        for depth in sorted({p.true_depth for p in pairs}):
            groups[depth] = [p for p in pairs if p.true_depth == depth]
        for key, group in groups.items():
            stats = report.to_dict() if key == "all" else report.per_depth[key]
            for mode in ("path", "leaf"):
                micro = micro_f1(group, mode)
                macro = macro_f1(group, taxonomy, mode, include_absent)
                assert stats[f"{mode}_micro_f1"] == micro[2]
                assert stats[f"{mode}_macro_f1"] == macro[2]
                micro_ref, macro_ref = brute_force_scores(group, mode)
                if include_absent:  # untouched categories add zeros to the mean
                    paths = [path for p in group for path in (p.predicted_path, p.true_path)]
                    touched = {c for path in paths for c in (path if mode == "path" else path[-1:])}
                    macro_ref = tuple(x * len(touched) / len(taxonomy.nodes) for x in macro_ref)
                assert micro == pytest.approx(micro_ref, abs=1e-12)
                assert macro == pytest.approx(macro_ref, abs=1e-12)


def test_evaluate_counts_each_pair_once_per_mode(monkeypatch):
    counted = []
    original = metrics.category_counts

    def counting(pairs, mode="path"):
        counted.append(sum(pairs.values()))  # each distinct pair with its multiplicity
        return original(pairs, mode)

    monkeypatch.setattr(metrics, "category_counts", counting)
    rng = np.random.default_rng(5)
    taxonomy = synth_corpus(SynthConfig(leaves=12, samples=0, leaf_depth_min=2, leaf_depth_max=5), seed=9).taxonomy
    pairs = random_pairs(taxonomy, rng, 200)
    records = make_records(taxonomy, [p.true_path for p in pairs])
    report = evaluate(pred_rows_for(records, [p.predicted_path for p in pairs]), records, taxonomy)
    assert len(report.per_depth) > 1
    assert sum(counted) == 2 * report.sample_count


def reference_category_counts(pairs, mode):
    """The per-pair tally: one set comparison per sample, each counted once."""
    nodes = set if mode == "path" else lambda path: {effective_leaf(path)}
    tallies = {}
    for pair in pairs:
        pred = nodes(pair.predicted_path)
        true = nodes(pair.true_path)
        for slot, codes in enumerate((pred & true, pred - true, true - pred)):
            for code in codes:
                tallies.setdefault(code, [0, 0, 0])[slot] += 1
    return tallies


def reference_evaluate(pred_rows, truth_records, taxonomy, include_absent=False):
    """`evaluate` as it was before it counted distinct pairs: one EvalPair
    and one truth-path check per row, rows visited in id order. An empty
    predicted path is refused first, naming its id in file order."""
    pred_by_id = {row["id"]: row for row in pred_rows}
    truth_by_id = {rec.id: rec for rec in truth_records}
    if len(pred_by_id) != len(pred_rows):
        ids = [row["id"] for row in pred_rows]
        repeated = next(i for i in ids if ids.count(i) > 1)
        raise EvaluationError(f"duplicate id {repeated!r} in prediction dump")
    missing = sorted(set(truth_by_id) - set(pred_by_id))
    extra = sorted(set(pred_by_id) - set(truth_by_id))
    if missing or extra:
        raise EvaluationError(
            f"id mismatch between predictions and truth: missing={missing[:5]} extra={extra[:5]}"
        )
    if not pred_rows:
        raise EvaluationError("nothing to evaluate")
    empty = [row["id"] for row in pred_rows if not row["path"]]
    if empty:
        raise EvaluationError(f"prediction {empty[0]!r} has an empty path: no effective leaf")
    buckets = {}
    confidences = []
    for rec_id in sorted(truth_by_id):
        row = pred_by_id[rec_id]
        rec = truth_by_id[rec_id]
        if not is_valid_path(taxonomy, list(rec.label_path)):
            raise EvaluationError(f"truth record {rec_id!r} carries an invalid path")
        buckets.setdefault(len(rec.label_path), []).append(
            EvalPair(predicted_path=tuple(row["path"]), true_path=tuple(rec.label_path),
                     true_depth=len(rec.label_path))
        )
        confidences.append(float(row.get("leaf_confidence", 0.0)))
    totals = {mode: {} for mode in metrics.MODES}
    per_depth = {}
    for depth in sorted(buckets):
        stats = {"count": len(buckets[depth])}
        for mode in metrics.MODES:
            tallies = reference_category_counts(buckets[depth], mode)
            total = totals[mode]
            for code, counts in tallies.items():
                total[code] = [a + b for a, b in zip(total.get(code, (0, 0, 0)), counts)]
            stats[f"{mode}_macro_f1"] = metrics._macro(tallies, taxonomy, include_absent)[2]
            stats[f"{mode}_micro_f1"] = metrics._micro(tallies)[2]
        per_depth[depth] = stats
    n = len(confidences)
    distinct = sorted(set(confidences))
    covered = np.searchsorted(np.sort(np.array(confidences)), distinct, side="right")
    return EvalReport(
        path_macro_f1=metrics._macro(totals["path"], taxonomy, include_absent)[2],
        path_micro_f1=metrics._micro(totals["path"])[2],
        leaf_macro_f1=metrics._macro(totals["leaf"], taxonomy, include_absent)[2],
        leaf_micro_f1=metrics._micro(totals["leaf"])[2],
        per_depth=per_depth,
        confidence_cdf=tuple((c, k / n) for c, k in zip(distinct, covered.tolist())),
        sample_count=n,
    )


DUMP_TAXONOMY = synth_corpus(SynthConfig(leaves=8, samples=0, leaf_depth_min=1, leaf_depth_max=4), seed=4).taxonomy
DUMP_CODES = sorted(DUMP_TAXONOMY.nodes)
# every node's chain: a full path to a leaf or a partial one to an inner node
DUMP_CHAINS = [DUMP_TAXONOMY.chain(code) for code in DUMP_CODES]
# repeated codes, unknown codes and off-chain mixes
odd_paths = st.lists(st.sampled_from(DUMP_CODES + ["zz-unknown", "B.9"]), min_size=1, max_size=6).map(tuple)


@st.composite
def dumps(draw):
    """(prediction rows, truth records): a few distinct (predicted, true)
    pairs, each repeated, the rows in another order than the records."""
    truths = st.sampled_from(DUMP_CHAINS)
    pool = draw(st.lists(st.tuples(truths | odd_paths, truths), min_size=1, max_size=6))
    n = draw(st.integers(1, 40))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    confidence = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
    ids = draw(st.permutations([f"r{i:03d}" for i in range(n)]))
    records, rows = [], []
    for rec_id, (pred, true) in zip(ids, picks):
        records.append(ProductRecord(id=rec_id, title="t", category_name="c", bu_code="b", ou_code="o",
                                     system_code="s", label_path=true, source="synthetic"))
        rows.append({"id": rec_id, "path": list(pred), "leaf_confidence": draw(confidence)})
    return draw(st.permutations(rows)), records


def outcome(evaluator, rows, records, include_absent):
    """The report, or the error message, and the written bytes alike."""
    try:
        report = evaluator(rows, records, DUMP_TAXONOMY, include_absent)
    except EvaluationError as exc:
        return "error", str(exc)
    return report, json.dumps(report.to_dict(), indent=2, sort_keys=True)


@settings(derandomize=True, max_examples=300)
@given(dump=dumps(), include_absent=st.booleans())
def test_evaluate_matches_the_per_pair_reference(dump, include_absent):
    rows, records = dump
    got = outcome(evaluate, rows, records, include_absent)
    assert got[0] != "error"
    assert got == outcome(reference_evaluate, rows, records, include_absent)


@settings(derandomize=True, max_examples=300)
@given(dump=dumps(), include_absent=st.booleans(), data=st.data(),
       fault=st.sampled_from(["duplicate id", "missing id", "extra id", "empty path", "invalid truth"]))
def test_evaluate_raises_what_the_per_pair_reference_raises(dump, include_absent, data, fault):
    rows, records = dump
    rows = [dict(row) for row in rows]
    pick = data.draw(st.integers(0, len(rows) - 1))
    if fault == "duplicate id":
        rows.append(dict(rows[pick]))
    elif fault == "missing id":
        del rows[pick]
    elif fault == "extra id":
        rows.append({"id": "x-extra", "path": ["A"], "leaf_confidence": 0.5})
    elif fault == "empty path":
        rows[pick]["path"] = []
    else:  # some records, not only the first in id order, carry a path that is no chain
        bad = st.sampled_from([("zz-unknown",), DUMP_CHAINS[-1][::-1] + ("x",), DUMP_CHAINS[-1][1:] or ("x",)])
        for k in data.draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=4)):
            records[k] = replace(records[k], label_path=data.draw(bad))
    got = outcome(evaluate, rows, records, include_absent)
    assert got[0] == "error"
    assert got == outcome(reference_evaluate, rows, records, include_absent)


def test_an_empty_predicted_path_is_an_invalid_prediction_named_by_its_first_id():
    records = [ProductRecord(id=rec_id, title="t", category_name="c", bu_code="b", ou_code="o", system_code="s",
                             label_path=DUMP_CHAINS[0], source="synthetic") for rec_id in ("r1", "r5", "r9")]
    rows = [{"id": "r9", "path": list(DUMP_CHAINS[0])}, {"id": "r5", "path": []}, {"id": "r1", "path": []}]
    with pytest.raises(InvalidPredictionsError, match=r"^prediction 'r5' has an empty path: no effective leaf$"):
        evaluate(rows, records, DUMP_TAXONOMY)


def test_invalid_truth_error_names_the_smallest_offending_id():
    records = [ProductRecord(id=rec_id, title="t", category_name="c", bu_code="b", ou_code="o", system_code="s",
                             label_path=path, source="synthetic")
               for rec_id, path in [("r9", ("zz",)), ("r1", DUMP_CHAINS[0]), ("r5", ("yy",)), ("r7", ("zz",))]]
    rows = [{"id": rec.id, "path": list(DUMP_CHAINS[0])} for rec in records]
    with pytest.raises(EvaluationError, match=r"^truth record 'r5' carries an invalid path$"):
        evaluate(rows, records, DUMP_TAXONOMY)


def written_report(tmp_path, report):
    path = tmp_path / "metrics.json"
    metrics.write_report(path, report)
    return path.read_bytes()


def base_report(chain_taxonomy):
    paths = [["A", "A.1"], ["B", "B.1"], ["A"]]
    truth = [["A", "A.1"], ["B", "B.1"], ["B"]]
    records = make_records(chain_taxonomy, truth)
    return evaluate(pred_rows_for(records, paths, confidences=[0.4, 0.8, 0.6]), records, chain_taxonomy)


@pytest.mark.parametrize("cdf", [
    (),
    ((0.5, 1.0),),
    ((0, 1), (2, 3)),
    [[0.25, 0.5], [0.75, 1]],
    ((-0.0, 0.0), (5e-324, 1e16), (1e-05, 1.0)),
    ((float("nan"), float("inf")), (float("-inf"), 1.0)),
])
def test_write_report_writes_what_json_dumps_writes(tmp_path, chain_taxonomy, cdf):
    report = replace(base_report(chain_taxonomy), confidence_cdf=cdf)
    assert written_report(tmp_path, report) == (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


numbers = st.integers(-(2**70), 2**70) | st.floats(allow_nan=True, allow_infinity=True)


@settings(derandomize=True, max_examples=200)
@given(cdf=st.lists(st.tuples(numbers, numbers), max_size=12))
def test_write_report_writes_what_json_dumps_writes_for_any_number_pairs(tmp_path_factory, cdf):
    report = EvalReport(0.5, 1.0, 0.25, 0, {2: {"count": 1, "path_micro_f1": 0.1}}, tuple(cdf), len(cdf))
    tmp_path = tmp_path_factory.mktemp("report")
    assert written_report(tmp_path, report) == (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("entry", [(0.5,), (0.5, 1.0, 1.0), ("0.5", 1.0), (None, 1.0), (True, 1.0), ([0.5], 1.0),
                                   0.5, "ab", {0.5: 1, 1.0: 2}])
def test_write_report_refuses_a_cdf_entry_that_is_not_a_number_pair(tmp_path, chain_taxonomy, entry):
    report = replace(base_report(chain_taxonomy), confidence_cdf=((0.1, 0.5), entry))
    with pytest.raises(ValueError, match=r"^confidence_cdf\[1\](\[\d\])? must be "):
        written_report(tmp_path, report)
    assert list(tmp_path.iterdir()) == []
