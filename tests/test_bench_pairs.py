"""`tools/bench_pairs.py` on canned result files: its alternation, its arithmetic and its schema."""
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = BENCHMARK["end_to_end"]


def canned(workload, seed, side, job_s, digest="d0"):
    """A result document as `perfbench/run.py` writes one, with the keys the summary reads."""
    values = {"setup_s": 2.0, "job_s": job_s, "peak_rss_mb": 70.0 + (side == "change"), "leaf_micro_f1": 0.9,
              "path_micro_f1": 0.8, "host_slowdown": 1.5 if side == "parent" else 1.25, "failed_frac": 0.0}
    return {"workload": workload, "seed": seed, "size": "full", "trace": 0, "digests": {"one/predictions.jsonl": digest},
            "report": {name: {"value": v, "unit": "s"} for name, v in values.items()},
            "context": {"src_lines": 4000 + (side == "change"), "git_sha": side, "nproc": 2}}


JOB_S = {"parent": [10.0, 12.0, 11.0, 13.0, 9.0], "change": [8.0, 12.0, 10.0, 9.5, 9.5]}


def fake_runner(calls):
    def run(tree, workload, seed, seconds, keep):
        side = tree.name
        pair = seed - 100
        doc = canned(workload, seed, side, JOB_S[side][pair], digest="d1" if (side, pair) == ("change", 3) else "d0")
        keep.mkdir(parents=True, exist_ok=True)
        (keep / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))
        calls.append((side, workload, seed, seconds))
        return doc
    return run


def benchmark_tree(tree):
    """A directory with the files the driver reads from a tree: BENCHMARK.json and perfbench/."""
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tree / "perfbench").symlink_to(ROOT / "perfbench")
    return tree


@pytest.fixture
def summary(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_bench", fake_runner(calls))
    trees = {side: benchmark_tree(tmp_path / side) for side in bench_pairs.SIDES}
    out = bench_pairs.bench_pairs(trees, ["predict-one"], 5, 100, tmp_path / "kept")
    return out, calls


def test_the_pairs_alternate_which_side_runs_first(summary):
    out, calls = summary
    assert bench_pairs.plan(3, 7) == [(7, ("parent", "change")), (8, ("change", "parent")), (9, ("parent", "change"))]
    assert [(side, seed) for side, _, seed, _ in calls] == [
        ("parent", 100), ("change", 100), ("change", 101), ("parent", 101), ("parent", 102), ("change", 102),
        ("change", 103), ("parent", 103), ("parent", 104), ("change", 104)]
    assert {seconds for *_, seconds in calls} == {BENCHMARK["run_seconds"]}
    assert out["workloads"]["predict-one"]["first"] == ["parent", "change", "parent", "change", "parent"]
    assert out["workloads"]["predict-one"]["seeds"] == [100, 101, 102, 103, 104]


def test_the_summary_arithmetic(summary):
    out, _ = summary
    job = out["workloads"]["predict-one"]["metrics"]["job_s"]
    q1, _, q3 = statistics.quantiles(JOB_S["parent"], n=4)
    assert job["parent"] == {"values": JOB_S["parent"], "median": 11.0, "q1": q1, "q3": q3}
    assert job["change"]["median"] == 9.5
    assert job["ratios"] == [c / p for p, c in zip(JOB_S["parent"], JOB_S["change"])]
    assert job["wins"] == 3  # pair 1 ties and pair 4 is worse
    assert job["parent_iqr"] == q3 - q1 == 3.0
    assert job["gain"] is False  # 3/5 wins, and a 1.5 gap inside the parent's 3.0 spread
    assert job["worse_by"] == pytest.approx((9.5 - 11.0) / 11.0)
    assert job["within_bound"] is True
    rss = out["workloads"]["predict-one"]["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["worse_by"], rss["within_bound"]) == (0, pytest.approx(1 / 70), True)
    f1 = out["workloads"]["predict-one"]["metrics"]["leaf_micro_f1"]
    assert (f1["better"], f1["wins"], f1["worse_by"]) == ("higher", 0, 0.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_spread():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    assert bench_pairs.compare_metric(parent, [v - 1.0 for v in parent], "lower", 0.24)["gain"] is True
    assert bench_pairs.compare_metric(parent, [v - 0.3 for v in parent], "lower", 0.24)["gain"] is False  # in the IQR
    one_loss = [v - 1.0 for v in parent[:9]] + [11.0]
    assert bench_pairs.compare_metric(parent, one_loss, "lower", 0.24)["wins"] == 9
    assert bench_pairs.compare_metric(parent, one_loss, "lower", 0.24)["gain"] is True
    two_losses = [v - 1.0 for v in parent[:8]] + [11.0, 11.0]
    assert bench_pairs.compare_metric(parent, two_losses, "lower", 0.24)["gain"] is False
    higher = bench_pairs.compare_metric([0.5] * 4, [0.7] * 4, "higher", 0.02)
    assert (higher["wins"], higher["gain"], higher["worse_by"]) == (4, True, pytest.approx(-0.4))
    assert bench_pairs.compare_metric([1.0] * 4, [1.3] * 4, "lower", 0.24)["within_bound"] is False


def test_the_file_schema(summary):
    out, _ = summary
    assert set(out) == {"pairs", "run_seconds", "command", "workloads", "sides"}
    assert out["run_seconds"] == BENCHMARK["run_seconds"]
    files = bench_pairs.benchmark_files(ROOT)
    assert out["sides"]["parent"]["context"] == {"src_lines": 4000, "git_sha": "parent", "nproc": 2,
                                                 "benchmark_files": files}
    assert out["sides"]["change"]["context"]["src_lines"] == 4001
    w = out["workloads"]["predict-one"]
    assert set(w) == {"seeds", "first", "metrics", "host_slowdown", "failed_frac", "digest_differences"}
    assert set(w["metrics"]) == {m["name"] for m in END_TO_END}
    for m in w["metrics"].values():
        assert set(m) == {"unit", "better", "bound", "parent", "change", "ratios", "wins", "pairs", "parent_iqr",
                          "gain", "worse_by", "within_bound"}
    assert w["host_slowdown"]["parent"]["median"] == 1.5 and w["host_slowdown"]["change"]["median"] == 1.25
    assert w["failed_frac"] == {"parent": [0.0] * 5, "change": [0.0] * 5}
    json.dumps(out, allow_nan=False)


def test_the_benchmark_files_are_hashed_and_the_same_on_both_sides(capsys, summary):
    # capsys is set up before summary, so it captures what bench_pairs prints
    out, _ = summary
    files = out["sides"]["change"]["context"]["benchmark_files"]
    assert {"BENCHMARK.json", "perfbench/run.py", "perfbench/workloads.py"} <= set(files)
    assert not any("__pycache__" in name for name in files)
    assert files["BENCHMARK.json"] == hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes()).hexdigest()
    assert out["sides"]["parent"]["context"]["benchmark_files"] == files
    assert "benchmark files differ" not in capsys.readouterr().out


def test_benchmark_files_that_differ_between_the_sides_are_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_bench", fake_runner([]))
    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", parent / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    with open(parent / "perfbench" / "workloads.py", "a") as fh:
        fh.write("# edited\n")
    (parent / "perfbench" / "only_here.py").write_text("")
    (parent / "perfbench" / "__pycache__").mkdir()
    (parent / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"bytecode")
    trees = {"parent": parent, "change": benchmark_tree(tmp_path / "change")}
    out = bench_pairs.bench_pairs(trees, ["predict-one"], 5, 100, tmp_path / "kept")
    assert capsys.readouterr().out == (
        "benchmark files differ between sides: perfbench/only_here.py, perfbench/workloads.py\n")
    parent_files, change_files = (out["sides"][side]["context"]["benchmark_files"] for side in bench_pairs.SIDES)
    assert set(parent_files) - set(change_files) == {"perfbench/only_here.py"}
    assert parent_files["perfbench/run.py"] == change_files["perfbench/run.py"]


def test_the_digest_differences_come_from_run_py_compare(summary):
    out, _ = summary
    assert out["workloads"]["predict-one"]["digest_differences"] == [
        "('predict-one', 103, 'full', 0): one/predictions.jsonl differs"]


def test_a_compare_that_fails_or_reads_too_few_results_raises(tmp_path):
    kept = tmp_path / "kept"
    for side in bench_pairs.SIDES:
        (kept / side).mkdir(parents=True)
    with pytest.raises(RuntimeError, match="did not compare 5 results"):  # "0 difference(s) over 0 result(s)"
        bench_pairs.digest_differences(benchmark_tree(tmp_path / "change"), kept, 5)
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    (broken / "perfbench" / "run.py").write_text("raise ValueError('compare crashed')\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_pairs.digest_differences(broken, kept, 0)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("edit, parent_rev", [(None, "one"), ("three", "two")])
def test_main_checks_out_the_parent_revision_in_a_worktree(tmp_path, monkeypatch, edit, parent_rev):
    """Committed, the change is HEAD and its parent HEAD~1; with tracked files edited, the parent is HEAD."""
    repo = benchmark_tree(tmp_path / "change")
    git(repo, "init", "-q")
    for rev in ("one", "two"):
        (repo / "rev.txt").write_text(rev)
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", rev)
    (repo / "untracked.txt").write_text("an untracked file is no edit")
    if edit:
        (repo / "rev.txt").write_text(edit)
    seen, calls = {}, []
    runner = fake_runner(calls)

    def run(tree, workload, seed, seconds, keep):
        seen.setdefault(tree.name, set()).add((tree / "rev.txt").read_text())
        return runner(tree, workload, seed, seconds, keep)

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    scratch = tmp_path / "scratch"
    argv = ["--pr", "5", "--workload", "predict-one", "--pairs", "2", "--seed", "100", "--scratch", str(scratch)]
    assert bench_pairs.main(argv) == 0
    assert seen == {"parent": {parent_rev}, "change": {edit or "two"}}
    assert len(calls) == 4
    assert not (scratch / "parent").exists()  # the worktree is removed after the runs
    assert git(repo, "worktree", "list").count("\n") == 1
    out = json.loads((repo / "BENCH_5.json").read_text())
    assert (out["pr"], out["pairs"]) == (5, 2)
