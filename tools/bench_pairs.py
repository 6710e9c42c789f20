"""Alternating parent/change benchmark pairs, summarised into one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N [--parent REV | --parent-tree DIR] [--workload predict-one ...]
                                 [--pairs 10] [--seed S] [--scratch DIR]

The change is this checkout, uncommitted edits included. The parent revision
is checked out in a `git worktree` under the scratch directory, or taken as it
is from `--parent-tree DIR`. It defaults to `HEAD` while tracked files have
uncommitted edits (the change is not committed yet) and to `HEAD~1` once they
have none (the change is `HEAD`). Pair i runs `perfbench/run.py --workload W
--seed <seed + i> --seconds <BENCHMARK.json's run_seconds>` once in each tree,
the parent first in even pairs and the change first in odd ones, and keeps
both result files. `perfbench/run.py --compare` then lists the output digests
that differ between the two sides; the tool stops if it fails or compares
other than one result per pair and workload. The summary goes to
`BENCH_<pr>.json` at the root.

For every end-to-end metric of BENCHMARK.json the file holds each side's
values, median and quartiles, the change/parent ratio of each pair, the pairs
the change wins (ties count for neither side), whether that is a gain (it wins
at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range) and how far the change's median is worse than
the parent's, against the metric's bound. It also holds each side's run
context, `host_slowdown` and `failed_frac`.
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def plan(pairs: int, seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, the sides in the order they run) of each pair: the first side alternates."""
    return [(seed + i, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(pairs)]


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles' default method) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over paired runs (the i-th value of each side is pair i)."""
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    a, b = spread(parent), spread(change)
    worse = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    return {
        "better": better, "bound": bound, "parent": a, "change": b,
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "wins": wins, "pairs": len(parent), "parent_iqr": a["q3"] - a["q1"],
        "gain": wins >= 0.9 * len(parent) and sign * (a["median"] - b["median"]) > a["q3"] - a["q1"],
        "worse_by": worse, "within_bound": worse <= bound,
    }


def report(runs: list[dict], name: str) -> list[float]:
    """The value of the reported metric `name` in each result document."""
    return [run["report"][name]["value"] for run in runs]


def summarise(results: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """The summary of one workload from each side's result documents, in pair order."""
    parent, change = results["parent"], results["change"]
    return {
        "seeds": [run["seed"] for run in parent],
        "first": [SIDES[i % 2] for i in range(len(parent))],
        "metrics": {m["name"]: {"unit": m["unit"], **compare_metric(
            report(parent, m["name"]), report(change, m["name"]), m["better"], m["bound"])}
            for m in metrics if all(m["name"] in run["report"] for run in parent + change)},
        "host_slowdown": {side: spread(report(results[side], "host_slowdown")) for side in SIDES},
        "failed_frac": {side: report(results[side], "failed_frac") for side in SIDES},
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float, keep: Path) -> dict:
    """One untraced benchmark run in `tree`; its result file is copied into `keep` and returned."""
    result = tree / ".perfbench_results" / f"{workload}-seed{seed}-trace0.json"
    result.unlink(missing_ok=True)  # so a run that writes none is not read from an earlier one
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds)], cwd=tree, stdout=subprocess.DEVNULL, check=False)
    keep.mkdir(parents=True, exist_ok=True)
    return json.loads(shutil.copy(result, keep / result.name).read_text())


def digest_differences(change_tree: Path, kept: Path, results: int) -> list[str]:
    """The lines of `perfbench/run.py --compare` that name a differing digest or an unpaired result.

    Raises RuntimeError unless the compare exits 0 (no difference) or 1 (some) and its
    closing count covers `results` result pairs, so a compare that breaks never reads as a pass."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--compare", str(kept / "parent"),
                           str(kept / "change")], cwd=change_tree, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    total = re.fullmatch(r"(\d+) difference\(s\) over (\d+) result\(s\)", lines[-1]) if lines else None
    if done.returncode not in (0, 1) or total is None or int(total[2]) != results:
        raise RuntimeError(f"run.py --compare exited {done.returncode} and did not compare {results} results:\n"
                           f"{done.stdout}{done.stderr}")
    return [line for line in lines if line.endswith(" differs") or ": only in " in line]


def bench_pairs(trees: dict[str, Path], workloads: list[str], pairs: int, seed: int, kept: Path) -> dict:
    """Every pair of every workload, then the summary (see the module docstring)."""
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = {"pairs": pairs, "run_seconds": seconds, "command": benchmark["command"], "workloads": {}}
    runs: dict[str, dict[str, list[dict]]] = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for pair_seed, order in plan(pairs, seed):
            for side in order:
                runs[workload][side].append(run_bench(trees[side], workload, pair_seed, seconds, kept / side))
        out["workloads"][workload] = summarise(runs[workload], benchmark["end_to_end"])
    differences = digest_differences(trees["change"], kept, pairs * len(workloads))
    for workload in workloads:
        out["workloads"][workload]["digest_differences"] = [d for d in differences if f"'{workload}'" in d]
    out["sides"] = {side: {"context": runs[workloads[0]][side][0]["context"]} for side in SIDES}
    return out


def default_parent(root: Path) -> str:
    """`HEAD` while tracked files under `root` have uncommitted edits, else `HEAD~1`."""
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True, check=True).stdout
    return "HEAD" if status.strip() else "HEAD~1"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="names the output file BENCH_<pr>.json")
    parent_side = p.add_mutually_exclusive_group()
    parent_side.add_argument("--parent", help="the revision to check out as the parent side (default: see above)")
    parent_side.add_argument("--parent-tree", type=Path, help="an existing checkout of the parent, not a worktree")
    p.add_argument("--workload", action="append", choices=("pipeline", "score-corpus", "predict-one"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="pair i runs seed + i on both sides")
    p.add_argument("--scratch", type=Path, help="where the worktree and the kept result files go")
    args = p.parse_args(argv)
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_pairs."))
    parent = args.parent_tree
    if parent is None:
        parent = scratch / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(parent),
                        args.parent or default_parent(ROOT)], check=True)
    try:
        workloads = args.workload or ["pipeline", "score-corpus", "predict-one"]
        out = bench_pairs({"parent": parent.resolve(), "change": ROOT}, workloads, args.pairs, args.seed,
                          scratch / "results")
    finally:
        if args.parent_tree is None:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)], check=False)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps({"pr": args.pr, **out}, indent=1) + "\n")
    for workload, summary in out["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:<13} {name:<14} {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"(change better in {m['wins']}/{m['pairs']}, gain {m['gain']}, within bound {m['within_bound']})")
        print(f"{workload:<13} digests differing: {len(summary['digest_differences'])}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
