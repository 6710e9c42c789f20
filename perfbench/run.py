"""taxpath benchmark: one workload per process, closed loop, one client.

Run one workload (the last line of standard output is the result as JSON):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

``--trace 1`` installs the span tracer and reports per-layer metrics instead
of end-to-end ones. ``--workload all`` runs every workload untraced and then
traced, each in its own process, prints every end-to-end metric by name with
its unit plus the tracing overhead, and exits non-zero if an output check
failed. ``--compare A B`` lists the output digests that differ between two
result files or two result directories.

Results go to ``.perfbench_results/`` and scratch files to ``.perfbench_work/``
under the repository root; see NOTES.md for what each workload measures.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before NumPy loads; one thread keeps a shared box steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

# End-to-end metrics every workload reports (BENCHMARK.json "end_to_end").
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("leaf_micro_f1", "ratio"),
    ("path_micro_f1", "ratio"),
)

# The named end-to-end metrics and the workloads that measure them.
ALL = ("pipeline", "score-corpus", "predict-one")
NAMED = (
    ("setup_s", "s", ALL),
    ("pipeline_s", "s", ("pipeline",)),
    ("leaf_micro_f1", "ratio", ALL),
    ("path_micro_f1", "ratio", ALL),
    ("predict_rps", "records/s", ("score-corpus",)),
    ("eval_s", "s", ("score-corpus",)),
    ("annotate_rps", "records/s", ("score-corpus",)),
    ("predict_one_p50_ms", "ms", ("predict-one",)),
    ("predict_one_p99_ms", "ms", ("predict-one",)),
    ("peak_rss_mb", "MB", ALL),
    ("failed_frac", "ratio", ALL),
)
# Uncorrected wall-clock figures and the host's measured slowdown (see hostspeed.py).
WALL = (("setup_wall_s", "s"), ("job_wall_s", "s"), ("host_slowdown", "ratio"))
SAMPLE_KEYS = {
    "setup_s": "setup_s",
    "pipeline_s": "pipeline_s",
    "predict_rps": "predict_passes",
    "eval_s": "eval_passes",
    "annotate_rps": "annotate_passes",
    "predict_one_p50_ms": "predict_one_calls",
    "predict_one_p99_ms": "predict_one_calls",
}
# Traced minus untraced, per workload.
OVERHEAD = (("pipeline", "pipeline_s"), ("score-corpus", "predict_rps"), ("predict-one", "predict_one_p50_ms"))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="taxpath benchmark")
    p.add_argument("--workload", choices=ALL + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two result files or directories")
    args = p.parse_args(argv)
    if (args.workload is None) == (args.compare is None):
        p.error("give exactly one of --workload and --compare")
    return args


def result_path(workload: str, seed: int, trace: int, size: str) -> Path:
    suffix = "" if size == "full" else f"-{size}"
    return RESULTS / f"{workload}-seed{seed}-trace{trace}{suffix}.json"


def src_tree() -> tuple[int, str]:
    """Line count and sha256 of the program's Python sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_context(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable API
        blas_name = "unknown"
    lines, tree = src_tree()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": tree,
        "src_lines": lines,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def print_report(result: dict) -> None:
    workload = result["workload"]
    report = result["report"]
    print(f"# {workload} seed={result['seed']} trace={result['trace']} size={result['size']}")
    for name, unit, workloads in NAMED:
        if workload in workloads and name in report:
            samples = result["samples"].get(SAMPLE_KEYS.get(name, ""), None)
            note = f"  (n={samples})" if samples is not None else ""
            print(f"{name:<22} {report[name]['value']:>14.6g} {unit}{note}")
    for name, unit in WALL:
        if name in report:
            note = "  (wall clock)" if name.endswith("_wall_s") else ""
            print(f"{name:<22} {report[name]['value']:>14.6g} {unit}{note}")
    for note in result["failures"]:
        print(f"FAILED: {note}")
        print(f"perfbench: {workload} seed={result['seed']} FAILED: {note}", file=sys.stderr)


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "taxpath" / "__init__.py").is_file():
        print(f"perfbench: no taxpath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracing
    import workloads

    wall = time.perf_counter()
    size = workloads.SIZES[args.size]
    tracer = tracing.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    speed = hostspeed.HostSpeed()
    bench = workloads.Bench(args.workload, args.seed, args.seconds, size, work, speed, tracer)
    try:
        if tracer is not None:
            tracer.install()
        speed.start()
        try:
            bench.run()
        finally:
            speed.stop()
            if tracer is not None:
                tracer.uninstall()
    except Exception:
        traceback.print_exc()
        bench.out.tally.add(1, 1, "workload raised: " + traceback.format_exc(limit=1).strip())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out, tally = bench.out, bench.out.tally
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
    out.metrics["host_slowdown"] = speed.slowdown(float("-inf"), float("inf"))
    units = {name: unit for name, unit, _ in NAMED} | dict(END_TO_END) | dict(WALL)
    correct = tally.attempted > 0 and tally.failed == 0 and all(name in out.metrics for name, _ in END_TO_END)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "failures": tally.notes,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in END_TO_END
            if name in out.metrics
        },
        "report": {name: {"value": v, "unit": units[name]} for name, v in out.metrics.items()},
        "samples": out.samples,
        "digests": out.digests,
        "context": run_context(args.seed),
        "wall_s": time.perf_counter() - wall,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        result["spans"] = len(tracer.spans)
        spans_file = result_path(args.workload, args.seed, 1, args.size).with_suffix(".spans.jsonl.gz")
        tracer.write_spans(spans_file)
    path = result_path(args.workload, args.seed, args.trace, args.size)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print_report(result)
    if args.trace:
        print_overhead({args.workload: _load(result_path(args.workload, args.seed, 0, args.size))},
                       {args.workload: result})
    print(f"# result: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["per_layer"] if args.trace else result["metrics"],
            }
        )
    )
    return 0 if correct else 1


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def print_overhead(untraced: dict, traced: dict) -> None:
    for workload, name in OVERHEAD:
        plain, tr = untraced.get(workload), traced.get(workload)
        if not plain or not tr or name not in plain["report"] or name not in tr["report"]:
            continue
        a, b = plain["report"][name]["value"], tr["report"][name]["value"]
        unit = tr["report"][name]["unit"]
        print(f"tracing overhead {workload} {name}: {b - a:+.6g} {unit} ({(b - a) / a:+.1%})")


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in its own process."""
    results: dict[int, dict] = {0: {}, 1: {}}
    status = 0
    for trace in (0, 1):
        for workload in ALL:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            status = status or done.returncode
            loaded = _load(result_path(workload, args.seed, trace, args.size))
            if done.returncode != 0 or loaded is None:
                print(f"{workload} trace={trace}: exit code {done.returncode}", file=sys.stderr)
                status = status or 1
                continue
            results[trace][workload] = loaded
    for workload in ALL:
        if workload in results[0]:
            print_report(results[0][workload])
    print_overhead(results[0], results[1])
    for workload in ALL:
        plain, tr = results[0].get(workload), results[1].get(workload)
        if plain and tr and plain["digests"] != tr["digests"]:
            print(f"{workload}: traced outputs differ from untraced", file=sys.stderr)
            status = status or 1
    return status


def _result_set(path: Path) -> dict:
    out = {}
    for file in sorted(path.glob("*.json")):
        res = _load(file)
        if res and "digests" in res:
            out[(res["workload"], res["seed"], res["size"], res["trace"])] = res
    return out


def compare(a: Path, b: Path) -> int:
    """Digests that differ between two result sets; exit code 1 if any."""
    if a.is_file() and b.is_file():  # two single results: compare whatever they are
        pairs = [(f"{a.name} vs {b.name}", _load(a), _load(b))]
    else:
        left, right = _result_set(a), _result_set(b)
        pairs = [(key, left[key], right.get(key)) for key in sorted(left)]
        pairs += [(key, None, right[key]) for key in sorted(right) if key not in left]
    differ = 0
    for key, x, y in pairs:
        if x is None or y is None:
            print(f"{key}: only in {'B' if x is None else 'A'}")
            differ += 1
            continue
        names = sorted(set(x["digests"]) | set(y["digests"]))
        for name in names:
            if x["digests"].get(name) != y["digests"].get(name):
                print(f"{key}: {name} differs")
                differ += 1
    print(f"{differ} difference(s) over {len(pairs)} result(s)")
    return 1 if differ else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work directory on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
