#!/usr/bin/env python3
"""Builds and runs the sDTW benchmark; see README.md in this directory.

One workload, printing a single JSON result line (the benchmark contract):
    run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, printing `workload metric value unit` lines; exits 1 when
any output check fails:
    run_benchmark.py [--seed N] [--seconds S] [--trace] [--build DIR]

Paired comparison of two source trees with this benchmark code:
    run_benchmark.py --compare A B [--pairs 10] [--seed N]

Record the committed baseline (5 runs at one seed, one held-out seed):
    run_benchmark.py --record-baseline FILE

Workloads, metrics, units and regression bounds come from BENCHMARK.json
at the repository root. The build goes to .bench_build/ there.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload does not exercise; they read 0.
BYPASSED = {
    "knn_sdtw": ("service.", "gen.", "eval."),
    "knn_dtw": ("service.", "gen.", "eval."),
    # A traced block has one child span, so its coverage is 1 by
    # construction.
    "pairwise_sdtw": ("batch.", "service.", "gen.", "trace.op_coverage"),
    # The service's scan phases are not visible from outside it.
    "serve_zipf": ("eval.", "batch.phase"),
}

# Metrics that are a pure function of the code and the seed: for one seed,
# any change between two versions is a behaviour change, not noise.
EXACT = (
    "overlap_at5",
    "sift.keypoints_per_series",
    "align.pairs_kept_ratio",
    "core.band_fill",
    "core.distance_error",
    "batch.candidates",
    "batch.pruned_by_kim",
    "batch.pruned_by_keogh",
    "batch.pruned_by_early_abandon",
    "batch.dp_evaluations",
    "batch.lb_keogh_abandoned",
    "batch.band_builds",
    "batch.prune_rate",
    "eval.cells_filled",
    "eval.peak_dp_cells",
)


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


# --- building and running --------------------------------------------------


def cached_root(build_dir):
    """The SDTW_ROOT a build directory was configured with, or None."""
    cache = Path(build_dir) / "CMakeCache.txt"
    if not cache.exists():
        return None
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("SDTW_ROOT:"):
                return Path(line.split("=", 1)[1].strip()).resolve()
    return None


def configure_command(build_dir, sdtw_root):
    """The cmake configure command for `build_dir` to build `sdtw_root`, or
    None when it is already configured for that tree. A directory
    configured for another tree is refused: its objects would be built
    from the other sources, and reconfiguring in place can leave them
    stale."""
    sdtw_root = Path(sdtw_root).resolve()
    configured = cached_root(build_dir)
    if configured == sdtw_root:
        return None
    if (Path(build_dir) / "CMakeCache.txt").exists():
        raise BenchError(f"{build_dir} builds {configured}, not {sdtw_root}; "
                         "use another --build directory")
    return ["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
            "-DCMAKE_BUILD_TYPE=Release", f"-DSDTW_ROOT={sdtw_root}"]


def tree_build_dir(parent, sdtw_root):
    """A build directory under `parent` of its own for each source tree."""
    digest = hashlib.sha256(
        str(Path(sdtw_root).resolve()).encode("utf-8")).hexdigest()[:12]
    return Path(parent) / f"tree-{digest}"


def build(build_dir, sdtw_root=None):
    """Configures (once per directory) and builds sdtw_bench against
    `sdtw_root`, the repository root by default; returns its path."""
    sdtw_root = Path(sdtw_root or ROOT)
    if not (sdtw_root / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no sDTW sources under {sdtw_root}")
    build_dir = Path(build_dir)
    cmd = configure_command(build_dir, sdtw_root)
    if cmd:
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "sdtw_bench", "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "sdtw_bench"


def run_workload(binary, workload, seed, seconds, traced, out_dir):
    """Runs one workload; returns the benchmark's report (plus its trace
    summary when traced)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{seed}{'-traced' if traced else ''}"
    out = out_dir / f"{stem}.json"
    trace = out_dir / f"{stem}.trace.json"
    for stale in (out, trace):
        stale.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}"]
    if traced:
        cmd.append(f"--trace={trace}")
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not out.exists():
        raise BenchError(f"{workload}: sdtw_bench exited {proc.returncode}")
    with open(out, encoding="utf-8") as f:
        report = json.load(f)
    if traced:
        with open(trace, encoding="utf-8") as f:
            report["trace_summary"] = summarize_trace(json.load(f))
    return report


def contract_result(spec, workload, report, traced):
    """The single-line result: every end_to_end metric, or with tracing
    every per_layer metric, with its unit."""
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        name = m["name"]
        value = report["metrics"].get(name)
        if value is None and traced and name.startswith(BYPASSED[workload]):
            value = 0.0
        if value is None:
            raise BenchError(f"{workload} did not report {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


# --- traces ------------------------------------------------------------------


def summarize_trace(trace):
    """Self time per layer: each span's duration minus the part of it its
    child spans cover, summed by layer (the trace-event category)."""
    spans = {e["args"]["id"]: e for e in trace["traceEvents"]}
    children = {}
    for e in spans.values():
        children.setdefault(e["args"]["parent"], []).append(e)
    self_ms, count = {}, {}
    for span_id, e in spans.items():
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        kids = sorted(children.get(span_id, []), key=lambda c: c["ts"])
        for c in kids:
            lo = max(cursor, c["ts"])
            hi = min(end, c["ts"] + c["dur"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = e["cat"]
        self_ms[layer] = self_ms.get(layer, 0.0) + (e["dur"] - covered) / 1e3
        count[layer] = count.get(layer, 0) + 1
    return {layer: {"self_ms": self_ms[layer], "spans": count[layer]}
            for layer in sorted(self_ms)}


# --- statistics and the paired comparison ----------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(metric, a, b):
    """Verdict on one end-to-end metric from paired runs (a[i], b[i]).

    improved:     B wins >= 9/10 of the pairs and its median beats A's by
                  more than A's own quartile spread (so a B whose every
                  run beats every A run is improved however wide A's
                  spread);
    unresolved:   A's spread exceeds the bound;
    regression:   B's median is worse than A's by more than the bound;
    within bound: otherwise.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    scale = abs(am) if am else 1.0
    gain = sign * (bm - am) / scale  # > 0 means B is better
    spread = (a3 - a1) / scale
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    win_fraction = wins / len(a)
    if win_fraction >= 0.9 and gain > spread:
        verdict = "improved"
    elif spread > bound:
        verdict = "unresolved"
    elif -gain > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"metric": metric["name"], "unit": metric["unit"],
            "a": [a1, am, a3], "b": [b1, bm, b3], "change": gain,
            "spread": spread, "win_fraction": win_fraction, "bound": bound,
            "verdict": verdict}


def moved_counts(a_metrics, b_metrics):
    """Exact metrics whose value differs between the two sides."""
    return [(name, a_metrics[name], b_metrics[name]) for name in EXACT
            if name in a_metrics and name in b_metrics
            and a_metrics[name] != b_metrics[name]]


def compare(spec, a_runs, b_runs, a_traced=None, b_traced=None):
    """Compares paired runs per workload. `a_runs[w]` and `b_runs[w]` are
    lists of untraced reports, pair i run at the same seed on both
    sides; `a_traced[w]` and `b_traced[w]`, when given, are one traced
    report per side at a common seed, for the per-layer counts."""
    result = {}
    for workload in a_runs:
        a, b = a_runs[workload], b_runs[workload]
        rows = [compare_metric(m, [r["metrics"][m["name"]] for r in a],
                               [r["metrics"][m["name"]] for r in b])
                for m in spec["end_to_end"]]
        paired = list(zip(a, b))
        if a_traced and b_traced:
            paired.append((a_traced[workload], b_traced[workload]))
        moved = []
        for ra, rb in paired:
            moved += [(ra["seed"],) + m
                      for m in moved_counts(ra["metrics"], rb["metrics"])]
        result[workload] = {
            "rows": rows,
            "counts_moved": moved,
            "failed": [sum(r["failed"] for r in a),
                       sum(r["failed"] for r in b)],
            "correct": all(r["correct"] for r in a + b),
        }
    return result


def print_comparison(result):
    bad = False
    for workload, w in result.items():
        print(f"== {workload}  (failed ops A {w['failed'][0]}, "
              f"B {w['failed'][1]})")
        print(f"  {'metric':<14}{'A median [q1, q3]':>30}"
              f"{'B median [q1, q3]':>30}{'change':>9}{'wins':>6}"
              f"{'bound':>7}  verdict")
        for r in w["rows"]:
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"  {r['metric']:<14}{fmt(r['a']):>30}{fmt(r['b']):>30}"
                  f"{100 * r['change']:>+8.1f}%{r['win_fraction']:>6.2f}"
                  f"{r['bound']:>7.2f}  {r['verdict']}")
            bad |= r["verdict"] == "regression"
        for seed, name, va, vb in w["counts_moved"]:
            print(f"  count moved: {name} at seed {seed}: {va} -> {vb}")
        if w["failed"][1] > w["failed"][0] or not w["correct"]:
            print("  outputs: B fails more operations or an output check "
                  "failed")
            bad = True
    return bad


# --- modes -------------------------------------------------------------------


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def run_all(spec, args):
    binary = build(args.build)
    incorrect = False
    for workload in workload_names(spec):
        report = run_workload(binary, workload, args.seed, args.seconds,
                              False, Path(args.build) / "results")
        incorrect |= not report["correct"]
        lines = contract_result(spec, workload, report, False)["metrics"]
        if args.trace:
            traced = run_workload(binary, workload, args.seed, args.seconds,
                                  True, Path(args.build) / "results")
            incorrect |= not traced["correct"]
            lines.update(contract_result(spec, workload, traced,
                                         True)["metrics"])
        for name, m in lines.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        for name, value in report["notes"].items():
            print(f"{workload} note.{name} {value:.6g}")
        print(f"{workload} correct {str(report['correct']).lower()} "
              f"attempted {report['attempted']} failed {report['failed']}")
        if args.trace:
            for layer, s in traced["trace_summary"].items():
                print(f"{workload} self_ms.{layer} {s['self_ms']:.6g} ms "
                      f"({s['spans']} spans)")
    return 1 if incorrect else 0


def run_compare(spec, args):
    sides = {}
    for tag, tree in zip("ab", args.compare):
        sides[tag] = build(tree_build_dir(args.build, tree), tree)
    results = {tag: Path(args.build) / "compare-results" / tag for tag in "ab"}
    runs = {"a": {}, "b": {}}
    for i in range(args.pairs):
        seed = args.seed + i
        order = "ab" if i % 2 == 0 else "ba"
        for workload in workload_names(spec):
            for tag in order:
                log(f"pair {i + 1}/{args.pairs} {workload} side {tag}")
                runs[tag].setdefault(workload, []).append(run_workload(
                    sides[tag], workload, seed, args.seconds, False,
                    results[tag]))
    # One traced run per side for the exact per-layer counts.
    traced = {"a": {}, "b": {}}
    for workload in workload_names(spec):
        for tag in "ab":
            traced[tag][workload] = run_workload(
                sides[tag], workload, args.seed, args.seconds, True,
                results[tag])
    result = compare(spec, runs["a"], runs["b"], traced["a"], traced["b"])
    return 1 if print_comparison(result) else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def record_baseline(spec, args):
    binary = build(args.build)
    out = {"machine": {"cpu": cpu_model(), "cpus": os.cpu_count()},
           "seconds": args.seconds, "seed": args.seed, "held_out_seed": 29,
           "workloads": {}}
    results = Path(args.build) / "results"
    for workload in workload_names(spec):
        runs = [run_workload(binary, workload, args.seed, args.seconds,
                             False, results) for _ in range(5)]
        traced = run_workload(binary, workload, args.seed, args.seconds,
                              True, results)
        held_out = run_workload(binary, workload, 29, args.seconds, False,
                                results)
        if not all(r["correct"] for r in runs + [traced, held_out]):
            raise BenchError(f"{workload}: an output check failed")
        entry = {"end_to_end": {}, "per_layer": {}, "held_out": {}}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]] for r in runs])
            entry["end_to_end"][m["name"]] = {"median": med, "q1": q1,
                                              "q3": q3, "unit": m["unit"]}
            entry["held_out"][m["name"]] = held_out["metrics"][m["name"]]
        layer = contract_result(spec, workload, traced, True)["metrics"]
        entry["per_layer"] = {k: v["value"] for k, v in layer.items()}
        out["workloads"][workload] = entry
    with open(args.record_baseline, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--build", default=str(DEFAULT_BUILD))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record-baseline", metavar="FILE")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return run_compare(spec, args)
        if args.record_baseline:
            return record_baseline(spec, args)
        if args.workload is None:
            return run_all(spec, args)
        binary = build(args.build)
        report = run_workload(binary, args.workload, args.seed, args.seconds,
                              bool(args.trace), Path(args.build) / "results")
        print(json.dumps(contract_result(spec, args.workload, report,
                                         bool(args.trace))))
        return 0
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log(f"run_benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
