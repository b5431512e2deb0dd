#!/usr/bin/env python3
"""CI perf regression gate over BENCH_retrieval.json baselines.

Compares the current run's perf baseline (written by
`bench_batch_retrieval --json=...`) against the previous run's artifact
and fails when the banded DP kernel slows down by more than the allowed
ratio, or when any cascade order starts running MORE DP evaluations or
MORE sDTW band builds (both counts are deterministic for a fixed scale
and seed, so any increase is a real pruning regression, not noise; a
baseline written before band_builds existed skips that entry only).

Since schema v3 the baseline may carry a "service" block (written by
`bench_service --json=...`); its p95 submit->complete latency is gated
too: the current p95 must stay under baseline * --max-p95-ratio plus a
fixed 2ms slack (wall-clock latency on shared CI runners is noisy in a
way the deterministic DP counts are not). The rule self-skips when
either run has no service block or the service workload changed.

Schema v4 adds a "faults" sub-block to the service block (shed/retry
rates from `bench_service --faults`); it is informational — survival and
hit identity are asserted by the bench itself, not gated here. A v3
baseline against a v4 run skips via the schema check below.

The gate only trusts like-for-like comparisons. It SKIPS (exit 0, with a
message) instead of failing when the baseline is missing or was produced
by a different schema, benchmark scale, kernel variant, or CPU feature
set — e.g. the previous run landed on an AVX-512 runner and this one did
not, or a schema bump changed what the numbers mean (in particular, a
pre-v3 baseline without service numbers never fails the v3 gate).

Usage: perf_gate.py BASELINE_JSON CURRENT_JSON [--min-ratio=0.85]
                    [--max-p95-ratio=1.5]
Exit codes: 0 = pass or skip, 1 = perf regression, 2 = usage/parse error.
"""

import json
import sys

DEFAULT_MIN_RATIO = 0.85
DEFAULT_MAX_P95_RATIO = 1.5
P95_SLACK_US = 2000.0


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def skip(reason):
    print(f"perf gate: SKIP ({reason})")
    sys.exit(0)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    min_ratio = DEFAULT_MIN_RATIO
    max_p95_ratio = DEFAULT_MAX_P95_RATIO
    for a in argv[1:]:
        if a.startswith("--min-ratio="):
            min_ratio = float(a.split("=", 1)[1])
        elif a.startswith("--max-p95-ratio="):
            max_p95_ratio = float(a.split("=", 1)[1])
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    baseline_path, current_path = args
    try:
        current = load(current_path)
    except (OSError, ValueError) as e:
        print(f"perf gate: cannot read current baseline {current_path}: {e}",
              file=sys.stderr)
        return 2
    try:
        baseline = load(baseline_path)
    except OSError:
        skip(f"no previous baseline at {baseline_path}")
    except ValueError as e:
        skip(f"previous baseline unparseable: {e}")

    # Like-for-like guards: refuse to compare across schema revisions,
    # benchmark scales, kernel variants, or CPU feature sets.
    if baseline.get("schema") != current.get("schema"):
        skip(f"schema changed: {baseline.get('schema')} -> "
             f"{current.get('schema')}")
    if baseline.get("scale") != current.get("scale"):
        skip("benchmark scale changed")
    bk, ck = baseline.get("kernel", {}), current.get("kernel", {})
    for key in ("variant", "cpu_features", "band_half_width"):
        if bk.get(key) != ck.get(key):
            skip(f"kernel {key} changed: {bk.get(key)!r} -> {ck.get(key)!r}")

    # Past this point comparisons have begun: a missing entry only skips
    # that entry (it may have been added/removed between runs), never the
    # whole gate — exiting 0 here would discard failures already found.
    failures = []

    # 1. Banded-kernel throughput: the number the SIMD kernel work moves.
    for key in ("banded_cells_per_second_abs",
                "banded_cells_per_second_squared"):
        old, new = bk.get(key), ck.get(key)
        if not old or new is None:
            print(f"  {key}: skipped (missing from baseline or current)")
            continue
        ratio = new / old
        line = (f"  {key}: {old / 1e6:.1f} -> {new / 1e6:.1f} M cells/s "
                f"(ratio {ratio:.3f}, floor {min_ratio:.2f})")
        print(line)
        if ratio < min_ratio:
            failures.append(f"{key} regressed: {line.strip()}")

    # 2. DP-evaluation and sDTW band-build counts per mode and visit order:
    # deterministic at fixed scale/seed, so strictly more of either means
    # the cascade got worse.
    for mode, mdata in sorted(current.get("modes", {}).items()):
        bmode = baseline.get("modes", {}).get(mode)
        if bmode is None:
            print(f"  {mode}: skipped (absent from previous baseline)")
            continue
        for order, odata in sorted(mdata.get("orders", {}).items()):
            border = bmode.get("orders", {}).get(order)
            if border is None:
                print(f"  {mode}/{order}: skipped "
                      "(absent from previous baseline)")
                continue
            for key in ("dp_evaluations", "band_builds"):
                old, new = border.get(key), odata.get(key)
                if old is None or new is None:
                    print(f"  {mode}/{order}: skipped ({key} missing)")
                    continue
                print(f"  {mode}/{order}: {key} {old} -> {new}")
                if new > old:
                    failures.append(
                        f"{mode}/{order} {key} increased: {old} -> {new}")

    # 3. Service p95 latency: wall-clock, so gated with a generous ratio
    # plus absolute slack rather than the exact rules above.
    bsvc, csvc = baseline.get("service"), current.get("service")
    if bsvc is None or csvc is None:
        print("  service/p95: skipped (no service block in baseline or "
              "current)")
    elif bsvc.get("scale") != csvc.get("scale"):
        print("  service/p95: skipped (service workload changed)")
    else:
        old = bsvc.get("latency", {}).get("p95_us")
        new = csvc.get("latency", {}).get("p95_us")
        if not old or new is None:
            print("  service/p95: skipped (p95_us missing)")
        else:
            ceiling = old * max_p95_ratio + P95_SLACK_US
            line = (f"  service/p95: {old:.0f} -> {new:.0f} us "
                    f"(ceiling {ceiling:.0f} = x{max_p95_ratio:.2f} "
                    f"+ {P95_SLACK_US:.0f}us slack)")
            print(line)
            if new > ceiling:
                failures.append(f"service p95 latency regressed: "
                                f"{line.strip()}")

    if failures:
        print("perf gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
