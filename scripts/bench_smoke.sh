#!/usr/bin/env bash
# Smoke-runs every bench_fig* binary plus bench_batch_retrieval at --smoke
# scale to catch bench bit-rot (benches are not covered by ctest).
# bench_batch_retrieval additionally verifies that sequential,
# index-ordered and LB-ordered retrieval all return
# bitwise-identical hit lists, prints DPs-run / prune-rate for each visit
# order, and writes the machine-readable perf baseline
# ${build_dir}/BENCH_retrieval.json (queries/s, DP counts, prune rates,
# banded-kernel cells/s) that CI uploads as an artifact, so future perf
# PRs have a number to diff against. Any hit divergence makes it exit
# non-zero, which fails this script.
# Usage: bench_smoke.sh [build_dir]
set -euo pipefail

build_dir="${1:-build}"
if [ ! -d "${build_dir}/bench" ]; then
  echo "error: ${build_dir}/bench not found (configure and build first)" >&2
  exit 1
fi

status=0
ran=0
for bench in "${build_dir}"/bench/bench_fig*; do
  [ -x "${bench}" ] || continue
  echo "== smoke: ${bench}"
  if ! "${bench}" --smoke > /dev/null; then
    echo "FAILED: ${bench}" >&2
    status=1
  fi
  ran=$((ran + 1))
done
if [ -x "${build_dir}/bench/bench_batch_retrieval" ]; then
  echo "== smoke: ${build_dir}/bench/bench_batch_retrieval"
  if ! "${build_dir}/bench/bench_batch_retrieval" --smoke \
       "--json=${build_dir}/BENCH_retrieval.json" > /dev/null; then
    echo "FAILED: ${build_dir}/bench/bench_batch_retrieval" >&2
    status=1
  fi
  ran=$((ran + 1))
fi
# bench_service amends the service block (latency percentiles, cache hit
# rate, fault-injection survival stats) into the same BENCH_retrieval.json
# and verifies service hits bitwise against direct scans; --faults re-runs
# the stream with seeded worker/cache-fill faults armed and fails unless
# the service survives with bitwise-identical OK hits.
if [ -x "${build_dir}/bench/bench_service" ]; then
  echo "== smoke: ${build_dir}/bench/bench_service"
  if ! "${build_dir}/bench/bench_service" --smoke --faults \
       "--json=${build_dir}/BENCH_retrieval.json" > /dev/null; then
    echo "FAILED: ${build_dir}/bench/bench_service" >&2
    status=1
  fi
  ran=$((ran + 1))
fi
if [ "${ran}" -eq 0 ]; then
  echo "error: no bench_fig* executables found in ${build_dir}/bench" >&2
  exit 1
fi
exit "${status}"
