#!/usr/bin/env sh
# Emits the Monte-Carlo kernel benchmark artifact BENCH_mc_yield.json.
#
# Usage: tools/bench_mc_yield.sh [bench-binary] [output-json]
#   bench-binary  default: build/bench_sim_session
#   output-json   default: BENCH_mc_yield.json
#
# The artifact is Google Benchmark's JSON output for bench_sim_session:
# the legacy-vs-session one-run kernels (BM_McYieldRun_*) and the
# fig9-sized campaign sweep (BM_Fig9Sweep_Session). CI checks the kernel
# against the checked-in baseline with tools/check_bench_regression.py;
# refresh the baseline by copying a fresh artifact over
# bench/baselines/BENCH_mc_yield.json.
set -eu

BENCH_BIN="${1:-build/bench_sim_session}"
OUT="${2:-BENCH_mc_yield.json}"

if [ ! -x "$BENCH_BIN" ]; then
  echo "bench_mc_yield.sh: bench binary '$BENCH_BIN' not found or not" \
       "executable (build with -DDMFB_BUILD_BENCH=ON and Google Benchmark" \
       "installed)" >&2
  exit 2
fi

# --benchmark_min_time is left at its default: its argument syntax changed
# across Google Benchmark releases (plain double vs "0.5s"), and the default
# half-second per measurement is already steady enough for the ratio gate.
"$BENCH_BIN" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true
echo "wrote $OUT" >&2
