#!/bin/sh
# Run one of the repo's google-benchmark binaries and record the result
# as JSON for regression tracking.
#
#   scripts/bench.sh <table3|serve|eh|sca|enc> [build-dir] [output-json]
#
# Defaults: build-dir = build, output-json = BENCH_<name>.json (repo
# root). What `items_per_second` counts, per name:
#   table3  transactions/s, the paper's kT/s metric (table3_simperf)
#   serve   card-farm sessions/s (serve_throughput)
#   eh      intermittent-power grid variants/s (eh_sweep_bench)
#   sca     side-channel traces generated or analyzed /s (sca_bench)
#   enc     codec x workload variants/s (enc_sweep_bench)
# The script appends each bench's headline ratios (a `speedup` object,
# or `summary` for sca; see the table below), a `spread` object with the
# median, min and max per-repetition items_per_second of every
# benchmark those ratios read (so a ratio can be judged against the
# run-to-run noise of its inputs), and a `host_context`. Thread/worker
# scaling ratios only exceed ~1.0 when the host has free cores: read
# them against the recorded core count.
#
# Extra benchmark flags pass through via SCT_BENCH_ARGS, e.g.
#   SCT_BENCH_ARGS=--benchmark_repetitions=5 scripts/bench.sh table3
# Absolute numbers drift with host load; for an A/B comparison run two
# binaries back to back with repetitions and compare medians.
set -eu

usage="usage: $0 <table3|serve|eh|sca|enc> [build-dir] [output-json]"
name=${1:-}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${2:-"$repo_root/build"}
out=${3:-"$repo_root/BENCH_$name.json"}

# Per-name binary and the jq object appended to its JSON. rate(n) is the
# median items_per_second of benchmark n over its repetition entries
# (aggregates excluded); counter(n; c) is user counter c of its first
# entry. Benchmark names appear as rate("...") literals, which is how
# the spread object finds them. host_cpus is the host_context
# core-count field: table3 has always relied on google-benchmark's own
# context.num_cpus instead.
host_cpus='num_cpus: $num_cpus,'

# The ratios the eh and enc sweeps share, for benchmark prefix $1.
fork_sweep() {
  printf '{speedup: {
      fork_sweep_over_boot_sweep:
        (rate("%s_ForkSweep/threads:1/real_time") / rate("%s_BootSweep")),
      fork_threads_2_over_1:
        (rate("%s_ForkSweep/threads:2/real_time")
         / rate("%s_ForkSweep/threads:1/real_time")),
      fork_threads_4_over_1:
        (rate("%s_ForkSweep/threads:4/real_time")
         / rate("%s_ForkSweep/threads:1/real_time"))
    }}' "$1" "$1" "$1" "$1" "$1" "$1"
}
case $name in
  table3)
    binary=table3_simperf
    host_cpus=
    extra='{speedup: {
      tl2_over_tl1_with_estimation:
        (rate("TL2_WithEstimation") / rate("TL1_WithEstimation")),
      tl2_over_tl1_without_estimation:
        (rate("TL2_WithoutEstimation") / rate("TL1_WithoutEstimation")),
      hybrid_over_tl1_spa: (rate("Hybrid_SpaDpa") / rate("TL1_SpaDpa")),
      fork_over_boot_sweep: (rate("Fork_Sweep") / rate("Boot_Sweep")),
      decoded_block_over_seed:
        (rate("ISS_DecodedBlocks") / rate("ISS_DecodeOnFetch"))
    }}' ;;
  serve)
    # What the golden-snapshot recycle buys over booting a card per
    # session, and how session throughput scales with pool workers.
    binary=serve_throughput
    extra='{speedup: {
      restore_recycle_over_boot_per_session:
        (rate("Serve_RestoreRecycle") / rate("Serve_BootPerSession")),
      throughput_workers_2_over_1:
        (rate("Serve_Throughput/workers:2/real_time")
         / rate("Serve_Throughput/workers:1/real_time")),
      throughput_workers_4_over_1:
        (rate("Serve_Throughput/workers:4/real_time")
         / rate("Serve_Throughput/workers:1/real_time"))
    }}' ;;
  # What amortizing the boot prelude via one ckpt::ForkRunner snapshot
  # buys over booting a platform per variant, and sweep worker scaling.
  eh) binary=eh_sweep_bench extra=$(fork_sweep Eh) ;;
  enc) binary=enc_sweep_bench extra=$(fork_sweep Enc) ;;
  sca)
    # traces_to_recovery_* is the first rank-0 checkpoint that holds to
    # the end of the corpus; 0 for the masked device means the
    # countermeasure held at the full corpus size (the expected value).
    binary=sca_bench
    extra='{summary: {
      generate_traces_per_s: rate("Sca_Generate/threads:1/real_time"),
      analyze_traces_per_s: rate("Sca_Analyze/threads:1/real_time"),
      gen_threads_4_over_1:
        (rate("Sca_Generate/threads:4/real_time")
         / rate("Sca_Generate/threads:1/real_time")),
      traces_to_recovery_unprotected:
        counter("Sca_Recovery"; "traces_to_recovery_unprotected"),
      traces_to_recovery_masked:
        counter("Sca_Recovery"; "traces_to_recovery_masked"),
      corpus_traces: counter("Sca_Recovery"; "corpus_traces")
    }}' ;;
  *)
    echo "$usage" >&2
    exit 2 ;;
esac
bench="$build_dir/bench/$binary"

if [ ! -x "$bench" ]; then
  echo "error: $bench not built — run: cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" --target $binary" >&2
  exit 1
fi

# Console output (table3's paper-style factor table) goes to stdout; the
# machine-readable run lands in the JSON file.
# shellcheck disable=SC2086  # SCT_BENCH_ARGS is intentionally split.
"$bench" --benchmark_format=json --benchmark_out="$out" \
         --benchmark_out_format=json ${SCT_BENCH_ARGS:-}

# Throughput numbers from an unoptimized binary are not regression
# data (the recorded baseline was once polluted by a debug capture).
# The guard keys on the JSON the run just produced: the bench binary
# self-reports its compile-time build type as the `sct_build_type`
# context key (see bench_util.h), so a stale CMake cache or a binary
# copied between trees cannot fool it. SCT_BENCH_ALLOW_NONRELEASE=1
# overrides for local experiments, loudly — the off-type tag stays in
# the JSON either way.
build_type=$(sed -n 's/.*"sct_build_type": *"\([a-z]*\)".*/\1/p' "$out" \
             | head -n 1)
[ -n "${build_type:-}" ] || build_type=unknown
if [ "$build_type" != "release" ]; then
  if [ "${SCT_BENCH_ALLOW_NONRELEASE:-0}" = "1" ]; then
    echo "WARNING: the bench binary reports sct_build_type='$build_type' —" \
         "numbers are not comparable to Release baselines (JSON tagged" \
         "accordingly)" >&2
  else
    rm -f "$out"
    echo "error: the bench binary reports sct_build_type='$build_type';" \
         "benchmark numbers require an optimized build (use cmake --preset" \
         "release, or set SCT_BENCH_ALLOW_NONRELEASE=1 to record anyway)" >&2
    exit 1
  fi
fi

# Identify the host the numbers came from — throughput figures are
# meaningless across machines without this, and scaling ratios are
# meaningless without the core count.
cpu_model=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo \
            2>/dev/null || true)
[ -n "${cpu_model:-}" ] || cpu_model=$(uname -m)
num_cpus=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$build_dir/CMakeCache.txt" \
      2>/dev/null | head -n 1)
if [ -n "${cxx:-}" ] && [ -x "$cxx" ]; then
  compiler=$("$cxx" --version 2>/dev/null | head -n 1)
else
  compiler=unknown
fi
git_sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo none)
run_date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

if command -v jq >/dev/null 2>&1; then
  tmp="$out.tmp"
  # Every benchmark a ratio reads, as a JSON array of names.
  read_names=$(printf '%s' "$extra" | grep -o 'rate("[^"]*")' \
         | sed 's/^rate(//; s/)$//' | sort -u | paste -sd, -)
  jq --arg cpu "$cpu_model" --arg compiler "$compiler" \
     --arg git_sha "$git_sha" --arg date "$run_date" \
     --argjson read_names "[$read_names]" \
     --arg build_type "$build_type" --argjson num_cpus "$num_cpus" '
    def entries(n):
      .benchmarks[]
      | select(.name == n and (.run_type // "iteration") != "aggregate");
    def spread(n):
      [entries(n) | .items_per_second] | sort
      | {median: .[(length / 2) | floor], min: .[0], max: .[-1]};
    def rate(n): spread(n).median;
    def counter(n; c): [entries(n) | .[c]] | .[0];
    . as $root
    | . + '"$extra"'
    + {spread: (reduce $read_names[] as $n ({}; .[$n] = ($root | spread($n))))}
    + {host_context: {
        cpu_model: $cpu, '"$host_cpus"' compiler: $compiler,
        git_sha: $git_sha, date: $date, build_type: $build_type
    }}' "$out" > "$tmp" || { rm -f "$tmp"; exit 1; }
  mv "$tmp" "$out"
else
  echo "warning: jq not found — ratios/host_context not appended" >&2
fi
echo "wrote $out"
