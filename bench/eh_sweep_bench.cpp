// Intermittent-power sweep throughput: what fork-based exploration
// buys for backup-scheme studies.
//
// A scheme x field grid re-runs the SAME transaction under different
// power conditions, so every variant shares the boot prelude. Two
// benchmark families measure what amortizing it is worth:
//
//   Eh_BootSweep           — the naive baseline: every variant boots
//                            its own platform to the prelude marker
//                            and then runs intermittently. One item =
//                            one variant.
//   Eh_ForkSweep/threads:N — the eh::SweepRunner path: boot ONE parent
//                            to the marker, snapshot, and run every
//                            variant from a restored fork
//                            (ckpt::ForkRunner). threads:1 isolates
//                            the amortization win (scripts/bench.sh eh
//                            records it as fork_sweep_over_boot_sweep);
//                            higher counts add worker scaling, which
//                            needs free host cores to show — read it
//                            against host_context.num_cpus.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "eh/sweep.h"

namespace {

using namespace sct;

/// SCT_BENCH_TINY=1 shrinks the workload for CI smoke runs.
bool tinyMode() {
  const char* v = std::getenv("SCT_BENCH_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

unsigned blocks() { return tinyMode() ? 4u : 16u; }

const std::vector<eh::SweepVariant>& grid() {
  static const std::vector<eh::SweepVariant> g = [] {
    std::vector<eh::SweepVariant> full = eh::defaultGrid();
    if (tinyMode()) full.resize(4);
    return full;
  }();
  return g;
}

void Eh_BootSweep(benchmark::State& state) {
  const eh::SweepRunner sweep(bench::characterizedTable(), blocks());
  std::uint64_t variants = 0;
  for (auto _ : state) {
    for (const eh::SweepVariant& v : grid()) {
      const eh::SweepOutcome o = sweep.runFromBoot(v);
      if (!o.result.completed && o.result.progressWord == 0) {
        state.SkipWithError("variant made no progress");
      }
      benchmark::DoNotOptimize(o.result.consumed_fJ);
      ++variants;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(variants));
}
BENCHMARK(Eh_BootSweep)->Unit(benchmark::kMillisecond);

void Eh_ForkSweep(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const eh::SweepRunner sweep(bench::characterizedTable(), blocks());
  std::uint64_t variants = 0;
  for (auto _ : state) {
    const std::vector<eh::SweepOutcome> out = sweep.run(grid(), threads);
    for (const eh::SweepOutcome& o : out) {
      if (!o.result.completed && o.result.progressWord == 0) {
        state.SkipWithError("variant made no progress");
      }
      benchmark::DoNotOptimize(o.result.consumed_fJ);
    }
    variants += out.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(variants));
}
BENCHMARK(Eh_ForkSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  std::printf(
      "Intermittent-power sweep throughput: items_per_second is grid\n"
      "variants per second. Compare Eh_ForkSweep/threads:1 against\n"
      "Eh_BootSweep for the boot-amortization win; higher thread counts\n"
      "add worker scaling (needs free host cores to show).\n\n");
  benchmark::AddCustomContext("sct_build_type", sct::bench::sctBuildType());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
