// Codec x workload sweep throughput: what fork-based exploration buys
// for low-power bus-encoding studies.
//
// Every cell of the codec x workload grid replays the SAME boot
// prelude before its measured workload phase, so the sweep is exactly
// the amortizable shape ckpt::ForkRunner exists for. Two benchmark
// families measure what that is worth:
//
//   Enc_BootSweep           — the naive baseline: every variant boots
//                             its own platform and then replays its
//                             workload. One item = one variant.
//   Enc_ForkSweep/threads:N — the enc::SweepRunner path: boot ONE
//                             parent, snapshot, and run every variant
//                             from a restored fork. threads:1 isolates
//                             the amortization win (scripts/bench.sh enc
//                             records it as fork_sweep_over_boot_sweep);
//                             higher counts add worker scaling, which
//                             needs free host cores to show — read it
//                             against host_context.num_cpus.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "enc/sweep.h"

namespace {

using namespace sct;

/// SCT_BENCH_TINY=1 shrinks the workload for CI smoke runs.
bool tinyMode() {
  const char* v = std::getenv("SCT_BENCH_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

const std::vector<enc::EncVariant>& grid() {
  static const std::vector<enc::EncVariant> g = [] {
    std::vector<enc::EncVariant> full = enc::defaultGrid();
    if (tinyMode()) full.resize(4);
    return full;
  }();
  return g;
}

void Enc_BootSweep(benchmark::State& state) {
  const enc::SweepRunner sweep(bench::characterizedTable());
  std::uint64_t variants = 0;
  for (auto _ : state) {
    for (const enc::EncVariant& v : grid()) {
      const enc::EncOutcome o = sweep.runFromBoot(v);
      if (o.transactions == 0) {
        state.SkipWithError("variant completed no transactions");
      }
      benchmark::DoNotOptimize(o.total_fJ);
      ++variants;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(variants));
}
BENCHMARK(Enc_BootSweep)->Unit(benchmark::kMillisecond);

void Enc_ForkSweep(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const enc::SweepRunner sweep(bench::characterizedTable());
  std::uint64_t variants = 0;
  for (auto _ : state) {
    const std::vector<enc::EncOutcome> out = sweep.run(grid(), threads);
    for (const enc::EncOutcome& o : out) {
      if (o.transactions == 0) {
        state.SkipWithError("variant completed no transactions");
      }
      benchmark::DoNotOptimize(o.total_fJ);
    }
    variants += out.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(variants));
}
BENCHMARK(Enc_ForkSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  std::printf(
      "Bus-encoding sweep throughput: items_per_second is codec x\n"
      "workload variants per second. Compare Enc_ForkSweep/threads:1\n"
      "against Enc_BootSweep for the boot-amortization win; higher\n"
      "thread counts add worker scaling (needs free host cores to\n"
      "show).\n\n");
  benchmark::AddCustomContext("sct_build_type", sct::bench::sctBuildType());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
