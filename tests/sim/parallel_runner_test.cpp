// ParallelRunner: independent simulations fanned out over workers must
// produce results identical to a sequential sweep, keyed by task index;
// workers know their own index and cancelPending drops exactly the
// not-yet-started tasks — the contract the serve dispatcher is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/parallel_runner.h"

namespace {

using namespace sct;

// A small self-contained simulation parameterized by index: run a clock
// for (10 + i) cycles with a counting handler and report (cycles, time).
std::pair<std::uint64_t, sim::Time> miniSim(std::size_t i) {
  sim::Kernel k;
  sim::Clock clk(k, "clk", 10);
  std::uint64_t ticks = 0;
  clk.onRising([&] { ++ticks; });
  clk.runCycles(10 + i);
  return {ticks, k.now()};
}

TEST(ParallelRunner, DefaultThreadCountIsPositive) {
  EXPECT_GE(sim::ParallelRunner::defaultThreadCount(), 1u);
}

TEST(ParallelRunner, SubmitWaitRunsEveryTask) {
  sim::ParallelRunner pool(3);
  EXPECT_EQ(pool.threadCount(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 50);
  // The pool is reusable after wait().
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 51);
}

TEST(ParallelRunner, RunIndexedMatchesSequentialSweep) {
  constexpr std::size_t kTasks = 24;

  std::vector<std::pair<std::uint64_t, sim::Time>> sequential(kTasks);
  sim::ParallelRunner::runIndexed(kTasks, 1, [&](std::size_t i) {
    sequential[i] = miniSim(i);
  });

  for (unsigned threads : {2u, 4u, 7u}) {
    std::vector<std::pair<std::uint64_t, sim::Time>> parallel(kTasks);
    sim::ParallelRunner::runIndexed(kTasks, threads, [&](std::size_t i) {
      parallel[i] = miniSim(i);
    });
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }

  // Spot-check the simulations did real work.
  EXPECT_EQ(sequential[0].first, 10u);
  EXPECT_EQ(sequential[kTasks - 1].first, 10u + kTasks - 1);
}

TEST(ParallelRunner, RunIndexedHandlesZeroTasks) {
  bool called = false;
  sim::ParallelRunner::runIndexed(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRunner, CurrentWorkerIdentity) {
  sim::ParallelRunner pool(2);
  EXPECT_EQ(pool.currentWorker(), sim::ParallelRunner::kNotAWorker);
  std::atomic<bool> sawValidId{true};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &sawValidId] {
      const unsigned id = pool.currentWorker();
      if (id >= pool.threadCount()) sawValidId = false;
    });
  }
  pool.wait();
  EXPECT_TRUE(sawValidId.load());
}

TEST(ParallelRunner, CancelPendingDropsOnlyUnstartedTasks) {
  sim::ParallelRunner pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  // Two blockers occupy both workers; everything behind them is
  // cancellable.
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      started.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (started.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  constexpr int kQueued = 30;
  std::atomic<int> lateRuns{0};
  for (int i = 0; i < kQueued; ++i) {
    pool.submit([&lateRuns] { lateRuns.fetch_add(1); });
  }
  const std::size_t dropped = pool.cancelPending();
  release = true;
  pool.wait();
  // The blockers finished; every queued task either ran before the
  // cancel (none could — both workers were blocked) or was dropped.
  EXPECT_EQ(dropped, static_cast<std::size_t>(kQueued));
  EXPECT_EQ(lateRuns.load(), 0);
}

} // namespace
