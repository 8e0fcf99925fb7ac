// WorkStealingPool: every submitted task runs exactly once, imbalanced
// batches are rebalanced by steal-half, cancelPending drops exactly the
// not-yet-started tasks, and the runIndexed helper matches a sequential
// sweep — the contract the serve dispatcher is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/work_stealing.h"

namespace sct {
namespace {

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> ran(kTasks);
  {
    sim::WorkStealingPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran, i] { ran[i].fetch_add(1); });
    }
    pool.wait();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
}

TEST(WorkStealingPool, WaitIsReusableAcrossBatches) {
  sim::WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 40; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 40 * (batch + 1));
  }
}

TEST(WorkStealingPool, ImbalancedPinningGetsStolen) {
  // Pin a blocker plus kTasks tasks onto worker 0's deque. Owners pop
  // FIFO, so whichever worker takes the blocker parks on it — and the
  // tasks queued behind it can then ONLY complete by being stolen
  // (steal-half takes from the back, so a thief can never lift the
  // blocker past the queued tasks). Waiting for all tasks BEFORE
  // releasing the blocker makes steals > 0 a certainty, not a timing
  // accident — it is the rebalancing mechanism the serve throughput
  // scaling relies on.
  sim::WorkStealingPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  pool.submitTo(0, [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.submitTo(0, [&count] { count.fetch_add(1); });
  }
  for (int spin = 0; count.load() < kTasks && spin < 60000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(count.load(), kTasks) << "pinned tasks never got stolen";
  release = true;
  pool.wait();
  // stolenTasks() counts migrations, not distinct tasks: a thief's loot
  // sits on the thief's own deque and a third worker may steal it
  // again, so no bound in terms of kTasks holds. What holds by
  // construction: every steal moves at least one task, and at most
  // half (rounded up) of a victim that never held more than the
  // kTasks + 1 tasks ever submitted.
  const std::uint64_t steals = pool.steals();
  EXPECT_GT(steals, 0u);
  EXPECT_GE(pool.stolenTasks(), steals);
  EXPECT_LE(pool.stolenTasks(), steals * ((kTasks + 2) / 2));
}

TEST(WorkStealingPool, SingleThreadNeverSteals) {
  sim::WorkStealingPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(WorkStealingPool, CurrentWorkerIdentity) {
  sim::WorkStealingPool pool(2);
  EXPECT_EQ(pool.currentWorker(), sim::WorkStealingPool::kNotAWorker);
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

TEST(WorkStealingPool, CancelPendingDropsOnlyUnstartedTasks) {
  sim::WorkStealingPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  // Two blockers occupy both workers; everything behind them is
  // cancellable.
  for (int i = 0; i < 2; ++i) {
    pool.submitTo(static_cast<unsigned>(i), [&] {
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

TEST(WorkStealingPool, RunIndexedMatchesSequential) {
  constexpr std::size_t kCount = 257;
  std::vector<std::uint64_t> seq(kCount, 0);
  sim::WorkStealingPool::runIndexed(kCount, 1, [&](std::size_t i) {
    seq[i] = i * i + 7;
  });
  std::vector<std::uint64_t> par(kCount, 0);
  sim::WorkStealingPool::runIndexed(kCount, 4, [&](std::size_t i) {
    par[i] = i * i + 7;
  });
  EXPECT_EQ(par, seq);
}

} // namespace
} // namespace sct
