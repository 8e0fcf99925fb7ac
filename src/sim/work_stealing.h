// Work-stealing task pool for serving-style workloads.
//
// ParallelRunner feeds every worker from one shared deque, which is
// the right shape for a fixed sweep submitted up front: the queue is
// filled once and the single mutex is uncontended compared to the
// seconds-long simulation tasks behind it. A serving loop is different
// — jobs arrive continuously, task costs vary by orders of magnitude
// (a wrong-PIN session is ~10x cheaper than a full authentication),
// and the dispatcher must keep accepting while workers run. This pool
// gives every worker its own deque: submissions are sharded
// round-robin (or pinned with submitTo), a worker drains its own deque
// FIFO, and a worker that runs dry steals the BACK HALF of the richest
// victim's deque in one lock acquisition ("steal half", the batching
// that makes stealing pay — one steal rebalances an imbalanced batch
// instead of bouncing single tasks between locks).
//
// Determinism contract: the pool schedules *independent* tasks, same
// as ParallelRunner — tasks write results into caller-owned slots (or
// emit self-contained records) and must not touch shared mutable
// state. Scheduling order is non-deterministic; results keyed by task
// identity are not. The serve session tests pin this down end to end
// (threads=1 vs threads=N produce bit-identical per-session results).
#ifndef SCT_SIM_WORK_STEALING_H
#define SCT_SIM_WORK_STEALING_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sct::sim {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// `threads == 0` picks ParallelRunner::defaultThreadCount(). Workers
  /// start immediately and idle until tasks arrive.
  explicit WorkStealingPool(unsigned threads = 0);

  /// Joins after finishing every non-cancelled task (implicit wait()).
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned threadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task on the next deque round-robin.
  void submit(Task task);

  /// Enqueue a task on a specific worker's deque (it may still be
  /// stolen by an idle peer — pinning is a placement hint, not an
  /// affinity guarantee).
  void submitTo(unsigned worker, Task task);

  /// Block until every submitted task has finished or been cancelled.
  void wait();

  /// Drop every task that has not started yet and return how many were
  /// dropped. Tasks already executing finish normally — this is the
  /// drain step of a graceful shutdown: cancelPending(), then wait().
  std::size_t cancelPending();

  /// Index of the worker running the calling thread, or kNotAWorker
  /// when called from outside the pool (e.g. the submitting thread).
  static constexpr unsigned kNotAWorker = ~0u;
  unsigned currentWorker() const;

  /// -- Scheduler diagnostics (monotonic, racy-read safe) --------------
  /// Number of successful steal operations and total tasks migrated by
  /// them. Loot lands on the thief's deque and may be stolen again, so
  /// a task counts once per migration. steals() == 0 on a threads=1
  /// pool by construction.
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  std::uint64_t stolenTasks() const {
    return stolenTasks_.load(std::memory_order_relaxed);
  }

  /// Run fn(0)..fn(count-1) over `threads` work-stealing workers and
  /// wait. With threads == 1 (or count <= 1) the calls happen inline on
  /// the caller's thread in index order — the reference sequential
  /// behaviour, same contract as ParallelRunner::runIndexed. Indices
  /// are pre-sharded round-robin across the worker deques; imbalance is
  /// repaired by stealing instead of a shared queue.
  static void runIndexed(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t)>& fn);

 private:
  struct WorkerDeque {
    std::mutex m;
    std::deque<Task> dq;
    /// Mirror of dq.size(), readable without m for victim selection and
    /// the idle-wait predicate (stale values only make a steal pick a
    /// poorer victim or cost one spurious wakeup — never a lost task).
    std::atomic<std::size_t> size{0};
  };

  void workerLoop(unsigned self);
  /// Pop from the worker's own deque front; nullptr when empty.
  Task popOwn(unsigned self);
  /// Steal the back half of the richest victim's deque into `self`'s
  /// deque and return one task to run; nullptr when nothing to steal.
  Task stealHalf(unsigned self);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> workers_;
  std::mutex poolMutex_;  ///< Guards inFlight_ and shutdown_.
  std::condition_variable taskReady_;
  std::condition_variable allDone_;
  std::size_t inFlight_ = 0;  ///< Queued + currently executing.
  bool shutdown_ = false;
  std::atomic<std::uint64_t> nextShard_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> stolenTasks_{0};
};

} // namespace sct::sim

#endif // SCT_SIM_WORK_STEALING_H
