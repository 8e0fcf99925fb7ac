// Thread-pool harness for independent simulations.
//
// The kernel is single-threaded by design (one Kernel per simulation,
// no locks on the hot path). Design-space exploration, ablations and
// characterization sweeps, however, run many *independent* simulations
// — one per interface configuration, wait-state setting or supply
// voltage — and those scale with cores trivially: each worker task
// constructs its own Kernel/Clock/bus/models, runs to completion and
// writes its result into a caller-owned slot keyed by task index, so
// the collected output is deterministic and identical to a sequential
// sweep regardless of scheduling.
//
// Sharing rules (enforced by convention, documented per type):
//  * read-only inputs — trace::BusTrace, power::SignalEnergyTable,
//    jcvm::JcProgram — may be shared across workers by const
//    reference; they are plain data with no hidden mutable state.
//  * anything attached to a Kernel must be created and destroyed
//    inside one task.
//
// One shared FIFO serves both the fixed sweeps above and the serve
// daemon's card farm. A farm job never needs a particular worker: it
// recycles whichever worker's card instance it lands on (found through
// currentWorker()) from the golden snapshot. So any idle worker can
// take the oldest queued job, and per-worker queues would buy nothing.
// The one mutex is held only for a push or a pop, which is negligible
// next to even the shortest served session.
// Graceful shutdown is cancelPending() then wait().
#ifndef SCT_SIM_PARALLEL_RUNNER_H
#define SCT_SIM_PARALLEL_RUNNER_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sct::sim {

class ParallelRunner {
 public:
  using Task = std::function<void()>;

  /// `threads == 0` picks defaultThreadCount(). A runner with one
  /// thread still uses a worker (same code path, easier to reason
  /// about); use runIndexed() with threads == 1 to force a strictly
  /// sequential in-caller sweep.
  explicit ParallelRunner(unsigned threads = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  unsigned threadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task. Tasks must not touch shared mutable state (see
  /// file comment). Exceptions escaping a task terminate (simulations
  /// signal errors through their result slots instead).
  void submit(Task task);

  /// Block until every submitted task has finished or been cancelled.
  void wait();

  /// Drop every task that has not started yet and return how many were
  /// dropped. Tasks already executing finish normally.
  std::size_t cancelPending();

  /// Index of the worker running the calling thread, or kNotAWorker
  /// when called from outside this runner (e.g. the submitting thread).
  static constexpr unsigned kNotAWorker = ~0u;
  unsigned currentWorker() const;

  /// Hardware concurrency, overridable with the SCT_THREADS
  /// environment variable (useful to pin benches to one core or to
  /// oversubscribe deliberately). At least 1.
  static unsigned defaultThreadCount();

  /// Run fn(0) .. fn(count-1) on a pool of `threads` workers and wait.
  /// With threads == 1 the calls happen inline on the caller's thread
  /// in index order — the reference sequential behaviour.
  static void runIndexed(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t)>& fn);

 private:
  void workerLoop(unsigned self);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable allDone_;
  std::size_t inFlight_ = 0;  ///< Queued + currently executing.
  bool shutdown_ = false;
};

} // namespace sct::sim

#endif // SCT_SIM_PARALLEL_RUNNER_H
