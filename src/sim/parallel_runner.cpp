#include "sim/parallel_runner.h"

#include <cstdlib>
#include <string>

namespace sct::sim {

namespace {
/// Worker identity for currentWorker(): set once per worker thread.
thread_local const ParallelRunner* tlsRunner = nullptr;
thread_local unsigned tlsWorker = ParallelRunner::kNotAWorker;
} // namespace

ParallelRunner::ParallelRunner(unsigned threads) {
  if (threads == 0) threads = defaultThreadCount();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ParallelRunner::~ParallelRunner() {
  wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  taskReady_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelRunner::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++inFlight_;
  }
  taskReady_.notify_one();
}

void ParallelRunner::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

std::size_t ParallelRunner::cancelPending() {
  std::deque<Task> dropped;  // Destroyed after the lock is released.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(queue_);
    inFlight_ -= dropped.size();
    if (inFlight_ == 0) allDone_.notify_all();
  }
  return dropped.size();
}

unsigned ParallelRunner::currentWorker() const {
  return tlsRunner == this ? tlsWorker : kNotAWorker;
}

void ParallelRunner::workerLoop(unsigned self) {
  tlsRunner = this;
  tlsWorker = self;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      taskReady_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inFlight_;
      if (inFlight_ == 0) allDone_.notify_all();
    }
  }
}

unsigned ParallelRunner::defaultThreadCount() {
  if (const char* env = std::getenv("SCT_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelRunner::runIndexed(std::size_t count, unsigned threads,
                                const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = defaultThreadCount();
  if (threads == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ParallelRunner pool(threads);
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

} // namespace sct::sim
