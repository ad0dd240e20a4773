// Fixed-size worker pool for embarrassingly parallel benchmark trials.
//
// Simulations are single-threaded and deterministic; the parallelism in this
// repository lives *between* runs: a parameter sweep dispatches independent
// (seed, config) trials across hardware threads, and the soak smoke runs one
// seeded schedule per iteration. parallel_for provides the fork-join shape
// they need without exposing futures.
//
// parallel_for is safe to call from a worker thread of the same pool and
// from several threads concurrently: each call tracks completion with its
// own batch state (never the pool-global in-flight counter), and the calling
// thread claims iterations itself until the batch's index space is
// exhausted. A nested call therefore cannot deadlock — by the time any
// thread blocks, every iteration of its batch is claimed by an actively
// running thread, so the dependency chain always terminates.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gs::util {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished. Must not be
  // called from a worker thread (the task calling it could never finish);
  // worker threads coordinate through parallel_for's per-batch state.
  void wait_idle();

  // Runs fn(i) for i in [0, n) across the pool and joins. The caller
  // participates: it claims and runs iterations alongside the workers, so
  // calls from worker threads (nested parallel_for) and from multiple
  // threads at once make progress even when every worker is busy.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // True when the current thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gs::util
