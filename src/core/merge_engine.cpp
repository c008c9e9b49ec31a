#include "core/merge_engine.h"

#include <algorithm>

namespace ustream {

namespace {
// Set while a pool worker (or a caller inside parallel_for) is executing
// job bodies; a nested parallel_for from such a context runs inline
// instead of touching the single-level job state.
thread_local bool t_in_pool_task = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_indices(const std::function<void(std::size_t)>& body,
                             std::size_t n) noexcept {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  try {
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      body(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_) error_ = std::current_exception();
    // Park the index counter so remaining iterations are skipped; the
    // job still completes and the exception is rethrown on the caller.
    next_.store(n, std::memory_order_relaxed);
  }
  t_in_pool_task = was_in_task;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_pool_task) {
    // Inline path: no workers, nothing to split, or a nested call from
    // inside a pool task (the job slot is single-level).
    const bool was_in_task = t_in_pool_task;
    t_in_pool_task = true;
    try {
      for (std::size_t i = 0; i < n; ++i) body(i);
    } catch (...) {
      t_in_pool_task = was_in_task;
      throw;
    }
    t_in_pool_task = was_in_task;
    return;
  }
  // One job at a time: a second caller would otherwise overwrite the job
  // state (body_, n_, next_, workers_busy_) while the first is in flight.
  std::lock_guard<std::mutex> job(job_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    workers_busy_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  run_indices(body, n);  // the caller is a participant
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return workers_busy_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = n_;
    }
    run_indices(*body, n);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--workers_busy_ == 0) done_cv_.notify_all();
    }
  }
}

MergeEngine::MergeEngine(std::size_t threads)
    : pool_([threads] {
        std::size_t t = threads;
        if (t == 0) {
          t = std::max<std::size_t>(1, std::thread::hardware_concurrency());
          t = std::min<std::size_t>(t, 16);
        }
        return t - 1;  // the caller participates in every job
      }()) {}

MergeEngine& MergeEngine::shared() {
  static MergeEngine engine;
  return engine;
}

}  // namespace ustream
