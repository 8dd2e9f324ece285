#include "concurrency/thread_pool.hpp"

#include <algorithm>

#include "base/metrics.hpp"

namespace loctk::concurrency {

namespace {

// Aggregated across every pool in the process (pools are cheap and
// plural; per-pool breakdown would need labeled metrics). queue_depth
// is last-write-wins, sampled at each enqueue/dequeue.
metrics::Counter& tasks_executed_counter() {
  static metrics::Counter& c = metrics::counter("threadpool.tasks_executed");
  return c;
}
metrics::Counter& uncaught_errors_counter() {
  static metrics::Counter& c =
      metrics::counter("threadpool.uncaught_task_errors");
  return c;
}
metrics::Gauge& queue_depth_gauge() {
  static metrics::Gauge& g = metrics::gauge("threadpool.queue_depth");
  return g;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::set_error_callback(ErrorCallback cb) {
  std::lock_guard lock(mutex_);
  error_callback_ = std::move(cb);
}

void ThreadPool::worker_loop() {
  bool finished_task = false;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      // The previous task (and its error handling) is done; retire it
      // under the lock the loop takes anyway, so wait_idle() costs the
      // hot path no extra lock round-trip.
      if (finished_task) {
        finished_task = false;
        if (--running_ == 0 && queue_.empty()) idle_cv_.notify_all();
      }
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      finished_task = true;
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    // submit()'s packaged_task wrapper captures exceptions into the
    // future; anything that reaches here (post() tasks, or a wrapper
    // that itself threw) would escape the thread entry point and call
    // std::terminate. Capture it instead and keep the worker alive.
    try {
      task();
      tasks_executed_counter().increment();
    } catch (...) {
      tasks_executed_counter().increment();
      uncaught_errors_.fetch_add(1, std::memory_order_relaxed);
      uncaught_errors_counter().increment();
      ErrorCallback cb;
      {
        std::lock_guard lock(mutex_);
        cb = error_callback_;
      }
      if (cb) {
        try {
          cb(std::current_exception());
        } catch (...) {
          // A throwing error callback must not kill the worker either.
        }
      }
    }
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace loctk::concurrency
