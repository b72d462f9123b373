#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace parallax::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  try {
    for (std::size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // The system refused a thread. Unwinding would destroy the condition
    // variable the started workers wait on (glibc's destroy then waits for
    // them forever) and their joinable threads (which terminate): stop and
    // join them first.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f,
                              const std::function<void()>& on_progress) {
  if (n == 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&f, i] { f(i); }));
  }
  // Drain every future before rethrowing: the queued tasks capture `f` by
  // reference, so propagating the first exception while later tasks are
  // still queued/running would let them race a dangling reference (and a
  // caller's frame). The first failure wins; later ones are swallowed.
  std::exception_ptr first_error;
  std::exception_ptr progress_error;
  for (auto& fut : futures) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    if (!on_progress || progress_error) continue;
    try {
      on_progress();
    } catch (...) {
      progress_error = std::current_exception();
    }
  }
  if (!first_error) first_error = progress_error;
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace parallax::util
