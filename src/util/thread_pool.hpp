// A small fixed-size thread pool used to compile independent circuits in
// parallel (e.g. 18 benchmarks x 3 techniques in one sweep). Tasks must
// be independent; the pool provides no ordering guarantees beyond
// wait_idle()/futures.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace parallax::util {

class ThreadPool {
 public:
  /// n_threads == 0 selects hardware_concurrency (at least 1). Throws what
  /// starting a thread throws (std::system_error when the system refuses
  /// one), after joining the workers already started.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs `f(i)` for i in [0, n) across the pool and blocks until all done.
  /// If any invocation throws, every task still runs to completion (or
  /// throws itself) before the first exception is rethrown here — `f` is
  /// never referenced after parallel_for returns.
  ///
  /// `on_progress`, when set, runs on the calling thread while it waits:
  /// after each task finishes, in submit order (the caller waits for task
  /// i before task i + 1), and so once after the last task (never when n
  /// is 0). sweep::run passes the cache's flush, so the caller writes
  /// finished cells' entries while the pool compiles. If it throws, it is
  /// not run again; its exception is rethrown, after every task finished,
  /// unless a task threw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f,
                    const std::function<void()>& on_progress = {});

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();
  /// Lets the workers drain the queue and exit, then joins them.
  void stop_and_join() noexcept;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace parallax::util
