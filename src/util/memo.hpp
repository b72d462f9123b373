// Thread-safe compute-once memo: the sharing primitive behind the sweep's
// shared transpilation and the pipeline's run-scoped placement memo.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace parallax::util {

/// The first caller of a key computes the value; concurrent callers of the
/// same key wait on its shared_future, so no value is ever computed twice.
/// A compute that throws rethrows to every caller of its key.
template <typename Key, typename Value>
class Memo {
 public:
  /// The reference is into the memo's shared state and stays valid for the
  /// memo's lifetime.
  template <typename Compute>
  const Value& get(const Key& key, Compute&& compute) {
    std::shared_future<Value> future;
    std::promise<Value> promise;
    bool owner = false;
    {
      std::lock_guard lock(mutex_);
      auto it = futures_.find(key);
      if (it == futures_.end()) {
        owner = true;
        future = promise.get_future().share();
        futures_.emplace(key, future);
        ++misses_;
      } else {
        future = it->second;
        ++hits_;
      }
    }
    if (owner) {
      try {
        promise.set_value(std::forward<Compute>(compute)());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  /// Calls served from an existing entry / calls that created one.
  [[nodiscard]] std::size_t hits() const {
    std::lock_guard lock(mutex_);
    return hits_;
  }
  [[nodiscard]] std::size_t misses() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, std::shared_future<Value>> futures_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace parallax::util
