#include "net/runtime.h"

#include <chrono>
#include <utility>
#include <vector>

namespace cmom::net {

namespace {
std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ThreadRuntime::ThreadRuntime() : timer_thread_([this] { TimerLoop(); }) {}

ThreadRuntime::~ThreadRuntime() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  timer_thread_.join();
}

std::uint64_t ThreadRuntime::NowNs() { return MonotonicNowNs(); }

void ThreadRuntime::After(std::uint64_t delay_ns, std::function<void()> fn) {
  bool earliest = false;
  {
    std::lock_guard lock(mutex_);
    const auto it =
        deadlines_.emplace(MonotonicNowNs() + delay_ns, std::move(fn));
    earliest = it == deadlines_.begin();
  }
  // The timer thread already sleeps until the first deadline; only a
  // new first deadline moves its wake-up earlier.
  if (earliest) wake_.notify_all();
}

void ThreadRuntime::TimerLoop() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    const std::uint64_t now = MonotonicNowNs();
    std::vector<std::function<void()>> due;
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      due.push_back(std::move(deadlines_.begin()->second));
      deadlines_.erase(deadlines_.begin());
    }
    if (!due.empty()) {
      lock.unlock();
      for (auto& fn : due) fn();
      lock.lock();
      continue;
    }
    if (deadlines_.empty()) {
      wake_.wait(lock);
    } else {
      const auto next = std::chrono::nanoseconds(deadlines_.begin()->first);
      wake_.wait_until(
          lock, std::chrono::steady_clock::time_point(
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(next)));
    }
  }
}

}  // namespace cmom::net
