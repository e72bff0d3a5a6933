// Time and deferred-execution abstraction.
//
// The MOM code (retransmission timers, modeled processing delays) is
// written once against this interface and runs unchanged on simulated
// time (SimRuntime) or wall-clock time (ThreadRuntime).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace cmom::net {

// Placeholder for a worker-lane executor.  No runtime builds one any
// more (the server runs one inline engine); the type survives only so
// Runtime decorators that forward MakeExecutor keep compiling.
class Executor {
 public:
  virtual ~Executor() = default;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  // Monotonic nanoseconds (simulated or real).
  [[nodiscard]] virtual std::uint64_t NowNs() = 0;

  // Runs `fn` approximately `delay_ns` from now.  Never runs `fn`
  // inline.  Callbacks scheduled with equal delays run in FIFO order on
  // the simulated runtime; the threaded runtime gives no order guarantee
  // beyond the timer resolution.
  virtual void After(std::uint64_t delay_ns, std::function<void()> fn) = 0;

  // Always nullptr: see Executor.
  [[nodiscard]] virtual std::unique_ptr<Executor> MakeExecutor(
      std::size_t lanes) {
    (void)lanes;
    return nullptr;
  }
};

// Simulated time: defers onto the discrete-event loop.
class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(sim::Simulator& simulator) : simulator_(&simulator) {}

  std::uint64_t NowNs() override { return simulator_->now(); }
  void After(std::uint64_t delay_ns, std::function<void()> fn) override {
    simulator_->ScheduleAfter(delay_ns, std::move(fn));
  }

 private:
  sim::Simulator* simulator_;
};

// Wall-clock time: a dedicated timer thread fires deferred callbacks.
class ThreadRuntime final : public Runtime {
 public:
  ThreadRuntime();
  ~ThreadRuntime() override;

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  std::uint64_t NowNs() override;
  void After(std::uint64_t delay_ns, std::function<void()> fn) override;

 private:
  void TimerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::multimap<std::uint64_t, std::function<void()>> deadlines_;
  bool stopping_ = false;
  std::thread timer_thread_;
};

}  // namespace cmom::net
