// Tests for the time/deferred-execution runtimes.
#include "net/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace cmom::net {
namespace {

TEST(SimRuntime, NowTracksSimulator) {
  sim::Simulator simulator;
  SimRuntime runtime(simulator);
  EXPECT_EQ(runtime.NowNs(), 0u);
  simulator.ScheduleAt(500, [] {});
  simulator.RunToCompletion();
  EXPECT_EQ(runtime.NowNs(), 500u);
}

TEST(SimRuntime, AfterDefersOntoTheEventLoop) {
  sim::Simulator simulator;
  SimRuntime runtime(simulator);
  std::vector<std::uint64_t> fired_at;
  runtime.After(100, [&] { fired_at.push_back(simulator.now()); });
  runtime.After(50, [&] { fired_at.push_back(simulator.now()); });
  EXPECT_TRUE(fired_at.empty());  // never inline
  simulator.RunToCompletion();
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{50, 100}));
}

TEST(SimRuntime, EqualDelaysFireInFifoOrder) {
  sim::Simulator simulator;
  SimRuntime runtime(simulator);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    runtime.After(10, [&order, i] { order.push_back(i); });
  }
  simulator.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadRuntime, NowIsMonotonic) {
  ThreadRuntime runtime;
  const std::uint64_t a = runtime.NowNs();
  const std::uint64_t b = runtime.NowNs();
  EXPECT_LE(a, b);
}

TEST(ThreadRuntime, AfterFiresApproximatelyOnTime) {
  ThreadRuntime runtime;
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  const std::uint64_t start = runtime.NowNs();
  std::uint64_t fired_at = 0;
  runtime.After(20 * 1000 * 1000, [&] {  // 20 ms
    std::lock_guard lock(mutex);
    fired = true;
    fired_at = runtime.NowNs();
    cv.notify_one();
  });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return fired; }));
  EXPECT_GE(fired_at - start, 20ull * 1000 * 1000);
  EXPECT_LT(fired_at - start, 2ull * 1000 * 1000 * 1000);
}

TEST(ThreadRuntime, EarlierTimerWakesTheSleepingTimerThread) {
  // The timer thread sleeps until its first deadline; a timer inserted
  // ahead of it must wake the thread instead of waiting out the hour.
  ThreadRuntime runtime;
  runtime.After(3600ull * 1000 * 1000 * 1000, [] { ADD_FAILURE(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // let it park
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  const std::uint64_t start = runtime.NowNs();
  std::uint64_t fired_at = 0;
  runtime.After(20 * 1000 * 1000, [&] {  // 20 ms
    std::lock_guard lock(mutex);
    fired = true;
    fired_at = runtime.NowNs();
    cv.notify_one();
  });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return fired; }));
  EXPECT_GE(fired_at - start, 20ull * 1000 * 1000);
  EXPECT_LT(fired_at - start, 2ull * 1000 * 1000 * 1000);
}

TEST(ThreadRuntime, MultipleTimersAllFire) {
  ThreadRuntime runtime;
  std::atomic<int> fired{0};
  std::mutex mutex;
  std::condition_variable cv;
  for (int i = 0; i < 10; ++i) {
    runtime.After(static_cast<std::uint64_t>(i) * 1000 * 1000, [&] {
      if (++fired == 10) {
        // Notify under the lock: the waiter may only destroy the cv
        // after notify_one has returned.
        std::lock_guard lock(mutex);
        cv.notify_one();
      }
    });
  }
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return fired.load() == 10; }));
}

TEST(ThreadRuntime, DestructionWithPendingTimersIsSafe) {
  // A timer far in the future must not block or crash teardown.
  auto runtime = std::make_unique<ThreadRuntime>();
  runtime->After(3600ull * 1000 * 1000 * 1000, [] { ADD_FAILURE(); });
  runtime.reset();  // must return promptly without firing
  SUCCEED();
}

TEST(Executor, SimRuntimeHasNone) {
  // No runtime hands out worker lanes; the engine always runs inline.
  sim::Simulator simulator;
  SimRuntime runtime(simulator);
  EXPECT_EQ(runtime.MakeExecutor(4), nullptr);
}

}  // namespace
}  // namespace cmom::net
