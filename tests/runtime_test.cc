// Tests for the time/deferred-execution runtimes.
#include "net/runtime.h"

#include <gtest/gtest.h>

#include <array>
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
  // The deterministic runtime cannot host real parallelism: the engine
  // falls back to inline execution (and bit-identical traces).
  sim::Simulator simulator;
  SimRuntime runtime(simulator);
  EXPECT_EQ(runtime.MakeExecutor(4), nullptr);
}

TEST(Executor, ThreadRuntimeBuildsRequestedLanes) {
  ThreadRuntime runtime;
  auto executor = runtime.MakeExecutor(3);
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->worker_count(), 3u);
  // Degenerate request still yields a working single lane.
  EXPECT_EQ(runtime.MakeExecutor(0)->worker_count(), 1u);
}

TEST(Executor, LanePreservesFifoOrder) {
  // The per-agent ordering guarantee of the sharded engine reduces to
  // this: one lane runs its tasks strictly in Post() order.
  ThreadPoolExecutor executor(4);
  std::vector<int> order;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  for (int i = 0; i < 200; ++i) {
    executor.Post(2, [&, i] {
      std::lock_guard lock(mutex);
      order.push_back(i);
      if (i == 199) {
        done = true;
        cv.notify_one();
      }
    });
  }
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, LanesRunConcurrently) {
  // Lane 1 can only finish if lane 0 is genuinely a different thread:
  // lane 0 blocks until lane 1's task has started.
  ThreadPoolExecutor executor(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool lane1_started = false;
  bool lane0_finished = false;
  executor.Post(0, [&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return lane1_started; });
    lane0_finished = true;
    cv.notify_all();
  });
  executor.Post(1, [&] {
    std::lock_guard lock(mutex);
    lane1_started = true;
    cv.notify_all();
  });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return lane0_finished; }));
}

TEST(Executor, PendingCountSeesQueuedTasks) {
  ThreadPoolExecutor executor(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  executor.Post(0, [&] {
    std::unique_lock lock(mutex);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return blocked; }));
  }
  for (int i = 0; i < 5; ++i) executor.Post(0, [] {});
  // Lanes wrap modulo worker_count, so lane 7 is lane 0 here.
  EXPECT_EQ(executor.PendingCount(7), 5u);
  {
    std::lock_guard lock(mutex);
    release = true;
    cv.notify_all();
  }
}

TEST(Executor, FullRingSpillsToOverflowAndPreservesFifo) {
  // Ring capacity 4; the consumer is parked on a blocked task while 64
  // more are posted, so most spill past the ring into the overflow
  // queue.  Post must never block (a blocking Post would deadlock the
  // commit stage against the server lock), and the drain must replay
  // ring + overflow in exact post order.
  ThreadPoolExecutor executor(1, /*ring_capacity=*/4);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  bool done = false;
  std::vector<int> order;
  executor.Post(0, [&] {
    std::unique_lock lock(mutex);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return blocked; }));
  }
  for (int i = 0; i < 64; ++i) {
    executor.Post(0, [&, i] {
      std::lock_guard lock(mutex);
      order.push_back(i);
      if (i == 63) {
        done = true;
        cv.notify_all();
      }
    });
  }
  // O(1) read off the ring indices + overflow count, no lane lock.
  EXPECT_EQ(executor.PendingCount(0), 64u);
  {
    std::lock_guard lock(mutex);
    release = true;
    cv.notify_all();
  }
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
  const Executor::LaneStats stats = executor.GetLaneStats(0);
  EXPECT_EQ(stats.posts, 65u);
  EXPECT_GT(stats.overflow_posts, 0u);
  EXPECT_GT(stats.stall_ns.count, 0u);
}

TEST(Executor, ConcurrentProducersKeepPerProducerFifo) {
  // Four producer threads hammer one small lane concurrently, so the
  // run exercises ring wrap, CAS contention on the tail, overflow
  // spill and the re-splice back into the ring.  The total must match
  // and each producer's tasks must run in its own post order (the
  // engine's per-agent FIFO reduces to exactly this).  The TSan CI job
  // runs this test for the memory-ordering proof.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  ThreadPoolExecutor executor(1, /*ring_capacity=*/8);
  std::array<std::vector<int>, kProducers> seen;
  std::atomic<int> remaining{kProducers * kPerProducer};
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        executor.Post(0, [&, p, i] {
          // Single consumer thread: no lock needed for seen[].
          seen[static_cast<std::size_t>(p)].push_back(i);
          if (remaining.fetch_sub(1) == 1) {
            std::lock_guard lock(mutex);
            cv.notify_all();
          }
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return remaining.load() == 0; }));
  lock.unlock();
  for (int p = 0; p < kProducers; ++p) {
    const std::vector<int>& mine = seen[static_cast<std::size_t>(p)];
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) EXPECT_EQ(mine[i], i);
  }
  const Executor::LaneStats stats = executor.GetLaneStats(0);
  EXPECT_EQ(stats.posts,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

}  // namespace
}  // namespace cmom::net
