#include "net/runtime.h"

#include <bit>
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

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t lanes,
                                       std::size_t ring_capacity) {
  const std::size_t lane_count = lanes == 0 ? 1 : lanes;
  const std::size_t capacity =
      std::bit_ceil(ring_capacity < 2 ? std::size_t{2} : ring_capacity);
  lanes_.reserve(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->capacity = capacity;
    lane->mask = capacity - 1;
    lane->slots = std::make_unique<Slot[]>(capacity);
    for (std::size_t s = 0; s < capacity; ++s) {
      lane->slots[s].seq.store(s, std::memory_order_relaxed);
    }
    lane->thread = std::thread([this, raw = lane.get()] { LaneLoop(*raw); });
    lanes_.push_back(std::move(lane));
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& lane : lanes_) WakeLane(*lane);
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

bool ThreadPoolExecutor::TryPush(Lane& lane, std::function<void()>& fn,
                                 std::uint64_t enqueue_ns) {
  std::size_t pos = lane.tail.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = lane.slots[pos & lane.mask];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (lane.tail.compare_exchange_weak(pos, pos + 1,
                                          std::memory_order_relaxed)) {
        slot.fn = std::move(fn);
        slot.enqueue_ns = enqueue_ns;
        slot.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS updated `pos`; retry against the refreshed position.
    } else if (dif < 0) {
      // The slot one lap back has not been recycled: ring is full.
      return false;
    } else {
      pos = lane.tail.load(std::memory_order_relaxed);
    }
  }
}

bool ThreadPoolExecutor::TryPop(Lane& lane, std::function<void()>& fn,
                                std::uint64_t& enqueue_ns) {
  const std::size_t pos = lane.head.load(std::memory_order_relaxed);
  Slot& slot = lane.slots[pos & lane.mask];
  const std::size_t seq = slot.seq.load(std::memory_order_acquire);
  if (seq != pos + 1) return false;  // next task not published yet
  fn = std::move(slot.fn);
  slot.fn = nullptr;  // free captured state before recycling the slot
  enqueue_ns = slot.enqueue_ns;
  slot.seq.store(pos + lane.capacity, std::memory_order_release);
  lane.head.store(pos + 1, std::memory_order_release);
  return true;
}

bool ThreadPoolExecutor::RefillFromOverflow(Lane& lane) {
  if (lane.overflow_count.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock(lane.overflow_mutex);
  bool moved = false;
  while (!lane.overflow.empty()) {
    OverflowItem& item = lane.overflow.front();
    if (!TryPush(lane, item.fn, item.enqueue_ns)) break;  // ring full again
    lane.overflow.pop_front();
    lane.overflow_count.fetch_sub(1, std::memory_order_release);
    moved = true;
  }
  return moved;
}

void ThreadPoolExecutor::WakeLane(Lane& lane) {
  lane.wake_epoch.fetch_add(1, std::memory_order_acq_rel);
  lane.wake_epoch.notify_one();
}

void ThreadPoolExecutor::Post(std::size_t lane_index,
                              std::function<void()> fn) {
  Lane& lane = *lanes_[lane_index % lanes_.size()];
  if (stopping_.load(std::memory_order_acquire)) return;
  const std::uint64_t now = MonotonicNowNs();
  // Once the overflow queue is non-empty every post must join it, or a
  // later task could slip into the ring ahead of an earlier spilled one
  // and break lane FIFO order.
  bool in_ring = lane.overflow_count.load(std::memory_order_acquire) == 0 &&
                 TryPush(lane, fn, now);
  if (!in_ring) {
    std::lock_guard lock(lane.overflow_mutex);
    lane.overflow.push_back({std::move(fn), now});
    lane.overflow_count.fetch_add(1, std::memory_order_release);
    lane.overflow_posts.fetch_add(1, std::memory_order_relaxed);
  }
  lane.posts.fetch_add(1, std::memory_order_relaxed);
  // Publish-then-check-parked; pairs with the consumer's
  // advertise-then-recheck (both sides fence seq_cst) so either we see
  // `parked` or the consumer sees our task -- never neither.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (lane.parked.load(std::memory_order_relaxed)) WakeLane(lane);
}

std::size_t ThreadPoolExecutor::PendingCount(std::size_t lane_index) const {
  const Lane& lane = *lanes_[lane_index % lanes_.size()];
  const std::size_t tail = lane.tail.load(std::memory_order_acquire);
  const std::size_t head = lane.head.load(std::memory_order_acquire);
  const std::size_t ring = tail >= head ? tail - head : 0;
  return ring + lane.overflow_count.load(std::memory_order_acquire);
}

Executor::LaneStats ThreadPoolExecutor::GetLaneStats(
    std::size_t lane_index) const {
  const Lane& lane = *lanes_[lane_index % lanes_.size()];
  LaneStats out;
  out.posts = lane.posts.load(std::memory_order_relaxed);
  out.overflow_posts = lane.overflow_posts.load(std::memory_order_relaxed);
  out.parks = lane.parks.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(lane.stats_mutex);
    out.depth = lane.depth_hist;
    out.stall_ns = lane.stall_hist;
  }
  return out;
}

void ThreadPoolExecutor::LaneLoop(Lane& lane) {
  std::function<void()> task;
  std::uint64_t enqueue_ns = 0;
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return;  // discard queued
    if (TryPop(lane, task, enqueue_ns)) {
      const std::uint64_t now = MonotonicNowNs();
      {
        // Consumer-only histograms; the lock is uncontended except
        // against a stats snapshot.
        std::lock_guard lock(lane.stats_mutex);
        // Depth counts the popped task itself plus everything behind it.
        const std::size_t tail = lane.tail.load(std::memory_order_relaxed);
        const std::size_t head = lane.head.load(std::memory_order_relaxed);
        lane.depth_hist.Record(1 + (tail >= head ? tail - head : 0));
        lane.stall_hist.Record(now >= enqueue_ns ? now - enqueue_ns : 0);
      }
      task();
      task = nullptr;
      continue;
    }
    if (RefillFromOverflow(lane)) continue;
    // Park: advertise, fence, re-check, then futex-wait on the epoch.
    const std::uint32_t epoch =
        lane.wake_epoch.load(std::memory_order_acquire);
    lane.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const bool empty =
        lane.tail.load(std::memory_order_acquire) ==
            lane.head.load(std::memory_order_relaxed) &&
        lane.overflow_count.load(std::memory_order_acquire) == 0;
    if (!empty || stopping_.load(std::memory_order_acquire)) {
      lane.parked.store(false, std::memory_order_relaxed);
      continue;
    }
    lane.parks.fetch_add(1, std::memory_order_relaxed);
    lane.wake_epoch.wait(epoch, std::memory_order_acquire);
    lane.parked.store(false, std::memory_order_relaxed);
  }
}

ThreadRuntime::ThreadRuntime() : timer_thread_([this] { TimerLoop(); }) {}

std::unique_ptr<Executor> ThreadRuntime::MakeExecutor(std::size_t lanes) {
  return std::make_unique<ThreadPoolExecutor>(lanes);
}

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
