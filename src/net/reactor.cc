#include "net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/log.h"

namespace cmom::net {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr int kMaxEvents = 256;
constexpr int kIdleTimeoutMs = 100;

// The round-end list of the shard thread that is dispatching socket
// events right now; null everywhere else.
thread_local std::vector<Reactor::Task>* t_round_end = nullptr;

}  // namespace

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

struct Reactor::Shard {
  std::size_t index = 0;
  ScopedFd epoll_fd;
  ScopedFd wake_fd;  // eventfd

  std::mutex mutex;
  bool stopping = false;
  std::uint64_t next_token = 1;
  // Callbacks are held by shared_ptr so a dispatch can run one without
  // the shard lock while a concurrent (posted) removal drops the map
  // reference.
  std::unordered_map<std::uint64_t, std::shared_ptr<EventFn>> handlers;
  std::unordered_map<std::uint64_t, int> fds;  // token -> fd (for DEL)
  std::vector<Task> tasks;
  std::multimap<std::uint64_t, Task> timers;  // deadline ns -> task

  // Relaxed counters: written by the shard thread (and Register), read
  // by Stats() from anywhere.
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> tasks_run{0};
  std::atomic<std::uint64_t> timers_run{0};
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> fd_count{0};

  std::thread thread;

  void Wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd.get(), &one, sizeof(one));
  }
};

Reactor::Reactor(std::size_t shards) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->epoll_fd = ScopedFd(::epoll_create1(EPOLL_CLOEXEC));
    shard->wake_fd = ScopedFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!shard->epoll_fd.valid() || !shard->wake_fd.valid()) {
      CMOM_LOG(kError) << "reactor shard setup: " << std::strerror(errno);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // token 0 = the wake eventfd
    ::epoll_ctl(shard->epoll_fd.get(), EPOLL_CTL_ADD, shard->wake_fd.get(),
                &ev);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw] { Loop(raw); });
  }
}

Reactor::~Reactor() { Stop(); }

void Reactor::Stop() {
  for (auto& shard : shards_) {
    {
      std::lock_guard lock(shard->mutex);
      shard->stopping = true;
    }
    shard->Wake();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Destroy leftover queue state here, on the caller's thread: queued
  // tasks and timers (e.g. reconnect backoff retries) capture
  // shared_ptrs to endpoint state that in turn holds this reactor, so
  // leaving them in place would leak the whole cycle.
  for (auto& shard : shards_) {
    std::vector<Task> tasks;
    std::multimap<std::uint64_t, Task> timers;
    std::unordered_map<std::uint64_t, std::shared_ptr<EventFn>> handlers;
    {
      std::lock_guard lock(shard->mutex);
      tasks.swap(shard->tasks);
      timers.swap(shard->timers);
      handlers.swap(shard->handlers);
      shard->fds.clear();
    }
  }
}

std::size_t Reactor::shard_count() const { return shards_.size(); }

std::size_t Reactor::PickShard() const {
  std::size_t best = 0;
  std::uint64_t best_count = shards_[0]->fd_count.load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    const std::uint64_t count =
        shards_[i]->fd_count.load(std::memory_order_relaxed);
    if (count < best_count) {
      best = i;
      best_count = count;
    }
  }
  return best;
}

Reactor::Shard& Reactor::ShardOf(std::uint64_t token) const {
  return *shards_[token >> kTokenShardShift];
}

std::uint64_t Reactor::Register(std::size_t shard_index, int fd, EventFn fn) {
  Shard& shard = *shards_[shard_index];
  std::uint64_t token;
  {
    std::lock_guard lock(shard.mutex);
    token = (static_cast<std::uint64_t>(shard_index) << kTokenShardShift) |
            shard.next_token++;
    shard.handlers.emplace(token, std::make_shared<EventFn>(std::move(fn)));
    shard.fds.emplace(token, fd);
    shard.fd_count.fetch_add(1, std::memory_order_relaxed);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = token;
  if (::epoll_ctl(shard.epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    CMOM_LOG(kError) << "epoll_ctl(ADD): " << std::strerror(errno);
    std::lock_guard lock(shard.mutex);
    shard.handlers.erase(token);
    shard.fds.erase(token);
    shard.fd_count.fetch_sub(1, std::memory_order_relaxed);
    return 0;
  }
  return token;
}

void Reactor::Deregister(std::uint64_t token) {
  if (token == 0) return;
  Shard& shard = ShardOf(token);
  auto remove = [&shard, token] {
    std::shared_ptr<EventFn> handler;
    int fd = -1;
    {
      std::lock_guard lock(shard.mutex);
      auto it = shard.fds.find(token);
      if (it == shard.fds.end()) return;  // already removed
      fd = it->second;
      shard.fds.erase(it);
      auto hit = shard.handlers.find(token);
      if (hit != shard.handlers.end()) {
        handler = std::move(hit->second);
        shard.handlers.erase(hit);
      }
      shard.fd_count.fetch_sub(1, std::memory_order_relaxed);
    }
    ::epoll_ctl(shard.epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
    // `handler` (and whatever it captured) dies here, on the shard
    // thread, after the current dispatch batch.
  };
  if (OnShardThread(shard.index)) {
    remove();
    return;
  }
  // Run the removal on the shard thread and wait it out: once the task
  // ran, no event dispatched before it can still be executing (events
  // and tasks run interleaved on the same thread).
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const bool posted = Post(shard.index, [&] {
    remove();
    std::lock_guard lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  if (!posted) {
    // Shard already stopping: its loop has exited (or will without
    // running more dispatches), so removing inline cannot race one.
    remove();
    return;
  }
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
}

bool Reactor::Post(std::size_t shard_index, Task task) {
  Shard& shard = *shards_[shard_index];
  bool wake = false;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.stopping) return false;
    wake = shard.tasks.empty();
    shard.tasks.push_back(std::move(task));
  }
  if (wake && !OnShardThread(shard_index)) shard.Wake();
  return true;
}

void Reactor::PostDelayed(std::size_t shard_index, std::uint64_t delay_ns,
                          Task task) {
  Shard& shard = *shards_[shard_index];
  const std::uint64_t deadline = NowNs() + delay_ns;
  bool wake = false;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.stopping) return;
    wake = shard.timers.empty() || deadline < shard.timers.begin()->first;
    shard.timers.emplace(deadline, std::move(task));
  }
  if (wake && !OnShardThread(shard_index)) shard.Wake();
}

bool Reactor::DeferToRoundEnd(Task task) {
  if (t_round_end == nullptr) return false;
  t_round_end->push_back(std::move(task));
  return true;
}

bool Reactor::OnShardThread(std::size_t shard_index) const {
  return shards_[shard_index]->thread.get_id() == std::this_thread::get_id();
}

std::vector<ReactorShardStats> Reactor::Stats() const {
  std::vector<ReactorShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ReactorShardStats s;
    s.polls = shard->polls.load(std::memory_order_relaxed);
    s.events = shard->events.load(std::memory_order_relaxed);
    s.tasks = shard->tasks_run.load(std::memory_order_relaxed);
    s.timers = shard->timers_run.load(std::memory_order_relaxed);
    s.wakeups = shard->wakeups.load(std::memory_order_relaxed);
    s.fds = shard->fd_count.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void Reactor::Loop(Shard* shard) {
  std::array<epoll_event, kMaxEvents> events;
  std::vector<Task> round_end;
  std::vector<Task> ready_tasks;
  std::vector<Task> ready_timers;
  while (true) {
    // Compute the wait from the timer heap.
    int timeout_ms = kIdleTimeoutMs;
    {
      std::lock_guard lock(shard->mutex);
      if (shard->stopping) return;
      if (!shard->tasks.empty()) {
        timeout_ms = 0;
      } else if (!shard->timers.empty()) {
        const std::uint64_t now = NowNs();
        const std::uint64_t deadline = shard->timers.begin()->first;
        timeout_ms =
            deadline <= now
                ? 0
                : static_cast<int>(std::min<std::uint64_t>(
                      (deadline - now) / 1000000 + 1, kIdleTimeoutMs));
      }
    }

    const int n =
        ::epoll_wait(shard->epoll_fd.get(), events.data(), kMaxEvents,
                     timeout_ms);
    if (n < 0 && errno != EINTR) {
      CMOM_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      return;
    }
    shard->polls.fetch_add(1, std::memory_order_relaxed);

    // Socket events first: a token that a task in this round will
    // deregister must still see its events dispatched-or-skipped
    // atomically with respect to that task (both run here, in order).
    t_round_end = &round_end;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == 0) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(shard->wake_fd.get(), &drain, sizeof(drain));
        shard->wakeups.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::shared_ptr<EventFn> handler;
      {
        std::lock_guard lock(shard->mutex);
        auto it = shard->handlers.find(token);
        if (it == shard->handlers.end()) continue;  // stale event
        handler = it->second;
      }
      shard->events.fetch_add(1, std::memory_order_relaxed);
      (*handler)(events[i].events);
    }
    t_round_end = nullptr;

    // Round-end tasks, even when stopping: each stands for work its
    // event already queued, and nothing else would run it.
    for (Task& task : round_end) task();
    round_end.clear();

    // Posted tasks.
    ready_tasks.clear();
    ready_timers.clear();
    {
      std::lock_guard lock(shard->mutex);
      if (shard->stopping) return;
      ready_tasks.swap(shard->tasks);
      const std::uint64_t now = NowNs();
      while (!shard->timers.empty() && shard->timers.begin()->first <= now) {
        ready_timers.push_back(std::move(shard->timers.begin()->second));
        shard->timers.erase(shard->timers.begin());
      }
    }
    for (Task& task : ready_tasks) {
      task();
      shard->tasks_run.fetch_add(1, std::memory_order_relaxed);
    }
    for (Task& task : ready_timers) {
      task();
      shard->timers_run.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace cmom::net
