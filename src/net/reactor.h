// Shared epoll reactor: a small fixed pool of event-loop threads
// multiplexing every socket of a process.
//
// The old transport ran one blocking poll() thread per endpoint -- fine
// for a ten-server domain graph, hopeless for a gateway fanning in tens
// of thousands of client sessions.  The reactor inverts that: N shard
// threads (N fixed at construction, independent of connection count),
// each owning one epoll instance, an eventfd for cross-thread wakeups,
// a task queue and a timer heap.  Sockets register edge-triggered
// (EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET) exactly once; all state
// transitions afterwards are event- or task-driven, so the per-
// connection idle cost is one epoll entry and whatever the owner keeps.
//
// Threading contract:
//   - A registration is pinned to one shard; its event callback and
//     every task posted to that shard run on that shard's thread, so
//     per-connection state needs no lock of its own.
//   - Register/Post/PostDelayed are thread-safe.
//   - One loop iteration dispatches the socket events of one
//     epoll_wait, then the round-end tasks those callbacks deferred
//     (DeferToRoundEnd), then posted tasks, then due timers.
//   - Deregister blocks until the callback can no longer be running
//     (it runs the removal ON the shard thread and waits for it, or
//     inline when already called from that thread).  After it returns
//     the caller owns the fd again and may close it.
//
// Stale-event safety: epoll events carry a monotonically increasing
// token, not the fd.  A callback is looked up by token under the shard
// lock at dispatch time, so an event queued before a Deregister -- or
// for a recycled fd number -- dispatches to nothing instead of to the
// wrong connection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unistd.h>
#include <utility>
#include <vector>

namespace cmom::net {

// RAII file descriptor (shared by the reactor, transport and gateway).
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { Close(); }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

void SetNonBlocking(int fd);

// Per-shard health counters (momtool and the net bench surface these).
struct ReactorShardStats {
  std::uint64_t polls = 0;    // epoll_wait returns
  std::uint64_t events = 0;   // socket events dispatched
  std::uint64_t tasks = 0;    // posted tasks run
  std::uint64_t timers = 0;   // delayed tasks fired
  std::uint64_t wakeups = 0;  // cross-thread eventfd kicks
  std::uint64_t fds = 0;      // currently registered sockets (gauge)
};

class Reactor {
 public:
  // `epoll_events` is the raw event mask (EPOLLIN/EPOLLOUT/...).
  using EventFn = std::function<void(std::uint32_t epoll_events)>;
  using Task = std::function<void()>;

  explicit Reactor(std::size_t shards);
  ~Reactor();

  // Stops and joins every shard thread, then destroys all still-queued
  // tasks, timers and handlers on the calling thread.  Idempotent; the
  // destructor calls it.  Owners that hand their reactor out via
  // shared_ptr (TcpNetwork::reactor()) must call this before dropping
  // their reference: queued tasks may capture objects that themselves
  // hold the reactor (a reference cycle until the queues are cleared),
  // and a shard thread dropping the last reference would self-join.
  // Must not be called from a shard thread.
  void Stop();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] std::size_t shard_count() const;

  // Least-loaded shard (fewest registered fds) for a new connection.
  [[nodiscard]] std::size_t PickShard() const;

  // Registers `fd` edge-triggered on `shard`.  The fd must already be
  // non-blocking; the caller retains ownership of it.  Returns a token
  // for Deregister (0 on failure).
  std::uint64_t Register(std::size_t shard, int fd, EventFn fn);

  // Removes the registration and blocks until its callback cannot run
  // again (see header comment).  Safe to call from the shard thread
  // itself (inline removal; the current invocation finishes normally).
  void Deregister(std::uint64_t token);

  // Runs `task` on the shard thread, after any dispatch in progress.
  // Returns false when the reactor is already stopping (task dropped).
  bool Post(std::size_t shard, Task task);
  // Runs `task` on the shard thread once `delay_ns` elapsed.
  void PostDelayed(std::size_t shard, std::uint64_t delay_ns, Task task);

  // Queues `task` to run on the calling shard thread once the socket
  // events of the current epoll round have all been dispatched, before
  // the round's posted tasks.  Work that several events of one round
  // feed (a server's inbox drain) thus runs once per round, and frames
  // it hands to the transport are flushed by the posted tasks of the
  // same loop iteration.  Returns false, and queues nothing, unless
  // called from inside a socket-event callback: from a posted task, a
  // timer, a round-end task or any thread that is not a shard thread.
  static bool DeferToRoundEnd(Task task);

  [[nodiscard]] bool OnShardThread(std::size_t shard) const;
  [[nodiscard]] std::vector<ReactorShardStats> Stats() const;

 private:
  struct Shard;
  static constexpr std::uint64_t kTokenShardShift = 48;
  [[nodiscard]] Shard& ShardOf(std::uint64_t token) const;
  static void Loop(Shard* shard);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cmom::net
