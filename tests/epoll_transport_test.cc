// Reactor-specific transport behavior: partial-write continuation
// under starved socket buffers, many endpoints multiplexed onto the
// shared epoll shard pool, and the loop's order within one round.  The
// semantic contract (ordering, supervision, reconnect) is covered by
// tcp_network_test / tcp_mom_test, which run unchanged against the
// event-driven rewrite; this file pins the new machinery itself.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.h"
#include "net/tcp_network.h"

namespace cmom::net {
namespace {

using namespace std::chrono_literals;

Bytes PatternFrame(std::size_t size, std::uint8_t seed) {
  Bytes frame(size);
  for (std::size_t i = 0; i < size; ++i) {
    frame[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return frame;
}

// A tiny SO_SNDBUF forces sendmsg to take EAGAIN mid-frame, so flushes
// stop inside a frame and resume from the recorded offset on the
// EPOLLOUT edge.  The receive buffer stays at the default: shrinking it
// would throttle the TCP window itself (delayed-ack stalls), which is
// kernel behavior, not the continuation path under test.  The receiver
// must still see every frame intact, in order, byte for byte.
TEST(EpollTransport, PartialWriteContinuationUnderTinySocketBuffers) {
  TcpNetworkOptions options;
  options.so_sndbuf = 4096;
  TcpNetwork network(24100, options);
  auto sender = network.CreateEndpoint(ServerId(0)).value();
  auto receiver = network.CreateEndpoint(ServerId(1)).value();

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Bytes> got;
  receiver->SetReceiveHandler([&](ServerId from, Bytes frame) {
    EXPECT_EQ(from, ServerId(0));
    std::lock_guard lock(mutex);
    got.push_back(std::move(frame));
    cv.notify_one();
  });
  sender->SetReceiveHandler([](ServerId, Bytes) {});

  // Each frame is ~16x the socket buffer: every flush is guaranteed to
  // be cut short at least once.
  constexpr std::size_t kFrames = 24;
  constexpr std::size_t kFrameSize = 64 * 1024;
  std::vector<Bytes> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    sent.push_back(PatternFrame(kFrameSize, static_cast<std::uint8_t>(i)));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes copy = sent[i];
    // Overloaded = outbox full while the slow link drains; retry.
    while (!sender->Send(ServerId(1), std::move(copy)).ok()) {
      copy = sent[i];
      std::this_thread::sleep_for(1ms);
    }
  }

  {
    std::unique_lock lock(mutex);
    const bool all = cv.wait_for(lock, 30s, [&] { return got.size() == kFrames; });
    const TransportStats st = sender->stats();
    ASSERT_TRUE(all) << "only " << got.size() << " of " << kFrames
                     << " frames arrived; sender outbox_frames="
                     << st.outbox_frames << " outbox_bytes=" << st.outbox_bytes
                     << " frames_sent=" << st.frames_sent
                     << " partial_writes=" << st.partial_writes
                     << " frames_dropped=" << st.frames_dropped
                     << " reconnects=" << st.reconnects;
    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(got[i].size(), sent[i].size()) << "frame " << i;
      EXPECT_EQ(0, std::memcmp(got[i].data(), sent[i].data(), sent[i].size()))
          << "frame " << i << " corrupted across partial writes";
    }
  }
  EXPECT_GT(sender->stats().partial_writes, 0u)
      << "tiny SO_SNDBUF never forced a short flush; the continuation "
         "path was not exercised";
}

// Many endpoints share one reactor: all-to-all traffic across eight
// servers lands intact with the fd load spread over the shard pool.
TEST(EpollTransport, ManyEndpointsShareReactorShards) {
  constexpr std::uint16_t kServers = 8;
  constexpr int kPerPair = 20;
  TcpNetwork network(24200);
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint64_t> received(kServers, 0);
  for (std::uint16_t id = 0; id < kServers; ++id) {
    endpoints.push_back(network.CreateEndpoint(ServerId(id)).value());
    endpoints.back()->SetReceiveHandler([&, id](ServerId, Bytes frame) {
      EXPECT_EQ(frame.size(), 64u);
      std::lock_guard lock(mutex);
      ++received[id];
      cv.notify_one();
    });
  }
  for (int round = 0; round < kPerPair; ++round) {
    for (std::uint16_t from = 0; from < kServers; ++from) {
      for (std::uint16_t to = 0; to < kServers; ++to) {
        if (from == to) continue;
        Bytes frame = PatternFrame(64, static_cast<std::uint8_t>(round));
        while (!endpoints[from]->Send(ServerId(to), std::move(frame)).ok()) {
          frame = PatternFrame(64, static_cast<std::uint8_t>(round));
          std::this_thread::sleep_for(1ms);
        }
      }
    }
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kPerPair) * (kServers - 1);
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] {
      for (std::uint64_t count : received) {
        if (count != expected) return false;
      }
      return true;
    }));
  }
  // The endpoints' sockets really live on the shared shard pool.
  std::uint64_t fds = 0;
  for (const ReactorShardStats& shard : network.reactor_stats()) {
    fds += shard.fds;
  }
  EXPECT_GE(fds, static_cast<std::uint64_t>(kServers));
}

// One posted task makes two pipes readable, so the next epoll_wait
// returns both in one round.  Each callback defers a round-end task and
// posts a task: both callbacks run first, then the deferred tasks in
// deferral order, then the posted ones.  Deferring is refused outside
// a socket-event callback.
TEST(Reactor, RoundEndTasksRunAfterEveryEventAndBeforePostedTasks) {
  int a[2];
  int b[2];
  ASSERT_EQ(::pipe2(a, O_NONBLOCK | O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(b, O_NONBLOCK | O_CLOEXEC), 0);
  ScopedFd a_read(a[0]);
  ScopedFd a_write(a[1]);
  ScopedFd b_read(b[0]);
  ScopedFd b_write(b[1]);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> order;  // written on the shard thread only
  bool deferred_in_event = true;
  bool deferred_in_posted = true;
  bool deferred_in_round_end = true;
  int posted_done = 0;

  Reactor reactor(1);
  auto on_readable = [&](int fd, std::string name) {
    return [&, fd, name](std::uint32_t events) {
      if ((events & EPOLLIN) == 0) return;
      char drain[8];
      while (::read(fd, drain, sizeof(drain)) > 0) {
      }
      order.push_back("event " + name);
      deferred_in_event &= Reactor::DeferToRoundEnd([&, name] {
        order.push_back("round-end " + name);
        deferred_in_round_end = Reactor::DeferToRoundEnd([] {});
      });
      reactor.Post(0, [&, name] {
        order.push_back("posted " + name);
        const bool deferred = Reactor::DeferToRoundEnd([] {});
        std::lock_guard lock(mutex);
        deferred_in_posted = deferred;
        ++posted_done;
        cv.notify_one();
      });
    };
  };
  const std::uint64_t a_token =
      reactor.Register(0, a_read.get(), on_readable(a_read.get(), "a"));
  const std::uint64_t b_token =
      reactor.Register(0, b_read.get(), on_readable(b_read.get(), "b"));
  ASSERT_NE(a_token, 0u);
  ASSERT_NE(b_token, 0u);

  EXPECT_FALSE(Reactor::DeferToRoundEnd([] {}));  // not a shard thread
  ASSERT_TRUE(reactor.Post(0, [&] {
    ASSERT_EQ(::write(a_write.get(), "x", 1), 1);
    ASSERT_EQ(::write(b_write.get(), "x", 1), 1);
  }));
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return posted_done == 2; }));
  }
  reactor.Deregister(a_token);
  reactor.Deregister(b_token);

  ASSERT_EQ(order.size(), 6u);
  const std::string first = order[0].substr(order[0].size() - 1);
  const std::string second = first == "a" ? "b" : "a";
  const std::vector<std::string> expected = {
      "event " + first,     "event " + second,  "round-end " + first,
      "round-end " + second, "posted " + first, "posted " + second};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(deferred_in_event);
  EXPECT_FALSE(deferred_in_round_end);
  EXPECT_FALSE(deferred_in_posted);
}

}  // namespace
}  // namespace cmom::net
