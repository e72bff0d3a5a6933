// Full middleware over real TCP loopback sockets: the closest analogue
// of the paper's multi-host deployment.  Messages route across domains
// through causal router-servers, with the oracle checking the result.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "causality/checker.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/faulty_store.h"
#include "net/runtime.h"
#include "net/tcp_network.h"
#include "workload/agents.h"

namespace cmom {
namespace {

using namespace std::chrono_literals;

// Answers every message with `count` messages to `sink`, all sent by
// one reaction.
class BurstAgent final : public mom::Agent {
 public:
  BurstAgent(AgentId sink, int count) : sink_(sink), count_(count) {}
  void React(mom::ReactionContext& ctx, const mom::Message&) override {
    for (int i = 0; i < count_; ++i) ctx.Send(sink_, "burst");
  }

 private:
  AgentId sink_;
  int count_;
};

// Counts deliveries; readable from the test thread while servers run.
class CountingSink final : public mom::Agent {
 public:
  void React(mom::ReactionContext&, const mom::Message&) override {
    received_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> received_{0};
};

// Polls `done` every millisecond for up to 10 s.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 10000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

struct TcpCluster {
  domains::Deployment deployment;
  net::TcpNetwork network;
  net::ThreadRuntime runtime;
  causality::TraceRecorder trace;
  std::vector<std::unique_ptr<mom::InMemoryStore>> stores;
  std::vector<std::unique_ptr<net::Endpoint>> endpoints;
  std::vector<std::unique_ptr<mom::AgentServer>> servers;

  TcpCluster(const domains::MomConfig& config, std::uint16_t base_port)
      : deployment(domains::Deployment::Create(config).value()),
        network(base_port) {}

  std::uint64_t retransmit_timeout_ns = 200ull * 1000 * 1000;

  void Build(
      const std::function<void(ServerId, mom::AgentServer&)>& installer) {
    for (ServerId id : deployment.servers()) {
      endpoints.push_back(network.CreateEndpoint(id).value());
      stores.push_back(std::make_unique<mom::InMemoryStore>());
      mom::AgentServerOptions options;
      options.trace = &trace;
      options.retransmit_timeout_ns = retransmit_timeout_ns;
      servers.push_back(std::make_unique<mom::AgentServer>(
          deployment, id, endpoints.back().get(), &runtime,
          stores.back().get(), options));
      if (installer) installer(id, *servers.back());
    }
    for (auto& server : servers) ASSERT_TRUE(server->Boot().ok());
  }

  mom::AgentServer& server(std::uint16_t id) { return *servers[id]; }

  void WaitQuiescent() {
    int stable = 0;
    while (stable < 3) {
      bool idle = true;
      for (auto& server : servers) {
        // Everything processed AND acknowledged: a frame may still sit
        // in a supervised outbox waiting out a reconnect backoff, in
        // which case its QueueOUT entry is unacknowledged too.
        if (!server->Idle() || server->queue_out_size() != 0 ||
            server->holdback_size() != 0) {
          idle = false;
          break;
        }
      }
      for (auto& endpoint : endpoints) {
        if (endpoint->stats().outbox_frames != 0) {
          idle = false;
          break;
        }
      }
      stable = idle ? stable + 1 : 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  void ShutdownAll() {
    for (auto& server : servers) server->Shutdown();
  }
};

TEST(TcpMom, RoutedCausalDeliveryOverLoopback) {
  // Bus(2,2): S0,S1 in leaf 1; S2,S3 in leaf 2; backbone {S0, S2}.
  TcpCluster cluster(domains::topologies::Bus(2, 2), 22100);
  workload::EchoAgent* echo = nullptr;
  cluster.Build([&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(3)) {
      auto agent = std::make_unique<workload::EchoAgent>();
      echo = agent.get();
      server.AttachAgent(1, std::move(agent));
    }
  });

  // S1 -> S3 crosses two routers; the pong comes all the way back.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.server(1)
                    .SendMessage(AgentId{ServerId(1), 7},
                                 AgentId{ServerId(3), 1}, workload::kPing)
                    .ok());
  }
  cluster.WaitQuiescent();
  EXPECT_EQ(echo->pings_seen(), 10u);

  causality::CausalityChecker checker(
      {ServerId(0), ServerId(1), ServerId(2), ServerId(3)});
  const causality::Trace trace = cluster.trace.Snapshot();
  auto report = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(report.causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_GE(cluster.server(0).stats().messages_forwarded, 10u);
  cluster.ShutdownAll();
}

TEST(TcpMom, ChatterOverLoopbackStaysCausal) {
  auto config = domains::topologies::Daisy(2, 3);  // 5 servers
  TcpCluster cluster(config, 22200);
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  cluster.Build([&](ServerId id, mom::AgentServer& server) {
    server.AttachAgent(1, std::make_unique<workload::ChatterAgent>(
                              id.value() + 17, peers));
  });
  for (ServerId id : config.servers) {
    ASSERT_TRUE(cluster.server(id.value())
                    .SendMessage(AgentId{id, 1}, AgentId{id, 1},
                                 workload::kChat,
                                 workload::ChatterAgent::MakeChatPayload(4))
                    .ok());
  }
  cluster.WaitQuiescent();

  causality::CausalityChecker checker(
      std::vector<ServerId>(config.servers.begin(), config.servers.end()));
  const causality::Trace trace = cluster.trace.Snapshot();
  auto report = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(report.causal())
      << (report.violations.empty()
              ? ""
              : report.violations.front().description);
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  cluster.ShutdownAll();
}

// Forced connection kills under routed traffic: the supervised
// transport reconnects and flushes its outage buffer, so the bus never
// loses or doubles a message even while every link is being severed.
TEST(TcpMom, RoutedDeliverySurvivesForcedDisconnects) {
  TcpCluster cluster(domains::topologies::Bus(2, 2), 22300);
  workload::EchoAgent* echo = nullptr;
  cluster.Build([&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(3)) {
      auto agent = std::make_unique<workload::EchoAgent>();
      echo = agent.get();
      server.AttachAgent(1, std::move(agent));
    }
  });

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.server(1)
                    .SendMessage(AgentId{ServerId(1), 7},
                                 AgentId{ServerId(3), 1}, workload::kPing)
                    .ok());
    if (i % 5 == 2) {
      // Wait for this ping to land so the routing path's connections
      // are provably established before we sever them.
      while (echo->pings_seen() < static_cast<std::size_t>(i) + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Sever every link of the routing path, both directions.
      for (std::uint16_t from = 0; from < 4; ++from) {
        for (std::uint16_t to = 0; to < 4; ++to) {
          if (from != to) {
            cluster.endpoints[from]->Disconnect(ServerId(to));
          }
        }
      }
    }
  }
  cluster.WaitQuiescent();
  EXPECT_EQ(echo->pings_seen(), 30u);

  causality::CausalityChecker checker(
      {ServerId(0), ServerId(1), ServerId(2), ServerId(3)});
  const causality::Trace trace = cluster.trace.Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());

  std::uint64_t forced = 0;
  std::uint64_t reconnects = 0;
  for (auto& endpoint : cluster.endpoints) {
    forced += endpoint->stats().forced_disconnects;
    reconnects += endpoint->stats().reconnects;
  }
  EXPECT_GE(forced, 3u);
  EXPECT_GE(reconnects, 1u);
  cluster.ShutdownAll();
}

// S0 answers one trigger from S1 with 8 messages to a sink on S1, all
// from one reaction, so they leave S0 in one socket write behind the
// trigger's ack.  S1 reads all 9 frames in one epoll round and drains
// them as one batch: one channel commit, one ack frame carrying the 8
// ids.  Draining each frame as it is read would make 9 batches, 9
// channel commits and 8 ack frames.
TEST(TcpMom, BurstReadInOneRoundIsOneBatchOneCommitOneAck) {
  TcpCluster cluster(domains::topologies::Flat(2), 22400);
  // No retransmission may add frames while the burst is counted.
  cluster.retransmit_timeout_ns = 10ull * 1000 * 1000 * 1000;
  CountingSink* sink = nullptr;
  cluster.Build([&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(0)) {
      server.AttachAgent(1, std::make_unique<BurstAgent>(
                                AgentId{ServerId(1), 2}, 8));
    } else {
      auto agent = std::make_unique<CountingSink>();
      sink = agent.get();
      server.AttachAgent(2, std::move(agent));
    }
  });
  auto trigger = [&] {
    ASSERT_TRUE(cluster.server(1)
                    .SendMessage(AgentId{ServerId(1), 2},
                                 AgentId{ServerId(0), 1}, "go")
                    .ok());
  };
  // The first burst opens both links; the second one is counted.
  trigger();
  ASSERT_TRUE(WaitFor([&] { return sink->received() == 8; }));
  cluster.WaitQuiescent();

  const mom::ServerStats before = cluster.server(1).stats();
  trigger();
  ASSERT_TRUE(WaitFor([&] { return sink->received() == 16; }));
  cluster.WaitQuiescent();
  const mom::ServerStats after = cluster.server(1).stats();

  EXPECT_EQ(after.channel_batch_hist.count - before.channel_batch_hist.count,
            1u);
  EXPECT_EQ(after.channel_batch_hist.sum - before.channel_batch_hist.sum,
            9u);  // the trigger's ack and the 8 data frames
  EXPECT_EQ(after.ack_frames_sent - before.ack_frames_sent, 1u);
  EXPECT_EQ(after.acks_sent - before.acks_sent, 8u);
  // The trigger's send, the channel batch and the sink's 8 reactions.
  EXPECT_EQ(after.commits - before.commits, 3u);
  EXPECT_EQ(after.duplicates_dropped, before.duplicates_dropped);
  cluster.ShutdownAll();
}

// Commit-before-ack for a whole batch: S1's store fails the commit of
// the 9-frame batch that carries S0's burst.  S1 fail-stops without
// acknowledging any frame of it, S0 keeps all 8 messages in QueueOUT,
// and after S1 restarts over the last committed image each message is
// delivered exactly once.
TEST(TcpMom, FailedBatchCommitAcksNothingAndRestartDeliversOnce) {
  auto deployment =
      domains::Deployment::Create(domains::topologies::Flat(2)).value();
  net::TcpNetwork network(22500);
  net::ThreadRuntime runtime;
  causality::TraceRecorder trace;
  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store0;
  mom::InMemoryStore store1;
  auto faulty1 = std::make_unique<mom::FaultyStore>(store1);
  mom::AgentServerOptions options;
  options.trace = &trace;
  options.retransmit_timeout_ns = 200ull * 1000 * 1000;

  mom::AgentServer server0(deployment, ServerId(0), endpoint0.get(),
                           &runtime, &store0, options);
  server0.AttachAgent(
      1, std::make_unique<BurstAgent>(AgentId{ServerId(1), 2}, 8));
  auto server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, faulty1.get(),
      options);
  auto sink = std::make_unique<CountingSink>();
  CountingSink* sink1 = sink.get();
  server1->AttachAgent(2, std::move(sink));
  ASSERT_TRUE(server0.Boot().ok());
  ASSERT_TRUE(server1->Boot().ok());

  auto trigger = [&] {
    ASSERT_TRUE(server1
                    ->SendMessage(AgentId{ServerId(1), 2},
                                  AgentId{ServerId(0), 1}, "go")
                    .ok());
  };
  // A healthy burst first opens both links.  Idle: the sink's reaction
  // commit has landed too, so the armed countdown counts only what
  // follows.
  trigger();
  ASSERT_TRUE(WaitFor([&] {
    return sink1->received() == 8 && server0.Idle() && server1->Idle();
  }));

  // Commit 1 is the trigger's send; commit 2, the batch, fails.
  faulty1->FailAfterCommits(2);
  const mom::ServerStats before = server1->stats();
  trigger();
  ASSERT_TRUE(WaitFor([&] {
    return server1->health().code() == StatusCode::kFailStop;
  }));
  EXPECT_EQ(faulty1->stats().faults_injected, 1u);
  const mom::ServerStats halted = server1->stats();
  // The failed transaction was the whole burst, not its first frame.
  EXPECT_EQ(halted.channel_batch_hist.count - before.channel_batch_hist.count,
            1u);
  EXPECT_EQ(halted.channel_batch_hist.sum - before.channel_batch_hist.sum,
            9u);
  // No ack for any frame of it left S1, so S0 still holds all 8.
  EXPECT_EQ(halted.ack_frames_sent, before.ack_frames_sent);
  EXPECT_EQ(server0.queue_out_size(), 8u);
  EXPECT_EQ(sink1->received(), 8u);

  // Restart S1 over the last committed image.
  server1->Halt();
  server1.reset();
  faulty1.reset();
  server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, &store1, options);
  sink = std::make_unique<CountingSink>();
  CountingSink* sink2 = sink.get();
  server1->AttachAgent(2, std::move(sink));
  ASSERT_TRUE(server1->Boot().ok());

  // S0 retransmits the burst; S1 re-sends the trigger, which S0 drops
  // as a duplicate instead of bursting again.
  ASSERT_TRUE(WaitFor([&] {
    return sink2->received() == 8 && server0.Idle() && server1->Idle();
  }));
  EXPECT_EQ(sink2->received(), 8u);
  EXPECT_EQ(server0.stats().messages_sent, 16u);

  causality::CausalityChecker checker({ServerId(0), ServerId(1)});
  const causality::Trace snapshot = trace.Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(snapshot).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(snapshot).ok());
  server1->Shutdown();
  server0.Shutdown();
}

}  // namespace
}  // namespace cmom
