// Behavioural tests for AgentServer: local delivery, reactions,
// validation, stats, idle detection.
#include "mom/agent_server.h"

#include <gtest/gtest.h>

#include "common/buffer_pool.h"
#include "domains/topologies.h"
#include "net/sim_network.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom::mom {
namespace {

using domains::topologies::Flat;
using workload::EchoAgent;
using workload::SimHarness;
using workload::SimHarnessOptions;
using workload::SinkAgent;

SimHarnessOptions FastOptions() {
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  return options;
}

TEST(AgentServer, LocalSendDeliversThroughEngine) {
  SimHarness harness(Flat(1), FastOptions());
  SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId, AgentServer& server) {
                    auto agent = std::make_unique<SinkAgent>();
                    sink = agent.get();
                    server.AttachAgent(1, std::move(agent));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(
      harness.Send(ServerId(0), 1, ServerId(0), 1, "note").ok());
  harness.Run();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->received(), 1u);
  const ServerStats stats = harness.server(ServerId(0)).stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_EQ(stats.messages_forwarded, 0u);
}

TEST(AgentServer, LocalSendsPreserveOrder) {
  SimHarness harness(Flat(1), FastOptions());
  SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId, AgentServer& server) {
                    auto agent = std::make_unique<SinkAgent>();
                    sink = agent.get();
                    server.AttachAgent(1, std::move(agent));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  std::vector<MessageId> sent;
  for (int i = 0; i < 10; ++i) {
    sent.push_back(
        harness.Send(ServerId(0), 1, ServerId(0), 1, "note").value());
  }
  harness.Run();
  EXPECT_EQ(sink->order(), sent);
}

TEST(AgentServer, SendBeforeBootFails) {
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto deployment = domains::Deployment::Create(Flat(1)).value();
  auto endpoint = network.CreateEndpoint(ServerId(0)).value();
  InMemoryStore store;
  AgentServer server(deployment, ServerId(0), endpoint.get(), &runtime,
                     &store);
  auto result = server.SendMessage(AgentId{ServerId(0), 1},
                                   AgentId{ServerId(0), 1}, "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AgentServer, DoubleBootFails) {
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto deployment = domains::Deployment::Create(Flat(1)).value();
  auto endpoint = network.CreateEndpoint(ServerId(0)).value();
  InMemoryStore store;
  AgentServer server(deployment, ServerId(0), endpoint.get(), &runtime,
                     &store);
  ASSERT_TRUE(server.Boot().ok());
  EXPECT_FALSE(server.Boot().ok());
}

TEST(AgentServer, RejectsForeignSenderAgent) {
  SimHarness harness(Flat(2), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  auto result = harness.server(ServerId(0))
                    .SendMessage(AgentId{ServerId(1), 1},
                                 AgentId{ServerId(0), 1}, "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AgentServer, MessageToMissingAgentIsDroppedGracefully) {
  SimHarness harness(Flat(2), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 42, "ghost").ok());
  harness.Run();
  // Delivered (recorded, counted) but no agent reacted; system stays
  // consistent and idle.
  EXPECT_EQ(harness.server(ServerId(1)).stats().messages_delivered, 1u);
  EXPECT_TRUE(harness.CheckQuiescent().ok());
}

TEST(AgentServer, ReactionSendsAreAtomicWithDelivery) {
  SimHarness harness(Flat(2), FastOptions());
  workload::EchoAgent* echo = nullptr;
  SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<EchoAgent>();
                      echo = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    } else {
                      auto agent = std::make_unique<SinkAgent>();
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(
      harness.Send(ServerId(0), 1, ServerId(1), 1, workload::kPing).ok());
  harness.Run();
  EXPECT_EQ(echo->pings_seen(), 1u);
  EXPECT_EQ(sink->received(), 1u);  // the pong came back
  EXPECT_TRUE(harness.server(ServerId(0)).Idle());
  EXPECT_TRUE(harness.server(ServerId(1)).Idle());
}

TEST(AgentServer, StatsTrackStampBytesAndCommits) {
  SimHarness harness(Flat(2), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "x").ok());
  harness.Run();
  const ServerStats sender = harness.server(ServerId(0)).stats();
  EXPECT_GT(sender.stamp_bytes_sent, 0u);
  EXPECT_GT(sender.commits, 0u);
  const ServerStats receiver = harness.server(ServerId(1)).stats();
  EXPECT_EQ(receiver.frames_received, 1u);
}

TEST(AgentServer, CoreSnapshotExposesMatrix) {
  SimHarness harness(Flat(2), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "x").ok());
  harness.Run();
  auto core = harness.server(ServerId(0)).CoreSnapshot(0);
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->matrix().at(DomainServerId(0), DomainServerId(1)), 1u);
  EXPECT_FALSE(harness.server(ServerId(0)).CoreSnapshot(99).has_value());
}

// Hands the server frames the test builds, through the receive handler
// the server installed, as its transport would.
class HandOffEndpoint final : public net::Endpoint {
 public:
  explicit HandOffEndpoint(std::unique_ptr<net::Endpoint> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] ServerId self() const override { return inner_->self(); }
  Status Send(ServerId to, Bytes frame) override {
    return inner_->Send(to, std::move(frame));
  }
  void SetReceiveHandler(net::ReceiveHandler handler) override {
    handler_ = handler;
    inner_->SetReceiveHandler(std::move(handler));
  }

  void HandOff(ServerId from, Bytes frame) { handler_(from, std::move(frame)); }

 private:
  std::unique_ptr<net::Endpoint> inner_;
  net::ReceiveHandler handler_;
};

// The receive path decodes the transport's own buffer and then releases
// it to the pool, with no copy in between.  A buffer above the pool's
// keep cap (256 KiB) shows which buffer was released: the pool discards
// it, one discard more than for the same frame in a normal buffer.  A
// server that copied the frame before decoding would release the copy,
// whose capacity is the frame's size, and discard nothing extra.
TEST(AgentServer, ReceivePathReleasesTheTransportsOwnBuffer) {
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto deployment = domains::Deployment::Create(Flat(2)).value();
  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto hand_off = std::make_unique<HandOffEndpoint>(
      network.CreateEndpoint(ServerId(1)).value());
  HandOffEndpoint* endpoint1 = hand_off.get();
  InMemoryStore store0;
  InMemoryStore store1;
  AgentServer server0(deployment, ServerId(0), endpoint0.get(), &runtime,
                      &store0);
  AgentServer server1(deployment, ServerId(1), endpoint1, &runtime, &store1);
  ASSERT_TRUE(server0.Boot().ok());
  ASSERT_TRUE(server1.Boot().ok());
  simulator.RunToCompletion();

  // An ack for a message S1 never sent: decoded, then a no-op.
  const Bytes ack = AckFrame(MessageId{ServerId(0), 42}).Serialize();
  const auto discards_while_receiving = [&](Bytes frame) {
    const std::uint64_t before = BufferPool::Totals().discards;
    endpoint1->HandOff(ServerId(0), std::move(frame));
    simulator.RunToCompletion();
    return BufferPool::Totals().discards - before;
  };
  const std::uint64_t normal = discards_while_receiving(ack);
  Bytes oversized;
  oversized.reserve(512 * 1024);
  oversized.assign(ack.begin(), ack.end());
  EXPECT_EQ(discards_while_receiving(std::move(oversized)), normal + 1);
}

}  // namespace
}  // namespace cmom::mom
