// Router-server semantics on the paper's own Figure 2 deployment:
// A={S1,S2,S3}, B={S4,S5}, C={S7,S8}, D={S3,S5,S6,S7}, routers S3, S5,
// S7.  Covers the §4.1 routing example, per-domain clock isolation,
// order preservation across multi-hop routes, and hold-back at the
// final destination when chains race a slow direct link.
#include <gtest/gtest.h>

#include <optional>

#include "clocks/causal_core.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using workload::SimHarness;
using workload::SimHarnessOptions;
using workload::SinkAgent;

ServerId S(std::uint16_t v) { return ServerId(v); }

// The matrix of `server`'s clock for deployment domain `index`, if the
// server is a member of that domain.
std::optional<clocks::MatrixClock> MatrixOf(const mom::AgentServer& server,
                                            std::size_t index) {
  auto core = server.CoreSnapshot(index);
  if (!core.has_value()) return std::nullopt;
  return core->matrix();
}

domains::MomConfig Figure2() {
  domains::MomConfig config;
  for (std::uint16_t i = 1; i <= 8; ++i) config.servers.push_back(S(i));
  config.domains = {{DomainId(0), {S(1), S(2), S(3)}},   // A
                    {DomainId(1), {S(4), S(5)}},          // B
                    {DomainId(2), {S(7), S(8)}},          // C
                    {DomainId(3), {S(3), S(5), S(6), S(7)}}};  // D
  return config;
}

SimHarnessOptions FastOptions() {
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  return options;
}

TEST(Figure2, PaperRoutingExample) {
  // §4.1: "a client connected to server 1 needs to communicate with a
  // client connected to server 8: the message must be routed using
  // paths S1->S3, S3->S7, S7->S8."
  auto deployment = domains::Deployment::Create(Figure2()).value();
  EXPECT_EQ(deployment.routing().NextHop(S(1), S(8)), S(3));
  EXPECT_EQ(deployment.routing().NextHop(S(3), S(8)), S(7));
  EXPECT_EQ(deployment.routing().NextHop(S(7), S(8)), S(8));
  EXPECT_EQ(deployment.routing().HopCount(S(1), S(8)), 3u);
}

TEST(Figure2, EndToEndDeliveryAcrossThreeDomains) {
  SimHarness harness(Figure2(), FastOptions());
  SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == S(8)) {
                      auto agent = std::make_unique<SinkAgent>();
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  std::vector<MessageId> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(harness.Send(S(1), 1, S(8), 1, "m").value());
  }
  harness.Run();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->order(), sent);
  // Both routers on the path forwarded every message.
  EXPECT_EQ(harness.server(S(3)).stats().messages_forwarded, 5u);
  EXPECT_EQ(harness.server(S(7)).stats().messages_forwarded, 5u);
  EXPECT_EQ(harness.server(S(5)).stats().messages_forwarded, 0u);
}

TEST(Figure2, ClocksStayDomainLocal) {
  SimHarness harness(Figure2(), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(S(1), 1, S(8), 1, "m").ok());
  harness.Run();

  // S1's clock for domain A (index 0) recorded its send to S3
  // (domain-local ids: S1=0, S2=1, S3=2).
  const auto a_clock = MatrixOf(harness.server(S(1)), 0);
  ASSERT_TRUE(a_clock.has_value());
  EXPECT_EQ(a_clock->at(DomainServerId(0), DomainServerId(2)), 1u);

  // S4/S5's domain B clock never moved: the route does not touch B.
  const auto b_clock = MatrixOf(harness.server(S(4)), 1);
  ASSERT_TRUE(b_clock.has_value());
  EXPECT_EQ(b_clock->Total(), 0u);

  // Router S3 is in A and D and carries a clock for each; its D clock
  // (index 3; local ids S3=0,S5=1,S6=2,S7=3) recorded S3->S7.
  const auto d_clock = MatrixOf(harness.server(S(3)), 3);
  ASSERT_TRUE(d_clock.has_value());
  EXPECT_EQ(d_clock->at(DomainServerId(0), DomainServerId(3)), 1u);
  // And S3 has no clock for domains it is not a member of.
  EXPECT_FALSE(harness.server(S(3)).CoreSnapshot(1).has_value());
  EXPECT_FALSE(harness.server(S(3)).CoreSnapshot(2).has_value());
}

TEST(Figure2, CrossDomainTriangleHeldBackAtRouter) {
  // S1 sends m1 to S8 (slow first link into router S3), then m2 to S2;
  // S2 then sends m3 to S8.  m3's first hop reaches router S3 carrying
  // S1's knowledge of m1 (learned via m2), so S3 -- enforcing domain
  // A's causal order -- holds m3 until m1's first hop arrives; final
  // delivery at S8 is therefore m1 before m3.
  SimHarness harness(Figure2(), FastOptions());
  SinkAgent* sink = nullptr;
  workload::EchoAgent* echo = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == S(8)) {
                      auto agent = std::make_unique<SinkAgent>();
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                    if (id == S(2)) {
                      auto agent = std::make_unique<workload::EchoAgent>();
                      echo = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  (void)echo;

  harness.network().SetLinkLatency(S(1), S(3), 300 * sim::kMillisecond);

  const MessageId m1 = harness.Send(S(1), 1, S(8), 1, "first").value();
  harness.RunUntil(1 * sim::kMillisecond);
  // m2: S1 -> S2 (fast, inside A); its stamp carries (S1->S3)=1.
  ASSERT_TRUE(harness.Send(S(1), 1, S(2), 1, "tell").ok());
  harness.RunUntil(5 * sim::kMillisecond);
  // m3: S2 -> S8, causally after m2 which is after m1's send.
  const MessageId m3 = harness.Send(S(2), 1, S(8), 1, "second").value();

  harness.Run();
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->order().size(), 2u);
  EXPECT_EQ(sink->order()[0], m1);
  EXPECT_EQ(sink->order()[1], m3);

  auto checker = harness.MakeChecker();
  EXPECT_TRUE(
      checker.CheckCausalDelivery(harness.trace().Snapshot()).causal());
}

TEST(Figure2, ConcurrentStreamsFromBothSidesStayCausal) {
  SimHarness harness(Figure2(), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  // S1 -> S8 and S8 -> S1 streams interleave through the same routers.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.Send(S(1), 1, S(8), 1, "east").ok());
    ASSERT_TRUE(harness.Send(S(8), 1, S(1), 1, "west").ok());
    ASSERT_TRUE(harness.Send(S(4), 1, S(6), 1, "north").ok());
  }
  harness.Run();
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
}

}  // namespace
}  // namespace cmom
