// Fault-injection property tests: frame loss, duplication and delay
// storms must never break exactly-once causal delivery -- only slow it
// down.  Parameterized over fault mixes, topologies and seeds.
#include <gtest/gtest.h>

#include "common/log.h"

#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using workload::ChatterAgent;
using workload::SimHarness;
using workload::SimHarnessOptions;

struct FaultCase {
  const char* name;
  double drop;
  double duplicate;
  double jitter;
};

// Without this gtest prints the raw struct bytes, `name`'s address
// among them, which ASLR changes from run to run -- and with it the
// test names that gtest_discover_tests registers with ctest.
void PrintTo(const FaultCase& fault, std::ostream* os) { *os << fault.name; }

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<FaultCase, std::uint64_t>> {
};

TEST_P(FaultSweep, ChatterStaysCausalAndExactlyOnce) {
  const auto& [fault, seed] = GetParam();

  auto config = domains::topologies::Bus(3, 3);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.retransmit_timeout_ns = 50 * sim::kMillisecond;
  options.fault_model.drop_probability = fault.drop;
  options.fault_model.duplicate_probability = fault.duplicate;
  options.fault_model.jitter_probability = fault.jitter;
  options.fault_model.max_jitter = 80 * sim::kMillisecond;
  options.fault_seed = seed;

  SimHarness harness(config, options);
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    server.AttachAgent(1, std::make_unique<ChatterAgent>(
                                              seed * 71 + id.value(), peers));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  for (ServerId id : config.servers) {
    ASSERT_TRUE(harness
                    .Send(id, 1, id, 1, workload::kChat,
                          ChatterAgent::MakeChatPayload(4))
                    .ok());
  }
  harness.Run();

  auto checker = harness.MakeChecker();
  const causality::Trace trace = harness.trace().Snapshot();
  auto report = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(report.causal())
      << report.violations.front().description << " under " << fault.name;
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
  EXPECT_GT(report.messages_delivered, config.servers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FaultSweep,
    ::testing::Combine(
        ::testing::Values(FaultCase{"drops", 0.2, 0, 0},
                          FaultCase{"dupes", 0, 0.3, 0},
                          FaultCase{"jitter", 0, 0, 0.4},
                          FaultCase{"everything", 0.15, 0.15, 0.3}),
        ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FaultInjection, HeavyLossStillConverges) {
  auto config = domains::topologies::Flat(3);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.retransmit_timeout_ns = 20 * sim::kMillisecond;
  options.fault_model.drop_probability = 0.6;  // most frames die
  options.fault_seed = 9;

  SimHarness harness(config, options);
  workload::SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(2)) {
                      auto agent = std::make_unique<workload::SinkAgent>();
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  std::vector<MessageId> sent;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(
        harness.Send(ServerId(0), 1, ServerId(2), 1, "msg").value());
  }
  harness.Run();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->order(), sent);  // all arrived, in order, exactly once
  EXPECT_GT(harness.server(ServerId(0)).stats().retransmissions, 0u);
}

TEST(FaultInjection, ReorderingActuallyEngagesTheHoldbackQueue) {
  // Guard against a delivery condition so permissive it never holds
  // anything back: with cross-traffic and reordering jitter, at least
  // one server must have parked a message at some point.
  auto config = domains::topologies::Flat(4);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.fault_model.jitter_probability = 0.6;
  options.fault_model.max_jitter = 300 * sim::kMillisecond;
  options.fault_model.allow_reordering = true;
  options.retransmit_timeout_ns = 80 * sim::kMillisecond;
  options.fault_seed = 3;
  SimHarness harness(config, options);
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    server.AttachAgent(
                        1, std::make_unique<ChatterAgent>(id.value(), peers));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (ServerId id : config.servers) {
    ASSERT_TRUE(harness
                    .Send(id, 1, id, 1, workload::kChat,
                          ChatterAgent::MakeChatPayload(5))
                    .ok());
  }
  harness.Run();

  std::uint64_t holdback_peak = 0;
  for (ServerId id : config.servers) {
    holdback_peak =
        std::max(holdback_peak, harness.server(id).stats().holdback_peak);
  }
  EXPECT_GT(holdback_peak, 0u);

  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
}

TEST(FaultInjection, UnlimitedRetransmissionKeepsTrying) {
  auto config = domains::topologies::Flat(2);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.fault_model.drop_probability = 1.0;  // black hole
  options.retransmit_timeout_ns = 10 * sim::kMillisecond;
  SimHarness harness(config, options);
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "void").ok());
  harness.RunUntil(2 * sim::kSecond);
  // Exponential backoff: 10,20,40,...,640 ms capped at 64x the base,
  // i.e. ~8 attempts within the first 2 seconds -- and still trying.
  EXPECT_GE(harness.server(ServerId(0)).stats().retransmissions, 6u);
  EXPECT_EQ(harness.server(ServerId(0)).queue_out_size(), 1u);
  harness.RunUntil(10 * sim::kSecond);
  EXPECT_GE(harness.server(ServerId(0)).stats().retransmissions, 15u);
}

TEST(FaultInjection, RetransmissionGivesUpAfterConfiguredAttempts) {
  auto config = domains::topologies::Flat(2);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.fault_model.drop_probability = 1.0;  // black hole
  options.retransmit_timeout_ns = 10 * sim::kMillisecond;
  options.max_retransmit_attempts = 5;
  SimHarness harness(config, options);
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "void").ok());
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kOff);  // the give-up error is expected
  harness.Run();                // terminates: the retry timer chain ends
  SetLogLevel(saved);
  EXPECT_EQ(harness.server(ServerId(0)).stats().retransmissions, 5u);
  // The message stays durably queued (an operator decision point), but
  // no further timers fire.
  EXPECT_EQ(harness.server(ServerId(0)).queue_out_size(), 1u);
}

TEST(FaultInjection, DuplicateFramesAreDroppedByTheClockCheck) {
  auto config = domains::topologies::Flat(2);
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.fault_model.duplicate_probability = 1.0;  // every frame twice
  SimHarness harness(config, options);
  workload::SinkAgent* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<workload::SinkAgent>();
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "msg").ok());
  }
  harness.Run();
  EXPECT_EQ(sink->received(), 10u);
  EXPECT_GE(harness.server(ServerId(1)).stats().duplicates_dropped, 10u);
}

}  // namespace
}  // namespace cmom
