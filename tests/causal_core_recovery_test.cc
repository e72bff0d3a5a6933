// Per-core crash recovery: every causal core's durable image must
// survive a mid-traffic crash byte-identically -- including with the
// hold-back queue populated and with commit failures injected by the
// FaultyStore decorator -- and recovery must cross-check the stored
// core kind against the configured one instead of misinterpreting the
// bytes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "causality/checker.h"
#include "clocks/causal_core.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/faulty_store.h"
#include "mom/store.h"
#include "net/sim_network.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using clocks::CausalCoreKind;
using clocks::CausalCoreKindName;
using domains::topologies::Flat;
using workload::SimHarness;
using workload::SimHarnessOptions;
using workload::SinkAgent;

SimHarnessOptions FastOptions() {
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  options.retransmit_timeout_ns = 100 * sim::kMillisecond;
  return options;
}

Status VerifyTrace(SimHarness& harness) {
  auto checker = harness.MakeChecker();
  const causality::Trace trace = harness.trace().Snapshot();
  auto report = checker.CheckCausalDelivery(trace);
  if (!report.causal()) {
    return Status::Internal(report.violations.front().description);
  }
  return checker.CheckExactlyOnce(trace);
}

// The deterministic crash scenario from the persistence tests -- S1
// crashes with a message held back and another unacknowledged -- run
// with a chosen causal core.  Returns S1's volatile image right before
// the crash and right after recovery.
struct ScenarioResult {
  Bytes before;
  Bytes after;
};

ScenarioResult RunCrashScenario(CausalCoreKind kind) {
  auto config = Flat(3);
  config.causal_core = kind;
  SimHarness harness(config, FastOptions());
  auto install = [&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(1)) {
      server.AttachAgent(1, std::make_unique<SinkAgent>());
    }
  };
  EXPECT_TRUE(harness.Init(install).ok());
  EXPECT_TRUE(harness.BootAll().ok());
  harness.network().SetLinkLatency(ServerId(0), ServerId(1),
                                   400 * sim::kMillisecond);

  EXPECT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "direct").ok());
  EXPECT_TRUE(harness.Send(ServerId(0), 1, ServerId(2), 1, "relay").ok());
  harness.RunUntil(10 * sim::kMillisecond);
  EXPECT_TRUE(harness.Send(ServerId(2), 1, ServerId(1), 1, "indirect").ok());
  harness.RunUntil(50 * sim::kMillisecond);

  // The causally-later message is parked: the crash image includes a
  // populated hold-back queue whatever the core.
  EXPECT_EQ(harness.server(ServerId(1)).holdback_size(), 1u);

  ScenarioResult result;
  result.before = harness.server(ServerId(1)).DebugImage();
  harness.Crash(ServerId(1));

  // The durable clock records are in the core's own format: matrix
  // images keep the legacy layout (leading self id), other cores lead
  // with the 0xFFFF sentinel.
  const auto keys = harness.store(ServerId(1)).Keys("clk/");
  EXPECT_FALSE(keys.empty());
  for (const auto& key : keys) {
    const auto blob = harness.store(ServerId(1)).Get(key);
    EXPECT_TRUE(blob.has_value());
    if (!blob.has_value() || blob->size() < 2) continue;
    const bool sentinel = (*blob)[0] == 0xFF && (*blob)[1] == 0xFF;
    EXPECT_EQ(sentinel, kind != CausalCoreKind::kMatrix)
        << CausalCoreKindName(kind) << " wrote the wrong record format";
  }

  EXPECT_TRUE(harness.Restart(ServerId(1)).ok());
  result.after = harness.server(ServerId(1)).DebugImage();

  harness.Run();
  EXPECT_TRUE(VerifyTrace(harness).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
  return result;
}

class CausalCoreRecovery : public ::testing::TestWithParam<CausalCoreKind> {};

TEST_P(CausalCoreRecovery, MidTrafficCrashRestoresTheExactImage) {
  const ScenarioResult result = RunCrashScenario(GetParam());
  EXPECT_EQ(result.before, result.after);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreRecovery,
                         ::testing::Values(CausalCoreKind::kMatrix,
                                           CausalCoreKind::kHybrid,
                                           CausalCoreKind::kReduced),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

// An injected commit failure halts the server fail-stop; a reboot over
// the committed store state lands exactly on the pre-failure image and
// retransmission re-delivers the swallowed message -- for every core.
class CausalCoreFailStop : public ::testing::TestWithParam<CausalCoreKind> {};

TEST_P(CausalCoreFailStop, CommitFailureThenRebootRecoversExactly) {
  const CausalCoreKind kind = GetParam();
  auto config = Flat(2);
  config.causal_core = kind;
  auto deployment = domains::Deployment::Create(config).value();

  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  causality::TraceRecorder trace;

  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store0;
  mom::InMemoryStore inner1;
  auto faulty1 = std::make_unique<mom::FaultyStore>(inner1);

  mom::AgentServerOptions options;
  options.trace = &trace;
  options.retransmit_timeout_ns = 100 * sim::kMillisecond;

  workload::EchoAgent* echo = nullptr;
  auto server0 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(0), endpoint0.get(), &runtime, &store0, options);
  auto server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, faulty1.get(),
      options);
  {
    auto agent = std::make_unique<workload::EchoAgent>();
    echo = agent.get();
    server1->AttachAgent(1, std::move(agent));
  }
  ASSERT_TRUE(server0->Boot().ok());
  ASSERT_TRUE(server1->Boot().ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server0
                    ->SendMessage(AgentId{ServerId(0), 7},
                                  AgentId{ServerId(1), 1}, workload::kPing)
                    .ok());
  }
  simulator.RunToCompletion();
  ASSERT_EQ(echo->pings_seen(), 5u);
  ASSERT_TRUE(server1->health().ok());
  const Bytes image_before = server1->DebugImage();

  faulty1->FailAfterCommits(1);
  ASSERT_TRUE(server0
                  ->SendMessage(AgentId{ServerId(0), 7},
                                AgentId{ServerId(1), 1}, workload::kPing)
                  .ok());
  simulator.RunUntil(simulator.now() + 50 * sim::kMillisecond);
  EXPECT_EQ(server1->health().code(), StatusCode::kFailStop);
  EXPECT_EQ(faulty1->stats().faults_injected, 1u);

  // Reboot over the inner store: only committed state survives.
  server1->Halt();
  server1.reset();
  faulty1.reset();
  server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, &inner1, options);
  {
    auto agent = std::make_unique<workload::EchoAgent>();
    echo = agent.get();
    server1->AttachAgent(1, std::move(agent));
  }
  ASSERT_TRUE(server1->Boot().ok());
  EXPECT_EQ(server1->DebugImage(), image_before)
      << CausalCoreKindName(kind)
      << ": recovery diverged from the pre-failure image";

  simulator.RunToCompletion();
  EXPECT_EQ(echo->pings_seen(), 6u);
  EXPECT_EQ(server0->queue_out_size(), 0u);

  causality::CausalityChecker checker({ServerId(0), ServerId(1)});
  const auto snapshot = trace.Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(snapshot).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(snapshot).ok());
  server0->Shutdown();
  server1->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreFailStop,
                         ::testing::Values(CausalCoreKind::kMatrix,
                                           CausalCoreKind::kHybrid,
                                           CausalCoreKind::kReduced),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

TEST(CausalCoreRecoveryGuard, BootRejectsAStoreWrittenByADifferentCore) {
  // A store written under the hybrid core must not boot under a config
  // that runs the matrix core: the bytes would be reinterpreted as the
  // wrong coordinates.  Switching cores requires an epoch cutover.
  auto hybrid_config = Flat(2);
  hybrid_config.causal_core = CausalCoreKind::kHybrid;
  auto matrix_config = Flat(2);
  auto hybrid_deployment = domains::Deployment::Create(hybrid_config).value();
  auto matrix_deployment = domains::Deployment::Create(matrix_config).value();

  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});

  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store0;
  mom::InMemoryStore store1;

  mom::AgentServerOptions options;
  options.retransmit_timeout_ns = 100 * sim::kMillisecond;

  auto server0 = std::make_unique<mom::AgentServer>(
      hybrid_deployment, ServerId(0), endpoint0.get(), &runtime, &store0,
      options);
  auto server1 = std::make_unique<mom::AgentServer>(
      hybrid_deployment, ServerId(1), endpoint1.get(), &runtime, &store1,
      options);
  server1->AttachAgent(1, std::make_unique<workload::EchoAgent>());
  ASSERT_TRUE(server0->Boot().ok());
  ASSERT_TRUE(server1->Boot().ok());
  ASSERT_TRUE(server0
                  ->SendMessage(AgentId{ServerId(0), 7},
                                AgentId{ServerId(1), 1}, workload::kPing)
                  .ok());
  simulator.RunToCompletion();
  server0->Shutdown();
  server1->Halt();
  server1.reset();

  // "Downgrade" the config across the crash: same store, matrix core.
  server1 = std::make_unique<mom::AgentServer>(
      matrix_deployment, ServerId(1), endpoint1.get(), &runtime, &store1,
      options);
  const Status boot = server1->Boot();
  EXPECT_EQ(boot.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(boot.to_string().find("hybrid"), std::string::npos) << boot;
}

}  // namespace
}  // namespace cmom
