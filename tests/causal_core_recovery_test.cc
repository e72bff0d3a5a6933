// Causal-core crash recovery: the clock's durable image must survive a
// mid-traffic crash byte-identically in both stamp modes -- including
// with the hold-back queue populated and with commit failures injected
// by the FaultyStore decorator -- and boot must refuse an image it
// cannot read exactly (a retired core's kind, the parent format, a
// trailing byte) instead of misinterpreting the bytes.  As in
// bench/causal_cores, "matrix" names the full-stamp mode and
// "matrix_updates" the Appendix-A one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "causality/checker.h"
#include "clocks/causal_core.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/faulty_store.h"
#include "mom/store.h"
#include "mom/store_schema.h"
#include "net/sim_network.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using clocks::StampMode;
using domains::topologies::Flat;
using workload::SimHarness;
using workload::SimHarnessOptions;
using workload::SinkAgent;

std::string ModeName(const ::testing::TestParamInfo<StampMode>& info) {
  return info.param == StampMode::kUpdates ? "matrix_updates" : "matrix";
}

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
// in a chosen stamp mode.  Returns S1's volatile image right before the
// crash and right after recovery.
struct ScenarioResult {
  Bytes before;
  Bytes after;
};

ScenarioResult RunCrashScenario(StampMode mode) {
  auto config = Flat(3, mode);
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
  // populated hold-back queue whatever the mode.
  EXPECT_EQ(harness.server(ServerId(1)).holdback_size(), 1u);

  ScenarioResult result;
  result.before = harness.server(ServerId(1)).DebugImage();
  harness.Crash(ServerId(1));

  // Every durable clock record leads with the core's kind byte.
  const auto keys = harness.store(ServerId(1)).Keys("clk/");
  EXPECT_FALSE(keys.empty());
  for (const auto& key : keys) {
    const auto blob = harness.store(ServerId(1)).Get(key);
    EXPECT_TRUE(blob.has_value());
    if (!blob.has_value() || blob->empty()) continue;
    EXPECT_EQ((*blob)[0], clocks::MatrixClockCore::kImageKind)
        << "wrong record format";
  }

  EXPECT_TRUE(harness.Restart(ServerId(1)).ok());
  result.after = harness.server(ServerId(1)).DebugImage();

  harness.Run();
  EXPECT_TRUE(VerifyTrace(harness).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
  return result;
}

class CausalCoreRecovery : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalCoreRecovery, MidTrafficCrashRestoresTheExactImage) {
  const ScenarioResult result = RunCrashScenario(GetParam());
  EXPECT_EQ(result.before, result.after);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreRecovery,
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         ModeName);

// An injected commit failure halts the server fail-stop; a reboot over
// the committed store state lands exactly on the pre-failure image and
// retransmission re-delivers the swallowed message -- in both modes.
class CausalCoreFailStop : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalCoreFailStop, CommitFailureThenRebootRecoversExactly) {
  auto deployment =
      domains::Deployment::Create(Flat(2, GetParam())).value();

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
      << "recovery diverged from the pre-failure image";

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
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         ModeName);

// Boots S0 of a Flat(2) matrix-core deployment over `store` and halts
// it again; returns the boot status.
Status BootAndHalt(mom::Store& store) {
  auto deployment = domains::Deployment::Create(Flat(2)).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto endpoint = network.CreateEndpoint(ServerId(0)).value();
  mom::AgentServer server(deployment, ServerId(0), endpoint.get(), &runtime,
                          &store);
  const Status boot = server.Boot();
  server.Halt();
  return boot;
}

TEST(CausalCoreRecoveryGuard, BootRejectsAStoreWrittenByADifferentCore) {
  // The retired cores wrote their clock images under kind bytes 1
  // (hybrid buffering) and 2 (reduced matrix).  Their payloads mean
  // nothing to the matrix clock, so a store that still holds one fails
  // boot instead of being read as matrix coordinates.
  for (std::uint8_t kind : {1, 2}) {
    mom::InMemoryStore store;
    ASSERT_TRUE(BootAndHalt(store).ok());
    Bytes image = store.Get(mom::ClockKey(0)).value();
    image[0] = kind;
    store.Put(mom::ClockKey(0), std::move(image));
    ASSERT_TRUE(store.Commit().ok());
    EXPECT_EQ(BootAndHalt(store).code(), StatusCode::kDataLoss)
        << "kind " << int{kind};
  }
}

TEST(CausalCoreRecoveryGuard, BootRejectsAClockImageOfAnotherShape) {
  // A well-formed image that is not S0's clock of this 2-member domain
  // -- another member's, or a clock of another size -- would index past
  // the matrix on the next send.  Boot refuses it.
  for (const clocks::MatrixClockCore& foreign :
       {clocks::MatrixClockCore(DomainServerId(1), 2, StampMode::kUpdates),
        clocks::MatrixClockCore(DomainServerId(0), 1, StampMode::kUpdates),
        clocks::MatrixClockCore(DomainServerId(0), 3, StampMode::kUpdates)}) {
    mom::InMemoryStore store;
    ASSERT_TRUE(BootAndHalt(store).ok());
    ByteWriter out;
    foreign.EncodeState(out);
    store.Put(mom::ClockKey(0), std::move(out).Take());
    ASSERT_TRUE(store.Commit().ok());
    EXPECT_EQ(BootAndHalt(store).code(), StatusCode::kDataLoss)
        << "self " << foreign.self() << " size " << foreign.domain_size();
  }
}

// A hold/ record is re-checked the way its frame was on arrival: a
// sender or a stamp entry outside the domain, or a stamp without the
// sender's own counter, is a corrupt store and fails boot.
TEST(CausalCoreRecoveryGuard, BootRejectsAHeldFrameWithAMalformedStamp) {
  const DomainServerId s0(0);
  const DomainServerId s1(1);
  const struct {
    std::uint16_t src;
    clocks::Stamp stamp;
  } cases[] = {
      {1, {{{s1, s0, 2}, {DomainServerId(5), s0, 1}}}},
      {1, {{{s0, s1, 2}}}},
      {5, {{{DomainServerId(5), s0, 2}}}},
  };
  for (const auto& c : cases) {
    mom::InMemoryStore store;
    ASSERT_TRUE(BootAndHalt(store).ok());
    mom::DataFrame frame;
    frame.message.id = MessageId{ServerId(1), 2};
    frame.message.from = AgentId{ServerId(1), 1};
    frame.message.to = AgentId{ServerId(0), 1};
    frame.domain = DomainId(0);
    frame.stamp = c.stamp;
    frame.incarnation = 1;
    ByteWriter out;
    out.WriteVarU64(1);  // arrival ticket
    out.WriteU16(c.src);
    out.WriteBytes(frame.Serialize());
    store.Put(mom::HoldKey(0, frame.message.id), std::move(out).Take());
    ASSERT_TRUE(store.Commit().ok());
    EXPECT_EQ(BootAndHalt(store).code(), StatusCode::kDataLoss)
        << "src " << c.src << " stamp " << c.stamp;
  }
  // The same record with a well-formed stamp boots (and stays held).
  mom::InMemoryStore store;
  ASSERT_TRUE(BootAndHalt(store).ok());
  mom::DataFrame frame;
  frame.message.id = MessageId{ServerId(1), 2};
  frame.message.from = AgentId{ServerId(1), 1};
  frame.message.to = AgentId{ServerId(0), 1};
  frame.domain = DomainId(0);
  frame.stamp = {{{s1, s0, 2}}};
  frame.incarnation = 1;
  ByteWriter out;
  out.WriteVarU64(1);
  out.WriteU16(1);
  out.WriteBytes(frame.Serialize());
  store.Put(mom::HoldKey(0, frame.message.id), std::move(out).Take());
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_TRUE(BootAndHalt(store).ok());
}

TEST(CausalCoreRecoveryGuard, BootRejectsAParentFormatMatrixImage) {
  // A store written before the kind byte holds S0's matrix image as the
  // u16 self id, the stamp mode, the matrix and the Updates tracker.
  // The current decoder cannot read it exactly, so boot refuses it.
  mom::InMemoryStore store;
  ASSERT_TRUE(BootAndHalt(store).ok());
  clocks::MatrixClock matrix(2);
  matrix.set(DomainServerId(0), DomainServerId(1), 4);
  ByteWriter out;
  out.WriteU16(0);
  out.WriteU8(static_cast<std::uint8_t>(clocks::StampMode::kUpdates));
  matrix.Encode(out);
  out.WriteVarU64(2);  // tracker size
  out.WriteVarU64(4);  // tracker state
  for (int cell = 0; cell < 4; ++cell) {
    out.WriteVarU64(cell == 1 ? 4 : 0);
    out.WriteU32(0xFFFFFFFFu);
  }
  out.WriteVarU64(0);
  out.WriteVarU64(4);
  store.Put(mom::ClockKey(0), std::move(out).Take());
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(BootAndHalt(store).code(), StatusCode::kDataLoss);
}

TEST(CausalCoreRecoveryGuard, BootRejectsATrailingByteAfterTheClockImage) {
  mom::InMemoryStore store;
  ASSERT_TRUE(BootAndHalt(store).ok());
  Bytes image = store.Get(mom::ClockKey(0)).value();
  image.push_back(0);
  store.Put(mom::ClockKey(0), std::move(image));
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(BootAndHalt(store).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cmom
