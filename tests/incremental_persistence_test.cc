// Incremental persistence schema: per-entry store keys, dirty-flagged
// clock images, and the O(1) duplicate-held check.  The load-bearing
// property is exact recovery: a server rebuilt from its per-entry
// records must be byte-identical (DebugImage) to the server that
// crashed -- the cheap delta commits lose nothing a whole-image
// rewrite would have kept.
#include <gtest/gtest.h>

#include "domains/topologies.h"
#include "mom/store_schema.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using domains::topologies::Flat;
using workload::ChatterAgent;
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

// Deterministic crash scenario with every queue populated at the crash
// point: S0 -> S1 slow (m1 in S0's QueueOUT, unacked for 400 ms),
// m3 (S2 -> S1, causally after m1 via m2's stamp) held back at S1.
// S1 is crashed mid-traffic and restarted; the snapshot captures S1's
// volatile image right before the crash and right after recovery.
struct ScenarioResult {
  Bytes s1_image_before;
  Bytes s1_image_after;
};

ScenarioResult RunCrashScenario() {
  SimHarness harness(Flat(3), FastOptions());
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

  EXPECT_EQ(harness.server(ServerId(1)).holdback_size(), 1u);
  EXPECT_GE(harness.server(ServerId(0)).queue_out_size(), 1u);

  ScenarioResult result;
  result.s1_image_before = harness.server(ServerId(1)).DebugImage();

  harness.Crash(ServerId(1));
  EXPECT_TRUE(harness.Restart(ServerId(1)).ok());
  result.s1_image_after = harness.server(ServerId(1)).DebugImage();

  harness.Run();
  EXPECT_TRUE(VerifyTrace(harness).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
  return result;
}

TEST(IncrementalPersistence, RecoveryRebuildsTheExactPreCrashImage) {
  const ScenarioResult result = RunCrashScenario();
  // Everything externally visible was committed first, so the per-entry
  // recovery must rebuild the pre-crash state exactly -- including the
  // QueueOUT order and the held-back frame.
  EXPECT_EQ(result.s1_image_before, result.s1_image_after);
}

TEST(IncrementalPersistence, DrainedBusLeavesNoQueueKeysBehind) {
  auto config = Flat(3);
  SimHarness harness(config, FastOptions());
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  auto install = [&](ServerId id, mom::AgentServer& server) {
    server.AttachAgent(
        1, std::make_unique<ChatterAgent>(100 + id.value(), peers));
  };
  ASSERT_TRUE(harness.Init(install).ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (ServerId id : config.servers) {
    ASSERT_TRUE(harness
                    .Send(id, 1, id, 1, workload::kChat,
                          ChatterAgent::MakeChatPayload(5))
                    .ok());
  }
  harness.Run();
  ASSERT_TRUE(harness.CheckQuiescent().ok());
  EXPECT_TRUE(VerifyTrace(harness).ok());

  // Every queue entry that was written was also deleted; only the
  // steady-state keys (meta, clocks, agents) remain.
  for (ServerId id : config.servers) {
    for (std::string_view prefix : mom::kQueueKeyPrefixes) {
      EXPECT_TRUE(harness.store(id).Keys(prefix).empty())
          << to_string(id) << " " << prefix;
    }
    EXPECT_TRUE(harness.store(id).Get("meta").has_value()) << to_string(id);
    EXPECT_FALSE(harness.store(id).Keys("clk/").empty()) << to_string(id);
  }
}

TEST(IncrementalPersistence, RetransmittedHeldFrameIsDroppedNotReHeld) {
  // m3 is held at S1; S2 crashes before S1's ack reaches it and, on
  // restart, retransmits m3 while the original copy is still held.
  // The MessageId index must recognize the copy in O(1) and drop it --
  // the hold-back queue never holds the same message twice.
  SimHarness harness(Flat(3), FastOptions());
  SinkAgent* sink = nullptr;
  auto install = [&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(1)) {
      auto agent = std::make_unique<SinkAgent>();
      sink = agent.get();
      server.AttachAgent(1, std::move(agent));
    }
  };
  ASSERT_TRUE(harness.Init(install).ok());
  ASSERT_TRUE(harness.BootAll().ok());
  harness.network().SetLinkLatency(ServerId(0), ServerId(1),
                                   400 * sim::kMillisecond);
  // Slow ack path S1 -> S2 so S2 can crash with the ack in flight.
  harness.network().SetLinkLatency(ServerId(1), ServerId(2),
                                   100 * sim::kMillisecond);

  const MessageId m1 =
      harness.Send(ServerId(0), 1, ServerId(1), 1, "direct").value();
  ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(2), 1, "relay").ok());
  harness.RunUntil(10 * sim::kMillisecond);
  const MessageId m3 =
      harness.Send(ServerId(2), 1, ServerId(1), 1, "indirect").value();
  harness.RunUntil(50 * sim::kMillisecond);
  ASSERT_EQ(harness.server(ServerId(1)).holdback_size(), 1u);

  // The ack (due at S2 around t=110ms) dies with S2.
  harness.Crash(ServerId(2));
  harness.RunUntil(150 * sim::kMillisecond);
  ASSERT_TRUE(harness.Restart(ServerId(2)).ok());  // resends m3 on Boot
  harness.Run();

  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->received(), 2u);
  EXPECT_EQ(sink->order()[0], m1);
  EXPECT_EQ(sink->order()[1], m3);
  const mom::ServerStats stats = harness.server(ServerId(1)).stats();
  EXPECT_GE(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.holdback_peak, 1u);  // the copy was never re-held
  EXPECT_TRUE(VerifyTrace(harness).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
}

TEST(IncrementalPersistence, CleanClocksAreNotRewritten) {
  // An ack-only commit releases a QueueOUT entry but advances no clock;
  // with dirty tracking the clock image must not be part of that
  // commit.  Observable: at quiescence the store's clock keys were
  // written far fewer times than there were commits.
  SimHarness harness(Flat(2), FastOptions());
  ASSERT_TRUE(harness.Init().ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 1, ServerId(1), 1, "x").ok());
    harness.Run();
  }
  const mom::ServerStats stats = harness.server(ServerId(0)).stats();
  // Sender commits: 10 sends (clock dirty) + 10 ack releases (clock
  // clean).  A whole-image rewrite would have written the clock image in
  // all of them.
  EXPECT_GE(stats.commits, 20u);
  // The ack-release commits stage exactly one deletion; their commit
  // bytes are just the deleted key's name, far below a clock image.
  EXPECT_GE(stats.commit_bytes_hist.count, 20u);
  std::uint64_t tiny_commits = 0;
  for (std::size_t b = 0; b < 7; ++b) {  // commits under 64 bytes
    tiny_commits += stats.commit_bytes_hist.buckets[b];
  }
  EXPECT_GE(tiny_commits, 10u);
}

}  // namespace
}  // namespace cmom
