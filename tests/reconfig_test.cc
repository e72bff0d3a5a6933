// End-to-end tests of online reconfiguration: a live threaded cluster
// moves between epochs under routed traffic, with crashes injected at
// the protocol's worst moments.  The acceptance bar (ISSUE: control
// plane): a 3-domain cluster performs a domain split and a server add
// under live traffic with a crash during cutover, recovers to a single
// consistent epoch with no loss or duplication, and the full delivered
// trace stays causal across the epoch boundary; a cycle-introducing
// proposal is rejected with the cluster untouched.
#include "control/coordinator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "control/epoch.h"
#include "control/plan.h"
#include "workload/agents.h"
#include "workload/threaded_harness.h"

namespace cmom::workload {
namespace {

constexpr std::uint32_t kSinkLocal = 1;

domains::MomConfig ThreeDomainChain() {
  // D0 = {0 1 2} -- S2 -- D1 = {2 3 4} -- S4 -- D2 = {4 5}; the same
  // topology as examples/configs/three_domains.conf.
  domains::MomConfig config;
  for (std::uint16_t s = 0; s < 6; ++s) config.servers.push_back(ServerId(s));
  config.domains.push_back(
      {DomainId(0), {ServerId(0), ServerId(1), ServerId(2)}});
  config.domains.push_back(
      {DomainId(1), {ServerId(2), ServerId(3), ServerId(4)}});
  config.domains.push_back({DomainId(2), {ServerId(4), ServerId(5)}});
  return config;
}

// Attaches a sink to EVERY server (unconditionally, so a server that
// joins in a later epoch gets one too) and records the latest live
// instance per server.  Only read the map after HaltAll().
ThreadedHarness::AgentInstaller SinkInstaller(
    std::map<ServerId, SinkAgent*>* sinks) {
  return [sinks](ServerId id, mom::AgentServer& server) {
    auto agent = std::make_unique<SinkAgent>();
    (*sinks)[id] = agent.get();
    server.AttachAgent(kSinkLocal, std::move(agent));
  };
}

void ExpectCleanTrace(ThreadedHarness& harness) {
  const auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  const auto report = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(report.causal())
      << report.violations.size() << " causal-order violations";
  const Status exactly_once = checker.CheckExactlyOnce(trace);
  EXPECT_TRUE(exactly_once.ok()) << exactly_once;
}

void ExpectAllStoresAt(ThreadedHarness& harness, std::uint64_t epoch) {
  // Reads ride a live server's pipeline instead of racing its commits.
  control::Coordinator reader(&harness);
  for (ServerId id : harness.KnownServers()) {
    auto current = reader.EpochRecordOf(id, control::kEpochCurrentKey);
    ASSERT_TRUE(current.ok()) << current.status();
    EXPECT_EQ(current.value().has_value() ? current.value()->epoch : 0, epoch)
        << "store of " << to_string(id);
    auto pending = reader.EpochRecordOf(id, control::kEpochPendingKey);
    ASSERT_TRUE(pending.ok()) << pending.status();
    EXPECT_FALSE(pending.value().has_value())
        << "stale pending record on " << to_string(id);
  }
}

// The acceptance scenario: server add + domain split in one epoch
// transition, live traffic throughout, one server crash (taking the
// coordinator with it) after two of seven stores were already cut
// over.  Recovery must roll FORWARD to epoch 1 everywhere.
TEST(Reconfig, SplitAndAddSurviveCrashDuringCutover) {
  const auto old_config = ThreeDomainChain();
  ThreadedHarness harness(old_config);
  std::map<ServerId, SinkAgent*> sinks;
  ASSERT_TRUE(harness.Init(SinkInstaller(&sinks)).ok());
  ASSERT_TRUE(harness.BootAll().ok());

  // Epoch-0 traffic that crosses both routers, so the matrix clocks
  // carry real (non-zero) state into the remap.
  for (std::uint16_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i % 6), kSinkLocal,
                          ServerId((i + 3) % 6), kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();

  // Background traffic for the whole reconfiguration.  Sends bounce
  // off fences (Unavailable) while quiesced and off stopped servers
  // during cutover; every ACCEPTED send must still be delivered
  // exactly once.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{0};
  std::thread traffic([&] {
    std::uint16_t from = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto sent = harness.Send(ServerId(from), kSinkLocal,
                               ServerId((from + 3) % 6), kSinkLocal, kChat);
      if (sent.ok()) accepted.fetch_add(1, std::memory_order_relaxed);
      from = static_cast<std::uint16_t>((from + 1) % 6);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // New epoch: S6 joins D2, and D0 splits along its traffic pattern
  // (S0/S1 chatter, S2 is the quiet router) into D0 + D3.
  auto with_joiner =
      control::AddServerToDomain(old_config, ServerId(6), DomainId(2));
  ASSERT_TRUE(with_joiner.ok()) << with_joiner.status();
  domains::TrafficProfile d0_traffic(3);
  d0_traffic.set(0, 1, 100.0);
  d0_traffic.set(1, 2, 1.0);
  auto new_config = control::SplitDomain(with_joiner.value(), DomainId(0),
                                         d0_traffic, DomainId(3),
                                         /*max_domain_size=*/2);
  ASSERT_TRUE(new_config.ok()) << new_config.status();
  auto plan = control::ReconfigPlan::Build(0, old_config, new_config.value());
  ASSERT_TRUE(plan.ok()) << plan.status();

  {
    control::Coordinator coordinator(&harness);
    ASSERT_TRUE(coordinator.Propose(plan.value()).ok());
    ASSERT_TRUE(coordinator.Quiesce().ok());
    ASSERT_TRUE(coordinator.CutoverOne(plan.value(), ServerId(0)).ok());
    ASSERT_TRUE(coordinator.CutoverOne(plan.value(), ServerId(1)).ok());
    // Mid-cutover disaster: S3 dies, and the coordinator object dies
    // with it (scope exit).  Stores are now split across two epochs.
    harness.Crash(ServerId(3));
  }

  // A fresh coordinator recovers from the stores alone.  S0/S1 are at
  // epoch 1, so the only safe direction is forward.
  control::Coordinator recovery(&harness);
  ASSERT_TRUE(recovery.Recover().ok());

  EXPECT_EQ(harness.cluster_epoch(), 1u);
  for (ServerId id : plan.value().new_config.servers) {
    EXPECT_NE(harness.ServerOf(id), nullptr)
        << to_string(id) << " should be running at epoch 1";
  }

  // The reconfigured cluster routes: the joiner both receives and
  // sends across the split boundary.
  ASSERT_TRUE(
      harness.Send(ServerId(0), kSinkLocal, ServerId(6), kSinkLocal, kChat)
          .ok());
  ASSERT_TRUE(
      harness.Send(ServerId(6), kSinkLocal, ServerId(1), kSinkLocal, kChat)
          .ok());

  // Let the background thread observe the reopened bus at least once
  // before stopping it: on a loaded machine the thread's few scheduler
  // slices can all land inside the fence window, and the accepted>0
  // assertion below would then race the OS rather than test recovery.
  for (int i = 0; i < 5000 && accepted.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true);
  traffic.join();
  harness.WaitQuiescent();
  harness.HaltAll();

  EXPECT_GT(accepted.load(), 0u);
  ASSERT_NE(sinks[ServerId(6)], nullptr);
  EXPECT_GE(sinks[ServerId(6)]->received(), 1u);

  ExpectAllStoresAt(harness, 1);
  // No loss, no duplication, causal across the epoch boundary: checked
  // on the trace recorder, which (unlike agent state) survives crashes.
  ExpectCleanTrace(harness);
}

// A proposal that would close a domain-graph cycle dies in
// ReconfigPlan::Build -- before any store is touched -- leaving the
// cluster serving at epoch 0 as if nothing happened.
TEST(Reconfig, CycleIntroducingProposalLeavesClusterUntouched) {
  const auto config = ThreeDomainChain();
  ThreadedHarness harness(config);
  std::map<ServerId, SinkAgent*> sinks;
  ASSERT_TRUE(harness.Init(SinkInstaller(&sinks)).ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(
      harness.Send(ServerId(0), kSinkLocal, ServerId(5), kSinkLocal, kChat)
          .ok());
  harness.WaitQuiescent();

  // S0 into D2 closes the loop D0-S0-D2-S4-D1-S2-D0.
  auto cyclic = control::AddServerToDomain(config, ServerId(0), DomainId(2));
  ASSERT_TRUE(cyclic.ok()) << cyclic.status();
  auto plan = control::ReconfigPlan::Build(0, config, cyclic.value());
  EXPECT_FALSE(plan.ok());

  // Untouched: still epoch 0, no pending records, traffic flows.
  EXPECT_EQ(harness.cluster_epoch(), 0u);
  ASSERT_TRUE(
      harness.Send(ServerId(5), kSinkLocal, ServerId(0), kSinkLocal, kChat)
          .ok());
  harness.WaitQuiescent();
  harness.HaltAll();
  EXPECT_EQ(sinks[ServerId(0)]->received(), 1u);
  ExpectAllStoresAt(harness, 0);
  ExpectCleanTrace(harness);
}

// A crash after propose (no store cut over yet) must roll BACK: the
// pending records are deleted and the old epoch keeps serving.
TEST(Reconfig, CrashAfterProposeRollsBack) {
  const auto config = ThreeDomainChain();
  ThreadedHarness harness(config);
  std::map<ServerId, SinkAgent*> sinks;
  ASSERT_TRUE(harness.Init(SinkInstaller(&sinks)).ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (std::uint16_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i), kSinkLocal, ServerId((i + 1) % 6),
                          kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();

  auto merged = control::MergeDomains(config, DomainId(1), DomainId(2));
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto plan = control::ReconfigPlan::Build(0, config, merged.value());
  ASSERT_TRUE(plan.ok()) << plan.status();

  {
    control::Coordinator coordinator(&harness);
    ASSERT_TRUE(coordinator.Propose(plan.value()).ok());
    harness.Crash(ServerId(4));  // coordinator dies too (scope exit)
  }

  control::Coordinator recovery(&harness);
  ASSERT_TRUE(recovery.Recover().ok());

  // Rolled back: S4 is up again under the OLD config, the proposal is
  // gone, and cross-domain routing through S4 still works.
  EXPECT_NE(harness.ServerOf(ServerId(4)), nullptr);
  ASSERT_TRUE(
      harness.Send(ServerId(0), kSinkLocal, ServerId(5), kSinkLocal, kChat)
          .ok());
  harness.WaitQuiescent();
  harness.HaltAll();
  EXPECT_GE(sinks[ServerId(5)]->received(), 1u);
  ExpectAllStoresAt(harness, 0);
  ExpectCleanTrace(harness);
}

// Two chained full Reconfigure() runs: merge the leaf domains at epoch
// 1, then retire a server at epoch 2.  The removed server's store is
// stamped with the final epoch even though it never restarts.
TEST(Reconfig, ChainedEpochsMergeThenRemoveServer) {
  const auto config = ThreeDomainChain();
  ThreadedHarness harness(config);
  std::map<ServerId, SinkAgent*> sinks;
  ASSERT_TRUE(harness.Init(SinkInstaller(&sinks)).ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (std::uint16_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i % 6), kSinkLocal, ServerId((i + 2) % 6),
                          kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();

  control::Coordinator coordinator(&harness);

  auto merged = control::MergeDomains(config, DomainId(1), DomainId(2));
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto plan1 = control::ReconfigPlan::Build(0, config, merged.value());
  ASSERT_TRUE(plan1.ok()) << plan1.status();
  ASSERT_TRUE(coordinator.Reconfigure(plan1.value()).ok());
  EXPECT_EQ(harness.cluster_epoch(), 1u);
  ASSERT_TRUE(
      harness.Send(ServerId(0), kSinkLocal, ServerId(5), kSinkLocal, kChat)
          .ok());
  harness.WaitQuiescent();

  auto removed = control::RemoveServer(merged.value(), ServerId(5));
  ASSERT_TRUE(removed.ok()) << removed.status();
  auto plan2 = control::ReconfigPlan::Build(1, merged.value(), removed.value());
  ASSERT_TRUE(plan2.ok()) << plan2.status();
  ASSERT_TRUE(coordinator.Reconfigure(plan2.value()).ok());
  EXPECT_EQ(harness.cluster_epoch(), 2u);

  // S5 is retired: no live server, sends from it are refused, the
  // survivors keep routing.
  EXPECT_EQ(harness.ServerOf(ServerId(5)), nullptr);
  EXPECT_FALSE(
      harness.Send(ServerId(5), kSinkLocal, ServerId(0), kSinkLocal, kChat)
          .ok());
  for (std::uint16_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i), kSinkLocal, ServerId((i + 1) % 5),
                          kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  ExpectAllStoresAt(harness, 2);
  ExpectCleanTrace(harness);
}

// A domain running a non-default causal core splits across an epoch:
// the split parts inherit the core, the cutover remaps the hybrid
// cores' durable state (kind-checked against the new config), and
// traffic across the split boundary stays causal and exactly-once.
TEST(Reconfig, SplitCarriesANonDefaultCoreAcrossTheEpoch) {
  auto config = ThreeDomainChain();
  config.causal_core_overrides.emplace_back(
      DomainId(0), clocks::CausalCoreKind::kHybrid);
  ThreadedHarness harness(config);
  std::map<ServerId, SinkAgent*> sinks;
  ASSERT_TRUE(harness.Init(SinkInstaller(&sinks)).ok());
  ASSERT_TRUE(harness.BootAll().ok());

  // Epoch-0 traffic crossing both routers so the hybrid core carries
  // real per-link counters (and possibly live barriers) into the remap.
  for (std::uint16_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i % 6), kSinkLocal,
                          ServerId((i + 3) % 6), kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();

  // D0 = {0 1 2} splits along its traffic pattern into D0 + D3.
  domains::TrafficProfile d0_traffic(3);
  d0_traffic.set(0, 1, 100.0);
  d0_traffic.set(1, 2, 1.0);
  auto new_config = control::SplitDomain(config, DomainId(0), d0_traffic,
                                         DomainId(3), /*max_domain_size=*/2);
  ASSERT_TRUE(new_config.ok()) << new_config.status();
  // The split parts inherited the hybrid override.
  EXPECT_EQ(new_config.value().CoreFor(DomainId(0)),
            clocks::CausalCoreKind::kHybrid);
  EXPECT_EQ(new_config.value().CoreFor(DomainId(3)),
            clocks::CausalCoreKind::kHybrid);

  auto plan = control::ReconfigPlan::Build(0, config, new_config.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  control::Coordinator coordinator(&harness);
  ASSERT_TRUE(coordinator.Reconfigure(plan.value()).ok());
  EXPECT_EQ(harness.cluster_epoch(), 1u);

  // Post-split traffic, including across the new D0/D3 boundary and
  // the untouched matrix domains.
  for (std::uint16_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(harness
                    .Send(ServerId(i % 6), kSinkLocal,
                          ServerId((i + 5) % 6), kSinkLocal, kChat)
                    .ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  ExpectAllStoresAt(harness, 1);
  ExpectCleanTrace(harness);
}

}  // namespace
}  // namespace cmom::workload
