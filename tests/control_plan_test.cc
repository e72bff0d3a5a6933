// Plan-level tests of the control plane: operation helpers, remap
// derivation, epoch-record round trips, the offline cutover's drained
// check, and -- the theorem guard -- rejection of cycle-introducing
// proposals before any store is touched.
#include "control/plan.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "control/coordinator.h"
#include "control/epoch.h"
#include "domains/config_io.h"

namespace cmom::control {
namespace {

domains::MomConfig ThreeDomainChain() {
  // D0 = {0 1 2} -- S2 -- D1 = {2 3 4} -- S4 -- D2 = {4 5}
  domains::MomConfig config;
  for (std::uint16_t s = 0; s < 6; ++s) config.servers.push_back(ServerId(s));
  config.domains.push_back(
      {DomainId(0), {ServerId(0), ServerId(1), ServerId(2)}});
  config.domains.push_back(
      {DomainId(1), {ServerId(2), ServerId(3), ServerId(4)}});
  config.domains.push_back({DomainId(2), {ServerId(4), ServerId(5)}});
  return config;
}

TEST(ReconfigPlan, BuildDerivesRemapsForSurvivorsAndNewcomers) {
  auto old_config = ThreeDomainChain();
  auto new_config = AddServerToDomain(old_config, ServerId(6), DomainId(2));
  ASSERT_TRUE(new_config.ok()) << new_config.status();

  auto plan = ReconfigPlan::Build(3, old_config, new_config.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().from_epoch, 3u);
  EXPECT_EQ(plan.value().to_epoch, 4u);
  ASSERT_EQ(plan.value().remaps.size(), 3u);

  // D2 kept its id: old members keep their coordinates, S6 is fresh.
  const DomainRemap& d2 = plan.value().remaps[2];
  EXPECT_EQ(d2.id, DomainId(2));
  ASSERT_TRUE(d2.old_index.has_value());
  EXPECT_EQ(*d2.old_index, 2u);
  ASSERT_EQ(d2.old_of_new.size(), 3u);
  EXPECT_EQ(d2.old_of_new[0], DomainServerId(0));
  EXPECT_EQ(d2.old_of_new[1], DomainServerId(1));
  EXPECT_FALSE(d2.old_of_new[2].has_value());

  // Untouched domains map one-to-one.
  const DomainRemap& d0 = plan.value().remaps[0];
  ASSERT_TRUE(d0.old_index.has_value());
  for (std::size_t i = 0; i < d0.old_of_new.size(); ++i) {
    EXPECT_EQ(d0.old_of_new[i], DomainServerId(static_cast<std::uint16_t>(i)));
  }

  // AllServers covers both configs (the cutover touches every store).
  const auto all = plan.value().AllServers();
  EXPECT_EQ(all.size(), 7u);
  EXPECT_TRUE(std::find(all.begin(), all.end(), ServerId(6)) != all.end());
}

TEST(ReconfigPlan, BuildRejectsCycleIntroducingProposal) {
  auto old_config = ThreeDomainChain();
  // Putting S0 into D2 closes the loop D0-S0-D2-S4-D1-S2-D0.
  auto cyclic = AddServerToDomain(old_config, ServerId(0), DomainId(2));
  ASSERT_TRUE(cyclic.ok()) << cyclic.status();
  auto plan = ReconfigPlan::Build(0, old_config, cyclic.value());
  EXPECT_FALSE(plan.ok());
}

TEST(ReconfigPlan, BuildRejectsStampModeChange) {
  auto old_config = ThreeDomainChain();
  auto new_config = old_config;
  new_config.stamp_mode = clocks::StampMode::kFullMatrix;
  auto plan = ReconfigPlan::Build(0, old_config, new_config);
  EXPECT_FALSE(plan.ok());
}

TEST(ReconfigPlan, BuildRejectsCausalCoreChangeOnSurvivingDomain) {
  // A domain's causal core cannot change across an epoch: the stores
  // hold images in the old core's format and no remap converts them.
  auto old_config = ThreeDomainChain();
  auto new_config = old_config;
  new_config.causal_core_overrides.emplace_back(
      DomainId(0), clocks::CausalCoreKind::kHybrid);
  auto plan = ReconfigPlan::Build(0, old_config, new_config);
  EXPECT_FALSE(plan.ok());

  // Flipping the global default has the same effect on every domain.
  auto flipped = old_config;
  flipped.causal_core = clocks::CausalCoreKind::kHybrid;
  EXPECT_FALSE(ReconfigPlan::Build(0, old_config, flipped).ok());
}

TEST(ReconfigPlanOps, MergeDomainsRejectsMixedCores) {
  auto config = ThreeDomainChain();
  config.causal_core_overrides.emplace_back(DomainId(1),
                                            clocks::CausalCoreKind::kHybrid);
  // D1 runs hybrid, D2 the default matrix: their durable state is not
  // interconvertible, so the merge must be refused up front.
  auto mixed = MergeDomains(config, DomainId(1), DomainId(2));
  EXPECT_FALSE(mixed.ok());

  // With both domains on the same core the merge goes through, keeps
  // the core, and drops the vanished domain's override.
  config.causal_core_overrides.emplace_back(DomainId(2),
                                            clocks::CausalCoreKind::kHybrid);
  auto merged = MergeDomains(config, DomainId(1), DomainId(2));
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged.value().CoreFor(DomainId(1)),
            clocks::CausalCoreKind::kHybrid);
  for (const auto& [domain, kind] : merged.value().causal_core_overrides) {
    EXPECT_NE(domain, DomainId(2)) << "stale override for the retired id";
  }
}

TEST(ReconfigPlanOps, SplitDomainInheritsTheNonDefaultCore) {
  auto config = ThreeDomainChain();
  config.causal_core_overrides.emplace_back(DomainId(1),
                                            clocks::CausalCoreKind::kHybrid);
  domains::TrafficProfile traffic(3);
  traffic.set(1, 2, 100.0);
  traffic.set(0, 1, 1.0);
  auto split = SplitDomain(config, DomainId(1), traffic, DomainId(10),
                           /*max_domain_size=*/2);
  ASSERT_TRUE(split.ok()) << split.status();
  // Every part of the old D1 -- the id-keeping part and the split-off
  // ones -- keeps running the hybrid core.
  std::size_t parts = 0;
  for (const auto& spec : split.value().domains) {
    if (spec.id != DomainId(1) && spec.id.value() < 10) continue;
    ++parts;
    EXPECT_EQ(split.value().CoreFor(spec.id),
              clocks::CausalCoreKind::kHybrid)
        << "domain " << to_string(spec.id);
  }
  EXPECT_GE(parts, 2u);
  // And the transition validates end to end.
  auto plan = ReconfigPlan::Build(0, config, split.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
}

TEST(ReconfigPlanOps, RemoveServerDropsMembershipsAndRegistration) {
  auto config = ThreeDomainChain();
  auto removed = RemoveServer(config, ServerId(5));
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed.value().servers.size(), 5u);
  // D2 = {4} survives (one member left).
  ASSERT_EQ(removed.value().domains.size(), 3u);
  EXPECT_EQ(removed.value().domains[2].members,
            std::vector<ServerId>{ServerId(4)});

  // Removing the last member of a domain must fail instead.
  auto emptied = RemoveServer(removed.value(), ServerId(4));
  EXPECT_FALSE(emptied.ok());
}

TEST(ReconfigPlanOps, MergeDomainsAppendsAndRetiresId) {
  auto config = ThreeDomainChain();
  auto merged = MergeDomains(config, DomainId(1), DomainId(2));
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged.value().domains.size(), 2u);
  // a's member order first, then b's members not already present.
  const std::vector<ServerId> want{ServerId(2), ServerId(3), ServerId(4),
                                   ServerId(5)};
  EXPECT_EQ(merged.value().domains[1].members, want);
  // The merged config is a valid epoch transition.
  auto plan = ReconfigPlan::Build(0, config, merged.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
}

TEST(ReconfigPlanOps, PromoteRouterRequiresExistingMembership) {
  auto config = ThreeDomainChain();
  EXPECT_FALSE(PromoteRouter(config, ServerId(9), DomainId(0)).ok());
  auto promoted = PromoteRouter(config, ServerId(5), DomainId(1));
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  // The promotion itself is well-formed, but S4 and S5 now BOTH bridge
  // D1 and D2 -- a bipartite cycle (D1-S4-D2-S5-D1), so the epoch
  // transition must be rejected at Build time.
  auto plan = ReconfigPlan::Build(0, config, promoted.value());
  EXPECT_FALSE(plan.ok());
}

TEST(ReconfigPlanOps, SplitDomainKeepsIdAndStaysAcyclic) {
  auto config = ThreeDomainChain();
  // D1 = {2 3 4}: S3 talks mostly to S4; keep them together.
  domains::TrafficProfile traffic(3);
  traffic.set(1, 2, 100.0);  // positions of S3, S4 in D1's member list
  traffic.set(0, 1, 1.0);
  auto split = SplitDomain(config, DomainId(1), traffic, DomainId(10),
                           /*max_domain_size=*/2);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_GT(split.value().domains.size(), config.domains.size());
  // Part 0 keeps the old id; the new parts use fresh ids.
  bool kept = false;
  for (const auto& spec : split.value().domains) {
    if (spec.id == DomainId(1)) kept = true;
  }
  EXPECT_TRUE(kept);
  // The split output chains through routers, so the whole graph is
  // still a tree and the transition validates.
  auto plan = ReconfigPlan::Build(0, config, split.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
}

TEST(EpochRecordCodec, RoundTripsBothConfigTexts) {
  EpochRecord record;
  record.epoch = 7;
  record.config_text = domains::FormatMomConfig(ThreeDomainChain());
  record.prev_config_text = "servers = 2\ndomain 0 = 0 1\n";
  const Bytes encoded = EncodeEpochRecord(record);
  ByteReader in(encoded);
  auto decoded = EpochRecord::Decode(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), record);
}

TEST(EpochRecordCodec, StoreHelpersReadBackWhatWasWritten) {
  mom::InMemoryStore store;
  auto none = ReadEpochRecord(store, kEpochCurrentKey);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
  auto epoch0 = CurrentEpochOf(store);
  ASSERT_TRUE(epoch0.ok());
  EXPECT_EQ(epoch0.value(), 0u);

  EpochRecord record{4, "servers = 2\ndomain 0 = 0 1\n", ""};
  store.Put(kEpochCurrentKey, EncodeEpochRecord(record));
  ASSERT_TRUE(store.Commit().ok());
  auto read = ReadEpochRecord(store, kEpochCurrentKey);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().has_value());
  EXPECT_EQ(*read.value(), record);
  auto epoch = CurrentEpochOf(store);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 4u);
}

TEST(CutoverStore, RefusesAStoreHoldingAnyQueueRecord) {
  // An offline cutover (momtool epoch --cutover) has no live fence to
  // drain the server, so the store itself must prove it is drained.
  // One record of each per-message kind, keyed as the server writes
  // them: QueueOUT, QueueIN, hold-back, and a router's staged forward.
  const domains::MomConfig old_config = ThreeDomainChain();
  auto new_config = AddServerToDomain(old_config, ServerId(6), DomainId(2));
  ASSERT_TRUE(new_config.ok()) << new_config.status();
  auto plan = ReconfigPlan::Build(0, old_config, new_config.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const char* key :
       {"qout/00000000000000000001", "qin/0000000000000001",
        "hold/0000/00000000000000000001", "fwd/0000000000000001"}) {
    SCOPED_TRACE(key);
    mom::InMemoryStore store;
    store.Put(key, Bytes{1});
    ASSERT_TRUE(store.Commit().ok());
    const Status status =
        Coordinator::CutoverStore(store, ServerId(1), plan.value());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_EQ(CurrentEpochOf(store).value(), 0u);
    EXPECT_TRUE(store.Get(key).has_value());
  }
  mom::InMemoryStore drained;
  const Status status =
      Coordinator::CutoverStore(drained, ServerId(1), plan.value());
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(CurrentEpochOf(drained).value(), 1u);
}

}  // namespace
}  // namespace cmom::control
