// Autopilot unit coverage: EWMA profile semantics, the decision
// journal codec, core-aware deployment scoring, the DomainSplitter
// edge cases the controller hits live (single-agent profiles,
// zero-traffic links, mixed-core pricing), and the controller's
// do-nothing guarantee when no candidate clears the bar.
#include <gtest/gtest.h>

#include <memory>

#include "autopilot/controller.h"
#include "autopilot/profile.h"
#include "autopilot/scorer.h"
#include "common/rng.h"
#include "domains/deployment.h"
#include "domains/splitter.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/threaded_harness.h"

namespace cmom::autopilot {
namespace {

TEST(LiveTrafficProfileTest, EwmaFoldsDeltasAndDecays) {
  LiveTrafficProfile profile(0.5);
  const ServerId a(0), b(1);

  profile.Ingest(a, {{b, 10}});
  profile.EndWindow();
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 5.0);  // 0.5*0 + 0.5*10

  // Counter unchanged: the link decays instead of double-counting the
  // cumulative value.
  profile.Ingest(a, {{b, 10}});
  profile.EndWindow();
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 2.5);

  profile.Ingest(a, {{b, 30}});  // delta 20
  profile.EndWindow();
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 0.5 * 2.5 + 0.5 * 20);
}

TEST(LiveTrafficProfileTest, CounterResetIsAFreshBaseline) {
  LiveTrafficProfile profile(0.5);
  const ServerId a(0), b(1);
  profile.Ingest(a, {{b, 10}});
  profile.EndWindow();
  ASSERT_DOUBLE_EQ(profile.rate(a, b), 5.0);

  // The server rebooted and its counter restarted at 4: the full value
  // is this window's observation, not a negative delta.
  profile.Ingest(a, {{b, 4}});
  profile.EndWindow();
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 0.5 * 5.0 + 0.5 * 4);
}

TEST(LiveTrafficProfileTest, StaleLinksDecayToZeroAndAreDropped) {
  LiveTrafficProfile profile(0.5);
  const ServerId a(2), b(3);
  profile.Ingest(a, {{b, 100}});
  profile.EndWindow();
  ASSERT_GT(profile.TotalRate(), 0);
  for (int i = 0; i < 64; ++i) profile.EndWindow();
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 0.0);
  EXPECT_DOUBLE_EQ(profile.TotalRate(), 0.0);
}

TEST(LiveTrafficProfileTest, ForgetDropsBothDirections) {
  LiveTrafficProfile profile(0.5);
  const ServerId a(0), b(1), c(2);
  profile.Ingest(a, {{b, 8}});
  profile.Ingest(b, {{a, 6}});
  profile.Ingest(a, {{c, 4}});
  profile.EndWindow();
  profile.Forget(b);
  EXPECT_DOUBLE_EQ(profile.rate(a, b), 0.0);
  EXPECT_DOUBLE_EQ(profile.rate(b, a), 0.0);
  EXPECT_GT(profile.rate(a, c), 0.0);
}

TEST(LiveTrafficProfileTest, SnapshotDropsOutOfRangeServers) {
  LiveTrafficProfile profile(0.0);  // no history: last window only
  profile.Ingest(ServerId(1), {{ServerId(2), 10}});
  profile.Ingest(ServerId(7), {{ServerId(1), 10}});  // outside snapshot
  profile.EndWindow();
  const domains::TrafficProfile snapshot = profile.Snapshot(4);
  EXPECT_DOUBLE_EQ(snapshot.at(1, 2), 10.0);
  EXPECT_DOUBLE_EQ(snapshot.Total(), 10.0);
}

TEST(DecisionCodecTest, RoundTripsEveryField) {
  Decision d;
  d.window = 7;
  d.from_epoch = 3;
  d.to_epoch = 4;
  d.verdict = Verdict::kTaken;
  d.op = OpKind::kMerge;
  d.detail = "merge domain 2 into domain 1";
  d.current_score = 123.5;
  d.candidate_score = 98.25;
  d.reason = "line one\nline two";  // newlines must not break the codec
  CandidateScore good{OpKind::kSplit, "split domain 0 (size 6)", 101.5, true,
                      ""};
  CandidateScore bad{OpKind::kMerge, "merge domain 3 into domain 0", 0, false,
                     "INVALID_ARGUMENT: domain graph has a cycle"};
  d.candidates = {good, bad};

  auto decoded = DecodeDecision(EncodeDecision(d));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const Decision& r = decoded.value();
  EXPECT_EQ(r.window, d.window);
  EXPECT_EQ(r.from_epoch, d.from_epoch);
  EXPECT_EQ(r.to_epoch, d.to_epoch);
  EXPECT_EQ(r.verdict, d.verdict);
  EXPECT_EQ(r.op, d.op);
  EXPECT_EQ(r.detail, d.detail);
  EXPECT_DOUBLE_EQ(r.current_score, d.current_score);
  EXPECT_DOUBLE_EQ(r.candidate_score, d.candidate_score);
  EXPECT_EQ(r.reason, "line one line two");  // sanitized, not lost
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_EQ(r.candidates[0].op, OpKind::kSplit);
  EXPECT_TRUE(r.candidates[0].valid);
  EXPECT_DOUBLE_EQ(r.candidates[0].score, 101.5);
  EXPECT_EQ(r.candidates[1].op, OpKind::kMerge);
  EXPECT_FALSE(r.candidates[1].valid);
  EXPECT_EQ(r.candidates[1].rejection,
            "INVALID_ARGUMENT: domain graph has a cycle");
}

// Two domains bridged by a router; traffic crossing both.
domains::MomConfig TwoDomainChain() {
  domains::MomConfig config;
  for (std::uint16_t s = 0; s < 5; ++s) config.servers.push_back(ServerId(s));
  config.domains.push_back(
      {DomainId(0), {ServerId(0), ServerId(1), ServerId(2)}});
  config.domains.push_back(
      {DomainId(1), {ServerId(2), ServerId(3), ServerId(4)}});
  return config;
}

// Every hop is priced at the s^2 entries of its domain's full matrix
// stamp: 0 -> 4 crosses both 3-server domains (9 + 9 entries), 1 -> 2
// stays in D0 (9); the standing clock cost is 9 per domain.
TEST(ScorerTest, StampRateIsSSquaredPerHop) {
  domains::TrafficProfile traffic(5);
  traffic.set(0, 4, 10.0);
  traffic.set(1, 2, 5.0);
  auto score = ScoreConfig(TwoDomainChain(), traffic);
  ASSERT_TRUE(score.ok()) << score.status().to_string();
  EXPECT_DOUBLE_EQ(score.value().stamp_rate, 10.0 * 18 + 5.0 * 9);
  EXPECT_DOUBLE_EQ(score.value().clock_cost, 18.0);
  EXPECT_DOUBLE_EQ(score.value().router_load, 10.0);
  const ScorerOptions options;
  EXPECT_DOUBLE_EQ(score.value().route_cost,
                   10.0 * (2 * options.cost.per_hop_fixed +
                           options.cost.per_entry * 18) +
                       5.0 * (options.cost.per_hop_fixed +
                              options.cost.per_entry * 9));
}

TEST(ScorerTest, TrafficOutsideTheConfigIsSkippedNotFatal) {
  domains::TrafficProfile traffic(9);
  traffic.set(0, 4, 3.0);
  traffic.set(0, 8, 50.0);  // server 8 is not in the config
  traffic.set(8, 1, 50.0);
  auto score = ScoreConfig(TwoDomainChain(), traffic);
  ASSERT_TRUE(score.ok()) << score.status().to_string();
  EXPECT_GT(score.value().route_cost, 0);

  domains::TrafficProfile known_only(5);
  known_only.set(0, 4, 3.0);
  auto baseline = ScoreConfig(TwoDomainChain(), known_only);
  ASSERT_TRUE(baseline.ok());
  EXPECT_DOUBLE_EQ(score.value().route_cost, baseline.value().route_cost);
}

TEST(SplitterEdgeTest, SingleServerProfileYieldsOneSingletonDomain) {
  domains::TrafficProfile traffic(1);
  auto config = domains::DomainSplitter::Split(traffic, {});
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  ASSERT_EQ(config.value().domains.size(), 1u);
  EXPECT_EQ(config.value().domains[0].members.size(), 1u);
  EXPECT_TRUE(domains::Deployment::Create(config.value()).ok());
}

TEST(SplitterEdgeTest, ZeroTrafficProfileStillValidates) {
  domains::TrafficProfile traffic(7);  // nobody talks to anybody
  domains::SplitterOptions options;
  options.max_domain_size = 3;
  auto config = domains::DomainSplitter::Split(traffic, options);
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  auto deployment = domains::Deployment::Create(config.value());
  ASSERT_TRUE(deployment.ok()) << deployment.status().to_string();
  // Every server is placed exactly once as an own member.
  EXPECT_EQ(config.value().servers.size(), 7u);
}

// CostEstimator applies the same per-hop model as the scorer, so on
// the same config and traffic the two agree exactly.
TEST(SplitterEdgeTest, CostEstimatorMatchesTheScorerRouteCost) {
  domains::TrafficProfile traffic(5);
  traffic.set(0, 4, 10.0);
  traffic.set(3, 1, 4.0);
  auto estimate = domains::CostEstimator::Estimate(TwoDomainChain(), traffic);
  ASSERT_TRUE(estimate.ok());
  auto score = ScoreConfig(TwoDomainChain(), traffic);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(estimate.value(), score.value().route_cost);
  const domains::CostParams params;
  EXPECT_DOUBLE_EQ(estimate.value(),
                   14.0 * (2 * params.per_hop_fixed + params.per_entry * 18));
}

// When every candidate scores worse than the bar the controller must
// hold steady: many windows of live uniform traffic, zero epochs.
TEST(AutopilotTest, AllCandidatesWorseMeansDoNothing) {
  domains::MomConfig config = domains::topologies::Daisy(4, 3);
  workload::ThreadedHarness harness(config);
  ASSERT_TRUE(harness
                  .Init([](ServerId, mom::AgentServer& server) {
                    server.AttachAgent(
                        0, std::make_unique<workload::SinkAgent>());
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  AutopilotOptions options;
  options.min_improvement = 0.9;  // nothing clears a 90% bar
  Autopilot pilot(&harness, config, 0, options);

  Rng rng(7);
  const auto& servers = config.servers;
  for (int w = 0; w < 5; ++w) {
    for (int s = 0; s < 80; ++s) {
      const ServerId from = servers[rng.NextBelow(servers.size())];
      const ServerId to = servers[rng.NextBelow(servers.size())];
      if (from == to) continue;
      (void)harness.Send(from, 0, to, 0, "bg");
    }
    harness.WaitQuiescent();
    const Decision d = pilot.Tick();
    EXPECT_TRUE(d.verdict == Verdict::kNoCandidate ||
                d.verdict == Verdict::kBelowThreshold)
        << "window " << d.window << ": " << VerdictName(d.verdict) << " ("
        << d.reason << ")";
  }
  EXPECT_EQ(pilot.epochs_taken(), 0u);
  EXPECT_EQ(pilot.epoch(), 0u);
  EXPECT_EQ(pilot.aborts(), 0u);
  harness.HaltAll();
}

}  // namespace
}  // namespace cmom::autopilot
