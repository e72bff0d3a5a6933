// Tests for the experiment drivers and the least-squares fits that the
// figure benches report.
#include "workload/experiments.h"

#include <gtest/gtest.h>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/fit.h"

namespace cmom::workload {
namespace {

TEST(Fit, LinearDataFitsLinearExactly) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {3, 5, 7, 9, 11};  // y = 1 + 2x
  const FitResult fit = FitLinear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.Evaluate(10), 21.0, 1e-9);
}

TEST(Fit, QuadraticDataFitsQuadraticExactly) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(4 + 0.5 * v * v);
  const FitResult fit = FitQuadratic(x, y);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-9);
  EXPECT_NEAR(fit.slope, 0.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, QuadraticDataPrefersQuadraticModel) {
  std::vector<double> x = {10, 20, 30, 40, 50};
  std::vector<double> y;
  for (double v : x) y.push_back(50 + 0.06 * v * v);
  EXPECT_GT(FitQuadratic(x, y).r_squared, FitLinear(x, y).r_squared);
}

TEST(Fit, LinearDataPrefersLinearModel) {
  std::vector<double> x = {10, 20, 30, 40, 50, 100, 150};
  std::vector<double> y;
  for (double v : x) y.push_back(160 + 0.4 * v);
  EXPECT_GT(FitLinear(x, y).r_squared, FitQuadratic(x, y).r_squared);
}

TEST(Fit, ConstantDataHasZeroSlope) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {5, 5, 5};
  const FitResult fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);  // degenerate: defined as 1
}

TEST(Experiments, PingPongReportsCostCounters) {
  ExperimentOptions options;
  options.rounds = 5;
  auto result = RunPingPong(domains::topologies::Flat(4), ServerId(0),
                            ServerId(3), options);
  ASSERT_TRUE(result.ok()) << result.status();
  const ExperimentResult& r = result.value();
  EXPECT_EQ(r.servers, 4u);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_GT(r.avg_rtt_ms, 0.0);
  EXPECT_GE(r.max_rtt_ms, r.min_rtt_ms);
  EXPECT_GT(r.wire_bytes, 0u);
  EXPECT_GT(r.stamp_bytes, 0u);
  EXPECT_GT(r.disk_bytes, 0u);
  EXPECT_GT(r.sim_events, 0u);
}

TEST(Experiments, LocalPingPongNeedsNoWireTraffic) {
  ExperimentOptions options;
  options.rounds = 5;
  auto result = RunPingPong(domains::topologies::Flat(3), ServerId(0),
                            ServerId(0), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().wire_frames, 0u);
  EXPECT_GT(result.value().avg_rtt_ms, 0.0);
}

TEST(Experiments, FullMatrixStampsCostMoreWireBytesThanUpdates) {
  ExperimentOptions options;
  options.rounds = 5;
  auto full = RunPingPong(
      domains::topologies::Flat(12, clocks::StampMode::kFullMatrix),
      ServerId(0), ServerId(11), options);
  auto updates = RunPingPong(
      domains::topologies::Flat(12, clocks::StampMode::kUpdates),
      ServerId(0), ServerId(11), options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(updates.ok());
  EXPECT_GT(full.value().stamp_bytes, 10 * updates.value().stamp_bytes);
}

TEST(Experiments, DomainRunBeatsFlatRunAtScale) {
  // The Figure 11 claim at one point: n = 64.
  ExperimentOptions options;
  options.rounds = 3;
  auto flat = RunPingPong(
      domains::topologies::Flat(64, clocks::StampMode::kFullMatrix),
      ServerId(0), ServerId(63), options);
  auto bus = RunPingPong(domains::topologies::Bus(8, 8), ServerId(0),
                         ServerId(63), options);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(bus.ok());
  EXPECT_LT(bus.value().avg_rtt_ms, flat.value().avg_rtt_ms);
}

TEST(Experiments, BroadcastScalesWithServerCount) {
  ExperimentOptions options;
  options.rounds = 2;
  auto small = RunBroadcast(domains::topologies::Flat(5), ServerId(0),
                            options);
  auto large = RunBroadcast(domains::topologies::Flat(15), ServerId(0),
                            options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large.value().avg_rtt_ms, small.value().avg_rtt_ms);
}

}  // namespace
}  // namespace cmom::workload
