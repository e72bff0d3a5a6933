// The chaos soak: a deterministic seeded fault schedule (crashes,
// partitions, storage faults that fail-stop their victim, consumer
// throttling) driven against live overload traffic, with the full
// oracle at the end and a CHAOS_soak.json SLO report emitted for CI.
//
// Replay any failure with the seed this test prints:
//   CMOM_SEED=<seed> ctest -R ChaosSoak
#include <gtest/gtest.h>

#include <cstdio>

#include "chaos/orchestrator.h"
#include "common/seed.h"

namespace cmom {
namespace {

TEST(ChaosSoak, ScheduledFaultsLeaveEveryInvariantGreen) {
  chaos::ChaosSoakOptions options;
  options.seed = SeedFromEnv(20260809, "chaos_soak_test");
  options.duration_ms = 2500;
  options.report_path = "CHAOS_soak.json";

  auto result = chaos::RunChaosSoak(options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const chaos::SoakReport& report = result.value();

  // The schedule must have actually injected chaos; a soak that ran
  // clean proves nothing.
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GT(report.restarts, 0u);
  EXPECT_GT(report.partitions, 0u);
  EXPECT_EQ(report.partitions, report.heals);
  EXPECT_GT(report.store_faults_armed, 0u);
  EXPECT_GT(report.frames_partitioned, 0u);
  EXPECT_GT(report.messages_accepted, 100u);

  // Invariants, individually for readable failures.
  EXPECT_TRUE(report.causal) << report.first_violation;
  EXPECT_TRUE(report.exactly_once);
  EXPECT_TRUE(report.zero_loss)
      << "sent " << report.messages_sent << " delivered "
      << report.messages_delivered;
  EXPECT_TRUE(report.bounded_backlog)
      << "consumer peak " << report.peak_consumer_backlog << " (bound "
      << report.consumer_backlog_bound << "), router peak "
      << report.peak_router_backlog << " (bound "
      << report.router_backlog_bound << ")";
  EXPECT_TRUE(report.ok());

  // Latency was measured through the storm.
  EXPECT_GT(report.latency_samples, 0u);
  EXPECT_GE(report.latency_p99_ms, report.latency_p50_ms);

  std::printf("chaos soak: seed=%llu accepted=%llu sent=%llu p50=%.2fms "
              "p99=%.2fms crashes=%llu partitions=%llu store_faults=%llu "
              "fail_stops=%llu\n",
              static_cast<unsigned long long>(report.seed),
              static_cast<unsigned long long>(report.messages_accepted),
              static_cast<unsigned long long>(report.messages_sent),
              report.latency_p50_ms, report.latency_p99_ms,
              static_cast<unsigned long long>(report.crashes),
              static_cast<unsigned long long>(report.partitions),
              static_cast<unsigned long long>(report.store_faults_injected),
              static_cast<unsigned long long>(report.fail_stops));
}

}  // namespace
}  // namespace cmom
