// Chaos soak orchestrator.
//
// Runs the overload topology (two producer-edge domains funneling
// through one router into a consumer domain) under sustained traffic
// while a deterministic seeded fault schedule crashes and restarts
// servers, partitions and heals the network, arms storage faults that
// fail-stop their victim, and throttles the consumer.  Producers embed
// send timestamps in payloads so the consumer measures end-to-end
// delivery latency through the storm.
//
// After the schedule closes, the orchestrator heals everything (every
// partition removed, every store fault disarmed, every crashed or
// fail-stopped server restarted), drains the bus to quiescence, and
// runs the offline oracle: causal delivery, exactly-once, zero loss,
// and bounded backlog.  The verdicts plus latency percentiles and
// fault counters come back as a SoakReport (optionally written as
// CHAOS_soak.json).
#pragma once

#include <cstdint>
#include <string>

#include "chaos/report.h"
#include "chaos/schedule.h"
#include "common/status.h"

namespace cmom::chaos {

struct ChaosSoakOptions {
  // Master seed: schedule, network faults and store faults all derive
  // from it.  Replay a failing soak with CMOM_SEED=<seed>.
  std::uint64_t seed = 1;
  std::uint64_t duration_ms = 2500;
  // Fault schedule shape (targets and cuts are fixed by the topology).
  std::size_t crash_count = 2;
  std::size_t partition_count = 2;
  std::size_t store_fault_count = 1;
  std::size_t slow_consumer_count = 1;
  std::uint64_t min_outage_ms = 100;
  std::uint64_t max_outage_ms = 400;
  // Consumer service time, nominal and throttled.
  std::uint64_t base_service_us = 100;
  std::uint64_t slow_service_us = 1500;
  // Pause between a producer's sends (0 = offer as fast as the
  // admission layer accepts).
  std::uint64_t producer_gap_us = 50;
  // When non-empty, the report is also written here as JSON.
  std::string report_path;
};

// Runs one soak.  A non-ok status means the soak could not run (setup
// failure); invariant violations are reported in SoakReport, not here.
[[nodiscard]] Result<SoakReport> RunChaosSoak(const ChaosSoakOptions& options);

}  // namespace cmom::chaos
