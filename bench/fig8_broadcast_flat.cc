// Figure 8: broadcast WITHOUT domains of causality.
//
// One global domain; the main agent on S0 sends a ping to every other
// server each round and waits for all pongs.  The paper measured 636 ms
// (n=10) up to 25.3 s (n=90): the sender serializes n-1 stampings per
// round, each with O(n^2) timestamp/persistence cost, so the round time
// grows superlinearly.
#include <cstdio>
#include <vector>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/experiments.h"

using namespace cmom;

int main() {
  const std::vector<std::pair<std::size_t, double>> paper = {
      {10, 636},  {20, 1382}, {30, 2771},  {40, 4187},
      {50, 6613}, {60, 8933}, {90, 25323}};

  workload::ExperimentOptions options;
  options.rounds = 3;  // deterministic simulation: rounds are identical

  std::vector<workload::SeriesPoint> series;
  for (auto [n, paper_ms] : paper) {
    auto config =
        domains::topologies::Flat(n, clocks::StampMode::kFullMatrix);
    auto result = workload::RunBroadcast(config, ServerId(0), options);
    if (!result.ok()) {
      std::fprintf(stderr, "n=%zu failed: %s\n", n,
                   result.status().to_string().c_str());
      return 1;
    }
    series.push_back({n, result.value().avg_rtt_ms, paper_ms});
  }
  workload::PrintSeries("Figure 8: broadcast, no domains (flat matrix clock)",
                        series);
  std::printf(
      "\nExpected shape: strongly superlinear growth (the paper overlays a\n"
      "quadratic fit; the 60->90 jump in both series is steeper still).\n");
  return 0;
}
