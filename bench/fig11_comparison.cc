// Figure 11: remote unicast cost WITH vs WITHOUT domains of causality.
//
// Reruns the Figure 7 series (flat, classical full-matrix algorithm)
// and the Figure 10 series (bus of sqrt(n) domains) over the same range
// of n and prints them side by side.  The paper's chart shows the flat
// series exploding quadratically past the domain series, which stays
// flat; the crossover sits at a few tens of servers.
#include <cmath>
#include <cstdio>
#include <vector>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/experiments.h"

using namespace cmom;

int main() {
  const std::vector<std::size_t> sizes = {10, 20, 30, 40, 50, 60, 90, 120, 150};

  workload::ExperimentOptions options;
  options.rounds = 10;

  std::printf("Figure 11: remote unicast, with vs without domains\n");
  std::printf("%10s %22s %22s\n", "servers", "WITH domains (ms)",
              "WITHOUT domains (ms)");
  double crossover_before = -1;
  bool domains_won = false;
  for (std::size_t n : sizes) {
    const std::size_t s = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    auto with_config = domains::topologies::BusForServerCount(n, s);
    const std::size_t actual = with_config.servers.size();
    auto with_domains = workload::RunPingPong(
        with_config, ServerId(0),
        ServerId(static_cast<std::uint16_t>(actual - 1)), options);

    auto flat_config =
        domains::topologies::Flat(actual, clocks::StampMode::kFullMatrix);
    auto without_domains = workload::RunPingPong(
        flat_config, ServerId(0),
        ServerId(static_cast<std::uint16_t>(actual - 1)), options);

    if (!with_domains.ok() || !without_domains.ok()) {
      std::fprintf(stderr, "n=%zu failed\n", n);
      return 1;
    }
    std::printf("%10zu %22.2f %22.2f\n", actual,
                with_domains.value().avg_rtt_ms,
                without_domains.value().avg_rtt_ms);
    if (!domains_won && with_domains.value().avg_rtt_ms <
                            without_domains.value().avg_rtt_ms) {
      domains_won = true;
      crossover_before = static_cast<double>(actual);
    }
  }
  if (domains_won) {
    std::printf(
        "\nDomains win from ~%g servers on (the paper's chart shows the\n"
        "same crossover at a few tens of servers; beyond it the flat\n"
        "series grows quadratically while the domain series stays flat).\n",
        crossover_before);
  } else {
    std::printf("\nWARNING: domain series never beat the flat series.\n");
  }
  return 0;
}
