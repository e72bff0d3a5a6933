// Section 6.1, first series: unicast on the LOCAL server.
//
// The main agent ping-pongs against an echo agent on its own server, so
// no frame crosses the network and no causal stamp is produced -- only
// engine dispatch and the transactional commits.  The paper reports
// this series as near-constant in n (full data in [16]); here it
// documents that the local path is independent of both the number of
// servers and the domain organization.
#include <cmath>
#include <cstdio>
#include <vector>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/experiments.h"

using namespace cmom;

int main() {
  const std::vector<std::size_t> sizes = {10, 20, 30, 40, 50};
  workload::ExperimentOptions options;
  options.rounds = 10;

  std::vector<workload::SeriesPoint> flat_series;
  std::vector<workload::SeriesPoint> domain_series;
  for (std::size_t n : sizes) {
    auto flat =
        workload::RunPingPong(domains::topologies::Flat(
                                  n, clocks::StampMode::kFullMatrix),
                              ServerId(0), ServerId(0), options);
    const std::size_t s = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    auto bus_config = domains::topologies::BusForServerCount(n, s);
    auto bus = workload::RunPingPong(bus_config, ServerId(0), ServerId(0),
                                     options);
    if (!flat.ok() || !bus.ok()) {
      std::fprintf(stderr, "n=%zu failed\n", n);
      return 1;
    }
    flat_series.push_back({n, flat.value().avg_rtt_ms, -1});
    domain_series.push_back(
        {bus_config.servers.size(), bus.value().avg_rtt_ms, -1});
  }
  workload::PrintSeries("Local unicast, no domains (flat)", flat_series);
  workload::PrintSeries("Local unicast, bus of domains", domain_series);
  std::printf(
      "\nExpected shape: both series flat in n -- local delivery never\n"
      "touches a matrix clock.  (Note the flat topology still pays the\n"
      "larger persistent clock image in its commits.)\n");
  return 0;
}
