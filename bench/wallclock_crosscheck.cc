// Wall-clock cross-check of the simulator's central claim.
//
// Everything elsewhere is measured in simulated time; here the same
// ping-pong runs on the REAL threaded transport with real agent
// servers doing real work (stamping, serialization, in-memory commits
// of the persistent image).  The absolute numbers depend on this
// machine, but the shape must match the simulation: the flat
// full-matrix configuration degrades with n (its per-message work is
// O(n^2) real CPU), while the bus-of-domains stays near-flat.
#include <cstdio>
#include <vector>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/metrics.h"
#include "workload/threaded_harness.h"

using namespace cmom;

namespace {

// Returns mean wall-clock RTT (microseconds) of `rounds` ping-pongs
// between the first and last server of `config`.
double MeasureWallClock(const domains::MomConfig& config,
                        std::size_t rounds) {
  workload::ThreadedHarness harness(config);
  workload::PingPongDriver* driver = nullptr;
  const ServerId last = config.servers.back();
  Status status =
      harness.Init([&](ServerId id, mom::AgentServer& server) {
        if (id == ServerId(0)) {
          auto agent = std::make_unique<workload::PingPongDriver>(
              AgentId{last, 1}, rounds);
          driver = agent.get();
          server.AttachAgent(2, std::move(agent));
        }
        if (id == last) {
          server.AttachAgent(1, std::make_unique<workload::EchoAgent>());
        }
      });
  if (!status.ok() || !harness.BootAll().ok()) return -1;
  (void)harness.Send(ServerId(0), 2, ServerId(0), 2, workload::kStart);
  harness.WaitQuiescent();
  if (driver == nullptr || !driver->done()) return -1;

  // Drop the first quarter as warm-up, average the rest.
  const auto& rtts = driver->round_trip_ns();
  std::uint64_t total = 0;
  const std::size_t skip = rtts.size() / 4;
  for (std::size_t i = skip; i < rtts.size(); ++i) total += rtts[i];
  return static_cast<double>(total) /
         static_cast<double>(rtts.size() - skip) / 1000.0;
}

}  // namespace

int main() {
  const std::size_t rounds = 300;
  std::printf(
      "Wall-clock cross-check (real threads, this machine, %zu rounds)\n",
      rounds);
  std::printf("%10s %22s %22s\n", "servers", "flat full-matrix (us)",
              "bus of domains (us)");
  struct Row {
    std::size_t n, k, s;
  };
  for (Row row : {Row{16, 4, 4}, Row{36, 6, 6}, Row{64, 8, 8},
                  Row{100, 10, 10}}) {
    const double flat = MeasureWallClock(
        domains::topologies::Flat(row.n, clocks::StampMode::kFullMatrix),
        rounds);
    const double bus =
        MeasureWallClock(domains::topologies::Bus(row.k, row.s), rounds);
    std::printf("%10zu %22.1f %22.1f\n", row.n, flat, bus);
  }
  std::printf(
      "\nExpected shape (absolute values are machine-dependent): the flat\n"
      "column grows superlinearly with n -- real O(n^2) stamp and commit\n"
      "work per message -- while the domain column stays near-flat, as in\n"
      "the simulated Figure 11.\n");
  return 0;
}
