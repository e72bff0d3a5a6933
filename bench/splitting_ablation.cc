// Future-work ablation (Section 7): traffic-aware domain splitting vs
// the traffic-oblivious index-order bus.
//
// Workload: 24 servers in 6 communities of 4; servers talk mostly to
// their own community (the locality assumption of [9]/[19] that the
// paper cites).  Community membership is scattered across server ids,
// so the naive index-chop split separates communities while the
// optimizer's maximum-spanning-tree clustering reunites them.
//
// Reported per strategy: the Section 6.2 analytic cost, the simulated
// makespan of replaying 600 messages drawn from the profile (the time
// of the last delivery), and total wire bytes.
#include <cstdio>
#include <vector>

#include "domains/deployment.h"
#include "domains/splitter.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

using namespace cmom;

namespace {

constexpr std::size_t kServers = 24;
constexpr std::size_t kCommunities = 6;
constexpr std::size_t kMessages = 600;

std::size_t CommunityOf(std::size_t server) { return server % kCommunities; }

domains::TrafficProfile MakeProfile() {
  domains::TrafficProfile traffic(kServers);
  for (std::size_t a = 0; a < kServers; ++a) {
    for (std::size_t b = 0; b < kServers; ++b) {
      if (a == b) continue;
      traffic.set(a, b, CommunityOf(a) == CommunityOf(b) ? 50.0 : 0.4);
    }
  }
  return traffic;
}

struct RunResult {
  double analytic_cost = 0;
  double makespan_ms = 0;
  std::uint64_t wire_bytes = 0;
};

RunResult Replay(const domains::MomConfig& config,
                 const domains::TrafficProfile& traffic) {
  RunResult result;
  result.analytic_cost =
      domains::CostEstimator::Estimate(config, traffic).value_or(-1);

  workload::SimHarnessOptions options;
  options.simulate_processing_costs = true;
  workload::SimHarness harness(config, options);
  std::vector<workload::SinkAgent*> sinks(kServers, nullptr);
  Status init = harness.Init([&](ServerId id, mom::AgentServer& server) {
    auto sink = std::make_unique<workload::SinkAgent>();
    sinks[id.value()] = sink.get();
    server.AttachAgent(1, std::move(sink));
  });
  if (!init.ok() || !harness.BootAll().ok()) {
    std::fprintf(stderr, "setup failed\n");
    return result;
  }

  // Deterministic sample of the profile.
  Rng rng(42);
  const double total = traffic.Total();
  std::vector<std::uint64_t> expected(kServers, 0);
  for (std::size_t i = 0; i < kMessages; ++i) {
    double target = rng.NextDouble() * total;
    std::size_t from = 0, to = 1;
    for (std::size_t a = 0; a < kServers && target > 0; ++a) {
      for (std::size_t b = 0; b < kServers; ++b) {
        target -= traffic.at(a, b);
        if (target <= 0) {
          from = a;
          to = b;
          break;
        }
      }
    }
    if (harness
            .Send(ServerId(static_cast<std::uint16_t>(from)), 1,
                  ServerId(static_cast<std::uint16_t>(to)), 1, "m")
            .ok()) {
      ++expected[to];
    }
  }
  // Step until every sink has its messages: draining the simulator
  // would also run the retransmission timers still pending after the
  // last delivery and inflate the makespan.
  auto delivered = [&] {
    for (std::size_t s = 0; s < kServers; ++s) {
      if (sinks[s]->received() < expected[s]) return false;
    }
    return true;
  };
  while (!delivered() && harness.simulator().Step()) {}
  result.makespan_ms = sim::ToMilliseconds(harness.simulator().now());
  harness.Run();
  result.wire_bytes = harness.network().bytes_sent();
  return result;
}

}  // namespace

int main() {
  const domains::TrafficProfile traffic = MakeProfile();
  domains::SplitterOptions options;
  options.max_domain_size = 4;

  auto naive = domains::DomainSplitter::NaiveSplit(kServers, options);
  auto optimized =
      domains::DomainSplitter::Split(traffic, options).value();

  const RunResult naive_run = Replay(naive, traffic);
  const RunResult optimized_run = Replay(optimized, traffic);

  std::printf("Domain-splitting ablation (24 servers, 6 communities)\n");
  std::printf("%-22s %16s %16s %14s\n", "strategy", "analytic cost",
              "makespan (ms)", "wire bytes");
  std::printf("%-22s %16.1f %16.1f %14llu\n", "naive index bus",
              naive_run.analytic_cost, naive_run.makespan_ms,
              static_cast<unsigned long long>(naive_run.wire_bytes));
  std::printf("%-22s %16.1f %16.1f %14llu\n", "traffic-aware split",
              optimized_run.analytic_cost, optimized_run.makespan_ms,
              static_cast<unsigned long long>(optimized_run.wire_bytes));
  std::printf(
      "\nExpected: the traffic-aware split keeps most messages inside one\n"
      "domain (one hop, small clock), cutting all three columns well\n"
      "below the naive split, which scatters communities across leaves.\n");
  return optimized_run.makespan_ms < naive_run.makespan_ms ? 0 : 1;
}
