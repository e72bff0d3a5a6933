#include "autopilot/scorer.h"

#include <algorithm>

#include "domains/deployment.h"

namespace cmom::autopilot {

Result<DeploymentScore> ScoreConfig(const domains::MomConfig& config,
                                    const domains::TrafficProfile& traffic,
                                    const ScorerOptions& options) {
  auto deployment = domains::Deployment::Create(config);
  if (!deployment.ok()) return deployment.status();
  const domains::Deployment& d = deployment.value();

  DeploymentScore score;
  for (const auto& domain : d.domains()) {
    const double s = static_cast<double>(domain.size());
    score.clock_cost += s * s;
  }

  const std::size_t n = traffic.server_count();
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const double weight = traffic.at(from, to);
      if (weight <= 0 || from == to) continue;
      ServerId at(static_cast<std::uint16_t>(from));
      const ServerId dest(static_cast<std::uint16_t>(to));
      // Traffic between servers the config no longer (or does not yet)
      // know is invisible to this topology; skip it rather than fail.
      if (std::find(config.servers.begin(), config.servers.end(), at) ==
              config.servers.end() ||
          std::find(config.servers.begin(), config.servers.end(), dest) ==
              config.servers.end()) {
        continue;
      }
      double route_cost = 0;
      double stamp_entries = 0;
      std::size_t hops = 0;
      while (at != dest) {
        const ServerId hop = d.routing().NextHop(at, dest);
        auto link = d.LinkDomainIndex(at, hop);
        if (!link.ok()) return link.status();
        const double s = static_cast<double>(d.domain(link.value()).size());
        const double hop_entries = s * s;
        route_cost += options.cost.per_hop_fixed +
                      options.cost.per_entry * hop_entries;
        stamp_entries += hop_entries;
        at = hop;
        ++hops;
      }
      score.route_cost += weight * route_cost;
      score.stamp_rate += weight * stamp_entries;
      if (hops > 1) {
        score.router_load += weight * static_cast<double>(hops - 1);
      }
    }
  }
  return score;
}

}  // namespace cmom::autopilot
