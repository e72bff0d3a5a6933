#include "domains/deployment.h"

#include <algorithm>
#include <set>
#include <utility>

namespace cmom::domains {

std::optional<DomainServerId> ResolvedDomain::LocalId(ServerId server) const {
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == server) {
      return DomainServerId(static_cast<std::uint16_t>(i));
    }
  }
  return std::nullopt;
}

Result<Deployment> Deployment::Create(MomConfig config) {
  if (config.servers.empty()) {
    return Status::InvalidArgument("no servers configured");
  }
  if (config.domains.empty()) {
    return Status::InvalidArgument("no domains configured");
  }
  {
    std::set<ServerId> unique_servers(config.servers.begin(),
                                      config.servers.end());
    if (unique_servers.size() != config.servers.size()) {
      return Status::InvalidArgument("duplicate server id");
    }
  }
  std::set<ServerId> known(config.servers.begin(), config.servers.end());
  std::set<DomainId> domain_ids;
  for (const DomainSpec& domain : config.domains) {
    if (!domain_ids.insert(domain.id).second) {
      return Status::InvalidArgument("duplicate domain id " +
                                     to_string(domain.id));
    }
    if (domain.members.empty()) {
      return Status::InvalidArgument("empty domain " + to_string(domain.id));
    }
    std::set<ServerId> unique_members;
    for (ServerId member : domain.members) {
      if (!known.contains(member)) {
        return Status::InvalidArgument(to_string(domain.id) +
                                       " references unknown server " +
                                       to_string(member));
      }
      if (!unique_members.insert(member).second) {
        return Status::InvalidArgument(to_string(domain.id) +
                                       " lists " + to_string(member) +
                                       " twice");
      }
    }
  }

  Deployment deployment;
  deployment.config_ = std::move(config);
  for (std::size_t d = 0; d < deployment.config_.domains.size(); ++d) {
    const DomainSpec& spec = deployment.config_.domains[d];
    deployment.resolved_.push_back(ResolvedDomain{spec.id, spec.members});
    for (ServerId member : spec.members) {
      deployment.memberships_[member].push_back(d);
    }
  }
  for (ServerId server : deployment.config_.servers) {
    if (!deployment.memberships_.contains(server)) {
      return Status::InvalidArgument(to_string(server) +
                                     " belongs to no domain");
    }
  }

  deployment.graph_ = DomainGraph::Build(deployment.config_);
  if (!deployment.config_.allow_cyclic_domain_graph) {
    if (auto cycle = deployment.graph_.FindCycle()) {
      return Status::FailedPrecondition(
          "domain interconnection graph is cyclic (" + *cycle +
          "); the causality theorem requires an acyclic graph");
    }
  }

  auto routing = RoutingTable::Build(deployment.config_);
  if (!routing.ok()) return routing.status();
  deployment.routing_ = std::move(routing).value();
  return deployment;
}

std::span<const std::size_t> Deployment::DomainIndicesOf(
    ServerId server) const {
  auto it = memberships_.find(server);
  if (it == memberships_.end()) return {};
  return it->second;
}

Result<std::size_t> Deployment::LinkDomainIndex(ServerId a, ServerId b) const {
  std::optional<std::size_t> best;
  for (std::size_t index : DomainIndicesOf(a)) {
    if (!resolved_[index].Contains(b)) continue;
    if (!best || resolved_[index].id < resolved_[*best].id) best = index;
  }
  if (!best) {
    return Status::NotFound("no common domain between " + to_string(a) +
                            " and " + to_string(b));
  }
  return *best;
}

}  // namespace cmom::domains
