#include "control/plan.h"

#include <algorithm>
#include <set>

#include "domains/deployment.h"

namespace cmom::control {

namespace {

const domains::DomainSpec* FindDomain(const domains::MomConfig& config,
                                      DomainId id) {
  for (const domains::DomainSpec& spec : config.domains) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

domains::DomainSpec* FindDomain(domains::MomConfig& config, DomainId id) {
  for (domains::DomainSpec& spec : config.domains) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

bool IsMember(const domains::DomainSpec& spec, ServerId server) {
  return std::find(spec.members.begin(), spec.members.end(), server) !=
         spec.members.end();
}

}  // namespace

Result<ReconfigPlan> ReconfigPlan::Build(std::uint64_t from_epoch,
                                         domains::MomConfig old_config,
                                         domains::MomConfig new_config) {
  if (new_config.stamp_mode != old_config.stamp_mode) {
    return Status::InvalidArgument(
        "stamp mode cannot change across an epoch");
  }
  // The full boot-time validation -- well-formedness, routable server
  // graph, and the Section 4.3 acyclicity precondition.  Rejecting here
  // is what keeps a bad proposal from ever touching a store.
  auto deployment = domains::Deployment::Create(new_config);
  if (!deployment.ok()) return deployment.status();

  ReconfigPlan plan;
  plan.from_epoch = from_epoch;
  plan.to_epoch = from_epoch + 1;
  plan.old_config = std::move(old_config);
  plan.new_config = std::move(new_config);
  for (const domains::DomainSpec& spec : plan.new_config.domains) {
    DomainRemap remap;
    remap.id = spec.id;
    for (std::size_t i = 0; i < plan.old_config.domains.size(); ++i) {
      if (plan.old_config.domains[i].id == spec.id) {
        remap.old_index = i;
        break;
      }
    }
    if (remap.old_index.has_value()) {
      const domains::DomainSpec& old_spec =
          plan.old_config.domains[*remap.old_index];
      remap.old_of_new.reserve(spec.members.size());
      for (ServerId member : spec.members) {
        auto it = std::find(old_spec.members.begin(), old_spec.members.end(),
                            member);
        if (it == old_spec.members.end()) {
          remap.old_of_new.emplace_back(std::nullopt);
        } else {
          remap.old_of_new.emplace_back(DomainServerId(
              static_cast<std::uint16_t>(it - old_spec.members.begin())));
        }
      }
    }
    plan.remaps.push_back(std::move(remap));
  }
  return plan;
}

std::vector<ServerId> ReconfigPlan::AllServers() const {
  std::set<ServerId> all(old_config.servers.begin(), old_config.servers.end());
  all.insert(new_config.servers.begin(), new_config.servers.end());
  return {all.begin(), all.end()};
}

Result<domains::MomConfig> AddServerToDomain(const domains::MomConfig& config,
                                             ServerId server, DomainId domain) {
  domains::MomConfig out = config;
  domains::DomainSpec* spec = FindDomain(out, domain);
  if (spec == nullptr) {
    return Status::NotFound("no domain " + to_string(domain));
  }
  if (IsMember(*spec, server)) {
    return Status::InvalidArgument(to_string(server) + " already in " +
                                   to_string(domain));
  }
  spec->members.push_back(server);
  if (std::find(out.servers.begin(), out.servers.end(), server) ==
      out.servers.end()) {
    out.servers.push_back(server);
  }
  return out;
}

Result<domains::MomConfig> RemoveServer(const domains::MomConfig& config,
                                        ServerId server) {
  domains::MomConfig out = config;
  bool found = false;
  for (domains::DomainSpec& spec : out.domains) {
    auto it = std::find(spec.members.begin(), spec.members.end(), server);
    if (it == spec.members.end()) continue;
    found = true;
    spec.members.erase(it);
    if (spec.members.empty()) {
      return Status::FailedPrecondition("removing " + to_string(server) +
                                        " empties " + to_string(spec.id));
    }
  }
  if (!found) {
    return Status::NotFound(to_string(server) + " is in no domain");
  }
  out.servers.erase(
      std::remove(out.servers.begin(), out.servers.end(), server),
      out.servers.end());
  return out;
}

Result<domains::MomConfig> SplitDomain(const domains::MomConfig& config,
                                       DomainId domain,
                                       const domains::TrafficProfile& traffic,
                                       DomainId new_id,
                                       std::size_t max_domain_size) {
  const domains::DomainSpec* target = FindDomain(config, domain);
  if (target == nullptr) {
    return Status::NotFound("no domain " + to_string(domain));
  }
  if (traffic.server_count() != target->members.size()) {
    return Status::InvalidArgument(
        "traffic profile dimension does not match domain size");
  }
  // The splitter works over dense ids 0..n-1 = positions in the member
  // list; its output clusters (with their connecting routers) map back
  // to real ServerIds one-to-one.
  domains::SplitterOptions options;
  options.max_domain_size = max_domain_size;
  options.stamp_mode = config.stamp_mode;
  auto sub = domains::DomainSplitter::Split(traffic, options);
  if (!sub.ok()) return sub.status();
  if (sub.value().domains.size() < 2) {
    return Status::FailedPrecondition(
        "split produced a single domain; lower max_domain_size");
  }

  domains::MomConfig out = config;
  std::vector<domains::DomainSpec> parts;
  std::uint16_t next_id = new_id.value();
  for (std::size_t d = 0; d < sub.value().domains.size(); ++d) {
    domains::DomainSpec part;
    part.id = d == 0 ? domain : DomainId(next_id++);
    if (d != 0 && FindDomain(config, part.id) != nullptr) {
      return Status::InvalidArgument("split id " + to_string(part.id) +
                                     " already taken");
    }
    for (ServerId dense : sub.value().domains[d].members) {
      part.members.push_back(target->members[dense.value()]);
    }
    parts.push_back(std::move(part));
  }
  auto it = std::find_if(
      out.domains.begin(), out.domains.end(),
      [&](const domains::DomainSpec& spec) { return spec.id == domain; });
  it = out.domains.erase(it);
  out.domains.insert(it, parts.begin(), parts.end());
  return out;
}

Result<domains::MomConfig> MergeDomains(const domains::MomConfig& config,
                                        DomainId a, DomainId b) {
  if (a == b) return Status::InvalidArgument("cannot merge a domain into itself");
  domains::MomConfig out = config;
  domains::DomainSpec* into = FindDomain(out, a);
  domains::DomainSpec* from = FindDomain(out, b);
  if (into == nullptr || from == nullptr) {
    return Status::NotFound("merge needs both " + to_string(a) + " and " +
                            to_string(b));
  }
  for (ServerId member : from->members) {
    if (!IsMember(*into, member)) into->members.push_back(member);
  }
  out.domains.erase(std::find_if(
      out.domains.begin(), out.domains.end(),
      [&](const domains::DomainSpec& spec) { return spec.id == b; }));
  return out;
}

Result<domains::MomConfig> PromoteRouter(const domains::MomConfig& config,
                                         ServerId server, DomainId domain) {
  bool member_somewhere = false;
  for (const domains::DomainSpec& spec : config.domains) {
    if (IsMember(spec, server)) {
      member_somewhere = true;
      break;
    }
  }
  if (!member_somewhere) {
    return Status::FailedPrecondition(
        to_string(server) + " must already serve a domain to become a router");
  }
  return AddServerToDomain(config, server, domain);
}

}  // namespace cmom::control
