// Static configuration of a domain-partitioned MOM.
//
// Mirrors the paper's deployment model (Section 5): the set of agent
// servers, the domains of causality, and which servers belong to which
// domain are fixed at boot time; routing tables are derived from them
// by shortest path.  A server belonging to two or more domains is a
// causal router-server.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "clocks/causal_core.h"
#include "common/ids.h"

namespace cmom::domains {

struct DomainSpec {
  DomainId id;
  // Member order is significant: the position of a server in this list
  // is its DomainServerId, i.e. its row/column in the domain's matrix
  // clock.
  std::vector<ServerId> members;
};

struct MomConfig {
  // All agent servers of the MOM.  ServerIds need not be contiguous.
  std::vector<ServerId> servers;
  std::vector<DomainSpec> domains;
  // Stamping algorithm: classical full matrix or Appendix-A updates.
  // Only meaningful for domains running the matrix causal core.
  clocks::StampMode stamp_mode = clocks::StampMode::kUpdates;
  // Causal-delivery core (clocks/causal_core.h) used by every domain
  // unless overridden per domain below.
  clocks::CausalCoreKind causal_core = clocks::CausalCoreKind::kMatrix;
  // Per-domain core overrides, in declaration order.
  std::vector<std::pair<DomainId, clocks::CausalCoreKind>>
      causal_core_overrides;
  // The theorem demo deliberately builds a cyclic domain graph; every
  // production configuration must keep this false so that Deployment
  // validation rejects cycles.
  bool allow_cyclic_domain_graph = false;

  // Effective core kind for one domain.
  [[nodiscard]] clocks::CausalCoreKind CoreFor(DomainId id) const {
    for (const auto& [domain, kind] : causal_core_overrides) {
      if (domain == id) return kind;
    }
    return causal_core;
  }
};

}  // namespace cmom::domains
