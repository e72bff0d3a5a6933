#include "domains/splitter.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "domains/deployment.h"

namespace cmom::domains {

double TrafficProfile::Total() const {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

namespace {

// Disjoint-set union for Kruskal.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

struct Edge {
  std::size_t a;
  std::size_t b;
  double weight;
};

// Maximum-weight spanning tree (forest edges always exist because we
// consider every pair; zero-weight edges connect silent servers).
std::vector<std::vector<std::size_t>> MaxSpanningTree(
    const TrafficProfile& traffic) {
  const std::size_t n = traffic.server_count();
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      edges.push_back(Edge{a, b, traffic.Between(a, b)});
    }
  }
  // Heaviest first; deterministic tie-break by (a, b).
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  Dsu dsu(n);
  std::vector<std::vector<std::size_t>> adjacency(n);
  for (const Edge& edge : edges) {
    if (dsu.Union(edge.a, edge.b)) {
      adjacency[edge.a].push_back(edge.b);
      adjacency[edge.b].push_back(edge.a);
    }
  }
  return adjacency;
}

}  // namespace

Result<MomConfig> DomainSplitter::Split(const TrafficProfile& traffic,
                                        const SplitterOptions& options) {
  const std::size_t n = traffic.server_count();
  if (n == 0) return Status::InvalidArgument("no servers in profile");
  if (options.max_domain_size == 0) {
    return Status::InvalidArgument("max_domain_size must be positive");
  }

  MomConfig config;
  config.stamp_mode = options.stamp_mode;
  for (std::size_t i = 0; i < n; ++i) {
    config.servers.push_back(ServerId(static_cast<std::uint16_t>(i)));
  }
  if (n <= options.max_domain_size) {
    config.domains.push_back(DomainSpec{DomainId(0), config.servers});
    return config;
  }

  const auto tree = MaxSpanningTree(traffic);

  // Post-order packing: each node merges its children's pending sets
  // and emits a cluster whenever the pending set reaches the size cap.
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<std::size_t> cluster_of(n, static_cast<std::size_t>(-1));
  std::vector<std::size_t> parent(n, static_cast<std::size_t>(-1));

  std::vector<std::vector<std::size_t>> pending(n);
  // Iterative post-order DFS from node 0 (the tree is connected).
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (node, from)
  std::vector<std::size_t> order;
  stack.emplace_back(0, static_cast<std::size_t>(-1));
  while (!stack.empty()) {
    auto [node, from] = stack.back();
    stack.pop_back();
    parent[node] = from;
    order.push_back(node);
    for (std::size_t next : tree[node]) {
      if (next != from) stack.emplace_back(next, node);
    }
  }
  auto emit = [&](std::vector<std::size_t>& members) {
    const std::size_t index = clusters.size();
    for (std::size_t member : members) cluster_of[member] = index;
    clusters.push_back(std::move(members));
    members = {};
  };
  // Reverse pre-order = children before parents.  Each node gathers the
  // still-pending sets its children handed up, emits itself when full,
  // and otherwise hands its own set up -- where the parent either
  // merges it (if the cap allows, reserving a slot for the parent
  // itself) or emits it as a finished cluster.  Every pending set is a
  // connected subtree containing its top node, so every emitted
  // cluster is connected and has exactly one tree edge leaving it
  // upward; the contracted cluster graph is therefore a tree.
  const std::size_t cap = options.max_domain_size;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t node = *it;
    pending[node].push_back(node);
    if (parent[node] == static_cast<std::size_t>(-1)) {
      emit(pending[node]);  // root: flush the remainder
    } else if (pending[node].size() >= cap) {
      emit(pending[node]);
    } else {
      auto& up = pending[parent[node]];
      if (up.size() + pending[node].size() + 1 > cap) {
        emit(pending[node]);  // parent side is too full already
      } else {
        up.insert(up.end(), pending[node].begin(), pending[node].end());
        pending[node].clear();
      }
    }
  }

  // Clusters become domains; each tree edge crossing clusters makes the
  // parent-side endpoint a router in the child-side cluster.
  std::vector<std::vector<ServerId>> members(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t server : clusters[c]) {
      members[c].push_back(ServerId(static_cast<std::uint16_t>(server)));
    }
  }
  for (std::size_t node = 0; node < n; ++node) {
    const std::size_t up = parent[node];
    if (up == static_cast<std::size_t>(-1)) continue;
    if (cluster_of[node] == cluster_of[up]) continue;
    const ServerId router(static_cast<std::uint16_t>(up));
    auto& child_members = members[cluster_of[node]];
    if (std::find(child_members.begin(), child_members.end(), router) ==
        child_members.end()) {
      child_members.push_back(router);
    }
  }
  for (std::size_t c = 0; c < members.size(); ++c) {
    config.domains.push_back(
        DomainSpec{DomainId(static_cast<std::uint16_t>(c)),
                   std::move(members[c])});
  }
  return config;
}

MomConfig DomainSplitter::NaiveSplit(std::size_t server_count,
                                     const SplitterOptions& options) {
  assert(options.max_domain_size > 0);
  MomConfig config;
  config.stamp_mode = options.stamp_mode;
  for (std::size_t i = 0; i < server_count; ++i) {
    config.servers.push_back(ServerId(static_cast<std::uint16_t>(i)));
  }
  if (server_count <= options.max_domain_size) {
    config.domains.push_back(DomainSpec{DomainId(0), config.servers});
    return config;
  }
  DomainSpec backbone{DomainId(0), {}};
  std::uint16_t next_domain = 1;
  for (std::size_t start = 0; start < server_count;
       start += options.max_domain_size) {
    DomainSpec domain{DomainId(next_domain++), {}};
    for (std::size_t i = start;
         i < std::min(server_count, start + options.max_domain_size); ++i) {
      domain.members.push_back(ServerId(static_cast<std::uint16_t>(i)));
    }
    backbone.members.push_back(domain.members.front());
    config.domains.push_back(std::move(domain));
  }
  config.domains.insert(config.domains.begin(), std::move(backbone));
  return config;
}

Result<double> CostEstimator::Estimate(const MomConfig& config,
                                       const TrafficProfile& traffic,
                                       const Params& params) {
  auto deployment = Deployment::Create(config);
  if (!deployment.ok()) return deployment.status();
  const Deployment& d = deployment.value();

  double total = 0;
  const std::size_t n = traffic.server_count();
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const double weight = traffic.at(from, to);
      if (weight <= 0 || from == to) continue;
      ServerId at(static_cast<std::uint16_t>(from));
      const ServerId dest(static_cast<std::uint16_t>(to));
      double route_cost = 0;
      while (at != dest) {
        const ServerId hop = d.routing().NextHop(at, dest);
        auto link = d.LinkDomainIndex(at, hop);
        if (!link.ok()) return link.status();
        const double s = static_cast<double>(d.domain(link.value()).size());
        route_cost += params.per_hop_fixed + params.per_entry * s * s;
        at = hop;
      }
      total += weight * route_cost;
    }
  }
  return total;
}

}  // namespace cmom::domains
