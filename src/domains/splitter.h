// Traffic-aware domain splitting -- the paper's future work (Section 7),
// implemented.
//
// "The division of the MOM in domains needs to be done carefully and
//  the new problem is to find an optimal splitting.  [...] it can be
//  made according to the application's topology."
//
// Given an application communication profile (a weighted traffic matrix
// between servers), DomainSplitter produces an acyclic domain
// decomposition that keeps heavily communicating servers inside one
// domain (one matrix clock, one hop) and pushes light traffic across
// router-servers:
//
//   1. build a maximum-weight spanning tree of the traffic graph, so
//      the heaviest pairs end up tree-adjacent;
//   2. partition the tree into connected clusters of at most
//      `max_domain_size` servers (post-order greedy packing);
//   3. each cluster becomes a domain; for every tree edge crossing two
//      clusters, the parent-side endpoint also joins the child cluster
//      as the causal router-server.
//
// Contracting a tree yields a tree, so the resulting domain
// interconnection graph is acyclic by construction -- the theorem's
// precondition holds for every output, which a Deployment::Create call
// re-verifies.
//
// CostEstimator mirrors the Section 6.2 analytic model: a message
// crossing hops h_1..h_k, where hop h_i travels in a domain of size
// s_i, costs  sum_i (per_hop_fixed + per_entry * stamp(s_i)); stamp()
// is the per-core stamp cost (s^2 matrix, O(1) hybrid per
// clocks::CausalCoreStampCost) of the core that domain runs, so a
// hybrid domain is not priced at full-matrix cost.  The expected
// system cost is the traffic-weighted sum over all pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "domains/config.h"

namespace cmom::domains {

// Messages-per-unit-time between ordered server pairs.
class TrafficProfile {
 public:
  explicit TrafficProfile(std::size_t server_count)
      : server_count_(server_count),
        weights_(server_count * server_count, 0.0) {}

  [[nodiscard]] std::size_t server_count() const { return server_count_; }

  [[nodiscard]] double at(std::size_t from, std::size_t to) const {
    return weights_[from * server_count_ + to];
  }
  void set(std::size_t from, std::size_t to, double weight) {
    weights_[from * server_count_ + to] = weight;
  }
  void add(std::size_t from, std::size_t to, double weight) {
    weights_[from * server_count_ + to] += weight;
  }

  // Undirected intensity between a pair.
  [[nodiscard]] double Between(std::size_t a, std::size_t b) const {
    return at(a, b) + at(b, a);
  }

  [[nodiscard]] double Total() const;

 private:
  std::size_t server_count_;
  std::vector<double> weights_;
};

struct SplitterOptions {
  // Upper bound on the number of *own* servers per domain; a domain may
  // additionally host one router shared with its parent cluster, so the
  // matrix dimension is at most max_domain_size + 1.
  std::size_t max_domain_size = 8;
  clocks::StampMode stamp_mode = clocks::StampMode::kUpdates;
};

class DomainSplitter {
 public:
  // Produces a validated-ready MomConfig for `traffic.server_count()`
  // servers (ids 0..n-1).  Fails only on degenerate inputs (no
  // servers, max_domain_size == 0).
  [[nodiscard]] static Result<MomConfig> Split(const TrafficProfile& traffic,
                                               const SplitterOptions& options);

  // The traffic-oblivious baseline: servers in index order chopped into
  // a bus of domains of `max_domain_size` (what an operator does
  // without profiling).
  [[nodiscard]] static MomConfig NaiveSplit(std::size_t server_count,
                                            const SplitterOptions& options);
};

// Parameters of the Section 6.2 analytic per-message cost.
struct CostParams {
  double per_hop_fixed = 1.0;
  double per_entry = 0.02;  // cost of one matrix-clock entry per hop
};

// Section 6.2 analytic per-message cost, traffic-weighted.
class CostEstimator {
 public:
  using Params = CostParams;

  // Expected cost per unit time of running `traffic` over `config`.
  // Routes follow the same shortest-path tables the MOM uses.
  [[nodiscard]] static Result<double> Estimate(
      const MomConfig& config, const TrafficProfile& traffic,
      const CostParams& params = CostParams{});
};

}  // namespace cmom::domains
