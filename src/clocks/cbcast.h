// Vector-clock causal broadcast -- the related-work baseline.
//
// The solutions the paper contrasts with ([13] hierarchical clusters,
// [17] the Daisy architecture) are "based on vector clocks, which
// require causal broadcast and therefore do not scale well" (Section
// 2).  This is that classical protocol (ISIS CBCAST-style): every
// message goes to the whole group carrying the sender's vector clock;
// receiver q delivers a message from j stamped V iff
//     V[j] == local[j] + 1   and   V[k] <= local[k]  for all k != j,
// holding it back otherwise.
//
// It exists here as an honest baseline for the ablation bench: the
// per-message wire cost is (group-1) frames of O(group) stamp each --
// versus the domain approach's handful of unicast hops with O(1)
// Updates stamps -- which is exactly why the paper goes the
// matrix-clock + domains route for point-to-point MOM traffic.
#pragma once

#include <cstddef>

#include "clocks/stamp.h"  // CheckResult
#include "clocks/vector_clock.h"

namespace cmom::clocks {

class CbcastNode {
 public:
  CbcastNode() = default;
  CbcastNode(std::size_t self, std::size_t group_size)
      : self_(self), clock_(group_size) {}

  [[nodiscard]] std::size_t self() const { return self_; }
  [[nodiscard]] std::size_t group_size() const { return clock_.size(); }

  // Starts a broadcast: advances the own component and returns the
  // stamp to attach to every copy.
  [[nodiscard]] VectorClock PrepareBroadcast();

  // Classifies an incoming copy from `sender` stamped `stamp`.
  [[nodiscard]] CheckResult Check(std::size_t sender,
                                  const VectorClock& stamp) const;

  // Merges a deliverable stamp (call only after Check == kDeliver).
  void Commit(std::size_t sender, const VectorClock& stamp);

  [[nodiscard]] const VectorClock& clock() const { return clock_; }

 private:
  std::size_t self_ = 0;
  VectorClock clock_;
};

}  // namespace cmom::clocks
