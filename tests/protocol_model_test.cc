// Model-based validation of the matrix-clock delivery condition.
//
// The MatrixClockCore protocol is run against an independent
// specification: every stamped message also carries a *vector* event
// timestamp maintained on the side (the textbook characterization of
// causal precedence).  Under random sends and random per-link FIFO
// delivery attempts, whatever the protocol delivers must extend the
// vector-clock causal order, and the protocol must never deadlock
// while undelivered messages remain.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "clocks/causal_core.h"
#include "clocks/vector_clock.h"
#include "common/rng.h"

namespace cmom::clocks {
namespace {

struct ModelMessage {
  Stamp stamp;
  VectorClock spec;  // independent causal timestamp of the send event
};

class ProtocolModel : public ::testing::TestWithParam<
                          std::tuple<std::size_t, StampMode, std::uint64_t>> {
};

TEST_P(ProtocolModel, DeliveryExtendsSpecOrderAndMakesProgress) {
  const auto [n, mode, seed] = GetParam();

  std::vector<MatrixClockCore> protocol;
  std::vector<VectorClock> spec;  // per-node event clock (the model)
  for (std::size_t i = 0; i < n; ++i) {
    protocol.emplace_back(DomainServerId(static_cast<std::uint16_t>(i)), n,
                          mode);
    spec.emplace_back(n);
  }
  std::vector<std::vector<std::deque<ModelMessage>>> links(
      n, std::vector<std::deque<ModelMessage>>(n));
  std::vector<std::vector<VectorClock>> delivered(n);
  std::size_t in_flight = 0;

  Rng rng(seed);
  const int kSteps = 800;
  for (int step = 0; step < kSteps; ++step) {
    if (rng.NextBool(0.45)) {
      const std::size_t from = rng.NextBelow(n);
      std::size_t to = rng.NextBelow(n);
      if (to == from) to = (to + 1) % n;
      ModelMessage message;
      message.stamp =
          protocol[from].PrepareSend(DomainServerId(static_cast<std::uint16_t>(to)));
      spec[from].Increment(from);
      message.spec = spec[from];
      links[from][to].push_back(std::move(message));
      ++in_flight;
    } else {
      const std::size_t from = rng.NextBelow(n);
      const std::size_t to = rng.NextBelow(n);
      if (from == to || links[from][to].empty()) continue;
      ModelMessage& head = links[from][to].front();
      const auto check = protocol[to].CheckReceive(
          DomainServerId(static_cast<std::uint16_t>(from)), head.stamp);
      ASSERT_NE(check, CheckResult::kDuplicate);
      if (check == CheckResult::kDeliver) {
        protocol[to].OnDeliver(
            DomainServerId(static_cast<std::uint16_t>(from)), head.stamp);
        spec[to].MergeFrom(head.spec);
        spec[to].Increment(to);
        delivered[to].push_back(head.spec);
        links[from][to].pop_front();
        --in_flight;
      }
    }
  }

  // Drain: keep delivering until empty; if a full sweep makes no
  // progress while messages remain, the protocol deadlocked.
  while (in_flight > 0) {
    bool progress = false;
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        while (from != to && !links[from][to].empty()) {
          ModelMessage& head = links[from][to].front();
          if (protocol[to].CheckReceive(
                  DomainServerId(static_cast<std::uint16_t>(from)),
                  head.stamp) != CheckResult::kDeliver) {
            break;
          }
          protocol[to].OnDeliver(
              DomainServerId(static_cast<std::uint16_t>(from)), head.stamp);
          spec[to].MergeFrom(head.spec);
          spec[to].Increment(to);
          delivered[to].push_back(head.spec);
          links[from][to].pop_front();
          --in_flight;
          progress = true;
        }
      }
    }
    ASSERT_TRUE(progress) << "protocol deadlocked with " << in_flight
                          << " messages in flight";
  }

  // Safety: at every node, delivery order extends the spec's causal
  // order.
  for (std::size_t node = 0; node < n; ++node) {
    for (std::size_t i = 0; i < delivered[node].size(); ++i) {
      for (std::size_t j = i + 1; j < delivered[node].size(); ++j) {
        EXPECT_FALSE(delivered[node][j].HappensBefore(delivered[node][i]))
            << "node " << node << ": delivery " << j
            << " causally precedes earlier delivery " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolModel,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(StampMode::kFullMatrix,
                                         StampMode::kUpdates),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == StampMode::kUpdates ? "_upd" : "_full";
      name += "_seed";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace cmom::clocks
