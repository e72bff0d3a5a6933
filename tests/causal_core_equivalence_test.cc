// Cross-core causal-equivalence property tests.
//
// Both causal cores implement *exact* causal delivery, so on an
// identical arrival sequence they must make identical delivery
// decisions -- same delivery order, exactly-once, and an empty
// hold-back queue once every message has arrived.  The first suite
// pins that directly against the cores over randomized schedules; the
// second runs the full simulated middleware with each core selected
// via MomConfig::causal_core and checks the end-to-end contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <tuple>
#include <vector>

#include "clocks/causal_core.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using clocks::CausalCore;
using clocks::CausalCoreKind;
using clocks::CausalCoreKindName;
using clocks::CheckResult;
using clocks::MakeCausalCore;
using clocks::Stamp;
using clocks::StampMode;

// xorshift64*: deterministic schedule source, identical across cores.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  std::size_t Below(std::size_t n) { return Next() % n; }
};

enum class Pattern { kRing, kUniform };

struct SentMessage {
  std::uint16_t src;
  std::uint16_t dst;
  std::uint64_t seq;
  Stamp stamp;
};

// One (src, dst, seq) delivery, encoded for order comparison.
using DeliveryKey = std::uint64_t;
DeliveryKey Key(std::uint16_t src, std::uint16_t dst, std::uint64_t seq) {
  return (static_cast<DeliveryKey>(src) << 48) |
         (static_cast<DeliveryKey>(dst) << 32) | seq;
}

// Runs a deterministic random schedule over `n` nodes with the given
// core and returns the global delivery order.  The schedule (which
// link sends, which link's head is received next) depends only on the
// seed, never on core state, so two cores see identical arrival
// sequences.
std::vector<DeliveryKey> RunSchedule(CausalCoreKind kind, StampMode mode,
                                     Pattern pattern, std::size_t n,
                                     std::size_t messages,
                                     std::uint64_t seed) {
  std::vector<std::unique_ptr<CausalCore>> cores;
  for (std::uint16_t i = 0; i < n; ++i) {
    cores.push_back(MakeCausalCore(kind, DomainServerId(i), n, mode));
  }
  std::vector<std::deque<SentMessage>> links(n * n);  // src * n + dst
  std::vector<std::deque<SentMessage>> holdback(n);
  std::vector<std::uint64_t> sent_seq(n * n, 0);
  std::vector<DeliveryKey> order;
  std::size_t sent = 0;
  std::size_t in_flight = 0;
  Rng rng{seed};

  auto deliver = [&](std::uint16_t dst, const SentMessage& m) {
    cores[dst]->OnDeliver(DomainServerId(m.src), m.stamp);
    order.push_back(Key(m.src, m.dst, m.seq));
  };
  auto drain_holdback = [&](std::uint16_t dst) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < holdback[dst].size(); ++i) {
        const SentMessage& m = holdback[dst][i];
        const CheckResult verdict =
            cores[dst]->CheckReceive(DomainServerId(m.src), m.stamp);
        EXPECT_NE(verdict, CheckResult::kDuplicate);
        if (verdict != CheckResult::kDeliver) continue;
        deliver(dst, m);
        holdback[dst].erase(holdback[dst].begin() + i);
        progressed = true;
        break;
      }
    }
  };
  auto receive_one = [&](std::size_t link) {
    SentMessage m = links[link].front();
    links[link].pop_front();
    --in_flight;
    const std::uint16_t dst = m.dst;
    const CheckResult verdict =
        cores[dst]->CheckReceive(DomainServerId(m.src), m.stamp);
    EXPECT_NE(verdict, CheckResult::kDuplicate);
    if (verdict == CheckResult::kDeliver) {
      deliver(dst, m);
      drain_holdback(dst);
    } else {
      holdback[dst].push_back(std::move(m));
    }
  };
  auto send_one = [&] {
    const std::uint16_t src = static_cast<std::uint16_t>(rng.Below(n));
    std::uint16_t dst;
    if (pattern == Pattern::kRing) {
      dst = static_cast<std::uint16_t>(
          rng.Below(2) == 0 ? (src + 1) % n : (src + n - 1) % n);
    } else {
      dst = static_cast<std::uint16_t>(rng.Below(n - 1));
      if (dst >= src) ++dst;
    }
    SentMessage m;
    m.src = src;
    m.dst = dst;
    m.seq = ++sent_seq[src * n + dst];
    m.stamp = cores[src]->PrepareSend(DomainServerId(dst));
    links[src * n + dst].push_back(std::move(m));
    ++sent;
    ++in_flight;
  };

  // `in_flight` counts messages sitting in links (sent, not yet
  // received), so the whole schedule -- who sends, which link head is
  // received next -- is a pure function of the seed, independent of
  // any core's verdicts.  A divergent (buggy) core therefore still
  // sees the exact reference arrival sequence.
  constexpr std::size_t kMaxInFlight = 24;
  while (sent < messages || in_flight > 0) {
    const bool may_send = sent < messages && in_flight < kMaxInFlight;
    std::vector<std::size_t> pending;
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (!links[l].empty()) pending.push_back(l);
    }
    if (may_send && (pending.empty() || rng.Below(2) == 0)) {
      send_one();
    } else if (!pending.empty()) {
      receive_one(pending[rng.Below(pending.size())]);
    } else {
      ADD_FAILURE() << "schedule wedged: nothing to send or receive";
      break;
    }
  }

  // Quiescence: with every message received, exact causal delivery
  // cannot leave anything parked.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(holdback[i].empty())
        << CausalCoreKindName(kind) << ": node " << i << " leaked "
        << holdback[i].size() << " held-back messages";
  }
  EXPECT_EQ(order.size(), messages);
  return order;
}

class CausalCoreEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t, Pattern>> {};

TEST_P(CausalCoreEquivalence, AllCoresAgreeOnDeliveryOrder) {
  const auto& [n, seed, pattern] = GetParam();
  const std::size_t messages = 60 * n;

  const auto reference = RunSchedule(
      CausalCoreKind::kMatrix, StampMode::kFullMatrix, pattern, n, messages,
      seed);
  ASSERT_EQ(reference.size(), messages);

  // Exactly-once: every (src, dst, seq) appears exactly once.
  {
    auto sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }

  const struct {
    CausalCoreKind kind;
    StampMode mode;
    const char* name;
  } contenders[] = {
      {CausalCoreKind::kMatrix, StampMode::kUpdates, "matrix_updates"},
      {CausalCoreKind::kHybrid, StampMode::kUpdates, "hybrid"},
  };
  for (const auto& c : contenders) {
    const auto order =
        RunSchedule(c.kind, c.mode, pattern, n, messages, seed);
    EXPECT_EQ(order, reference) << c.name
                                << " diverged from the full-matrix core";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CausalCoreEquivalence,
    ::testing::Combine(::testing::Values(3, 5, 8),
                       ::testing::Values(11, 22, 33),
                       ::testing::Values(Pattern::kRing, Pattern::kUniform)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_seed";
      name += std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) == Pattern::kRing ? "_ring" : "_uniform";
      return name;
    });

// End-to-end: the full simulated middleware with each core selected via
// the config keeps the reliability contract -- causal, exactly-once,
// quiescent -- over randomized chatter on flat and multi-domain
// topologies.
class CausalCoreSimTraffic
    : public ::testing::TestWithParam<
          std::tuple<CausalCoreKind, bool, std::uint64_t>> {};

TEST_P(CausalCoreSimTraffic, CausalExactlyOnceQuiescent) {
  const auto& [kind, multi_domain, seed] = GetParam();
  auto config = multi_domain ? domains::topologies::Bus(3, 3)
                             : domains::topologies::Flat(6);
  config.causal_core = kind;

  workload::SimHarnessOptions options;
  options.simulate_processing_costs = false;
  workload::SimHarness harness(config, options);

  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    server.AttachAgent(
                        1, std::make_unique<workload::ChatterAgent>(
                               seed * 1000 + id.value(), peers));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (ServerId id : config.servers) {
    ASSERT_TRUE(harness
                    .Send(id, 1, id, 1, workload::kChat,
                          workload::ChatterAgent::MakeChatPayload(5))
                    .ok());
  }
  harness.Run();

  auto checker = harness.MakeChecker();
  const causality::Trace trace = harness.trace().Snapshot();
  auto report = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(report.causal())
      << CausalCoreKindName(kind) << " seed " << seed << ": "
      << report.violations.front().description;
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
  EXPECT_EQ(report.messages_sent, report.messages_delivered);
  EXPECT_GT(report.messages_sent, 3u * config.servers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CausalCoreSimTraffic,
    ::testing::Combine(::testing::Values(CausalCoreKind::kMatrix,
                                         CausalCoreKind::kHybrid),
                       ::testing::Bool(), ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(CausalCoreKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_bus" : "_flat") + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

// Mixed deployment: different domains running different cores in the
// same config (per-domain overrides) still satisfy the global
// end-to-end contract.
TEST(CausalCoreSimTraffic, MixedCoresAcrossDomains) {
  auto config = domains::topologies::Bus(3, 3);
  config.causal_core = CausalCoreKind::kMatrix;
  ASSERT_GE(config.domains.size(), 2u);
  config.causal_core_overrides.emplace_back(config.domains[0].id,
                                            CausalCoreKind::kHybrid);

  workload::SimHarnessOptions options;
  options.simulate_processing_costs = false;
  workload::SimHarness harness(config, options);
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    server.AttachAgent(
                        1, std::make_unique<workload::ChatterAgent>(
                               77 + id.value(), peers));
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  for (ServerId id : config.servers) {
    ASSERT_TRUE(harness
                    .Send(id, 1, id, 1, workload::kChat,
                          workload::ChatterAgent::MakeChatPayload(5))
                    .ok());
  }
  harness.Run();

  auto checker = harness.MakeChecker();
  const causality::Trace trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(harness.CheckQuiescent().ok());
}

}  // namespace
}  // namespace cmom
