// Tests for the engine on wall-clock threads: per-agent delivery order
// and causality under a router topology, byte-identical recovery from
// a mid-run crash (with and without the pooled arena), the arena's
// heap-allocation bound, and the O(1) LogHistogram bucket edges.
//
// These are among the tests the TSan job exists for: transport
// threads, retransmission timers and the test thread all drive the
// servers concurrently here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "causality/checker.h"
#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "domains/topologies.h"
#include "mom/agent.h"
#include "mom/agent_server.h"
#include "workload/agents.h"
#include "workload/threaded_harness.h"

namespace cmom {
namespace {

// Payload carries (sender key, per-sender sequence number).
Bytes ChainPayload(std::uint32_t sender, std::uint64_t seq) {
  ByteWriter out;
  out.WriteU32(sender);
  out.WriteVarU64(seq);
  return std::move(out).Take();
}

// Accumulates an order-sensitive chain hash over everything delivered
// (durable state, so recovery mistakes -- a lost, duplicated or
// reordered reaction -- change the final bytes) plus a volatile
// per-sender log for direct order assertions.
class ChainAgent final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    ByteReader in(message.payload);
    const std::uint32_t sender =
        static_cast<std::uint32_t>(in.ReadU32().value());
    const std::uint64_t seq = in.ReadVarU64().value();
    ++count_;
    chain_ = (chain_ ^ (std::uint64_t{sender} << 32 | seq)) *
             6364136223846793005ull;
    log_[sender].push_back(seq);
  }

  void EncodeState(ByteWriter& out) const override {
    out.WriteVarU64(count_);
    out.WriteU64(chain_);
  }
  [[nodiscard]] Status DecodeState(ByteReader& in) override {
    auto count = in.ReadVarU64();
    if (!count.ok()) return count.status();
    count_ = count.value();
    auto chain = in.ReadU64();
    if (!chain.ok()) return chain.status();
    chain_ = chain.value();
    return Status::Ok();
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] Bytes StateBytes() const {
    ByteWriter out;
    EncodeState(out);
    return std::move(out).Take();
  }
  [[nodiscard]] const std::map<std::uint32_t, std::vector<std::uint64_t>>&
  log() const {
    return log_;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t chain_ = 0;
  // Not part of the durable image: used by tests that do not crash.
  std::map<std::uint32_t, std::vector<std::uint64_t>> log_;
};

// ---------------------------------------------------------------------------
// Threaded stress under a router topology.

// Bus(2, 2): servers S1 and S3 are leaf-only, S0/S2 route via the
// backbone.  Four senders spray 1000+ messages across agents on both
// leaves; every (sender -> agent) stream must come out in send order
// and the global trace must be causal and exactly-once.
TEST(ThreadedEngine, RoutedStressKeepsPerAgentOrderAndCausality) {
  constexpr std::uint32_t kAgentsPerServer = 8;
  constexpr std::uint64_t kSeqs = 160;  // 2 senders * 160 * 4 = 1280 msgs

  workload::ThreadedHarnessOptions options;
  options.retransmit_timeout_ns = 50ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Bus(2, 2), options);

  std::map<std::pair<ServerId, std::uint32_t>, ChainAgent*> agents;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id != ServerId(1) && id != ServerId(3)) return;
                    for (std::uint32_t a = 0; a < kAgentsPerServer; ++a) {
                      auto agent = std::make_unique<ChainAgent>();
                      agents[{id, a}] = agent.get();
                      server.AttachAgent(a, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  // Sender key = server * 100 + local; two sender agents per router.
  for (std::uint64_t seq = 1; seq <= kSeqs; ++seq) {
    for (ServerId from : {ServerId(0), ServerId(2)}) {
      for (std::uint32_t local : {90u, 91u}) {
        const std::uint32_t sender = from.value() * 100 + local;
        // Round-robin over both leaf servers and their agents.
        const ServerId to((seq + local) % 2 == 0 ? 1 : 3);
        const std::uint32_t agent =
            static_cast<std::uint32_t>(seq % kAgentsPerServer);
        ASSERT_TRUE(harness
                        .Send(from, local, to, agent, "chain",
                              ChainPayload(sender, seq))
                        .ok());
      }
    }
  }
  harness.WaitQuiescent();
  harness.HaltAll();  // bars server callbacks: agent state is ours now

  std::uint64_t delivered = 0;
  for (const auto& [key, agent] : agents) {
    delivered += agent->count();
    for (const auto& [sender, seqs] : agent->log()) {
      for (std::size_t i = 1; i < seqs.size(); ++i) {
        ASSERT_LT(seqs[i - 1], seqs[i])
            << "sender " << sender << " reordered at " << to_string(key.first)
            << " agent " << key.second;
      }
    }
  }
  EXPECT_EQ(delivered, 4 * kSeqs);

  const causality::Trace trace = harness.trace().Snapshot();
  causality::CausalityChecker checker = harness.MakeChecker();
  const auto causal = checker.CheckCausalDelivery(trace);
  EXPECT_TRUE(causal.causal())
      << causal.violations.size() << " causality violations, first: "
      << (causal.violations.empty() ? "" : causal.violations[0].description);
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
}

// ---------------------------------------------------------------------------
// Crash recovery: un-committed reactions must not leak into the image.

Bytes ReferenceStateBytes(std::uint32_t agent, std::uint64_t total) {
  // What a ChainAgent must contain after seeing its round-robin share
  // of seq 1..total from sender 7, in order, exactly once.
  ChainAgent reference;
  struct Ctx final : mom::ReactionContext {
    AgentId self() const override { return AgentId{ServerId(1), 0}; }
    void Send(AgentId, std::string, Bytes) override {}
    std::uint64_t NowNs() const override { return 0; }
  } ctx;
  for (std::uint64_t seq = 1; seq <= total; ++seq) {
    if (seq % 4 != agent) continue;
    mom::Message message;
    message.payload = ChainPayload(7, seq);
    reference.React(ctx, message);
  }
  return reference.StateBytes();
}

constexpr std::uint64_t kCrashTotal = 300;

// Runs the mid-run-crash workload (single sender, crash at half-way,
// restart, second half) and returns each agent's final state bytes.
// Shared by the default test and the arena on/off equivalence variant.
std::map<std::uint32_t, Bytes> CrashWorkloadFinalState() {
  workload::ThreadedHarnessOptions options;
  options.retransmit_timeout_ns = 50ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);

  std::map<std::uint32_t, ChainAgent*> agents;
  Status init = harness.Init([&](ServerId id, mom::AgentServer& server) {
    if (id != ServerId(1)) return;
    for (std::uint32_t a = 0; a < 4; ++a) {
      auto agent = std::make_unique<ChainAgent>();
      agents[a] = agent.get();  // refreshed on Restart
      server.AttachAgent(a, std::move(agent));
    }
  });
  EXPECT_TRUE(init.ok());
  EXPECT_TRUE(harness.BootAll().ok());

  // Single sender => deterministic per-agent delivery order, so the
  // final state bytes are unique.  Crash the loaded server while the
  // first half is (possibly) still in flight: reactions whose commit
  // did not land are discarded with the server and must be re-run from
  // their durable QueueIN entries -- never skipped, never doubled, or
  // the chain hash comes out different.
  for (std::uint64_t seq = 1; seq <= kCrashTotal / 2; ++seq) {
    EXPECT_TRUE(harness
                    .Send(ServerId(0), 7, ServerId(1),
                          static_cast<std::uint32_t>(seq % 4), "chain",
                          ChainPayload(7, seq))
                    .ok());
  }
  harness.Crash(ServerId(1));
  EXPECT_TRUE(harness.Restart(ServerId(1)).ok());
  for (std::uint64_t seq = kCrashTotal / 2 + 1; seq <= kCrashTotal; ++seq) {
    EXPECT_TRUE(harness
                    .Send(ServerId(0), 7, ServerId(1),
                          static_cast<std::uint32_t>(seq % 4), "chain",
                          ChainPayload(7, seq))
                    .ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  const causality::Trace trace = harness.trace().Snapshot();
  causality::CausalityChecker checker = harness.MakeChecker();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());

  std::map<std::uint32_t, Bytes> state;
  for (const auto& [local, agent] : agents) {
    state[local] = agent->StateBytes();
  }
  return state;
}

TEST(ThreadedEngine, MidRunCrashRecoversByteIdenticalState) {
  const std::map<std::uint32_t, Bytes> state = CrashWorkloadFinalState();
  ASSERT_EQ(state.size(), 4u);
  for (const auto& [local, bytes] : state) {
    EXPECT_EQ(bytes, ReferenceStateBytes(local, kCrashTotal))
        << "agent " << local << " diverged after crash recovery";
  }
}

TEST(ThreadedEngine, ArenaAllocatorKeepsCrashRecoveryByteIdentical) {
  // The pooled arena must be invisible to durable state: the same
  // crash workload, run with recycled buffers and with plain heap
  // allocation, has to recover every agent to byte-identical images.
  // A stale byte leaking out of a reused buffer -- a frame outliving
  // its batch, a payload released while still referenced -- shows up
  // here as a chain-hash divergence.
  BufferPool::SetEnabled(false);
  const std::map<std::uint32_t, Bytes> heap_state = CrashWorkloadFinalState();
  BufferPool::SetEnabled(true);
  const BufferPool::Counters before = BufferPool::Totals();
  const std::map<std::uint32_t, Bytes> arena_state = CrashWorkloadFinalState();
  const BufferPool::Counters after = BufferPool::Totals();

  // The arena actually engaged: buffers were recycled, not just
  // counted.
  EXPECT_GT(after.pool_hits, before.pool_hits);

  ASSERT_EQ(heap_state.size(), 4u);
  ASSERT_EQ(arena_state.size(), 4u);
  for (const auto& [local, bytes] : arena_state) {
    EXPECT_EQ(bytes, ReferenceStateBytes(local, kCrashTotal))
        << "agent " << local << " diverged under the arena";
    EXPECT_EQ(bytes, heap_state.at(local))
        << "agent " << local << ": arena and heap runs disagree";
  }
}

// ---------------------------------------------------------------------------
// The arena pays on the inline engine: a short run, cold freelists
// included, stays under half a heap allocation per message.

// Sends 128 messages from S0 round-robin to 16 sink agents on `loaded`
// and returns the BufferPool heap allocations per message over the run.
double HeapAllocsPerMessage(domains::MomConfig config, ServerId loaded) {
  constexpr std::size_t kMessages = 128;
  constexpr std::uint32_t kAgents = 16;
  workload::ThreadedHarness harness(std::move(config));
  EXPECT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id != loaded) return;
                    for (std::uint32_t a = 0; a < kAgents; ++a) {
                      server.AttachAgent(
                          a, std::make_unique<workload::SinkAgent>());
                    }
                  })
                  .ok());
  EXPECT_TRUE(harness.BootAll().ok());
  const BufferPool::Counters before = BufferPool::Totals();
  for (std::size_t i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(harness
                    .Send(ServerId(0), 99, loaded,
                          static_cast<std::uint32_t>(i % kAgents), "sink")
                    .ok());
  }
  harness.WaitQuiescent();
  const BufferPool::Counters after = BufferPool::Totals();
  harness.HaltAll();
  return static_cast<double>(after.heap_allocations() -
                             before.heap_allocations()) /
         static_cast<double>(kMessages);
}

TEST(ThreadedEngine, ArenaHoldsHeapAllocationsPerMessageUnderHalf) {
  ASSERT_TRUE(BufferPool::enabled());
  const double flat =
      HeapAllocsPerMessage(domains::topologies::Flat(2), ServerId(1));
  const double bus =
      HeapAllocsPerMessage(domains::topologies::Bus(2, 2), ServerId(3));
  RecordProperty("flat_heap_allocs_per_message", std::to_string(flat));
  RecordProperty("bus_heap_allocs_per_message", std::to_string(bus));
  EXPECT_LE(flat, 0.5) << "Flat(2): " << flat << " heap allocs/message";
  EXPECT_LE(bus, 0.5) << "Bus(2,2): " << bus << " heap allocs/message";
}

// ---------------------------------------------------------------------------
// LogHistogram: O(1) bucketing must keep the historical edges.

TEST(LogHistogram, BucketEdgesArePowersOfTwo) {
  mom::LogHistogram hist;
  hist.Record(0);
  EXPECT_EQ(hist.buckets[0], 1u);  // zeros get their own bucket

  // Bucket b (b >= 1) covers [2^(b-1), 2^b): both edges land in it.
  for (std::size_t b = 1; b + 1 < mom::LogHistogram::kBuckets; ++b) {
    mom::LogHistogram edges;
    edges.Record(std::uint64_t{1} << (b - 1));        // inclusive low edge
    edges.Record((std::uint64_t{1} << b) - 1);        // inclusive high edge
    if (b >= 2) edges.Record(std::uint64_t{1} << b);  // just past: bucket b+1
    EXPECT_EQ(edges.buckets[b], 2u) << "bucket " << b;
    if (b >= 2) {
      EXPECT_EQ(edges.buckets[b + 1], 1u) << "bucket " << b;
    }
  }

  // Everything at and beyond 2^30 clamps into the last bucket.
  mom::LogHistogram top;
  top.Record(std::uint64_t{1} << 40);
  top.Record(~std::uint64_t{0});
  EXPECT_EQ(top.buckets[mom::LogHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(top.max, ~std::uint64_t{0});

  // Aggregates are value-based, not bucket-based.
  mom::LogHistogram stats;
  stats.Record(3);
  stats.Record(5);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.sum, 8u);
  EXPECT_EQ(stats.max, 5u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 4.0);
}

}  // namespace
}  // namespace cmom
