// Unit tests for the pluggable causal-delivery cores: the strategy
// interface contract, byte-identity of the matrix core with the
// pre-core CausalDomainClock (stamps and durable images), the durable
// codec for every core (including legacy-image compatibility in both
// directions), remapping, and the hybrid core's barrier lifecycle.
#include "clocks/causal_core.h"

#include <gtest/gtest.h>

#include <vector>

#include "clocks/causal_clock.h"

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

Bytes EncodeStamp(const Stamp& stamp) {
  ByteWriter out;
  stamp.Encode(out);
  return std::move(out).Take();
}

Bytes EncodeCore(const CausalCore& core) {
  ByteWriter out;
  core.EncodeState(out);
  return std::move(out).Take();
}

TEST(CausalCoreKindTest, NamesAndParseRoundTrip) {
  for (CausalCoreKind kind :
       {CausalCoreKind::kMatrix, CausalCoreKind::kHybrid,
        CausalCoreKind::kReduced}) {
    EXPECT_EQ(ParseCausalCoreKind(CausalCoreKindName(kind)), kind);
  }
  EXPECT_FALSE(ParseCausalCoreKind("vector").has_value());
  EXPECT_FALSE(ParseCausalCoreKind("").has_value());
}

TEST(CausalCoreKindTest, StampCostModel) {
  EXPECT_EQ(CausalCoreStampCost(CausalCoreKind::kMatrix, 8), 64u);
  EXPECT_EQ(CausalCoreStampCost(CausalCoreKind::kReduced, 8), 8u);
  EXPECT_EQ(CausalCoreStampCost(CausalCoreKind::kHybrid, 8), 1u);
}

// The matrix core must be bit-exact with the bare CausalDomainClock:
// identical stamps on every send and identical durable images after
// identical traffic, in both stamp modes.  This is what keeps pre-core
// deployments wire- and store-compatible.
class MatrixCoreByteIdentity : public ::testing::TestWithParam<StampMode> {};

TEST_P(MatrixCoreByteIdentity, StampsAndImagesMatchTheBareClock) {
  const StampMode mode = GetParam();
  constexpr std::size_t kSize = 4;
  std::vector<CausalDomainClock> clocks;
  std::vector<std::unique_ptr<CausalCore>> cores;
  for (std::uint16_t i = 0; i < kSize; ++i) {
    clocks.emplace_back(D(i), kSize, mode);
    cores.push_back(MakeCausalCore(CausalCoreKind::kMatrix, D(i), kSize,
                                   mode));
  }

  // Deterministic little storm: every pair, a few rounds, immediate
  // delivery (the codec identity is what is under test, not ordering).
  for (int round = 0; round < 3; ++round) {
    for (std::uint16_t src = 0; src < kSize; ++src) {
      for (std::uint16_t dst = 0; dst < kSize; ++dst) {
        if (src == dst) continue;
        const Stamp expected = clocks[src].PrepareSend(D(dst));
        const Stamp actual = cores[src]->PrepareSend(D(dst));
        ASSERT_EQ(EncodeStamp(expected), EncodeStamp(actual));
        ASSERT_EQ(clocks[dst].Check(D(src), expected),
                  cores[dst]->CheckReceive(D(src), actual));
        clocks[dst].Commit(D(src), expected);
        cores[dst]->OnDeliver(D(src), actual);
      }
    }
  }

  for (std::uint16_t i = 0; i < kSize; ++i) {
    ByteWriter legacy;
    clocks[i].EncodeState(legacy);
    EXPECT_EQ(std::move(legacy).Take(), EncodeCore(*cores[i]));
    EXPECT_EQ(clocks[i].version(), cores[i]->version());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MatrixCoreByteIdentity,
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         [](const auto& info) {
                           return info.param == StampMode::kUpdates
                                      ? "updates"
                                      : "full";
                         });

// Drives a little three-member conversation on a core so its state is
// non-trivial before encoding.
void Stir(CausalCore& a, CausalCore& b, CausalCore& c) {
  const Stamp ab = a.PrepareSend(b.self());
  ASSERT_EQ(b.CheckReceive(a.self(), ab), CheckResult::kDeliver);
  b.OnDeliver(a.self(), ab);
  const Stamp bc = b.PrepareSend(c.self());
  ASSERT_EQ(c.CheckReceive(b.self(), bc), CheckResult::kDeliver);
  c.OnDeliver(b.self(), bc);
  const Stamp ca = c.PrepareSend(a.self());
  ASSERT_EQ(a.CheckReceive(c.self(), ca), CheckResult::kDeliver);
  a.OnDeliver(c.self(), ca);
}

class CausalCoreCodec : public ::testing::TestWithParam<CausalCoreKind> {};

TEST_P(CausalCoreCodec, EncodeDecodeRoundTripsAndReEncodesIdentically) {
  const CausalCoreKind kind = GetParam();
  auto a = MakeCausalCore(kind, D(0), 3, StampMode::kUpdates);
  auto b = MakeCausalCore(kind, D(1), 3, StampMode::kUpdates);
  auto c = MakeCausalCore(kind, D(2), 3, StampMode::kUpdates);
  Stir(*a, *b, *c);

  const Bytes image = EncodeCore(*b);
  ByteReader in(image);
  auto decoded = DecodeCausalCoreState(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.value()->kind(), kind);
  EXPECT_EQ(decoded.value()->self(), D(1));
  EXPECT_EQ(decoded.value()->domain_size(), 3u);
  EXPECT_TRUE(decoded.value()->Equals(*b));
  // Byte-identical restore: re-encoding the decoded core reproduces
  // the image exactly (the crash-recovery invariant).
  EXPECT_EQ(EncodeCore(*decoded.value()), image);
}

TEST_P(CausalCoreCodec, DecodedCoreKeepsDeliveringCorrectly) {
  const CausalCoreKind kind = GetParam();
  auto a = MakeCausalCore(kind, D(0), 3, StampMode::kUpdates);
  auto b = MakeCausalCore(kind, D(1), 3, StampMode::kUpdates);
  auto c = MakeCausalCore(kind, D(2), 3, StampMode::kUpdates);
  Stir(*a, *b, *c);

  const Bytes image = EncodeCore(*b);
  ByteReader in(image);
  auto revived = DecodeCausalCoreState(in);
  ASSERT_TRUE(revived.ok());

  // A fresh message is deliverable exactly once by the revived core,
  // and a replay of the pre-crash message is recognised as duplicate.
  const Stamp retransmit = a->PrepareSend(D(1));
  ASSERT_EQ(revived.value()->CheckReceive(D(0), retransmit),
            CheckResult::kDeliver);
  revived.value()->OnDeliver(D(0), retransmit);
  EXPECT_EQ(revived.value()->CheckReceive(D(0), retransmit),
            CheckResult::kDuplicate);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreCodec,
                         ::testing::Values(CausalCoreKind::kMatrix,
                                           CausalCoreKind::kHybrid,
                                           CausalCoreKind::kReduced),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

TEST(CausalCoreCodecCompat, LegacyMatrixImageDecodesAsMatrixCore) {
  CausalDomainClock clock(D(1), 3, StampMode::kUpdates);
  CausalDomainClock peer(D(0), 3, StampMode::kUpdates);
  const Stamp stamp = peer.PrepareSend(D(1));
  ASSERT_EQ(clock.Check(D(0), stamp), CheckResult::kDeliver);
  clock.Commit(D(0), stamp);

  ByteWriter out;
  clock.EncodeState(out);
  const Bytes legacy = std::move(out).Take();
  ByteReader in(legacy);
  auto core = DecodeCausalCoreState(in);
  ASSERT_TRUE(core.ok()) << core.status().to_string();
  EXPECT_EQ(core.value()->kind(), CausalCoreKind::kMatrix);
  ASSERT_NE(core.value()->AsMatrix(), nullptr);
  EXPECT_EQ(*core.value()->AsMatrix(), clock);
  EXPECT_EQ(EncodeCore(*core.value()), legacy);
}

TEST(CausalCoreCodecCompat, ReducedRecordIsRejectedByTheLegacyDecoder) {
  // A reduced-core image must NOT parse as a legacy CausalDomainClock:
  // the sentinel lands in the self-id slot and the kind byte (2) in the
  // stamp-mode slot, which the old decoder rejects as out of range.
  auto reduced = MakeCausalCore(CausalCoreKind::kReduced, D(0), 2,
                                StampMode::kUpdates);
  const Bytes image = EncodeCore(*reduced);
  ByteReader in(image);
  EXPECT_FALSE(CausalDomainClock::DecodeState(in).ok());
}

TEST(CausalCoreCodecCompat, UnknownKindAndTruncationAreDataLoss) {
  {
    ByteWriter out;
    out.WriteU16(0xFFFF);
    out.WriteU8(7);  // no such core
    const Bytes bytes = std::move(out).Take();
    ByteReader in(bytes);
    EXPECT_EQ(DecodeCausalCoreState(in).status().code(),
              StatusCode::kDataLoss);
  }
  {
    ByteWriter out;
    out.WriteU16(0xFFFF);
    const Bytes bytes = std::move(out).Take();
    ByteReader in(bytes);
    EXPECT_FALSE(DecodeCausalCoreState(in).ok());
  }
  {
    // A matrix-tagged record is impossible: the matrix core writes
    // legacy images.
    ByteWriter out;
    out.WriteU16(0xFFFF);
    out.WriteU8(static_cast<std::uint8_t>(CausalCoreKind::kMatrix));
    const Bytes bytes = std::move(out).Take();
    ByteReader in(bytes);
    EXPECT_EQ(DecodeCausalCoreState(in).status().code(),
              StatusCode::kDataLoss);
  }
}

// Causal transitivity through a relay, the scenario every core must
// hold back on: A -> C directly is slow, A -> B -> C is fast, so C
// sees B's relayed message (which causally follows A's) first.
class CausalCoreTransitivity
    : public ::testing::TestWithParam<CausalCoreKind> {};

TEST_P(CausalCoreTransitivity, RelayedMessageWaitsForItsPredecessor) {
  const CausalCoreKind kind = GetParam();
  auto a = MakeCausalCore(kind, D(0), 3, StampMode::kUpdates);
  auto b = MakeCausalCore(kind, D(1), 3, StampMode::kUpdates);
  auto c = MakeCausalCore(kind, D(2), 3, StampMode::kUpdates);

  const Stamp slow = a->PrepareSend(D(2));   // m1: A -> C, delayed
  const Stamp relay = a->PrepareSend(D(1));  // m2: A -> B
  ASSERT_EQ(b->CheckReceive(D(0), relay), CheckResult::kDeliver);
  b->OnDeliver(D(0), relay);
  const Stamp fast = b->PrepareSend(D(2));   // m3: B -> C, after m2

  // m3 arrives first: its causal past contains m1 (A -> C), so C must
  // hold it back even though the B -> C link itself has no gap.
  ASSERT_EQ(c->CheckReceive(D(1), fast), CheckResult::kHold);
  ASSERT_EQ(c->CheckReceive(D(0), slow), CheckResult::kDeliver);
  c->OnDeliver(D(0), slow);
  ASSERT_EQ(c->CheckReceive(D(1), fast), CheckResult::kDeliver);
  c->OnDeliver(D(1), fast);
  // Replays of both are duplicates now.
  EXPECT_EQ(c->CheckReceive(D(0), slow), CheckResult::kDuplicate);
  EXPECT_EQ(c->CheckReceive(D(1), fast), CheckResult::kDuplicate);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreTransitivity,
                         ::testing::Values(CausalCoreKind::kMatrix,
                                           CausalCoreKind::kHybrid,
                                           CausalCoreKind::kReduced),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

TEST(HybridBufferingBarriers, ConfirmationsPruneTheBarrierSet) {
  HybridBufferingCore a(D(0), 2);
  HybridBufferingCore b(D(1), 2);

  const Stamp m1 = a.PrepareSend(D(1));
  EXPECT_EQ(a.barrier_count(), 1u);  // m1 possibly undelivered
  ASSERT_EQ(b.CheckReceive(D(0), m1), CheckResult::kDeliver);
  b.OnDeliver(D(0), m1);

  // B's reply carries its delivered count for the A -> B link; on
  // delivery A learns m1 arrived and drops the barrier (m2's own
  // barrier lives at B, and delivering m2 needs no barrier at A).
  const Stamp m2 = b.PrepareSend(D(0));
  EXPECT_EQ(b.barrier_count(), 1u);  // m2 possibly undelivered
  ASSERT_EQ(a.CheckReceive(D(1), m2), CheckResult::kDeliver);
  a.OnDeliver(D(1), m2);
  EXPECT_EQ(a.barrier_count(), 0u);  // m1 confirmed by m2's gossip
  const Stamp m3 = a.PrepareSend(D(1));
  ASSERT_EQ(b.CheckReceive(D(0), m3), CheckResult::kDeliver);
  b.OnDeliver(D(0), m3);
  EXPECT_EQ(b.barrier_count(), 0u);  // m2 confirmed by m3's gossip
}

TEST(HybridBufferingBarriers, StampSizeTracksInFlightNotHistory) {
  // Ping-pong forever: the barrier set must stay at the single
  // in-flight message, so stamps stop growing after the first
  // exchange.
  HybridBufferingCore a(D(0), 2);
  HybridBufferingCore b(D(1), 2);
  std::size_t steady = 0;
  for (int round = 0; round < 100; ++round) {
    const Stamp ping = a.PrepareSend(D(1));
    ASSERT_EQ(b.CheckReceive(D(0), ping), CheckResult::kDeliver);
    b.OnDeliver(D(0), ping);
    const Stamp pong = b.PrepareSend(D(0));
    ASSERT_EQ(a.CheckReceive(D(1), pong), CheckResult::kDeliver);
    a.OnDeliver(D(1), pong);
    EXPECT_LE(a.barrier_count(), 2u);
    EXPECT_LE(b.barrier_count(), 2u);
    if (round == 10) steady = ping.entries.size();
    if (round > 10) {
      EXPECT_EQ(ping.entries.size(), steady);
    }
  }
}

class CausalCoreRemapTest : public ::testing::TestWithParam<CausalCoreKind> {
};

TEST_P(CausalCoreRemapTest, SurvivorsKeepOrderAcrossAPermutedEpoch) {
  const CausalCoreKind kind = GetParam();
  // Old domain {A=0, B=1, C=2}; C departs, survivors swap coordinates:
  // new domain {B=0, A=1}.
  auto a = MakeCausalCore(kind, D(0), 3, StampMode::kUpdates);
  auto b = MakeCausalCore(kind, D(1), 3, StampMode::kUpdates);
  auto c = MakeCausalCore(kind, D(2), 3, StampMode::kUpdates);
  Stir(*a, *b, *c);
  // Quiesce is assumed by Remap; the Stir exchange is fully delivered.

  const std::vector<std::optional<DomainServerId>> old_of_new = {D(1), D(0)};
  auto a2 = a->Remap(D(1), 2, old_of_new);
  auto b2 = b->Remap(D(0), 2, old_of_new);
  ASSERT_EQ(a2->kind(), kind);
  EXPECT_EQ(a2->self(), D(1));
  EXPECT_EQ(b2->domain_size(), 2u);

  // Delivery history survives the remap (matrix entries / per-link
  // FIFO counters), so a fresh exchange continues the old sequence and
  // a replay of it is recognised as duplicate.
  const Stamp next = a2->PrepareSend(D(0));
  ASSERT_EQ(b2->CheckReceive(D(1), next), CheckResult::kDeliver);
  b2->OnDeliver(D(1), next);
  EXPECT_EQ(b2->CheckReceive(D(1), next), CheckResult::kDuplicate);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreRemapTest,
                         ::testing::Values(CausalCoreKind::kMatrix,
                                           CausalCoreKind::kHybrid,
                                           CausalCoreKind::kReduced),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

}  // namespace
}  // namespace cmom::clocks
