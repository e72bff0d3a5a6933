// Unit tests for the pluggable causal-delivery cores: the strategy
// interface contract, the durable codec for every core (strict kind
// byte, no trailing bytes, the matrix core's tracker rebuild),
// remapping, and the hybrid core's barrier lifecycle.
#include "clocks/causal_core.h"

#include <gtest/gtest.h>

#include <vector>

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

Bytes EncodeCore(const CausalCore& core) {
  ByteWriter out;
  core.EncodeState(out);
  return std::move(out).Take();
}

TEST(CausalCoreKindTest, NamesAndParseRoundTrip) {
  for (CausalCoreKind kind :
       {CausalCoreKind::kMatrix, CausalCoreKind::kHybrid}) {
    EXPECT_EQ(ParseCausalCoreKind(CausalCoreKindName(kind)), kind);
  }
  EXPECT_FALSE(ParseCausalCoreKind("vector").has_value());
  EXPECT_FALSE(ParseCausalCoreKind("reduced").has_value());
  EXPECT_FALSE(ParseCausalCoreKind("").has_value());
}

TEST(CausalCoreKindTest, StampCostModel) {
  EXPECT_EQ(CausalCoreStampCost(CausalCoreKind::kMatrix, 8), 64u);
  EXPECT_EQ(CausalCoreStampCost(CausalCoreKind::kHybrid, 8), 1u);
}

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
  ASSERT_EQ(image.front(), static_cast<std::uint8_t>(kind));
  auto decoded = DecodeCausalCoreState(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value()->kind(), kind);
  EXPECT_EQ(decoded.value()->self(), D(1));
  EXPECT_EQ(decoded.value()->domain_size(), 3u);
  EXPECT_TRUE(decoded.value()->Equals(*b));
  // Byte-identical restore: re-encoding the decoded core reproduces
  // the image exactly (the crash-recovery invariant).
  EXPECT_EQ(EncodeCore(*decoded.value()), image);
  // The decoder owns the whole record: one more byte is data loss.
  Bytes padded = image;
  padded.push_back(0);
  EXPECT_EQ(DecodeCausalCoreState(padded).status().code(),
            StatusCode::kDataLoss);
}

TEST_P(CausalCoreCodec, DecodedCoreKeepsDeliveringCorrectly) {
  const CausalCoreKind kind = GetParam();
  auto a = MakeCausalCore(kind, D(0), 3, StampMode::kUpdates);
  auto b = MakeCausalCore(kind, D(1), 3, StampMode::kUpdates);
  auto c = MakeCausalCore(kind, D(2), 3, StampMode::kUpdates);
  Stir(*a, *b, *c);

  const Bytes image = EncodeCore(*b);
  auto revived = DecodeCausalCoreState(image);
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
                                           CausalCoreKind::kHybrid),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

// The image has no Updates tracker, so a decoded matrix core cannot
// know what it already shipped to whom: its first stamp to each peer
// carries every nonzero entry of the matrix, and the next stamp to that
// peer is a delta again.
TEST(MatrixCoreRecovery, FirstStampAfterDecodeCarriesEveryLiveEntry) {
  MatrixClockCore a(D(0), 3, StampMode::kUpdates);
  MatrixClockCore b(D(1), 3, StampMode::kUpdates);
  MatrixClockCore c(D(2), 3, StampMode::kUpdates);
  Stir(a, b, c);
  // One more send to each peer, so a's next live stamp to either would
  // be the one-entry delta.
  for (std::uint16_t peer : {1, 2}) {
    MatrixClockCore& receiver = peer == 1 ? b : c;
    const Stamp stamp = a.PrepareSend(D(peer));
    ASSERT_EQ(receiver.CheckReceive(D(0), stamp), CheckResult::kDeliver);
    receiver.OnDeliver(D(0), stamp);
  }

  auto revived = DecodeCausalCoreState(EncodeCore(a));
  ASSERT_TRUE(revived.ok()) << revived.status();
  const auto& core = dynamic_cast<const MatrixClockCore&>(*revived.value());
  for (std::uint16_t peer : {1, 2}) {
    const Stamp first = revived.value()->PrepareSend(D(peer));
    std::size_t live = 0;
    for (std::uint16_t row = 0; row < 3; ++row) {
      for (std::uint16_t col = 0; col < 3; ++col) {
        const std::uint64_t value = core.matrix().at(D(row), D(col));
        if (value == 0) continue;
        ++live;
        const StampEntry* entry = first.Find(D(row), D(col));
        ASSERT_NE(entry, nullptr) << "peer " << peer << " entry " << row
                                  << "," << col;
        EXPECT_EQ(entry->value, value);
      }
    }
    EXPECT_GT(live, 1u);
    EXPECT_EQ(first.entries.size(), live) << "peer " << peer;
    EXPECT_EQ(revived.value()->PrepareSend(D(peer)).entries.size(), 1u)
        << "peer " << peer;
  }
}

TEST(CausalCoreCodecCompat, ParentFormatMatrixImageIsDataLoss) {
  // Before the kind byte, a matrix image was the u16 self id, the stamp
  // mode, the matrix and then the Updates tracker (varint size, varint
  // state, a varint state and a u32 writer per cell, a varint state per
  // destination).  Neither self id 0 (read as a matrix kind byte) nor 1
  // (read as hybrid) decodes.
  for (std::uint16_t self : {0, 1}) {
    MatrixClock matrix(2);
    matrix.set(D(0), D(1), 3);
    ByteWriter out;
    out.WriteU16(self);
    out.WriteU8(static_cast<std::uint8_t>(StampMode::kUpdates));
    matrix.Encode(out);
    out.WriteVarU64(2);
    out.WriteVarU64(1);
    for (int cell = 0; cell < 4; ++cell) {
      out.WriteVarU64(cell == 1 ? 1 : 0);
      out.WriteU32(0xFFFFFFFFu);
    }
    out.WriteVarU64(1);
    out.WriteVarU64(0);
    EXPECT_EQ(DecodeCausalCoreState(out.buffer()).status().code(),
              StatusCode::kDataLoss)
        << "self " << self;
  }
}

TEST(CausalCoreCodecCompat, UnknownKindAndTruncationAreDataLoss) {
  const auto code = [](std::initializer_list<std::uint8_t> bytes) {
    const Bytes image(bytes);
    return DecodeCausalCoreState(image).status().code();
  };
  EXPECT_EQ(code({}), StatusCode::kDataLoss);
  EXPECT_EQ(code({7}), StatusCode::kDataLoss);  // no such core
  EXPECT_EQ(code({2}), StatusCode::kDataLoss);  // the retired reduced core
  EXPECT_EQ(code({static_cast<std::uint8_t>(CausalCoreKind::kMatrix)}),
            StatusCode::kDataLoss);
  EXPECT_EQ(code({static_cast<std::uint8_t>(CausalCoreKind::kHybrid)}),
            StatusCode::kDataLoss);
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
                                           CausalCoreKind::kHybrid),
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
                                           CausalCoreKind::kHybrid),
                         [](const auto& info) {
                           return std::string(
                               CausalCoreKindName(info.param));
                         });

}  // namespace
}  // namespace cmom::clocks
