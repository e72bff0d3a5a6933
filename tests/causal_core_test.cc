// Unit tests for the causal-delivery core in both stamp modes: the
// delivery contract, the durable codec (strict kind byte, no trailing
// bytes, the tracker rebuild), remapping, and the validation of stamps
// that come off the wire.  As in bench/causal_cores, the parameter name
// "matrix" is the full-stamp mode and "matrix_updates" Appendix A.
#include "clocks/causal_core.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

Bytes EncodeCore(const MatrixClockCore& core) {
  ByteWriter out;
  core.EncodeState(out);
  return std::move(out).Take();
}

std::string ModeName(const ::testing::TestParamInfo<StampMode>& info) {
  return info.param == StampMode::kUpdates ? "matrix_updates" : "matrix";
}

// Drives a little three-member conversation on a core so its state is
// non-trivial before encoding.
void Stir(MatrixClockCore& a, MatrixClockCore& b, MatrixClockCore& c) {
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

class CausalCoreCodec : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalCoreCodec, EncodeDecodeRoundTripsAndReEncodesIdentically) {
  const StampMode mode = GetParam();
  MatrixClockCore a(D(0), 3, mode);
  MatrixClockCore b(D(1), 3, mode);
  MatrixClockCore c(D(2), 3, mode);
  Stir(a, b, c);

  const Bytes image = EncodeCore(b);
  ASSERT_EQ(image.front(), MatrixClockCore::kImageKind);
  auto decoded = MatrixClockCore::Decode(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().mode(), mode);
  EXPECT_EQ(decoded.value().self(), D(1));
  EXPECT_EQ(decoded.value().domain_size(), 3u);
  EXPECT_TRUE(decoded.value().Equals(b));
  // Byte-identical restore: re-encoding the decoded core reproduces
  // the image exactly (the crash-recovery invariant).
  EXPECT_EQ(EncodeCore(decoded.value()), image);
  // The decoder owns the whole record: one more byte is data loss.
  Bytes padded = image;
  padded.push_back(0);
  EXPECT_EQ(MatrixClockCore::Decode(padded).status().code(),
            StatusCode::kDataLoss);
}

TEST_P(CausalCoreCodec, DecodedCoreKeepsDeliveringCorrectly) {
  const StampMode mode = GetParam();
  MatrixClockCore a(D(0), 3, mode);
  MatrixClockCore b(D(1), 3, mode);
  MatrixClockCore c(D(2), 3, mode);
  Stir(a, b, c);

  auto revived = MatrixClockCore::Decode(EncodeCore(b));
  ASSERT_TRUE(revived.ok());

  // A fresh message is deliverable exactly once by the revived core,
  // and a replay of the pre-crash message is recognised as duplicate.
  const Stamp retransmit = a.PrepareSend(D(1));
  ASSERT_EQ(revived.value().CheckReceive(D(0), retransmit),
            CheckResult::kDeliver);
  revived.value().OnDeliver(D(0), retransmit);
  EXPECT_EQ(revived.value().CheckReceive(D(0), retransmit),
            CheckResult::kDuplicate);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreCodec,
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         ModeName);

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

  auto revived = MatrixClockCore::Decode(EncodeCore(a));
  ASSERT_TRUE(revived.ok()) << revived.status();
  MatrixClockCore& core = revived.value();
  for (std::uint16_t peer : {1, 2}) {
    const Stamp first = core.PrepareSend(D(peer));
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
    EXPECT_EQ(core.PrepareSend(D(peer)).entries.size(), 1u)
        << "peer " << peer;
  }
}

TEST(CausalCoreCodecCompat, ParentFormatMatrixImageIsDataLoss) {
  // Before the kind byte, a matrix image was the u16 self id, the stamp
  // mode, the matrix and then the Updates tracker (varint size, varint
  // state, a varint state and a u32 writer per cell, a varint state per
  // destination).  Neither self id 0 (read as the kind byte) nor 1 (a
  // retired kind) decodes.
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
    EXPECT_EQ(MatrixClockCore::Decode(out.buffer()).status().code(),
              StatusCode::kDataLoss)
        << "self " << self;
  }
}

TEST(CausalCoreCodecCompat, UnknownKindAndTruncationAreDataLoss) {
  const auto code = [](std::initializer_list<std::uint8_t> bytes) {
    const Bytes image(bytes);
    return MatrixClockCore::Decode(image).status().code();
  };
  EXPECT_EQ(code({}), StatusCode::kDataLoss);
  EXPECT_EQ(code({7}), StatusCode::kDataLoss);  // no such core
  EXPECT_EQ(code({1}), StatusCode::kDataLoss);  // the retired hybrid core
  EXPECT_EQ(code({2}), StatusCode::kDataLoss);  // the retired reduced core
  EXPECT_EQ(code({MatrixClockCore::kImageKind}), StatusCode::kDataLoss);
}

// Stamps come off the wire.  A stamp naming a member outside the domain
// (in the receiver's column, which the check reads, or elsewhere, which
// delivery merges), a sender outside the domain, or a stamp without its
// own (src, self) send counter is rejected before the clock reads it --
// and the clock it was checked against keeps working.
TEST(CausalCoreWireInput, MalformedStampsAreRejectedUnread) {
  MatrixClockCore a(D(0), 2, StampMode::kUpdates);
  MatrixClockCore b(D(1), 2, StampMode::kUpdates);
  const Stamp good = a.PrepareSend(D(1));
  for (const StampEntry& stray :
       {StampEntry{D(5), D(1), 1}, StampEntry{D(5), D(0), 1},
        StampEntry{D(0), D(7), 1}}) {
    Stamp bad = good;
    bad.entries.push_back(stray);
    EXPECT_EQ(b.CheckReceive(D(0), bad), CheckResult::kMalformed)
        << "stray (" << stray.row << "," << stray.col << ")";
  }
  EXPECT_EQ(b.CheckReceive(D(0), Stamp{}), CheckResult::kMalformed);
  EXPECT_EQ(b.CheckReceive(D(0), Stamp{{StampEntry{D(0), D(0), 1}}}),
            CheckResult::kMalformed);
  EXPECT_EQ(b.CheckReceive(D(2), good), CheckResult::kMalformed);

  ASSERT_EQ(b.CheckReceive(D(0), good), CheckResult::kDeliver);
  b.OnDeliver(D(0), good);
  EXPECT_EQ(b.matrix().at(D(0), D(1)), 1u);
  EXPECT_EQ(b.matrix().Total(), 1u);
}

// Causal transitivity through a relay, the scenario every stamp mode
// must hold back on: A -> C directly is slow, A -> B -> C is fast, so C
// sees B's relayed message (which causally follows A's) first.
class CausalCoreTransitivity : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalCoreTransitivity, RelayedMessageWaitsForItsPredecessor) {
  const StampMode mode = GetParam();
  // Built through the factory perfbench's replay ladder uses.
  auto a = MakeCausalCore(CausalCoreKind::kMatrix, D(0), 3, mode);
  auto b = MakeCausalCore(CausalCoreKind::kMatrix, D(1), 3, mode);
  auto c = MakeCausalCore(CausalCoreKind::kMatrix, D(2), 3, mode);

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
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         ModeName);

class CausalCoreRemapTest : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalCoreRemapTest, SurvivorsKeepOrderAcrossAPermutedEpoch) {
  const StampMode mode = GetParam();
  // Old domain {A=0, B=1, C=2}; C departs, survivors swap coordinates:
  // new domain {B=0, A=1}.
  MatrixClockCore a(D(0), 3, mode);
  MatrixClockCore b(D(1), 3, mode);
  MatrixClockCore c(D(2), 3, mode);
  Stir(a, b, c);
  // Quiesce is assumed by Remap; the Stir exchange is fully delivered.

  const std::vector<std::optional<DomainServerId>> old_of_new = {D(1), D(0)};
  MatrixClockCore a2 = a.Remap(D(1), 2, old_of_new);
  MatrixClockCore b2 = b.Remap(D(0), 2, old_of_new);
  ASSERT_EQ(a2.mode(), mode);
  EXPECT_EQ(a2.self(), D(1));
  EXPECT_EQ(b2.domain_size(), 2u);

  // Delivery history survives the remap, so a fresh exchange continues
  // the old sequence and a replay of it is recognised as duplicate.
  const Stamp next = a2.PrepareSend(D(0));
  ASSERT_EQ(b2.CheckReceive(D(1), next), CheckResult::kDeliver);
  b2.OnDeliver(D(1), next);
  EXPECT_EQ(b2.CheckReceive(D(1), next), CheckResult::kDuplicate);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CausalCoreRemapTest,
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates),
                         ModeName);

}  // namespace
}  // namespace cmom::clocks
