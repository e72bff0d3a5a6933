// Protocol tests for the per-domain matrix clock core (the RST
// delivery condition with full-matrix and Updates stamps).
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "clocks/causal_core.h"
#include "common/rng.h"

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

const MatrixClockCore& MatrixCoreOf(const std::unique_ptr<CausalCore>& core) {
  return dynamic_cast<const MatrixClockCore&>(*core);
}

class CausalClockModes : public ::testing::TestWithParam<StampMode> {};

TEST_P(CausalClockModes, InOrderUnicastDelivers) {
  MatrixClockCore sender(D(1), 3, GetParam());
  MatrixClockCore receiver(D(0), 3, GetParam());
  for (int i = 0; i < 5; ++i) {
    const Stamp stamp = sender.PrepareSend(D(0));
    ASSERT_EQ(receiver.CheckReceive(D(1), stamp), CheckResult::kDeliver) << i;
    receiver.OnDeliver(D(1), stamp);
  }
  EXPECT_EQ(receiver.matrix().at(D(1), D(0)), 5u);
}

TEST_P(CausalClockModes, FifoGapHolds) {
  MatrixClockCore sender(D(1), 2, GetParam());
  MatrixClockCore receiver(D(0), 2, GetParam());
  const Stamp first = sender.PrepareSend(D(0));
  const Stamp second = sender.PrepareSend(D(0));
  // Second message arrives first: must hold.
  EXPECT_EQ(receiver.CheckReceive(D(1), second), CheckResult::kHold);
  EXPECT_EQ(receiver.CheckReceive(D(1), first), CheckResult::kDeliver);
  receiver.OnDeliver(D(1), first);
  EXPECT_EQ(receiver.CheckReceive(D(1), second), CheckResult::kDeliver);
  receiver.OnDeliver(D(1), second);
}

TEST_P(CausalClockModes, DuplicateDetected) {
  MatrixClockCore sender(D(1), 2, GetParam());
  MatrixClockCore receiver(D(0), 2, GetParam());
  const Stamp stamp = sender.PrepareSend(D(0));
  ASSERT_EQ(receiver.CheckReceive(D(1), stamp), CheckResult::kDeliver);
  receiver.OnDeliver(D(1), stamp);
  EXPECT_EQ(receiver.CheckReceive(D(1), stamp), CheckResult::kDuplicate);
}

TEST_P(CausalClockModes, CausalTriangleHoldsUntilPredecessorArrives) {
  // A -> B (m1), then A -> C (m2); C reacts with C -> B (m3).
  // If m3 reaches B before m1, B must hold it.
  const std::size_t size = 3;
  MatrixClockCore a(D(0), size, GetParam());
  MatrixClockCore b(D(1), size, GetParam());
  MatrixClockCore c(D(2), size, GetParam());

  const Stamp m1 = a.PrepareSend(D(1));
  const Stamp m2 = a.PrepareSend(D(2));

  ASSERT_EQ(c.CheckReceive(D(0), m2), CheckResult::kDeliver);
  c.OnDeliver(D(0), m2);
  const Stamp m3 = c.PrepareSend(D(1));

  // m3 arrives at B first: the (0,1)=1 knowledge inside it forces Hold.
  EXPECT_EQ(b.CheckReceive(D(2), m3), CheckResult::kHold);
  ASSERT_EQ(b.CheckReceive(D(0), m1), CheckResult::kDeliver);
  b.OnDeliver(D(0), m1);
  EXPECT_EQ(b.CheckReceive(D(2), m3), CheckResult::kDeliver);
  b.OnDeliver(D(2), m3);
}

TEST_P(CausalClockModes, ConcurrentSendersDeliverInAnyOrder) {
  MatrixClockCore a(D(0), 3, GetParam());
  MatrixClockCore b(D(1), 3, GetParam());
  MatrixClockCore receiver(D(2), 3, GetParam());
  const Stamp from_a = a.PrepareSend(D(2));
  const Stamp from_b = b.PrepareSend(D(2));
  // No causal relation: both orders must work.  Try b first.
  ASSERT_EQ(receiver.CheckReceive(D(1), from_b), CheckResult::kDeliver);
  receiver.OnDeliver(D(1), from_b);
  ASSERT_EQ(receiver.CheckReceive(D(0), from_a), CheckResult::kDeliver);
  receiver.OnDeliver(D(0), from_a);
}

TEST_P(CausalClockModes, StatePersistenceRoundTrip) {
  MatrixClockCore sender(D(1), 4, GetParam());
  MatrixClockCore receiver(D(0), 4, GetParam());
  for (int i = 0; i < 3; ++i) {
    const Stamp stamp = sender.PrepareSend(D(0));
    receiver.OnDeliver(D(0 + 1), stamp);
  }
  ByteWriter writer;
  receiver.EncodeState(writer);
  auto decoded = DecodeCausalCoreState(writer.buffer());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value()->Equals(receiver));
  EXPECT_EQ(MatrixCoreOf(decoded.value()).mode(), GetParam());

  // The recovered clock continues the protocol identically.
  const Stamp next = sender.PrepareSend(D(0));
  EXPECT_EQ(decoded.value()->CheckReceive(D(1), next),
            receiver.CheckReceive(D(1), next));
}

TEST_P(CausalClockModes, RemapPreservesQuiescedProtocolState) {
  // A quiesced 2-member domain grows to 3 with the survivors permuted
  // (old 0 -> new 2, old 1 -> new 0, newcomer at 1).  The protocol must
  // continue seamlessly: survivor-to-survivor FIFO counters carry over,
  // the newcomer starts from zero, and mode is preserved.
  MatrixClockCore a(D(0), 2, GetParam());
  MatrixClockCore b(D(1), 2, GetParam());
  for (int i = 0; i < 3; ++i) {
    const Stamp stamp = a.PrepareSend(D(1));
    ASSERT_EQ(b.CheckReceive(D(0), stamp), CheckResult::kDeliver);
    b.OnDeliver(D(0), stamp);
  }

  const std::optional<DomainServerId> map[] = {D(1), std::nullopt, D(0)};
  auto a2 = a.Remap(D(2), 3, map);
  auto b2 = b.Remap(D(0), 3, map);
  MatrixClockCore c2(D(1), 3, GetParam());
  EXPECT_EQ(MatrixCoreOf(a2).mode(), GetParam());
  EXPECT_EQ(a2->domain_size(), 3u);
  EXPECT_EQ(MatrixCoreOf(b2).matrix().at(D(2), D(0)), 3u);  // old (0,1)

  // Survivor-to-survivor traffic continues where it left off.
  const Stamp next = a2->PrepareSend(D(0));
  ASSERT_EQ(b2->CheckReceive(D(2), next), CheckResult::kDeliver);
  b2->OnDeliver(D(2), next);
  EXPECT_EQ(MatrixCoreOf(b2).matrix().at(D(2), D(0)), 4u);

  // Traffic to and from the newcomer works from a clean slate.
  const Stamp to_new = b2->PrepareSend(D(1));
  ASSERT_EQ(c2.CheckReceive(D(0), to_new), CheckResult::kDeliver);
  c2.OnDeliver(D(0), to_new);
  const Stamp from_new = c2.PrepareSend(D(2));
  ASSERT_EQ(a2->CheckReceive(D(1), from_new), CheckResult::kDeliver);
  a2->OnDeliver(D(1), from_new);
}

TEST_P(CausalClockModes, RemapShrinkForgetsDepartedMember) {
  // Three members with cross traffic; member 1 departs.  The survivors'
  // clocks drop row/col 1 and keep exchanging messages causally.
  MatrixClockCore a(D(0), 3, GetParam());
  MatrixClockCore b(D(1), 3, GetParam());
  MatrixClockCore c(D(2), 3, GetParam());
  const Stamp ab = a.PrepareSend(D(1));
  b.OnDeliver(D(0), ab);
  const Stamp bc = b.PrepareSend(D(2));
  c.OnDeliver(D(1), bc);
  const Stamp ac = a.PrepareSend(D(2));
  c.OnDeliver(D(0), ac);

  const std::optional<DomainServerId> map[] = {D(0), D(2)};
  auto a2 = a.Remap(D(0), 2, map);
  auto c2 = c.Remap(D(1), 2, map);
  EXPECT_EQ(a2->domain_size(), 2u);
  EXPECT_EQ(MatrixCoreOf(c2).matrix().at(D(0), D(1)), 1u);  // old (0,2)

  const Stamp next = a2->PrepareSend(D(1));
  ASSERT_EQ(c2->CheckReceive(D(0), next), CheckResult::kDeliver);
  c2->OnDeliver(D(0), next);
  const Stamp reply = c2->PrepareSend(D(0));
  ASSERT_EQ(a2->CheckReceive(D(1), reply), CheckResult::kDeliver);
  a2->OnDeliver(D(1), reply);
}

TEST_P(CausalClockModes, RemapIdentityRoundTripsState) {
  MatrixClockCore a(D(0), 3, GetParam());
  MatrixClockCore b(D(1), 3, GetParam());
  for (int i = 0; i < 4; ++i) {
    const Stamp stamp = a.PrepareSend(D(1));
    b.OnDeliver(D(0), stamp);
  }
  const std::optional<DomainServerId> identity[] = {D(0), D(1), D(2)};
  EXPECT_TRUE(a.Remap(D(0), 3, identity)->Equals(a));
  EXPECT_TRUE(b.Remap(D(1), 3, identity)->Equals(b));
}

INSTANTIATE_TEST_SUITE_P(Modes, CausalClockModes,
                         ::testing::Values(StampMode::kFullMatrix,
                                           StampMode::kUpdates));

// Property: full-matrix and Updates stamping are behaviourally
// equivalent under FIFO-per-link delivery.  We run the same random
// message pattern through two parallel universes (one per mode) with
// per-link FIFO queues and random interleaving, and require identical
// delivery decisions and identical final matrices.
class ModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeEquivalence, SameDecisionsAndMatrices) {
  const std::size_t size = 4;
  std::vector<MatrixClockCore> full;
  std::vector<MatrixClockCore> updates;
  for (std::uint16_t i = 0; i < size; ++i) {
    full.emplace_back(D(i), size, StampMode::kFullMatrix);
    updates.emplace_back(D(i), size, StampMode::kUpdates);
  }
  struct Link {
    std::deque<Stamp> full_frames;
    std::deque<Stamp> updates_frames;
  };
  Link links[4][4];

  Rng rng(GetParam());
  for (int step = 0; step < 400; ++step) {
    if (rng.NextBool(0.5)) {
      // A random send on both universes.
      const auto from = static_cast<std::uint16_t>(rng.NextBelow(size));
      auto to = static_cast<std::uint16_t>(rng.NextBelow(size));
      if (to == from) to = static_cast<std::uint16_t>((to + 1) % size);
      links[from][to].full_frames.push_back(full[from].PrepareSend(D(to)));
      links[from][to].updates_frames.push_back(
          updates[from].PrepareSend(D(to)));
    } else {
      // A random non-empty link delivers its head (FIFO).
      const auto from = static_cast<std::uint16_t>(rng.NextBelow(size));
      const auto to = static_cast<std::uint16_t>(rng.NextBelow(size));
      Link& link = links[from][to];
      if (link.full_frames.empty()) continue;
      const CheckResult full_check =
          full[to].CheckReceive(D(from), link.full_frames.front());
      const CheckResult updates_check =
          updates[to].CheckReceive(D(from), link.updates_frames.front());
      ASSERT_EQ(full_check, updates_check) << "step " << step;
      if (full_check == CheckResult::kDeliver) {
        full[to].OnDeliver(D(from), link.full_frames.front());
        updates[to].OnDeliver(D(from), link.updates_frames.front());
        link.full_frames.pop_front();
        link.updates_frames.pop_front();
      }
      // On kHold the frame stays at the head (FIFO link semantics).
    }
  }
  for (std::uint16_t i = 0; i < size; ++i) {
    EXPECT_EQ(full[i].matrix(), updates[i].matrix()) << "server " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

// Updates stamps must be no larger than full stamps, and shrink to a
// handful of entries in steady-state unicast.
TEST(UpdatesStampSize, SteadyStateUnicastIsConstant) {
  const std::size_t size = 16;
  MatrixClockCore sender(D(1), size, StampMode::kUpdates);
  MatrixClockCore receiver(D(0), size, StampMode::kUpdates);
  std::size_t last_size = 0;
  for (int i = 0; i < 10; ++i) {
    const Stamp stamp = sender.PrepareSend(D(0));
    last_size = stamp.entries.size();
    receiver.OnDeliver(D(1), stamp);
  }
  EXPECT_EQ(last_size, 1u);  // only the (1,0) counter changes per send

  MatrixClockCore full_sender(D(1), size, StampMode::kFullMatrix);
  const Stamp full_stamp = full_sender.PrepareSend(D(0));
  EXPECT_EQ(full_stamp.entries.size(), size * size);
}

}  // namespace
}  // namespace cmom::clocks
