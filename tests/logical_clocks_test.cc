// Unit and property tests for Lamport and vector clocks.
#include <gtest/gtest.h>

#include "clocks/lamport_clock.h"
#include "clocks/vector_clock.h"
#include "common/rng.h"

namespace cmom::clocks {
namespace {

TEST(LamportClock, TickIncreasesMonotonically) {
  LamportClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.Tick(), 1u);
  EXPECT_EQ(clock.Tick(), 2u);
  EXPECT_EQ(clock.now(), 2u);
}

TEST(LamportClock, WitnessJumpsPastRemote) {
  LamportClock clock;
  clock.Tick();
  EXPECT_EQ(clock.Witness(10), 11u);
  EXPECT_EQ(clock.Witness(3), 12u);  // already past; still advances
}

TEST(LamportClock, MessageOrderingProperty) {
  // send at a, receive at b => a's send time < b's receive time.
  LamportClock a, b;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t sent = a.Tick();
    const std::uint64_t received = b.Witness(sent);
    EXPECT_LT(sent, received);
  }
}

TEST(VectorClock, FreshClocksAreEqual) {
  VectorClock a(4), b(4);
  EXPECT_EQ(a.Compare(b), ClockOrder::kEqual);
  EXPECT_FALSE(a.HappensBefore(b));
}

TEST(VectorClock, IncrementMakesStrictlyLater) {
  VectorClock a(3);
  VectorClock b = a;
  b.Increment(1);
  EXPECT_EQ(a.Compare(b), ClockOrder::kBefore);
  EXPECT_EQ(b.Compare(a), ClockOrder::kAfter);
  EXPECT_TRUE(a.HappensBefore(b));
  EXPECT_FALSE(b.HappensBefore(a));
}

TEST(VectorClock, ConcurrentWhenIncomparable) {
  VectorClock a(3), b(3);
  a.Increment(0);
  b.Increment(1);
  EXPECT_EQ(a.Compare(b), ClockOrder::kConcurrent);
  EXPECT_FALSE(a.HappensBefore(b));
  EXPECT_FALSE(b.HappensBefore(a));
}

TEST(VectorClock, MergeIsLeastUpperBound) {
  VectorClock a(3), b(3);
  a.Increment(0);
  a.Increment(0);
  b.Increment(1);
  VectorClock merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.at(0), 2u);
  EXPECT_EQ(merged.at(1), 1u);
  EXPECT_EQ(merged.at(2), 0u);
  EXPECT_TRUE(a.HappensBefore(merged) ||
              a.Compare(merged) == ClockOrder::kEqual);
  EXPECT_TRUE(b.HappensBefore(merged) ||
              b.Compare(merged) == ClockOrder::kEqual);
}

TEST(VectorClock, CodecRoundTrip) {
  VectorClock clock(5);
  clock.Increment(0);
  clock.Increment(3);
  clock.set(4, 12345678);
  ByteWriter writer;
  clock.Encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = VectorClock::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), clock);
}

// Property sweep: merge is commutative, associative and idempotent
// (join-semilattice laws), and Compare is antisymmetric.
class VectorClockLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VectorClockLattice, SemilatticeLaws) {
  Rng rng(GetParam());
  const std::size_t n = 6;
  auto random_clock = [&] {
    VectorClock clock(n);
    for (std::size_t i = 0; i < n; ++i) clock.set(i, rng.NextBelow(20));
    return clock;
  };
  for (int round = 0; round < 50; ++round) {
    const VectorClock a = random_clock();
    const VectorClock b = random_clock();
    const VectorClock c = random_clock();

    VectorClock ab = a;
    ab.MergeFrom(b);
    VectorClock ba = b;
    ba.MergeFrom(a);
    EXPECT_EQ(ab, ba);  // commutative

    VectorClock ab_c = ab;
    ab_c.MergeFrom(c);
    VectorClock bc = b;
    bc.MergeFrom(c);
    VectorClock a_bc = a;
    a_bc.MergeFrom(bc);
    EXPECT_EQ(ab_c, a_bc);  // associative

    VectorClock aa = a;
    aa.MergeFrom(a);
    EXPECT_EQ(aa, a);  // idempotent

    // Antisymmetry of the order.
    if (a.HappensBefore(b)) {
      EXPECT_FALSE(b.HappensBefore(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorClockLattice,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cmom::clocks
