// Unit tests for the Appendix-A Updates delta-stamping algorithm.
#include "clocks/updates_tracker.h"

#include <gtest/gtest.h>

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

TEST(UpdatesTracker, FirstSendCarriesEverythingChanged) {
  MatrixClock matrix(3);
  UpdatesTracker tracker(3);
  matrix.set(D(0), D(1), 1);
  tracker.NoteChange(D(0), D(1), std::nullopt);
  matrix.set(D(0), D(2), 1);
  tracker.NoteChange(D(0), D(2), std::nullopt);

  const Stamp stamp = tracker.CollectFor(D(1), matrix);
  ASSERT_EQ(stamp.entries.size(), 2u);
  EXPECT_NE(stamp.Find(D(0), D(1)), nullptr);
  EXPECT_NE(stamp.Find(D(0), D(2)), nullptr);
}

TEST(UpdatesTracker, SecondSendCarriesOnlyTheDelta) {
  MatrixClock matrix(3);
  UpdatesTracker tracker(3);
  matrix.set(D(0), D(1), 1);
  tracker.NoteChange(D(0), D(1), std::nullopt);
  (void)tracker.CollectFor(D(1), matrix);

  matrix.set(D(0), D(1), 2);
  tracker.NoteChange(D(0), D(1), std::nullopt);
  matrix.set(D(2), D(2), 4);
  tracker.NoteChange(D(2), D(2), std::nullopt);

  const Stamp stamp = tracker.CollectFor(D(1), matrix);
  ASSERT_EQ(stamp.entries.size(), 2u);
  EXPECT_EQ(stamp.Find(D(0), D(1))->value, 2u);
  EXPECT_EQ(stamp.Find(D(2), D(2))->value, 4u);
}

TEST(UpdatesTracker, NoChangesMeansEmptyStamp) {
  MatrixClock matrix(2);
  UpdatesTracker tracker(2);
  matrix.set(D(0), D(1), 1);
  tracker.NoteChange(D(0), D(1), std::nullopt);
  (void)tracker.CollectFor(D(1), matrix);
  const Stamp stamp = tracker.CollectFor(D(1), matrix);
  EXPECT_TRUE(stamp.entries.empty());
}

TEST(UpdatesTracker, IndependentPerDestinationCursors) {
  MatrixClock matrix(3);
  UpdatesTracker tracker(3);
  matrix.set(D(0), D(1), 1);
  tracker.NoteChange(D(0), D(1), std::nullopt);
  (void)tracker.CollectFor(D(1), matrix);

  // Destination 2 has seen nothing yet; it still gets the entry.
  const Stamp stamp = tracker.CollectFor(D(2), matrix);
  ASSERT_EQ(stamp.entries.size(), 1u);
  EXPECT_EQ(stamp.Find(D(0), D(1))->value, 1u);
}

TEST(UpdatesTracker, EntriesLearnedFromDestAreNotEchoedBack) {
  // The Mat[k,l].node refinement: server 0 learns (1,0)=5 from server 1;
  // a later message to server 1 must not carry that entry back.
  MatrixClock matrix(3);
  UpdatesTracker tracker(3);
  matrix.set(D(1), D(0), 5);
  tracker.NoteChange(D(1), D(0), D(1));  // learned from server 1

  const Stamp to_one = tracker.CollectFor(D(1), matrix);
  EXPECT_EQ(to_one.Find(D(1), D(0)), nullptr);

  // But a third party does receive it.
  matrix.set(D(1), D(2), 7);
  tracker.NoteChange(D(1), D(2), D(1));
  const Stamp to_two = tracker.CollectFor(D(2), matrix);
  EXPECT_NE(to_two.Find(D(1), D(2)), nullptr);
}

TEST(UpdatesTracker, ReChangeBySelfClearsTheExclusion) {
  MatrixClock matrix(2);
  UpdatesTracker tracker(2);
  matrix.set(D(1), D(0), 5);
  tracker.NoteChange(D(1), D(0), D(1));
  (void)tracker.CollectFor(D(1), matrix);
  // Now the owner itself bumps the entry (e.g. merged from elsewhere).
  matrix.set(D(1), D(0), 6);
  tracker.NoteChange(D(1), D(0), std::nullopt);
  const Stamp stamp = tracker.CollectFor(D(1), matrix);
  EXPECT_NE(stamp.Find(D(1), D(0)), nullptr);
}

}  // namespace
}  // namespace cmom::clocks
