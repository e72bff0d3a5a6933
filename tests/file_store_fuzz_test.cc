// Crash-consistency fuzz for the file-backed store: every possible
// torn tail (truncation at each byte), every single-byte corruption,
// random multi-byte corruption, and the compaction rename window.  The
// invariant throughout: recovery yields EXACTLY the state of the
// longest prefix of whole, uncorrupted transactions -- never a crash,
// never a mix of old and new, never data past the first bad record.
#include "mom/file_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"

namespace cmom::mom {
namespace {

namespace fs = std::filesystem;

constexpr int kCommits = 30;
constexpr int kKeys = 5;

class FileStoreFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cmom_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    scratch_ = dir_;
    scratch_ += "_scratch";
    fs::remove_all(dir_);
    fs::remove_all(scratch_);
    // The corruption log lines are expected by the hundreds here.
    saved_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kOff);
  }
  void TearDown() override {
    SetLogLevel(saved_level_);
    fs::remove_all(dir_);
    fs::remove_all(scratch_);
  }

  // Runs the reference workload: commit i (1-based) puts seq=i and
  // k<i%kKeys>=i.  Returns the WAL size after each commit, so any byte
  // offset maps to the number of fully committed transactions before
  // it.
  std::vector<std::uintmax_t> RunWorkload() {
    std::vector<std::uintmax_t> offsets;
    auto store = FileStore::Open(dir_).value();
    for (int i = 1; i <= kCommits; ++i) {
      store->Put("seq", Bytes{static_cast<std::uint8_t>(i)});
      store->Put(std::string("k").append(std::to_string(i % kKeys)),
                 Bytes{static_cast<std::uint8_t>(i)});
      EXPECT_TRUE(store->Commit().ok());
      offsets.push_back(fs::file_size(dir_ / "wal.log"));
    }
    return offsets;
  }

  static Bytes ReadFile(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  // Recreates the scratch store directory holding exactly `wal` as its
  // write-ahead log and opens it.
  std::unique_ptr<FileStore> OpenScratchWal(const Bytes& wal) {
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    std::ofstream out(scratch_ / "wal.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(wal.data()),
              static_cast<std::streamsize>(wal.size()));
    out.close();
    auto opened = FileStore::Open(scratch_);
    EXPECT_TRUE(opened.ok()) << opened.status();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  // Asserts `store` holds exactly the state of the first `p` commits.
  static void ExpectPrefixState(FileStore& store, int p,
                                const std::string& context) {
    auto seq = store.Get("seq");
    if (p == 0) {
      EXPECT_FALSE(seq.has_value()) << context;
    } else {
      ASSERT_TRUE(seq.has_value()) << context;
      EXPECT_EQ((*seq)[0], p) << context;
    }
    for (int j = 0; j < kKeys; ++j) {
      int last = 0;
      for (int i = p; i >= 1; --i) {
        if (i % kKeys == j) {
          last = i;
          break;
        }
      }
      auto value = store.Get(std::string("k").append(std::to_string(j)));
      if (last == 0) {
        EXPECT_FALSE(value.has_value()) << context << " key k" << j;
      } else {
        ASSERT_TRUE(value.has_value()) << context << " key k" << j;
        EXPECT_EQ((*value)[0], last) << context << " key k" << j;
      }
    }
  }

  static int PrefixBefore(const std::vector<std::uintmax_t>& offsets,
                          std::uintmax_t byte) {
    int p = 0;
    for (std::uintmax_t end : offsets) {
      if (end <= byte) ++p;
    }
    return p;
  }

  fs::path dir_;
  fs::path scratch_;
  LogLevel saved_level_ = LogLevel::kInfo;
};

// Crash mid-append at EVERY byte boundary: the store must come back
// with exactly the longest whole-transaction prefix.
TEST_F(FileStoreFuzzTest, TruncationAtEveryByteRecoversExactPrefix) {
  const auto offsets = RunWorkload();
  const Bytes wal = ReadFile(dir_ / "wal.log");
  ASSERT_EQ(wal.size(), offsets.back());

  for (std::size_t len = 0; len <= wal.size(); ++len) {
    Bytes torn(wal.begin(), wal.begin() + static_cast<std::ptrdiff_t>(len));
    auto store = OpenScratchWal(torn);
    ASSERT_NE(store, nullptr);
    ExpectPrefixState(*store, PrefixBefore(offsets, len),
                      "truncated at " + std::to_string(len));
  }
}

// Flip every single byte in turn: CRC (or the length guard) must stop
// replay at the transaction containing the flip, keeping the prefix.
TEST_F(FileStoreFuzzTest, SingleByteCorruptionRecoversExactPrefix) {
  const auto offsets = RunWorkload();
  const Bytes wal = ReadFile(dir_ / "wal.log");

  for (std::size_t byte = 0; byte < wal.size(); ++byte) {
    Bytes corrupt = wal;
    corrupt[byte] ^= 0xA5;
    auto store = OpenScratchWal(corrupt);
    ASSERT_NE(store, nullptr);
    ExpectPrefixState(*store, PrefixBefore(offsets, byte),
                      "flipped byte " + std::to_string(byte));
  }
}

// Seeded shotgun: several flips at once; the earliest one decides the
// surviving prefix (everything after the first bad record is torn).
TEST_F(FileStoreFuzzTest, RandomMultiByteCorruptionKeepsPrefixInvariant) {
  const auto offsets = RunWorkload();
  const Bytes wal = ReadFile(dir_ / "wal.log");

  Rng rng(20260806);
  for (int round = 0; round < 100; ++round) {
    Bytes corrupt = wal;
    std::uintmax_t earliest = wal.size();
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte =
          static_cast<std::size_t>(rng.NextBelow(wal.size()));
      corrupt[byte] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      earliest = std::min<std::uintmax_t>(earliest, byte);
    }
    auto store = OpenScratchWal(corrupt);
    ASSERT_NE(store, nullptr);
    ExpectPrefixState(*store, PrefixBefore(offsets, earliest),
                      "round " + std::to_string(round));
  }
}

// Crash between Compact's rename and the WAL truncation: the new
// snapshot plus the stale pre-compaction WAL must replay to the same
// state (puts are idempotent full-value writes, deletes re-delete).
TEST_F(FileStoreFuzzTest, StaleWalAfterCompactionRenameIsIdempotent) {
  (void)RunWorkload();
  const Bytes stale_wal = ReadFile(dir_ / "wal.log");
  {
    auto store = FileStore::Open(dir_).value();
    store->Delete("k0");  // a delete in the stale tail too
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Compact().ok());
  }
  // Re-install the pre-compaction WAL as if truncation never happened.
  {
    std::ofstream out(dir_ / "wal.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(stale_wal.data()),
              static_cast<std::streamsize>(stale_wal.size()));
  }
  auto store = FileStore::Open(dir_).value();
  // Replaying the stale ops on top of the snapshot re-applies commits
  // 1..kCommits in order, converging on exactly the prefix state --
  // including resurrecting k0 (its delete was folded into the snapshot,
  // but the surviving WAL is authoritative for everything it holds,
  // which is what a real crash inside the rename window produces).
  ExpectPrefixState(*store, kCommits, "stale WAL replay");
}

// Corrupting the snapshot itself must not take recovery down: the
// snapshot is discarded as a torn transaction and the (empty) WAL
// yields an empty store.
TEST_F(FileStoreFuzzTest, CorruptSnapshotIsDiscardedNotFatal) {
  (void)RunWorkload();
  {
    auto store = FileStore::Open(dir_).value();
    ASSERT_TRUE(store->Compact().ok());
  }
  Bytes snapshot = ReadFile(dir_ / "snapshot.log");
  ASSERT_GT(snapshot.size(), 8u);
  for (const std::size_t byte :
       {std::size_t{0}, std::size_t{5}, snapshot.size() / 2,
        snapshot.size() - 1}) {
    Bytes corrupt = snapshot;
    corrupt[byte] ^= 0xA5;
    {
      std::ofstream out(dir_ / "snapshot.log", std::ios::binary);
      out.write(reinterpret_cast<const char*>(corrupt.data()),
                static_cast<std::streamsize>(corrupt.size()));
    }
    auto opened = FileStore::Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_FALSE(opened.value()->Get("seq").has_value())
        << "snapshot flipped at " << byte;
  }
}

// A crash *before* the rename leaves snapshot.log.tmp behind; recovery
// must ignore and remove it while trusting the old snapshot + WAL.
TEST_F(FileStoreFuzzTest, OrphanSnapshotTmpNeverShadowsRealState) {
  const auto offsets = RunWorkload();
  (void)offsets;
  std::ofstream(dir_ / "snapshot.log.tmp") << "half-written snapshot";
  auto store = FileStore::Open(dir_).value();
  ExpectPrefixState(*store, kCommits, "orphan tmp");
  EXPECT_FALSE(fs::exists(dir_ / "snapshot.log.tmp"));
}

}  // namespace
}  // namespace cmom::mom
