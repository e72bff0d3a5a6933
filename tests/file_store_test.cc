// Tests for the file-backed WAL + snapshot store, including crash
// recovery from torn and corrupted tails.
#include "mom/file_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace cmom::mom {
namespace {

namespace fs = std::filesystem;

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cmom_store_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

Bytes B(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST_F(FileStoreTest, PersistsAcrossReopen) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("alpha", B({1, 2, 3}));
    store->Put("beta", B({4}));
    ASSERT_TRUE(store->Commit().ok());
  }
  auto store = FileStore::Open(dir_).value();
  ASSERT_TRUE(store->Get("alpha").has_value());
  EXPECT_EQ(*store->Get("alpha"), B({1, 2, 3}));
  EXPECT_EQ(*store->Get("beta"), B({4}));
}

TEST_F(FileStoreTest, DataSyncModeSyncsEveryCommitAndCompaction) {
  FileStoreOptions options;
  options.sync_mode = SyncMode::kDataSync;
  {
    auto store = FileStore::Open(dir_, options).value();
    EXPECT_EQ(store->sync_calls(), 0u);
    store->Put("alpha", B({1}));
    ASSERT_TRUE(store->Commit().ok());
    EXPECT_EQ(store->sync_calls(), 1u);
    store->Put("beta", B({2}));
    ASSERT_TRUE(store->Commit().ok());
    EXPECT_EQ(store->sync_calls(), 2u);
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_GT(store->sync_calls(), 2u);  // the snapshot is synced too
  }
  auto store = FileStore::Open(dir_, options).value();
  EXPECT_EQ(*store->Get("alpha"), B({1}));
  EXPECT_EQ(*store->Get("beta"), B({2}));
}

TEST_F(FileStoreTest, DefaultSyncModeNeverCallsFdatasync) {
  auto store = FileStore::Open(dir_).value();
  store->Put("alpha", B({1}));
  ASSERT_TRUE(store->Commit().ok());
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->sync_calls(), 0u);
}

TEST_F(FileStoreTest, UncommittedWritesDoNotSurvive) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("committed", B({1}));
    ASSERT_TRUE(store->Commit().ok());
    store->Put("staged", B({2}));
    // no commit
  }
  auto store = FileStore::Open(dir_).value();
  EXPECT_TRUE(store->Get("committed").has_value());
  EXPECT_FALSE(store->Get("staged").has_value());
}

TEST_F(FileStoreTest, DeletesPersist) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("k", B({1}));
    ASSERT_TRUE(store->Commit().ok());
    store->Delete("k");
    ASSERT_TRUE(store->Commit().ok());
  }
  auto store = FileStore::Open(dir_).value();
  EXPECT_FALSE(store->Get("k").has_value());
}

TEST_F(FileStoreTest, TornTailIsDiscarded) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("good", B({1}));
    ASSERT_TRUE(store->Commit().ok());
  }
  // Simulate a crash mid-append: write a header that claims more bytes
  // than exist.
  {
    std::ofstream wal(dir_ / "wal.log", std::ios::binary | std::ios::app);
    const std::uint32_t bogus_len = 1000;
    const std::uint32_t bogus_crc = 0;
    wal.write(reinterpret_cast<const char*>(&bogus_len), 4);
    wal.write(reinterpret_cast<const char*>(&bogus_crc), 4);
    wal.write("short", 5);
  }
  auto store = FileStore::Open(dir_).value();
  EXPECT_TRUE(store->Get("good").has_value());
}

TEST_F(FileStoreTest, CorruptCrcIsDiscarded) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("good", B({1}));
    ASSERT_TRUE(store->Commit().ok());
    store->Put("later", B({2}));
    ASSERT_TRUE(store->Commit().ok());
  }
  // Flip a byte inside the second transaction's body.
  {
    std::fstream wal(dir_ / "wal.log",
                     std::ios::binary | std::ios::in | std::ios::out);
    wal.seekg(0, std::ios::end);
    const auto size = static_cast<long>(wal.tellg());
    wal.seekp(size - 2);
    wal.put('\x5A');
  }
  auto store = FileStore::Open(dir_).value();
  EXPECT_TRUE(store->Get("good").has_value());
  EXPECT_FALSE(store->Get("later").has_value());  // corrupt txn dropped
}

TEST_F(FileStoreTest, CompactionPreservesStateAndTruncatesWal) {
  {
    auto store = FileStore::Open(dir_).value();
    for (int i = 0; i < 50; ++i) {
      store->Put("key" + std::to_string(i % 5), Bytes(100, 7));
      ASSERT_TRUE(store->Commit().ok());
    }
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_LT(fs::file_size(dir_ / "wal.log"), 10u);
  }
  auto store = FileStore::Open(dir_).value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store->Get("key" + std::to_string(i)).has_value());
  }
  // Writes after compaction still persist.
  store->Put("fresh", B({9}));
  ASSERT_TRUE(store->Commit().ok());
  auto reopened = FileStore::Open(dir_).value();
  EXPECT_TRUE(reopened->Get("fresh").has_value());
}

TEST_F(FileStoreTest, AutoCompactionKicksInPastThreshold) {
  auto store = FileStore::Open(dir_).value();
  store->set_compaction_threshold(1024);
  for (int i = 0; i < 100; ++i) {
    store->Put("hot", Bytes(200, 1));
    ASSERT_TRUE(store->Commit().ok());
  }
  EXPECT_LT(fs::file_size(dir_ / "wal.log"), 4096u);
  EXPECT_TRUE(fs::exists(dir_ / "snapshot.log"));
}

TEST_F(FileStoreTest, OrphanSnapshotTmpIsIgnored) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("k", B({1}));
    ASSERT_TRUE(store->Commit().ok());
  }
  std::ofstream(dir_ / "snapshot.log.tmp") << "garbage from crashed compact";
  auto store = FileStore::Open(dir_).value();
  EXPECT_TRUE(store->Get("k").has_value());
  EXPECT_FALSE(fs::exists(dir_ / "snapshot.log.tmp"));
}

TEST_F(FileStoreTest, ShortWalWriteLeavesPreviousStateRecoverable) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("good", B({1}));
    ASSERT_TRUE(store->Commit().ok());

    // ENOSPC mid-append: only the first 6 bytes of the next record
    // reach the disk -- not even a whole header.
    store->set_wal_write_limit(6);
    store->Put("doomed", B({2}));
    EXPECT_EQ(store->Commit().code(), StatusCode::kUnavailable);
    store->Rollback();

    // The cache is back at the committed image...
    EXPECT_EQ(*store->Get("good"), B({1}));
    EXPECT_FALSE(store->Get("doomed").has_value());

    // ...and the store refuses further commits: appending after the
    // torn tail would corrupt the log by offset.  This is the store
    // half of fail-stop.
    store->Put("late", B({3}));
    EXPECT_EQ(store->Commit().code(), StatusCode::kUnavailable);
    store->Rollback();
  }
  // Boot recovery: the CRC scan discards the torn prefix and the store
  // is exactly at its previous consistent state, writable again.
  auto store = FileStore::Open(dir_).value();
  EXPECT_EQ(*store->Get("good"), B({1}));
  EXPECT_FALSE(store->Get("doomed").has_value());
  EXPECT_FALSE(store->Get("late").has_value());
  store->Put("fresh", B({4}));
  ASSERT_TRUE(store->Commit().ok());
  auto reopened = FileStore::Open(dir_).value();
  EXPECT_EQ(*reopened->Get("good"), B({1}));
  EXPECT_EQ(*reopened->Get("fresh"), B({4}));
}

TEST_F(FileStoreTest, ShortWriteTornTailDoesNotShadowEarlierRecords) {
  {
    auto store = FileStore::Open(dir_).value();
    store->Put("a", B({1}));
    ASSERT_TRUE(store->Commit().ok());
    store->Put("b", B({2}));
    ASSERT_TRUE(store->Commit().ok());
    // Torn write that includes a full valid header but only part of the
    // body: the CRC check must reject it.
    store->set_wal_write_limit(12);
    store->Put("c", B({3, 3, 3, 3}));
    EXPECT_EQ(store->Commit().code(), StatusCode::kUnavailable);
  }
  auto store = FileStore::Open(dir_).value();
  EXPECT_EQ(*store->Get("a"), B({1}));
  EXPECT_EQ(*store->Get("b"), B({2}));
  EXPECT_FALSE(store->Get("c").has_value());
}

TEST_F(FileStoreTest, RollbackDiscardsStaged) {
  auto store = FileStore::Open(dir_).value();
  store->Put("a", B({1}));
  ASSERT_TRUE(store->Commit().ok());
  store->Put("a", B({2}));
  store->Rollback();
  EXPECT_EQ(*store->Get("a"), B({1}));
  ASSERT_TRUE(store->Commit().ok());  // empty commit
  auto reopened = FileStore::Open(dir_).value();
  EXPECT_EQ(*reopened->Get("a"), B({1}));
}

TEST_F(FileStoreTest, ManyKeysSurviveMixedWorkload) {
  {
    auto store = FileStore::Open(dir_).value();
    for (int round = 0; round < 10; ++round) {
      for (int k = 0; k < 20; ++k) {
        store->Put(std::string("k").append(std::to_string(k)),
                   Bytes{static_cast<std::uint8_t>(round),
                         static_cast<std::uint8_t>(k)});
      }
      if (round % 3 == 0) {
        store->Delete(std::string("k").append(std::to_string(round)));
      }
      ASSERT_TRUE(store->Commit().ok());
    }
  }
  auto store = FileStore::Open(dir_).value();
  // k0/k3/k6 were re-put by later rounds; k9's delete in the final
  // round is the last word on it.
  EXPECT_EQ(store->Keys("k").size(), 19u);
  EXPECT_FALSE(store->Get("k9").has_value());
  EXPECT_EQ((*store->Get("k5"))[0], 9);  // last round's value
}

}  // namespace
}  // namespace cmom::mom
