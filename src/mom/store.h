// Persistent store abstraction (the agent server's disk).
//
// AAA agents are persistent and reactions are atomic (Section 3): every
// protocol step -- accepting a message, delivering to an agent,
// stamping an outgoing message -- ends in one atomic commit of all the
// state it changed.  The Store models that disk: writes are staged with
// Put/Delete and applied atomically by Commit.
//
// Two implementations:
//   InMemoryStore - a map plus byte accounting; "disk" for simulated
//                   runs (the cost model charges per committed byte)
//                   and the crash-recovery tests (the store survives
//                   the server object it backs).
//   FileStore     - a real write-ahead log + snapshot on the local
//                   filesystem (file_store.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace cmom::mom {

class Store {
 public:
  virtual ~Store() = default;

  // Stages a write; visible to Get immediately (read-your-writes),
  // durable only after Commit.
  virtual void Put(std::string_view key, Bytes value) = 0;
  virtual void Delete(std::string_view key) = 0;

  [[nodiscard]] virtual std::optional<Bytes> Get(std::string_view key) = 0;

  // All keys with the given prefix (staged view), sorted.
  [[nodiscard]] virtual std::vector<std::string> Keys(
      std::string_view prefix) = 0;

  // Atomically applies every staged operation.
  virtual Status Commit() = 0;

  // Drops staged, uncommitted operations (transaction abort).
  virtual void Rollback() = 0;

  // Maintenance hook: folds accumulated history into a compact image
  // (FileStore truncates its write-ahead log).  Called by the control
  // plane after an epoch cutover rewrote a large slice of the keyspace.
  // Default: nothing to fold.
  virtual Status Checkpoint() { return Status::Ok(); }

  // Bytes written by the most recent Commit (keys + values); feeds the
  // simulated disk-cost model and the I/O-volume measurements.
  [[nodiscard]] virtual std::uint64_t last_commit_bytes() const = 0;
  // Total bytes written over the store's lifetime.
  [[nodiscard]] virtual std::uint64_t total_bytes_written() const = 0;
  // Smoothed cost of this store's durability barrier (fdatasync) in
  // nanoseconds; 0 for stores that never block on the device.  An
  // observability reading (benchmarks report it); the server does not
  // consult it.
  [[nodiscard]] virtual std::uint64_t sync_latency_ns() const { return 0; }
};

class InMemoryStore final : public Store {
 public:
  void Put(std::string_view key, Bytes value) override;
  void Delete(std::string_view key) override;
  [[nodiscard]] std::optional<Bytes> Get(std::string_view key) override;
  [[nodiscard]] std::vector<std::string> Keys(std::string_view prefix) override;
  Status Commit() override;
  void Rollback() override;
  [[nodiscard]] std::uint64_t last_commit_bytes() const override {
    return last_commit_bytes_;
  }
  [[nodiscard]] std::uint64_t total_bytes_written() const override {
    return total_bytes_written_;
  }

  [[nodiscard]] std::uint64_t commit_count() const { return commit_count_; }

 private:
  struct StagedOp {
    std::string key;
    std::optional<Bytes> value;  // nullopt = delete
  };

  std::map<std::string, Bytes, std::less<>> committed_;
  std::vector<StagedOp> staged_;
  std::uint64_t last_commit_bytes_ = 0;
  std::uint64_t total_bytes_written_ = 0;
  std::uint64_t commit_count_ = 0;
};

}  // namespace cmom::mom
