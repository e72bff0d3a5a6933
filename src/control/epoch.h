// Durable epoch records -- the control plane's unit of truth.
//
// Every store carries at most two epoch records:
//
//   epoch/current - the configuration the server last cut over to (a
//                   store from before the control plane has none and
//                   is implicitly at epoch 0)
//   epoch/pending - a proposed next configuration, written during the
//                   propose phase and deleted atomically by the same
//                   store commit that advances epoch/current
//
// A record is the epoch number followed by the full configuration text
// (config_io format), so recovery can rebuild a ReconfigPlan from the
// stores alone -- the coordinator object that wrote the proposal may
// have crashed with the rest of the process.
//
// The key names belong to the store schema (mom/store_schema.h).
// mom::AgentServer reads only the leading varint of epoch/current (to
// cross-check its boot epoch); the full codec lives here so mom never
// depends on control.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "mom/store.h"
#include "mom/store_schema.h"

namespace cmom::control {

using mom::kEpochCurrentKey;
using mom::kEpochPendingKey;

struct EpochRecord {
  std::uint64_t epoch = 0;
  // FormatMomConfig() of the epoch's configuration.
  std::string config_text;
  // Pending records also carry the configuration being replaced, so
  // Recover() can rebuild the full ReconfigPlan (including the clock
  // remaps, which need the OLD member orders) with no survivor still
  // at the old epoch.  Empty on current records.
  std::string prev_config_text;

  friend bool operator==(const EpochRecord&, const EpochRecord&) = default;

  void Encode(ByteWriter& out) const;
  [[nodiscard]] static Result<EpochRecord> Decode(ByteReader& in);
};

// Decodes a record read from a store, nullopt when absent.
[[nodiscard]] Result<std::optional<EpochRecord>> ParseEpochRecord(
    const std::optional<Bytes>& blob);

// Reads the record under `key`, nullopt when absent.  Only for a store
// no running server writes (see Coordinator::EpochRecordOf).
[[nodiscard]] Result<std::optional<EpochRecord>> ReadEpochRecord(
    mom::Store& store, std::string_view key);

// Serializes `record` for a Store::Put (the caller owns the commit, so
// a record write can ride in the same transaction as other changes).
[[nodiscard]] Bytes EncodeEpochRecord(const EpochRecord& record);

// The epoch a store is at: its epoch/current record, or 0 when none.
// Same caveat as ReadEpochRecord.
[[nodiscard]] Result<std::uint64_t> CurrentEpochOf(mom::Store& store);

}  // namespace cmom::control
