// Durable store schema of an AgentServer (DESIGN §10.1).
//
// Every queue entry lives under its own key, so a commit writes only
// what the protocol step changed:
//
//   meta                      varint next message seq, varint boot
//                             incarnation
//   clk/<dom>                 matrix-clock image of deployment domain
//                             <dom> (clocks::MatrixClockCore::EncodeState)
//   qout/<origin><seq>        varint enqueue ticket, message, u16 next
//                             hop, u16 domain, stamp
//   qin/<seq>                 message
//   hold/<dom>/<origin><seq>  varint arrival ticket, u16 sender's
//                             domain-local id, length-prefixed DataFrame
//   fwd/<seq>                 u16 source domain, message (router DRR
//                             staging, src/flow)
//   agent/<local id>          Agent::EncodeState image (decimal id)
//   dlq/<seq>                 dead-letter record (flow/dead_letter.h)
//   epoch/current|pending     control-plane records (control/epoch.h)
//
// <dom> is 4 hex digits, <origin> 4 and <seq> 16, all zero-padded
// lower-case, so Store::Keys(prefix) order is numeric order.  The
// control plane reads and rewrites clk/ records and checks the queue
// prefixes during an epoch cutover, so both sides take the schema from
// here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "common/status.h"

namespace cmom::mom {

inline constexpr std::string_view kMetaKey = "meta";
inline constexpr std::string_view kClockKeyPrefix = "clk/";
inline constexpr std::string_view kQueueOutKeyPrefix = "qout/";
inline constexpr std::string_view kQueueInKeyPrefix = "qin/";
inline constexpr std::string_view kHoldKeyPrefix = "hold/";
inline constexpr std::string_view kFwdKeyPrefix = "fwd/";
inline constexpr std::string_view kAgentKeyPrefix = "agent/";
// Control-plane records; control/epoch.h owns their format.
inline constexpr std::string_view kEpochCurrentKey = "epoch/current";
inline constexpr std::string_view kEpochPendingKey = "epoch/pending";

// Prefixes of the per-message records: a drained server's store holds
// none of them.
inline constexpr std::array<std::string_view, 4> kQueueKeyPrefixes = {
    kQueueOutKeyPrefix, kQueueInKeyPrefix, kHoldKeyPrefix, kFwdKeyPrefix};

[[nodiscard]] std::string ClockKey(std::size_t deployment_index);
[[nodiscard]] std::string OutKey(MessageId id);
[[nodiscard]] std::string InKey(std::uint64_t seq);
[[nodiscard]] std::string FwdKey(std::uint64_t seq);
[[nodiscard]] std::string HoldKey(std::size_t deployment_index, MessageId id);
[[nodiscard]] std::string AgentKey(std::uint32_t local_id);

// Parses the hex digits of `key` after `prefix` (DataLoss when they are
// missing or not lower-case hex).
[[nodiscard]] Result<std::uint64_t> ParseHexSuffix(std::string_view key,
                                                   std::string_view prefix);

}  // namespace cmom::mom
