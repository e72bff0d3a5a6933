// Strong identifier types used throughout the middleware.
//
// The paper (Section 5) gives every agent server two identities: a
// *global* ServerId, unique across the whole MOM and used by
// application-level agents, and a *domain-local* server id used by the
// causal-ordering machinery of each domain the server belongs to.  We
// mirror that split here with distinct types so the two id spaces cannot
// be confused at compile time.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace cmom {

// Tagged integral id.  Distinct Tag types produce distinct, non-
// convertible id types with value semantics and total ordering.
template <typename Tag, typename Rep = std::uint32_t>
class Id {
 public:
  using rep_type = Rep;

  constexpr Id() = default;
  constexpr explicit Id(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(Id, Id) = default;
  friend constexpr auto operator<=>(Id, Id) = default;

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    return os << id.value_;
  }

 private:
  Rep value_ = 0;
};

// Global identity of an agent server (unique across the whole MOM).
struct ServerIdTag {};
using ServerId = Id<ServerIdTag, std::uint16_t>;

// Identity of a causality domain.
struct DomainIdTag {};
using DomainId = Id<DomainIdTag, std::uint16_t>;

// Position of a server inside one domain (index into that domain's
// matrix clock).  Only meaningful relative to a DomainId.
struct DomainServerIdTag {};
using DomainServerId = Id<DomainServerIdTag, std::uint16_t>;

// Identity of an agent: the server that hosts it plus a server-local
// sequence number.  Agents are location-dependent, as in AAA.
struct AgentId {
  ServerId server;
  std::uint32_t local = 0;

  friend constexpr bool operator==(const AgentId&, const AgentId&) = default;
  friend constexpr auto operator<=>(const AgentId&, const AgentId&) = default;

  friend std::ostream& operator<<(std::ostream& os, const AgentId& id) {
    return os << "a" << id.server << "." << id.local;
  }
};

// Globally unique message identity: sending server plus a per-sender
// sequence number.  Used by the trace recorder and the delivery dedup.
struct MessageId {
  ServerId origin;
  std::uint64_t seq = 0;

  friend constexpr bool operator==(const MessageId&, const MessageId&) = default;
  friend constexpr auto operator<=>(const MessageId&, const MessageId&) = default;

  friend std::ostream& operator<<(std::ostream& os, const MessageId& id) {
    return os << "m" << id.origin << ":" << id.seq;
  }
};

// Built by appending to the prefix: GCC 12 flags the inlined
// `"S" + std::to_string(...)` (a prepend) with a false -Wrestrict.
[[nodiscard]] inline std::string to_string(ServerId id) {
  std::string out(1, 'S');
  out += std::to_string(id.value());
  return out;
}
[[nodiscard]] inline std::string to_string(DomainId id) {
  std::string out(1, 'D');
  out += std::to_string(id.value());
  return out;
}

}  // namespace cmom

namespace std {

template <typename Tag, typename Rep>
struct hash<cmom::Id<Tag, Rep>> {
  size_t operator()(cmom::Id<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

template <>
struct hash<cmom::AgentId> {
  size_t operator()(const cmom::AgentId& id) const noexcept {
    return (std::hash<std::uint16_t>{}(id.server.value()) * 1000003u) ^
           std::hash<std::uint32_t>{}(id.local);
  }
};

template <>
struct hash<cmom::MessageId> {
  size_t operator()(const cmom::MessageId& id) const noexcept {
    return (std::hash<std::uint16_t>{}(id.origin.value()) * 1000003u) ^
           std::hash<std::uint64_t>{}(id.seq);
  }
};

}  // namespace std
