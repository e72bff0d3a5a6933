// Reusable agents for experiments, examples and tests.
//
// EchoAgent and the two driver agents implement the measurement
// protocol of Section 6.1: a main agent on server 0 sends pings and
// computes round-trip times over a fixed number of rounds, against
// echo agents that send every received message back.  ChatterAgent
// generates branching causal chains for the property tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mom/agent.h"

namespace cmom::workload {

// Conventional subjects used by the workload agents.
inline constexpr const char* kStart = "start";
inline constexpr const char* kPing = "ping";
inline constexpr const char* kPong = "pong";
inline constexpr const char* kChat = "chat";

// Sends every "ping" back to its sender as a "pong" with the same
// payload.  Counts pings for test introspection; the counter is
// atomic because tests poll it from their own thread while a threaded
// engine is still reacting.
class EchoAgent final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override;

  [[nodiscard]] std::uint64_t pings_seen() const {
    return pings_seen_.load(std::memory_order_relaxed);
  }

  void EncodeState(ByteWriter& out) const override;
  [[nodiscard]] Status DecodeState(ByteReader& in) override;

 private:
  std::atomic<std::uint64_t> pings_seen_{0};
};

// Swallows everything; keeps a count.  Used as a destination when the
// test itself injects traffic.
class SinkAgent final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override;

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] const std::vector<MessageId>& order() const { return order_; }

 private:
  std::uint64_t received_ = 0;
  std::vector<MessageId> order_;
};

// The "main agent" of the unicast experiments: after a kStart message
// it ping-pongs `rounds` times against a single echo agent, recording
// each round trip.
class PingPongDriver final : public mom::Agent {
 public:
  PingPongDriver(AgentId target, std::size_t rounds)
      : target_(target), rounds_(rounds) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override;

  [[nodiscard]] bool done() const { return completed_ >= rounds_; }
  // Nanoseconds per completed round trip (simulated or wall time).
  [[nodiscard]] const std::vector<std::uint64_t>& round_trip_ns() const {
    return round_trips_ns_;
  }

  void EncodeState(ByteWriter& out) const override;
  [[nodiscard]] Status DecodeState(ByteReader& in) override;

 private:
  void SendPing(mom::ReactionContext& ctx);

  AgentId target_;
  std::size_t rounds_;
  std::size_t completed_ = 0;
  std::uint64_t round_start_ns_ = 0;
  std::vector<std::uint64_t> round_trips_ns_;
};

// The "main agent" of the broadcast experiment: each round sends a ping
// to every target and completes when all pongs arrived.
class BroadcastDriver final : public mom::Agent {
 public:
  BroadcastDriver(std::vector<AgentId> targets, std::size_t rounds)
      : targets_(std::move(targets)), rounds_(rounds) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override;

  [[nodiscard]] bool done() const { return completed_ >= rounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& round_trip_ns() const {
    return round_trips_ns_;
  }

 private:
  void StartRound(mom::ReactionContext& ctx);

  std::vector<AgentId> targets_;
  std::size_t rounds_;
  std::size_t completed_ = 0;
  std::size_t pongs_outstanding_ = 0;
  std::uint64_t round_start_ns_ = 0;
  std::vector<std::uint64_t> round_trips_ns_;
};

// Random causal-chain generator: a kChat message carries a remaining
// hop count; the agent forwards it to 1-2 random peers with the count
// decremented, creating branching receive-then-send chains across the
// whole topology.  Fully deterministic from the seed (the RNG state is
// part of the agent's persistent image).
class ChatterAgent final : public mom::Agent {
 public:
  ChatterAgent(std::uint64_t seed, std::vector<AgentId> peers)
      : rng_state_(seed), peers_(std::move(peers)) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override;

  [[nodiscard]] std::uint64_t received() const { return received_; }

  void EncodeState(ByteWriter& out) const override;
  [[nodiscard]] Status DecodeState(ByteReader& in) override;

  // Payload helpers (varint hop count).
  [[nodiscard]] static Bytes MakeChatPayload(std::uint32_t hops);

 private:
  std::uint64_t rng_state_;
  std::vector<AgentId> peers_;
  std::uint64_t received_ = 0;
};

}  // namespace cmom::workload
