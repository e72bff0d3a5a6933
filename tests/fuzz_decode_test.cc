// Robustness: every decoder must survive arbitrary bytes -- returning
// an error or a value, never crashing or reading out of bounds -- and
// live servers must survive garbage frames from the network.  The
// "fuzzing" is deterministic (seeded) so failures replay.
#include <gtest/gtest.h>

#include "clocks/causal_core.h"
#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "common/log.h"
#include "common/rng.h"
#include "domains/config_io.h"
#include "domains/topologies.h"
#include "mom/message.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

Bytes RandomBytes(Rng& rng, std::size_t max_size) {
  Bytes bytes(rng.NextBelow(max_size + 1));
  for (auto& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return bytes;
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const Bytes bytes = RandomBytes(rng, 200);
    {
      ByteReader reader(bytes);
      (void)clocks::Stamp::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::MatrixClock::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::VectorClock::Decode(reader);
    }
    (void)clocks::DecodeCausalCoreState(bytes);
    for (std::uint8_t kind : {0, 1}) {
      // The same bytes behind each valid kind byte exercise every
      // per-kind core payload decoder.
      Bytes tagged{kind};
      tagged.insert(tagged.end(), bytes.begin(), bytes.end());
      (void)clocks::DecodeCausalCoreState(tagged);
    }
    {
      ByteReader reader(bytes);
      (void)mom::Message::Decode(reader);
    }
    (void)mom::DataFrame::Deserialize(bytes);
    (void)mom::DeserializeAck(bytes);
    (void)mom::PeekFrameType(bytes);
  }
}

TEST_P(DecodeFuzz, BitFlippedValidFramesNeverCrash) {
  Rng rng(GetParam() + 100);
  mom::DataFrame frame;
  frame.message.id = MessageId{ServerId(1), 7};
  frame.message.from = AgentId{ServerId(1), 2};
  frame.message.to = AgentId{ServerId(3), 4};
  frame.message.subject = "subject";
  frame.message.payload = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  frame.domain = DomainId(2);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 42},
                         {DomainServerId(1), DomainServerId(0), 7}};
  const Bytes valid = frame.Serialize();

  for (int round = 0; round < 300; ++round) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.NextBelow(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.NextBelow(8));
    }
    auto decoded = mom::DataFrame::Deserialize(mutated);
    if (decoded.ok()) {
      // A decode that "succeeds" must at least be internally
      // re-serializable (no wild pointers or absurd sizes).
      EXPECT_LE(decoded.value().stamp.entries.size(), 1000000u);
      (void)decoded.value().Serialize();
    }
  }
}

TEST_P(DecodeFuzz, ConfigParserNeverCrashes) {
  Rng rng(GetParam() + 200);
  const char* fragments[] = {"servers", "domain", "=", "0", "1", "99999",
                             "stamp_mode", "updates", "full", "#",
                             "allow_cyclic", "true", "\n", "x", "-1",
                             "causal_core", "matrix", "hybrid", "reduced"};
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const std::size_t pieces = rng.NextBelow(30);
    for (std::size_t p = 0; p < pieces; ++p) {
      text += fragments[rng.NextBelow(std::size(fragments))];
      text += rng.NextBool(0.3) ? "\n" : " ";
    }
    (void)domains::ParseMomConfig(text);
    (void)domains::ParseTrafficProfile(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(1, 2, 3, 4));

TEST(GarbageFrames, LiveServerSurvivesJunkFromTheNetwork) {
  // Bare setup: S0's endpoint is held by the test (a malicious or
  // broken peer), S1 runs a real server.  Junk from S0 must be
  // logged-and-dropped while S1 keeps serving local traffic.
  // The junk provokes (expected) warnings; keep the test log quiet.
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  auto deployment =
      domains::Deployment::Create(domains::topologies::Flat(2)).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto attacker = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store;
  mom::AgentServer server(deployment, ServerId(1), endpoint1.get(), &runtime,
                          &store);
  workload::SinkAgent* sink = nullptr;
  {
    auto agent = std::make_unique<workload::SinkAgent>();
    sink = agent.get();
    server.AttachAgent(1, std::move(agent));
  }
  ASSERT_TRUE(server.Boot().ok());

  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(attacker->Send(ServerId(1), RandomBytes(rng, 64)).ok());
  }
  // Also a structurally valid data frame with an absurd domain and a
  // stamp that lies about its own send counter.
  mom::DataFrame weird;
  weird.message.id = MessageId{ServerId(0), 1};
  weird.message.from = AgentId{ServerId(0), 1};
  weird.message.to = AgentId{ServerId(1), 1};
  weird.domain = DomainId(999);
  ASSERT_TRUE(attacker->Send(ServerId(1), weird.Serialize()).ok());
  simulator.RunToCompletion();

  // The server is still alive and serves local application traffic.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server
                    .SendMessage(AgentId{ServerId(1), 1},
                                 AgentId{ServerId(1), 1}, "local")
                    .ok());
  }
  simulator.RunToCompletion();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->received(), 5u);
  server.Shutdown();
  SetLogLevel(saved_level);
}

}  // namespace
}  // namespace cmom
