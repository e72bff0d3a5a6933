// Golden bytes for the current wire and store formats.  Each expected
// string is the hex of what the encoders wrote when the formats were
// pinned; a change that moves any byte of a frame, a key or a record
// fails here and must say why.  Store records are captured through a
// recording Store under the real AgentServer, so the keys and values
// are the ones a live server commits.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/message.h"
#include "mom/store.h"
#include "mom/store_schema.h"
#include "net/sim_network.h"
#include "sim/simulator.h"
#include "workload/agents.h"

namespace cmom {
namespace {

std::string Hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

Bytes Unhex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

mom::Message SampleMessage() {
  mom::Message message;
  message.id = MessageId{ServerId(3), 99};
  message.from = AgentId{ServerId(3), 1};
  message.to = AgentId{ServerId(7), 2};
  message.subject = "quote";
  message.payload = Bytes{10, 20, 30};
  return message;
}

mom::DataFrame SampleFrame() {
  mom::DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(4);
  frame.epoch = 2;
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 17},
                         {DomainServerId(1), DomainServerId(1), 300}};
  frame.incarnation = 1;
  return frame;
}

// ---------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------

TEST(WireGolden, MatrixCoreDataFrame) {
  const mom::DataFrame frame = SampleFrame();
  const Bytes bytes = frame.Serialize();
  EXPECT_EQ(Hex(bytes),
            "010300630300010700020571756f7465030a141e040002020001110101ac0201");
  auto decoded = mom::DataFrame::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), frame);
}

// The retired hybrid core tagged its frames with a trailing varint 01
// after the incarnation.  No tag is written or read any more, so the
// frame the parent format encoded for it is one trailing byte too long.
TEST(WireGolden, HybridCoreDataFrame) {
  const Bytes tagged = Unhex(
      "010300630300010700020571756f7465030a141e040002020001110101ac020301");
  EXPECT_EQ(mom::DataFrame::Deserialize(tagged).status().code(),
            StatusCode::kDataLoss);
  // Without the tag it is an ordinary matrix frame.
  mom::DataFrame frame = SampleFrame();
  frame.incarnation = 3;
  const Bytes untagged(tagged.begin(), tagged.end() - 1);
  EXPECT_EQ(Hex(frame.Serialize()), Hex(untagged));
  auto decoded = mom::DataFrame::Deserialize(untagged);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), frame);
}

TEST(WireGolden, FlowAckWithCreditAndSession) {
  mom::AckFrame ack(std::vector<MessageId>{MessageId{ServerId(3), 8},
                                           MessageId{ServerId(3), 9}});
  ack.has_credit = true;
  ack.credit = 4100;
  ack.has_session = true;
  ack.session = 2;
  ack.echo = 5;
  ack.accepted = 12;
  const Bytes bytes = ack.Serialize();
  EXPECT_EQ(Hex(bytes),
            "020203000803000903842002050c");
  auto decoded = mom::DeserializeAck(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), ack);
}

TEST(WireGolden, CreditOnlyAck) {
  mom::AckFrame ack;
  ack.has_credit = true;
  ack.credit = 40;
  ack.has_session = true;
  ack.session = 1;
  ack.echo = 1;
  ack.accepted = 32;
  const Bytes bytes = ack.Serialize();
  EXPECT_EQ(Hex(bytes),
            "02000328010120");
  auto decoded = mom::DeserializeAck(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), ack);
}

// ---------------------------------------------------------------------
// Store records
// ---------------------------------------------------------------------

// InMemoryStore that remembers the last value put under each record
// family (the key's text up to and including its first '/', or the
// whole key when it has none).
class RecordingStore final : public mom::Store {
 public:
  struct Record {
    std::string key;
    Bytes value;
  };

  void Put(std::string_view key, Bytes value) override {
    const std::size_t slash = key.find('/');
    const std::string family(
        key.substr(0, slash == std::string_view::npos ? key.size() : slash + 1));
    last_[family] = Record{std::string(key), value};
    inner_.Put(key, std::move(value));
  }
  void Delete(std::string_view key) override { inner_.Delete(key); }
  std::optional<Bytes> Get(std::string_view key) override {
    return inner_.Get(key);
  }
  std::vector<std::string> Keys(std::string_view prefix) override {
    return inner_.Keys(prefix);
  }
  Status Commit() override { return inner_.Commit(); }
  void Rollback() override { inner_.Rollback(); }
  std::uint64_t last_commit_bytes() const override {
    return inner_.last_commit_bytes();
  }
  std::uint64_t total_bytes_written() const override {
    return inner_.total_bytes_written();
  }

  // "<key>=<hex value>" of the family's last record.
  [[nodiscard]] std::string Last(const std::string& family) const {
    auto it = last_.find(family);
    if (it == last_.end()) return "(none)";
    return it->second.key + "=" + Hex(it->second.value);
  }

 private:
  mom::InMemoryStore inner_;
  std::map<std::string, Record> last_;
};

// A hand-assembled simulated cluster whose every server commits through
// a RecordingStore.  Agents: a SinkAgent at local id 1 on every server.
class RecordedCluster {
 public:
  explicit RecordedCluster(const domains::MomConfig& config)
      : deployment_(domains::Deployment::Create(config).value()),
        runtime_(simulator_),
        network_(simulator_, net::CostModel{}) {
    mom::AgentServerOptions options;
    options.retransmit_timeout_ns = 100 * sim::kMillisecond;
    for (ServerId id : deployment_.servers()) {
      endpoints_[id] = network_.CreateEndpoint(id).value();
      auto server = std::make_unique<mom::AgentServer>(
          deployment_, id, endpoints_[id].get(), &runtime_, &stores_[id],
          options);
      server->AttachAgent(1, std::make_unique<workload::SinkAgent>());
      servers_[id] = std::move(server);
    }
    for (auto& [id, server] : servers_) {
      EXPECT_TRUE(server->Boot().ok()) << to_string(id);
    }
  }

  ~RecordedCluster() {
    for (auto& [id, server] : servers_) server->Shutdown();
  }

  void Send(ServerId from, ServerId to, const char* subject) {
    EXPECT_TRUE(servers_.at(from)
                    ->SendMessage(AgentId{from, 1}, AgentId{to, 1}, subject)
                    .ok());
  }

  sim::Simulator& simulator() { return simulator_; }
  net::SimNetwork& network() { return network_; }
  RecordingStore& store(ServerId id) { return stores_.at(id); }

 private:
  domains::Deployment deployment_;
  sim::Simulator simulator_;
  net::SimRuntime runtime_;
  net::SimNetwork network_;
  std::map<ServerId, std::unique_ptr<net::Endpoint>> endpoints_;
  std::map<ServerId, RecordingStore> stores_;
  std::map<ServerId, std::unique_ptr<mom::AgentServer>> servers_;
};

// Flat(3) with a slow S0 -> S1 link: m1 waits unacked in S0's QueueOUT
// while m3 (S2 -> S1, causally after m1 via m2) is held back at S1,
// then delivered into S1's QueueIN once m1 arrives.
TEST(StoreGolden, MetaQueueHoldAndMatrixClockRecords) {
  RecordedCluster cluster(domains::topologies::Flat(3));
  cluster.network().SetLinkLatency(ServerId(0), ServerId(1),
                                   400 * sim::kMillisecond);
  cluster.Send(ServerId(0), ServerId(1), "direct");
  cluster.Send(ServerId(0), ServerId(2), "relay");
  cluster.simulator().RunUntil(10 * sim::kMillisecond);
  cluster.Send(ServerId(2), ServerId(1), "indirect");
  cluster.simulator().RunToCompletion();

  EXPECT_EQ(cluster.store(ServerId(0)).Last("meta"),
            "meta=0301");
  // Kind 00 (matrix), self 0000, mode 01 (updates), size 03, then the
  // nine cells; the Updates tracker is not part of the image.
  EXPECT_EQ(cluster.store(ServerId(0)).Last("clk/"),
            "clk/0000=0000000103000101000000000000");
  EXPECT_EQ(cluster.store(ServerId(0)).Last("qout/"),
            "qout/00000000000000000002=020000020000010200010572656c6179000200000002000101000201");
  EXPECT_EQ(cluster.store(ServerId(1)).Last("hold/"),
            "hold/0000/00020000000000000001=010200220102000102000101000108696e646972656374000000000300010100020102010101");
  EXPECT_EQ(cluster.store(ServerId(1)).Last("qin/"),
            "qin/0000000000000002=02000102000101000108696e64697265637400");
}

// Store keys at the edges of their fields: zero, the widest 16-bit
// origin and domain, the widest 64-bit seq.  Each is fixed-width
// lower-case hex, and ParseHexSuffix reads back the value it encodes.
TEST(StoreGolden, KeysAtTheirFieldBoundaries) {
  constexpr std::uint64_t kMaxSeq = ~std::uint64_t{0};
  EXPECT_EQ(mom::InKey(0), "qin/0000000000000000");
  EXPECT_EQ(mom::InKey(kMaxSeq), "qin/ffffffffffffffff");
  EXPECT_EQ(mom::FwdKey(0xabcdef), "fwd/0000000000abcdef");
  EXPECT_EQ(mom::ClockKey(0xFFFF), "clk/ffff");
  EXPECT_EQ(mom::OutKey(MessageId{ServerId(0), 0}),
            "qout/00000000000000000000");
  EXPECT_EQ(mom::OutKey(MessageId{ServerId(0xFFFF), 0}),
            "qout/ffff0000000000000000");
  EXPECT_EQ(mom::OutKey(MessageId{ServerId(0), kMaxSeq}),
            "qout/0000ffffffffffffffff");
  EXPECT_EQ(mom::HoldKey(0xFFFF, MessageId{ServerId(0xFFFF), kMaxSeq}),
            "hold/ffff/ffffffffffffffffffff");
  // A value wider than its field keeps every digit rather than being
  // cut to the field (printf's "%0*llx" behaviour).
  EXPECT_EQ(mom::ClockKey(0x12345), "clk/12345");

  EXPECT_EQ(mom::ParseHexSuffix(mom::InKey(0), mom::kQueueInKeyPrefix).value(),
            0u);
  EXPECT_EQ(
      mom::ParseHexSuffix(mom::InKey(kMaxSeq), mom::kQueueInKeyPrefix).value(),
      kMaxSeq);
  EXPECT_EQ(mom::ParseHexSuffix(mom::FwdKey(kMaxSeq), mom::kFwdKeyPrefix)
                .value(),
            kMaxSeq);
  EXPECT_EQ(
      mom::ParseHexSuffix(mom::ClockKey(0xFFFF), mom::kClockKeyPrefix).value(),
      0xFFFFu);
  EXPECT_EQ(mom::ParseHexSuffix("hold/ffff", mom::kHoldKeyPrefix).value(),
            0xFFFFu);
  EXPECT_EQ(mom::ParseHexSuffix("qin/", mom::kQueueInKeyPrefix).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(mom::ParseHexSuffix("qin/00FF", mom::kQueueInKeyPrefix)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// Bus(2, 2): S1 -> S3 crosses routers S0 and S2; the first router parks
// the forward in its DRR stage under a fwd/ record.
TEST(StoreGolden, RouterForwardRecord) {
  RecordedCluster cluster(domains::topologies::Bus(2, 2));
  cluster.Send(ServerId(1), ServerId(3), "across");
  cluster.simulator().RunToCompletion();
  EXPECT_EQ(cluster.store(ServerId(0)).Last("fwd/"),
            "fwd/0000000000000001=0100010001010001030001066163726f737300");
}

// Boots S0 of a Flat(2) over `store`, halts it and returns the boot
// status.
Status BootFlatS0(mom::Store& store) {
  auto deployment =
      domains::Deployment::Create(domains::topologies::Flat(2)).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto endpoint = network.CreateEndpoint(ServerId(0)).value();
  mom::AgentServer server(deployment, ServerId(0), endpoint.get(), &runtime,
                          &store);
  const Status boot = server.Boot();
  server.Halt();
  return boot;
}

// The clk/ record the retired hybrid core wrote for S0 of a Flat(2)
// after one send: kind 01, self 0000, size 02, then its per-kind
// payload.  A store still holding it fails boot with DATA_LOSS.
TEST(StoreGolden, HybridClockRecord) {
  mom::InMemoryStore store;
  ASSERT_TRUE(BootFlatS0(store).ok());
  store.Put("clk/0000",
            Unhex("010000020001000000000000000000000000000000010000010001"));
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(BootFlatS0(store).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cmom
