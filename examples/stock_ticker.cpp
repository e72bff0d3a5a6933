// Stock-exchange quotations -- the first application class the paper's
// introduction motivates -- on the causal pub/sub layer.
//
// A quote topic lives on a backbone router of a bus of domains.
// Trading desks in different domains subscribe; the exchange publishes
// quotes and, occasionally, a CANCEL for a quote it just published.
// Causal delivery is what makes the scenario safe: since
// publish(quote) causally precedes publish(cancel), no desk can ever
// see the cancel before the quote it refers to -- across any number of
// router hops.  The example verifies exactly that on every desk.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "domains/topologies.h"
#include "pubsub/topic.h"
#include "workload/sim_harness.h"

using namespace cmom;

namespace {

constexpr std::uint32_t kTopicLocal = 1;
constexpr std::uint32_t kDeskLocal = 2;
constexpr std::uint32_t kExchangeLocal = 3;

// A trading desk: tracks the best quote per symbol and flags any
// cancel that arrives before its quote (a causality violation).
class DeskAgent final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    auto event = pubsub::DecodeEvent(message);
    if (!event.ok()) return;
    const std::string payload(event.value().body.begin(),
                              event.value().body.end());
    if (event.value().name == "quote") {
      quotes_seen_.insert(payload);  // payload = quote id
    } else if (event.value().name == "cancel") {
      if (!quotes_seen_.contains(payload)) {
        ++anomalies_;  // cancel for a quote we never saw: impossible
      }
      ++cancels_seen_;
    }
  }

  [[nodiscard]] std::size_t quotes() const { return quotes_seen_.size(); }
  [[nodiscard]] std::size_t cancels() const { return cancels_seen_; }
  [[nodiscard]] std::size_t anomalies() const { return anomalies_; }

 private:
  std::set<std::string> quotes_seen_;
  std::size_t cancels_seen_ = 0;
  std::size_t anomalies_ = 0;
};

}  // namespace

int main() {
  // Four trading floors of three servers each; the backbone D0 links
  // their routers.  The topic lives on router S0, the exchange feeds
  // from S1, desks sit on far servers of the other floors.
  auto config = domains::topologies::Bus(4, 3);
  workload::SimHarness harness(config);

  std::vector<DeskAgent*> desks;
  const std::vector<ServerId> desk_servers = {ServerId(4), ServerId(8),
                                              ServerId(11)};
  Status status = harness.Init([&](ServerId id, mom::AgentServer& server) {
    if (id == ServerId(0)) {
      server.AttachAgent(kTopicLocal, std::make_unique<pubsub::TopicAgent>());
    }
    for (ServerId desk_server : desk_servers) {
      if (id == desk_server) {
        auto desk = std::make_unique<DeskAgent>();
        desks.push_back(desk.get());
        server.AttachAgent(kDeskLocal, std::move(desk));
      }
    }
  });
  if (!status.ok() || !harness.BootAll().ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  const AgentId topic{ServerId(0), kTopicLocal};
  for (ServerId desk_server : desk_servers) {
    (void)pubsub::Subscribe(harness.server(desk_server),
                            AgentId{desk_server, kDeskLocal}, topic);
  }
  harness.Run();

  // The exchange on S1 publishes 20 quotes; every third one is
  // cancelled immediately after being published.
  const AgentId exchange{ServerId(1), kExchangeLocal};
  std::size_t cancels = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string quote_id = std::string("Q").append(std::to_string(i));
    Bytes body(quote_id.begin(), quote_id.end());
    (void)pubsub::Publish(harness.server(ServerId(1)), exchange, topic,
                          "quote", body);
    if (i % 3 == 0) {
      (void)pubsub::Publish(harness.server(ServerId(1)), exchange, topic,
                            "cancel", body);
      ++cancels;
    }
  }
  harness.Run();

  std::printf("Stock ticker over %zu domains, %zu desks:\n",
              config.domains.size(), desks.size());
  bool ok = true;
  for (std::size_t i = 0; i < desks.size(); ++i) {
    std::printf(
        "  desk %zu: %zu quotes, %zu cancels, %zu causality anomalies\n",
        i, desks[i]->quotes(), desks[i]->cancels(), desks[i]->anomalies());
    ok = ok && desks[i]->quotes() == 20 && desks[i]->cancels() == cancels &&
         desks[i]->anomalies() == 0;
  }
  std::printf(ok ? "All desks saw every cancel AFTER its quote.\n"
                 : "ANOMALY: a cancel overtook its quote!\n");
  return ok ? 0 : 1;
}
