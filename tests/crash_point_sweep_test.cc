// Crash-point sweep over the per-entry store schema.  The persistence
// tests crash a server at one hand-picked moment; this one enumerates
// every commit the victim makes.  For each k it fail-stops the victim
// at its k-th commit after boot (FaultyStore::FailAfterCommits), reboots
// it over the inner store right after the failing event, and runs the
// cluster to quiescence.  Whatever commit the crash hits, the oracle
// must stay green, nothing may be left queued or held, and no queue
// record may outlive the traffic.  Two scenarios: a Flat(3) matrix
// domain, and a Bus whose router sits in one hybrid and one matrix
// domain, so a crashed router recovers both clocks and its fwd/ stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "causality/checker.h"
#include "causality/trace.h"
#include "clocks/causal_core.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/faulty_store.h"
#include "mom/store.h"
#include "mom/store_schema.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

namespace cmom {
namespace {

// Records the order of the messages it reacted to in its durable image,
// so the order a rebooted instance reports is exactly the committed one.
class OrderSink final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    order_.push_back(message.id);
  }

  void EncodeState(ByteWriter& out) const override {
    out.WriteVarU64(order_.size());
    for (const MessageId& id : order_) {
      out.WriteU16(id.origin.value());
      out.WriteVarU64(id.seq);
    }
  }

  Status DecodeState(ByteReader& in) override {
    auto count = in.ReadVarU64();
    if (!count.ok()) return count.status();
    order_.clear();
    for (std::uint64_t i = 0; i < count.value(); ++i) {
      auto origin = in.ReadU16();
      if (!origin.ok()) return origin.status();
      auto seq = in.ReadVarU64();
      if (!seq.ok()) return seq.status();
      order_.push_back(MessageId{ServerId(origin.value()), seq.value()});
    }
    return Status::Ok();
  }

  [[nodiscard]] const std::vector<MessageId>& order() const { return order_; }

 private:
  std::vector<MessageId> order_;
};

struct SweepResult {
  std::uint64_t victim_commits = 0;  // after boot, on the inner store
  std::size_t reboots = 0;
  std::vector<MessageId> sink_order;
};

// One send, then the cluster runs to `run_until` (0 = no run).
struct Step {
  ServerId from;
  ServerId to;
  const char* subject;
  sim::Time run_until;
};

struct Scenario {
  domains::MomConfig config;
  ServerId sink;  // hosts the OrderSink as local agent 1
  std::optional<std::pair<ServerId, ServerId>> slow_link;  // 400 ms
  std::vector<Step> steps;
};

// The persistence tests' crash traffic on Flat(3): S0 -> S1 is slow, so
// m1 ("direct") stays unacked in S0's QueueOUT while m3 ("indirect",
// S2 -> S1, causally after m1 via m2) is held back at S1.
Scenario FlatScenario() {
  return Scenario{domains::topologies::Flat(3),
                  ServerId(1),
                  std::make_pair(ServerId(0), ServerId(1)),
                  {{ServerId(0), ServerId(1), "direct", 0},
                   {ServerId(0), ServerId(2), "relay", 10 * sim::kMillisecond},
                   {ServerId(2), ServerId(1), "indirect",
                    50 * sim::kMillisecond}}};
}

// Bus(2, 2): router S0 is in the backbone D0 = {S0, S2} (matrix) and
// the leaf D1 = {S0, S1} (hybrid).  Traffic crosses it both ways, so it
// stages forwards under fwd/ and advances both of its clocks.
Scenario RouterScenario() {
  domains::MomConfig config = domains::topologies::Bus(2, 2);
  config.causal_core_overrides.emplace_back(DomainId(1),
                                            clocks::CausalCoreKind::kHybrid);
  return Scenario{std::move(config),
                  ServerId(3),
                  std::nullopt,
                  {{ServerId(1), ServerId(3), "first", 0},
                   {ServerId(3), ServerId(1), "back", 0},
                   {ServerId(1), ServerId(3), "second", 10 * sim::kMillisecond},
                   {ServerId(1), ServerId(3), "third", 0}}};
}

// Runs `scenario` with the victim's store behind a FaultyStore armed to
// fail its `fail_at`-th commit after boot (0 = never).
SweepResult RunScenario(const Scenario& scenario, ServerId victim,
                        std::uint64_t fail_at) {
  const domains::Deployment deployment =
      domains::Deployment::Create(scenario.config).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  causality::TraceRecorder trace;

  mom::AgentServerOptions options;
  options.trace = &trace;
  options.retransmit_timeout_ns = 100 * sim::kMillisecond;

  std::map<ServerId, std::unique_ptr<net::Endpoint>> endpoints;
  std::map<ServerId, mom::InMemoryStore> stores;
  std::map<ServerId, std::unique_ptr<mom::AgentServer>> servers;
  std::unique_ptr<mom::FaultyStore> faulty;
  OrderSink* sink = nullptr;

  const auto make_server = [&](ServerId id, mom::Store* store) {
    auto server = std::make_unique<mom::AgentServer>(
        deployment, id, endpoints.at(id).get(), &runtime, store, options);
    if (id == scenario.sink) {
      auto agent = std::make_unique<OrderSink>();
      sink = agent.get();
      server->AttachAgent(1, std::move(agent));
    }
    servers[id] = std::move(server);
  };
  for (ServerId id : deployment.servers()) {
    endpoints.emplace(id, network.CreateEndpoint(id).value());
    stores[id];
  }
  faulty = std::make_unique<mom::FaultyStore>(stores.at(victim));
  for (ServerId id : deployment.servers()) {
    make_server(id, id == victim ? static_cast<mom::Store*>(faulty.get())
                                 : &stores.at(id));
    EXPECT_TRUE(servers.at(id)->Boot().ok());
  }
  const std::uint64_t boot_commits = stores.at(victim).commit_count();
  if (fail_at != 0) faulty->FailAfterCommits(fail_at);

  SweepResult result;
  // Restarts the victim over its inner store once it has halted.
  const auto reboot_if_halted = [&] {
    if (servers.at(victim)->health().ok()) return;
    EXPECT_EQ(servers.at(victim)->health().code(), StatusCode::kFailStop);
    servers.at(victim)->Halt();
    servers.at(victim).reset();
    faulty.reset();
    make_server(victim, &stores.at(victim));
    EXPECT_TRUE(servers.at(victim)->Boot().ok());
    ++result.reboots;
  };
  // Runs events up to `deadline`, checking the victim after each one.
  const auto run_until = [&](sim::Time deadline) {
    bool reached = false;
    simulator.ScheduleAt(deadline, [&reached] { reached = true; });
    while (!reached && simulator.Step()) reboot_if_halted();
  };
  const auto send = [&](ServerId from, ServerId to, const char* subject) {
    EXPECT_TRUE(servers.at(from)
                    ->SendMessage(AgentId{from, 1}, AgentId{to, 1}, subject)
                    .ok());
    reboot_if_halted();
  };

  if (scenario.slow_link.has_value()) {
    network.SetLinkLatency(scenario.slow_link->first,
                           scenario.slow_link->second, 400 * sim::kMillisecond);
  }
  for (const Step& step : scenario.steps) {
    send(step.from, step.to, step.subject);
    if (step.run_until != 0) run_until(step.run_until);
  }
  while (simulator.Step()) reboot_if_halted();

  result.victim_commits = stores.at(victim).commit_count() - boot_commits;
  result.sink_order = sink->order();

  causality::CausalityChecker checker(std::vector<ServerId>(
      deployment.servers().begin(), deployment.servers().end()));
  const causality::Trace snapshot = trace.Snapshot();
  const causality::CheckReport report = checker.CheckCausalDelivery(snapshot);
  EXPECT_TRUE(report.causal())
      << (report.violations.empty() ? std::string()
                                    : report.violations.front().description);
  const Status exactly_once = checker.CheckExactlyOnce(snapshot);
  EXPECT_TRUE(exactly_once.ok()) << exactly_once;

  for (auto& [id, server] : servers) {
    EXPECT_TRUE(server->Idle()) << to_string(id) << " not idle";
    EXPECT_EQ(server->holdback_size(), 0u) << to_string(id);
    server->Shutdown();
  }
  for (auto& [id, store] : stores) {
    for (std::string_view prefix : mom::kQueueKeyPrefixes) {
      EXPECT_TRUE(store.Keys(prefix).empty())
          << to_string(id) << " kept " << prefix << " records";
    }
  }
  return result;
}

void Sweep(const Scenario& scenario, ServerId victim, bool check_sink_order) {
  const SweepResult uncrashed = RunScenario(scenario, victim, 0);
  ASSERT_GT(uncrashed.victim_commits, 0u);
  ASSERT_EQ(uncrashed.reboots, 0u);
  ASSERT_EQ(uncrashed.sink_order.size(),
            std::count_if(scenario.steps.begin(), scenario.steps.end(),
                          [&](const Step& step) {
                            return step.to == scenario.sink;
                          }));
  for (std::uint64_t k = 1; k <= uncrashed.victim_commits; ++k) {
    SCOPED_TRACE(to_string(victim) + " fail-stopped at commit k=" +
                 std::to_string(k) + " of " +
                 std::to_string(uncrashed.victim_commits));
    const SweepResult crashed = RunScenario(scenario, victim, k);
    EXPECT_EQ(crashed.reboots, 1u);
    if (check_sink_order) {
      EXPECT_EQ(crashed.sink_order, uncrashed.sink_order);
    }
  }
}

TEST(CrashPointSweep, HoldingReceiverSurvivesACrashAtEveryCommit) {
  Sweep(FlatScenario(), ServerId(1), /*check_sink_order=*/true);
}

TEST(CrashPointSweep, SenderWithUnackedFrameSurvivesACrashAtEveryCommit) {
  Sweep(FlatScenario(), ServerId(0), /*check_sink_order=*/false);
}

// Every message to the sink comes from S1 through the router, so its
// delivery order is fixed whatever commit the router crashes at.
TEST(CrashPointSweep, HybridMatrixRouterSurvivesACrashAtEveryCommit) {
  Sweep(RouterScenario(), ServerId(0), /*check_sink_order=*/true);
}

}  // namespace
}  // namespace cmom
