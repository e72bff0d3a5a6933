// Assembles a complete simulated MOM: deployment, simulated network,
// one store and agent server per configured server, trace recording.
//
// Usage:
//   SimHarness harness(topologies::Bus(4, 5), options);
//   harness.Init(installer);   // installer attaches agents per server
//   harness.BootAll();
//   harness.Send(...); / harness.server(id).SendMessage(...)
//   harness.Run();             // drain the event loop to quiescence
//   harness.trace(), harness.checker() ...
//
// Crash testing: Crash(id) drops a server's volatile state (the store,
// i.e. the "disk", survives); Restart(id) rebuilds it from the store
// with the installer re-attaching the same agents.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "causality/checker.h"
#include "causality/trace.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/store.h"
#include "net/runtime.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

namespace cmom::workload {

struct SimHarnessOptions {
  // When true, processing transactions consume simulated time per the
  // cost model; when false, only wire delays are modeled (fast runs for
  // correctness-only tests).
  bool simulate_processing_costs = true;
  net::CostModel cost_model{};
  net::FaultModel fault_model{};
  std::uint64_t fault_seed = 1;
  std::uint64_t retransmit_timeout_ns = 500ull * 1000 * 1000;
  // 0 = retry forever (the default, matching the reliable bus).
  std::uint32_t max_retransmit_attempts = 0;
  // Credit windows, fair forwarding and admission control, forwarded
  // to every server (see flow::FlowOptions).
  flow::FlowOptions flow;
};

class SimHarness {
 public:
  // Installs agents on a freshly constructed (not yet booted) server.
  using AgentInstaller = std::function<void(ServerId, mom::AgentServer&)>;

  SimHarness(domains::MomConfig config, SimHarnessOptions options = {});

  // Builds deployment, network, stores and servers, then runs the
  // installer for each server.  Must be called exactly once.
  [[nodiscard]] Status Init(AgentInstaller installer = {});
  [[nodiscard]] Status BootAll();

  // Convenience: application send from a (possibly non-existent) agent
  // `from_local` on `from` to agent `to_local` on `to`.
  Result<MessageId> Send(ServerId from, std::uint32_t from_local, ServerId to,
                         std::uint32_t to_local, std::string subject,
                         Bytes payload = {});

  // Drains the simulator.  Returns the number of events executed.
  std::size_t Run() { return simulator_.RunToCompletion(); }
  std::size_t RunUntil(sim::Time deadline) {
    return simulator_.RunUntil(deadline);
  }

  // Crash: discard a server's volatile state; its store survives.
  void Crash(ServerId id);
  // Rebuild a crashed server from its store and boot it.
  [[nodiscard]] Status Restart(ServerId id);

  [[nodiscard]] mom::AgentServer& server(ServerId id) {
    return *servers_.at(id);
  }
  [[nodiscard]] bool IsCrashed(ServerId id) const {
    return !servers_.contains(id) || servers_.at(id) == nullptr;
  }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::SimNetwork& network() { return *network_; }
  [[nodiscard]] causality::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const domains::Deployment& deployment() const {
    return *deployment_;
  }
  [[nodiscard]] mom::InMemoryStore& store(ServerId id) {
    return *stores_.at(id);
  }

  // Oracle over all configured servers.
  [[nodiscard]] causality::CausalityChecker MakeChecker() const;

  // Asserts quiescence invariants after Run(): all servers idle and no
  // held-back messages anywhere.
  [[nodiscard]] Status CheckQuiescent() const;

 private:
  [[nodiscard]] mom::AgentServerOptions ServerOptions();

  domains::MomConfig config_;
  SimHarnessOptions options_;
  AgentInstaller installer_;

  sim::Simulator simulator_;
  net::SimRuntime runtime_{simulator_};
  std::unique_ptr<domains::Deployment> deployment_;
  std::unique_ptr<net::SimNetwork> network_;
  causality::TraceRecorder trace_;

  std::unordered_map<ServerId, std::unique_ptr<mom::InMemoryStore>> stores_;
  std::unordered_map<ServerId, std::unique_ptr<net::Endpoint>> endpoints_;
  std::unordered_map<ServerId, std::unique_ptr<mom::AgentServer>> servers_;
};

}  // namespace cmom::workload
