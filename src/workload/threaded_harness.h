// Assembles a wall-clock MOM over the in-process threaded transport.
//
// Same shape as SimHarness but with real threads and real time: every
// server has its own receive thread (the InprocNetwork consumer), the
// timer thread drives retransmissions, and WaitQuiescent() polls until
// the whole bus drains.  Used by the examples and by the wall-clock
// cross-check benches (the paper's single-host configuration).
//
// The harness doubles as the control plane's ClusterHost: it can stop
// and (re)start servers under different configurations at different
// epochs, creating endpoints and stores on demand for servers that
// join mid-life.  Each epoch's configuration gets its own Deployment
// (servers hold a pointer into it, so deployments are retained for as
// long as the harness lives); reconfig tests drive a
// control::Coordinator directly against the harness.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "causality/checker.h"
#include "causality/trace.h"
#include "control/fence.h"
#include "domains/deployment.h"
#include "mom/agent_server.h"
#include "mom/faulty_store.h"
#include "mom/store.h"
#include "net/faulty_network.h"
#include "net/inproc_network.h"
#include "net/runtime.h"

namespace cmom::workload {

struct ThreadedHarnessOptions {
  std::uint64_t retransmit_timeout_ns = 500ull * 1000 * 1000;
  // When set, every endpoint is wrapped in a FaultyNetwork decorator
  // injecting drops/duplicates/delays/disconnects on real threads --
  // the wall-clock counterpart of the simulated fault sweeps.
  std::optional<net::FaultyNetworkOptions> fault;
  // When set, every server's store is wrapped in a FaultyStore
  // decorator (seeded per server as seed + id), so chaos schedules can
  // arm commit failures and exercise the fail-stop path.  The wrapper
  // sits between server and store only -- StoreOf() still hands the
  // control plane the raw store, so reconfig rewrites (operator
  // actions, not data-path writes) are never fault-injected.
  std::optional<mom::FaultyStoreOptions> store_fault;
  // Batching limits, forwarded to every server (see
  // AgentServerOptions).
  std::size_t engine_batch = 16;
  std::size_t channel_batch = 16;
  // Engine shard workers per server (0 = inline engine).  The threaded
  // runtime supports real parallelism, so this is where the knob does
  // something; see AgentServerOptions::engine_workers.
  std::size_t engine_workers = 0;
  // Credit windows, fair forwarding and admission control, forwarded
  // to every server (see flow::FlowOptions).  Tests shrink the
  // watermarks to force backpressure on small traffic volumes.
  flow::FlowOptions flow;
};

class ThreadedHarness final : public control::ClusterHost {
 public:
  using AgentInstaller = std::function<void(ServerId, mom::AgentServer&)>;

  explicit ThreadedHarness(domains::MomConfig config,
                           ThreadedHarnessOptions options = {});
  ~ThreadedHarness() override;

  [[nodiscard]] Status Init(AgentInstaller installer = {});
  [[nodiscard]] Status BootAll();

  Result<MessageId> Send(ServerId from, std::uint32_t from_local, ServerId to,
                         std::uint32_t to_local, std::string subject,
                         Bytes payload = {});

  // Blocks until every server is idle and the network has no frames in
  // flight (two stable observations in a row).  Crashed servers are
  // skipped, so this can be used to drain the survivors mid-outage.
  void WaitQuiescent();

  // Crash: destroy a server's volatile half (joining its shard workers
  // first; speculative un-committed reactions are discarded exactly as
  // a power cut would).  Its store -- the "disk" -- survives.
  void Crash(ServerId id);
  // Rebuild a crashed server from its store and boot it; the installer
  // passed to Init() re-attaches the same agents.  The server comes
  // back at the epoch it last ran under.
  [[nodiscard]] Status Restart(ServerId id);

  // Shuts every server down (before network/runtime teardown).
  void ShutdownAll();

  // ShutdownAll plus each server's teardown barrier: joins shard
  // workers and bars timers, so the caller may inspect agent state
  // without racing a worker thread (TSan-visible happens-before).
  void HaltAll();

  // --- control::ClusterHost ------------------------------------------
  [[nodiscard]] std::vector<ServerId> KnownServers() override;
  [[nodiscard]] mom::AgentServer* ServerOf(ServerId id) override;
  [[nodiscard]] mom::Store* StoreOf(ServerId id) override;
  Status StopServer(ServerId id) override;
  Status StartServer(ServerId id, std::uint64_t epoch,
                     const domains::MomConfig& config) override;

  [[nodiscard]] mom::AgentServer& server(ServerId id) {
    return *servers_.at(id);
  }
  // Null unless fault injection was configured.
  [[nodiscard]] net::FaultyNetwork* faulty_network() { return faulty_.get(); }
  // Null unless store fault injection was configured (or the server was
  // never created).  Survives Crash/Restart: the wrapper, like the
  // store, is the durable half.
  [[nodiscard]] mom::FaultyStore* faulty_store(ServerId id);
  [[nodiscard]] causality::TraceRecorder& trace() { return trace_; }
  // The highest epoch any server was started under.
  [[nodiscard]] std::uint64_t cluster_epoch() const { return cluster_epoch_; }
  // The current cluster epoch's deployment.
  [[nodiscard]] const domains::Deployment& deployment() const {
    return *deployments_.at(cluster_epoch_);
  }
  // Covers every server the harness ever hosted, across all epochs.
  [[nodiscard]] causality::CausalityChecker MakeChecker() const;

 private:
  [[nodiscard]] mom::AgentServerOptions ServerOptions(std::uint64_t epoch);
  // The store a server instance reads and writes: the FaultyStore
  // wrapper when store faults are configured, else the raw store.
  [[nodiscard]] mom::Store* ServerStore(ServerId id);
  // The deployment for `epoch`, built from `config` on first use.
  [[nodiscard]] Result<const domains::Deployment*> DeploymentFor(
      std::uint64_t epoch, const domains::MomConfig& config);

  domains::MomConfig config_;
  ThreadedHarnessOptions options_;
  AgentInstaller installer_;

  // Destruction order matters: servers and endpoints go first (members
  // below), then the runtime (joins its timer thread, so no delay
  // callback can outlive it), then the fault decorator, then the inner
  // network.  Deployments outlive the servers pointing into them.
  std::unique_ptr<net::InprocNetwork> network_;
  std::unique_ptr<net::FaultyNetwork> faulty_;
  net::Network* frontend_ = nullptr;  // network_ or faulty_
  net::ThreadRuntime runtime_;
  std::map<std::uint64_t, std::unique_ptr<domains::Deployment>> deployments_;
  std::uint64_t cluster_epoch_ = 0;
  causality::TraceRecorder trace_;

  std::unordered_map<ServerId, std::unique_ptr<mom::InMemoryStore>> stores_;
  std::unordered_map<ServerId, std::unique_ptr<mom::FaultyStore>>
      faulty_stores_;
  std::unordered_map<ServerId, std::unique_ptr<net::Endpoint>> endpoints_;
  std::unordered_map<ServerId, std::unique_ptr<mom::AgentServer>> servers_;
  // Epoch each server last ran under (what Restart reboots it at).
  std::unordered_map<ServerId, std::uint64_t> server_epochs_;
};

}  // namespace cmom::workload
