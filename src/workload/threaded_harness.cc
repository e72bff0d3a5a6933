#include "workload/threaded_harness.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cmom::workload {

ThreadedHarness::ThreadedHarness(domains::MomConfig config,
                                 ThreadedHarnessOptions options)
    : config_(std::move(config)), options_(options) {}

ThreadedHarness::~ThreadedHarness() { ShutdownAll(); }

mom::AgentServerOptions ThreadedHarness::ServerOptions(std::uint64_t epoch) {
  mom::AgentServerOptions server_options;
  server_options.trace = &trace_;
  server_options.retransmit_timeout_ns = options_.retransmit_timeout_ns;
  server_options.flow = options_.flow;
  server_options.epoch = epoch;
  return server_options;
}

Result<const domains::Deployment*> ThreadedHarness::DeploymentFor(
    std::uint64_t epoch, const domains::MomConfig& config) {
  auto it = deployments_.find(epoch);
  if (it != deployments_.end()) return it->second.get();
  auto deployment = domains::Deployment::Create(config);
  if (!deployment.ok()) return deployment.status();
  it = deployments_
           .emplace(epoch, std::make_unique<domains::Deployment>(
                               std::move(deployment).value()))
           .first;
  return it->second.get();
}

Status ThreadedHarness::Init(AgentInstaller installer) {
  installer_ = std::move(installer);

  network_ = std::make_unique<net::InprocNetwork>();
  frontend_ = network_.get();
  if (options_.fault.has_value()) {
    faulty_ = std::make_unique<net::FaultyNetwork>(*network_, *options_.fault,
                                                   &runtime_);
    frontend_ = faulty_.get();
  }

  auto deployment = DeploymentFor(cluster_epoch_, config_);
  if (!deployment.ok()) return deployment.status();

  for (ServerId id : deployment.value()->servers()) {
    auto endpoint = frontend_->CreateEndpoint(id);
    if (!endpoint.ok()) return endpoint.status();
    endpoints_.emplace(id, std::move(endpoint).value());
    stores_.emplace(id, std::make_unique<mom::InMemoryStore>());

    auto server = std::make_unique<mom::AgentServer>(
        *deployment.value(), id, endpoints_.at(id).get(), &runtime_,
        ServerStore(id), ServerOptions(cluster_epoch_));
    if (installer_) installer_(id, *server);
    ReplaceServer(id, std::move(server));
    server_epochs_[id] = cluster_epoch_;
  }
  return Status::Ok();
}

Status ThreadedHarness::BootAll() {
  for (ServerId id : deployment().servers()) {
    CMOM_RETURN_IF_ERROR(server(id).Boot());
  }
  return Status::Ok();
}

std::unique_ptr<mom::AgentServer> ThreadedHarness::ReplaceServer(
    ServerId id, std::unique_ptr<mom::AgentServer> server) {
  std::unique_lock lock(servers_mutex_);
  std::unique_ptr<mom::AgentServer>& slot = servers_[id];
  std::swap(slot, server);
  return server;
}

Result<MessageId> ThreadedHarness::Send(ServerId from,
                                        std::uint32_t from_local, ServerId to,
                                        std::uint32_t to_local,
                                        std::string subject, Bytes payload) {
  std::shared_lock lock(servers_mutex_);
  auto it = servers_.find(from);
  mom::AgentServer* server = it == servers_.end() ? nullptr : it->second.get();
  if (server == nullptr) {
    return Status::Unavailable(to_string(from) + " is not running");
  }
  return server->SendMessage(AgentId{from, from_local}, AgentId{to, to_local},
                             std::move(subject), std::move(payload));
}

void ThreadedHarness::WaitQuiescent() {
  int stable = 0;
  while (stable < 2) {
    network_->WaitQuiescent();
    bool idle = faulty_ == nullptr || faulty_->pending_delayed() == 0;
    std::shared_lock lock(servers_mutex_);
    for (const auto& [id, server] : servers_) {
      (void)id;
      if (server == nullptr) continue;  // crashed and not restarted
      // Idle() alone is not quiescence under fault injection: a server
      // is idle while a dropped frame waits on its retransmit timer, so
      // the outgoing queue must have drained (everything ACKed) too.
      if (!server->Idle() || server->queue_out_size() != 0 ||
          server->holdback_size() != 0) {
        idle = false;
        break;
      }
    }
    lock.unlock();
    if (idle) {
      ++stable;
    } else {
      stable = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ThreadedHarness::ShutdownAll() {
  std::shared_lock lock(servers_mutex_);
  for (auto& [id, server] : servers_) {
    (void)id;
    if (server) server->Shutdown();
  }
}

void ThreadedHarness::HaltAll() {
  std::shared_lock lock(servers_mutex_);
  for (auto& [id, server] : servers_) {
    (void)id;
    if (server) server->Halt();
  }
}

void ThreadedHarness::Crash(ServerId id) {
  // ~AgentServer halts: un-committed work is discarded, leaving only
  // what the store already committed -- the same cut a power failure
  // would make.
  ReplaceServer(id, nullptr);
}

Status ThreadedHarness::Restart(ServerId id) {
  // A running instance goes first: the new one shares its endpoint.
  ReplaceServer(id, nullptr);
  const std::uint64_t epoch = server_epochs_.at(id);
  const domains::Deployment& deployment = *deployments_.at(epoch);
  auto server = std::make_unique<mom::AgentServer>(
      deployment, id, endpoints_.at(id).get(), &runtime_, ServerStore(id),
      ServerOptions(epoch));
  if (installer_) installer_(id, *server);
  const Status booted = server->Boot();
  ReplaceServer(id, std::move(server));
  return booted;
}

// --- control::ClusterHost --------------------------------------------

std::vector<ServerId> ThreadedHarness::KnownServers() {
  std::vector<ServerId> ids;
  ids.reserve(stores_.size());
  for (const auto& [id, store] : stores_) {
    (void)store;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

mom::AgentServer* ThreadedHarness::ServerOf(ServerId id) {
  std::shared_lock lock(servers_mutex_);
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.get();
}

mom::Store* ThreadedHarness::ServerStore(ServerId id) {
  mom::Store* inner = StoreOf(id);
  if (!options_.store_fault.has_value()) return inner;
  auto it = faulty_stores_.find(id);
  if (it == faulty_stores_.end()) {
    mom::FaultyStoreOptions store_options = *options_.store_fault;
    // Per-server fault streams: a shared seed would make every server
    // fail in lockstep.
    store_options.seed += id.value();
    it = faulty_stores_
             .emplace(id, std::make_unique<mom::FaultyStore>(*inner,
                                                             store_options))
             .first;
  }
  return it->second.get();
}

mom::FaultyStore* ThreadedHarness::faulty_store(ServerId id) {
  auto it = faulty_stores_.find(id);
  return it == faulty_stores_.end() ? nullptr : it->second.get();
}

mom::Store* ThreadedHarness::StoreOf(ServerId id) {
  auto it = stores_.find(id);
  if (it == stores_.end()) {
    // A server about to join the cluster: its "disk" exists before its
    // first boot, just like a freshly provisioned machine.
    it = stores_.emplace(id, std::make_unique<mom::InMemoryStore>()).first;
  }
  return it->second.get();
}

Status ThreadedHarness::StopServer(ServerId id) {
  // ~AgentServer halts: the control plane is about to rewrite the
  // store, so every timer must be out before it does.
  ReplaceServer(id, nullptr);
  return Status::Ok();
}

Status ThreadedHarness::StartServer(ServerId id, std::uint64_t epoch,
                                    const domains::MomConfig& config) {
  if (ServerOf(id) != nullptr) {
    return Status::FailedPrecondition(to_string(id) + " is already running");
  }
  auto deployment = DeploymentFor(epoch, config);
  if (!deployment.ok()) return deployment.status();
  if (endpoints_.find(id) == endpoints_.end()) {
    auto endpoint = frontend_->CreateEndpoint(id);
    if (!endpoint.ok()) return endpoint.status();
    endpoints_.emplace(id, std::move(endpoint).value());
  }
  auto server = std::make_unique<mom::AgentServer>(
      *deployment.value(), id, endpoints_.at(id).get(), &runtime_,
      ServerStore(id), ServerOptions(epoch));
  if (installer_) installer_(id, *server);
  server_epochs_[id] = epoch;
  cluster_epoch_ = std::max(cluster_epoch_, epoch);
  const Status booted = server->Boot();
  ReplaceServer(id, std::move(server));
  return booted;
}

causality::CausalityChecker ThreadedHarness::MakeChecker() const {
  std::vector<ServerId> servers;
  servers.reserve(stores_.size());
  for (const auto& [id, store] : stores_) {
    (void)store;
    servers.push_back(id);
  }
  std::sort(servers.begin(), servers.end());
  return causality::CausalityChecker(std::move(servers));
}

}  // namespace cmom::workload
