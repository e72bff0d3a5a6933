#include "workload/sim_harness.h"

namespace cmom::workload {

SimHarness::SimHarness(domains::MomConfig config, SimHarnessOptions options)
    : config_(std::move(config)), options_(options) {}

mom::AgentServerOptions SimHarness::ServerOptions() {
  mom::AgentServerOptions server_options;
  server_options.cost_model =
      options_.simulate_processing_costs ? &options_.cost_model : nullptr;
  server_options.trace = &trace_;
  server_options.retransmit_timeout_ns = options_.retransmit_timeout_ns;
  server_options.max_retransmit_attempts = options_.max_retransmit_attempts;
  server_options.flow = options_.flow;
  return server_options;
}

Status SimHarness::Init(AgentInstaller installer) {
  installer_ = std::move(installer);

  auto deployment = domains::Deployment::Create(config_);
  if (!deployment.ok()) return deployment.status();
  deployment_ =
      std::make_unique<domains::Deployment>(std::move(deployment).value());

  network_ = std::make_unique<net::SimNetwork>(
      simulator_, options_.cost_model, options_.fault_model,
      options_.fault_seed);

  for (ServerId id : deployment_->servers()) {
    auto endpoint = network_->CreateEndpoint(id);
    if (!endpoint.ok()) return endpoint.status();
    endpoints_.emplace(id, std::move(endpoint).value());
    stores_.emplace(id, std::make_unique<mom::InMemoryStore>());

    auto server = std::make_unique<mom::AgentServer>(
        *deployment_, id, endpoints_.at(id).get(), &runtime_,
        stores_.at(id).get(), ServerOptions());
    if (installer_) installer_(id, *server);
    servers_.emplace(id, std::move(server));
  }
  return Status::Ok();
}

Status SimHarness::BootAll() {
  for (ServerId id : deployment_->servers()) {
    CMOM_RETURN_IF_ERROR(servers_.at(id)->Boot());
  }
  return Status::Ok();
}

Result<MessageId> SimHarness::Send(ServerId from, std::uint32_t from_local,
                                   ServerId to, std::uint32_t to_local,
                                   std::string subject, Bytes payload) {
  return servers_.at(from)->SendMessage(AgentId{from, from_local},
                                        AgentId{to, to_local},
                                        std::move(subject),
                                        std::move(payload));
}

void SimHarness::Crash(ServerId id) {
  // The volatile half dies; the InMemoryStore plays the surviving disk.
  servers_.at(id) = nullptr;
}

Status SimHarness::Restart(ServerId id) {
  auto server = std::make_unique<mom::AgentServer>(
      *deployment_, id, endpoints_.at(id).get(), &runtime_,
      stores_.at(id).get(), ServerOptions());
  if (installer_) installer_(id, *server);
  servers_.at(id) = std::move(server);
  return servers_.at(id)->Boot();
}

causality::CausalityChecker SimHarness::MakeChecker() const {
  std::vector<ServerId> servers(deployment_->servers().begin(),
                                deployment_->servers().end());
  return causality::CausalityChecker(std::move(servers));
}

Status SimHarness::CheckQuiescent() const {
  for (const auto& [id, server] : servers_) {
    if (server == nullptr) continue;  // crashed and not restarted
    if (!server->Idle()) {
      return Status::Internal(to_string(id) + " not idle at quiescence");
    }
    if (server->holdback_size() != 0) {
      return Status::Internal(to_string(id) + " still holds back messages");
    }
  }
  return Status::Ok();
}

}  // namespace cmom::workload
