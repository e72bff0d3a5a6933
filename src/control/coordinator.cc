#include "control/coordinator.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "clocks/causal_core.h"
#include "domains/config_io.h"
#include "mom/store_schema.h"

namespace cmom::control {

namespace {

bool Contains(const std::vector<ServerId>& servers, ServerId id) {
  return std::find(servers.begin(), servers.end(), id) != servers.end();
}

}  // namespace

Status Coordinator::Reconfigure(const ReconfigPlan& plan) {
  CMOM_RETURN_IF_ERROR(Propose(plan));
  if (Status quiesced = Quiesce(); !quiesced.ok()) {
    // The cluster never reached the cutover precondition; undo the
    // proposal so the next attempt starts clean at from_epoch.
    (void)Abort(plan);
    return quiesced;
  }
  for (ServerId id : plan.AllServers()) {
    CMOM_RETURN_IF_ERROR(CutoverOne(plan, id));
  }
  return Resume(plan);
}

Status Coordinator::Propose(const ReconfigPlan& plan) {
  const EpochRecord pending{plan.to_epoch,
                            domains::FormatMomConfig(plan.new_config),
                            domains::FormatMomConfig(plan.old_config)};
  const Bytes encoded = EncodeEpochRecord(pending);
  for (ServerId id : plan.AllServers()) {
    auto current = EpochRecordOf(id, kEpochCurrentKey);
    if (!current.ok()) return current.status();
    if (current.value().has_value()) {
      if (current.value()->epoch != plan.from_epoch) {
        return Status::FailedPrecondition(
            to_string(id) + " is at epoch " +
            std::to_string(current.value()->epoch) + ", plan expects " +
            std::to_string(plan.from_epoch));
      }
    } else if (plan.from_epoch != 0 &&
               Contains(plan.old_config.servers, id)) {
      // Stores from before the control plane are implicitly at epoch 0;
      // only a server joining in this very transition may lack a record
      // at a later epoch.
      return Status::FailedPrecondition(
          to_string(id) + " has no epoch record but the plan starts at " +
          std::to_string(plan.from_epoch));
    }
    auto stale = EpochRecordOf(id, kEpochPendingKey);
    if (!stale.ok()) return stale.status();
    if (stale.value().has_value() && !(*stale.value() == pending)) {
      return Status::FailedPrecondition(
          to_string(id) + " already has a different pending proposal");
    }
    CMOM_RETURN_IF_ERROR(WriteControlRecord(id, kEpochPendingKey, encoded));
  }
  return Status::Ok();
}

Status Coordinator::Quiesce() {
  fence_.RaiseAll();
  return fence_.AwaitDrained(options_.quiesce_timeout_ms);
}

Status Coordinator::CutoverOne(const ReconfigPlan& plan, ServerId id) {
  if (host_->ServerOf(id) != nullptr) {
    CMOM_RETURN_IF_ERROR(host_->StopServer(id));
  }
  mom::Store* store = host_->StoreOf(id);
  if (store == nullptr) {
    return Status::NotFound("no store for " + to_string(id));
  }
  return CutoverStore(*store, id, plan);
}

Status Coordinator::Resume(const ReconfigPlan& plan) {
  for (ServerId id : plan.new_config.servers) {
    if (host_->ServerOf(id) != nullptr) continue;  // already running
    CMOM_RETURN_IF_ERROR(host_->StartServer(id, plan.to_epoch,
                                            plan.new_config));
  }
  return Status::Ok();
}

Status Coordinator::Abort(const ReconfigPlan& plan) {
  Status first = Status::Ok();
  for (ServerId id : plan.AllServers()) {
    Status status = WriteControlRecord(id, kEpochPendingKey, std::nullopt);
    if (!status.ok() && first.ok()) first = status;
  }
  fence_.LowerAll();
  return first;
}

Status Coordinator::Recover() {
  struct StoreState {
    ServerId id;
    std::optional<EpochRecord> current;
    std::optional<EpochRecord> pending;
  };
  std::vector<StoreState> states;
  for (ServerId id : host_->KnownServers()) {
    mom::Store* store = host_->StoreOf(id);
    if (store == nullptr) continue;
    StoreState state{id, {}, {}};
    auto current = EpochRecordOf(id, kEpochCurrentKey);
    if (!current.ok()) return current.status();
    state.current = std::move(current).value();
    auto pending = EpochRecordOf(id, kEpochPendingKey);
    if (!pending.ok()) return pending.status();
    state.pending = std::move(pending).value();
    states.push_back(std::move(state));
  }

  const EpochRecord* proposal = nullptr;
  for (const StoreState& state : states) {
    if (!state.pending.has_value()) continue;
    if (proposal != nullptr && !(*proposal == *state.pending)) {
      return Status::DataLoss("conflicting pending proposals across stores");
    }
    proposal = &*state.pending;
  }

  if (proposal == nullptr) {
    // Healthy cluster (or a crash outside any reconfiguration): just
    // restart whatever is down at its recorded epoch.
    for (const StoreState& state : states) {
      if (host_->ServerOf(state.id) != nullptr) continue;
      if (!state.current.has_value()) continue;  // pre-control store
      auto config = domains::ParseMomConfig(state.current->config_text);
      if (!config.ok()) return config.status();
      if (!Contains(config.value().servers, state.id)) continue;  // removed
      CMOM_RETURN_IF_ERROR(host_->StartServer(state.id, state.current->epoch,
                                              config.value()));
    }
    return Status::Ok();
  }

  // Rebuild the plan the crashed coordinator was executing.  The
  // pending record carries both configuration texts precisely so this
  // works even when no store still holds the old epoch/current record.
  auto new_config = domains::ParseMomConfig(proposal->config_text);
  if (!new_config.ok()) return new_config.status();
  auto old_config = domains::ParseMomConfig(proposal->prev_config_text);
  if (!old_config.ok()) return old_config.status();
  auto plan = ReconfigPlan::Build(proposal->epoch - 1,
                                  std::move(old_config).value(),
                                  std::move(new_config).value());
  if (!plan.ok()) return plan.status();

  bool any_cut_over = false;
  for (const StoreState& state : states) {
    if (state.current.has_value() &&
        state.current->epoch == plan.value().to_epoch) {
      any_cut_over = true;
      break;
    }
  }

  if (!any_cut_over) {
    // The crash hit propose or quiesce: no store advanced, so the old
    // epoch is still fully intact.  Roll BACK: delete the proposal,
    // lift any fences, restart old-config servers that are down.
    CMOM_RETURN_IF_ERROR(Abort(plan.value()));
    for (ServerId id : plan.value().old_config.servers) {
      if (host_->ServerOf(id) != nullptr) continue;
      CMOM_RETURN_IF_ERROR(host_->StartServer(id, plan.value().from_epoch,
                                              plan.value().old_config));
    }
    return Status::Ok();
  }

  // At least one store committed the new epoch, which proves the
  // cluster-wide drain happened and was durable (cutover refuses
  // non-drained stores).  Roll FORWARD: finish the remaining cutovers
  // cold and resume everyone under the new configuration.
  for (ServerId id : plan.value().AllServers()) {
    CMOM_RETURN_IF_ERROR(CutoverOne(plan.value(), id));
  }
  return Resume(plan.value());
}

Status Coordinator::CutoverStore(mom::Store& store, ServerId self,
                                 const ReconfigPlan& plan) {
  auto record = ReadEpochRecord(store, kEpochCurrentKey);
  if (!record.ok()) return record.status();
  // A record-less store is implicitly at epoch 0 -- unless this server
  // is joining in this very transition, in which case its fresh store
  // is considered to be at from_epoch (the same allowance Propose
  // makes; a joiner's first epoch/current record is the one this
  // cutover writes).
  const bool joining = !record.value().has_value() &&
                       !Contains(plan.old_config.servers, self);
  const std::uint64_t current =
      record.value().has_value() ? record.value()->epoch
      : joining                  ? plan.from_epoch
                                 : 0;
  if (current == plan.to_epoch) return Status::Ok();  // idempotent
  if (current != plan.from_epoch) {
    return Status::FailedPrecondition(
        to_string(self) + "'s store is at epoch " + std::to_string(current) +
        ", plan expects " + std::to_string(plan.from_epoch));
  }
  // The correctness precondition: the store must be drained.  Any
  // surviving queue entry -- including a router's staged forward, which
  // is stamped only when it leaves -- would be stamped under the OLD
  // coordinates and replayed against the NEW clocks after recovery.
  for (std::string_view prefix : mom::kQueueKeyPrefixes) {
    if (!store.Keys(prefix).empty()) {
      return Status::FailedPrecondition(
          to_string(self) + "'s store is not drained (" +
          std::string(prefix) + " keys remain); quiesce first");
    }
  }

  // Decode the old clock images, indexed by old deployment index (=
  // position in old_config.domains; Deployment::Create resolves
  // domains in configuration order).
  std::map<std::size_t, clocks::MatrixClockCore> old_cores;
  std::vector<std::string> old_keys = store.Keys(mom::kClockKeyPrefix);
  for (const std::string& key : old_keys) {
    auto index = mom::ParseHexSuffix(key, mom::kClockKeyPrefix);
    if (!index.ok()) return index.status();
    auto blob = store.Get(key);
    if (!blob.has_value()) {
      return Status::DataLoss("clock key vanished mid-read: " + key);
    }
    auto core = clocks::MatrixClockCore::Decode(*blob);
    if (!core.ok()) return core.status();
    old_cores.emplace(index.value(), std::move(core).value());
  }

  // Stage the whole rewrite; ONE commit applies it atomically.
  for (const std::string& key : old_keys) store.Delete(key);
  for (std::size_t j = 0; j < plan.new_config.domains.size(); ++j) {
    const domains::DomainSpec& spec = plan.new_config.domains[j];
    auto member = std::find(spec.members.begin(), spec.members.end(), self);
    if (member == spec.members.end()) continue;
    const DomainServerId new_local(
        static_cast<std::uint16_t>(member - spec.members.begin()));
    const DomainRemap& remap = plan.remaps[j];
    auto old_core = remap.old_index.has_value()
                        ? old_cores.find(*remap.old_index)
                        : old_cores.end();
    // Surviving domain this server was already in: inherit, with
    // members permuted through the plan's coordinate map.  Otherwise
    // (brand-new domain, or this server just joined it): fresh zeros,
    // matching what the surviving members record for the newcomer's
    // rows and columns.
    const clocks::MatrixClockCore core =
        old_core != old_cores.end()
            ? old_core->second.Remap(new_local, spec.members.size(),
                                     remap.old_of_new)
            : clocks::MatrixClockCore(new_local, spec.members.size(),
                                      plan.new_config.stamp_mode);
    ByteWriter out;
    core.EncodeState(out);
    store.Put(mom::ClockKey(j), std::move(out).Take());
  }
  store.Put(kEpochCurrentKey,
            EncodeEpochRecord(EpochRecord{
                plan.to_epoch, domains::FormatMomConfig(plan.new_config),
                /*prev_config_text=*/{}}));
  store.Delete(kEpochPendingKey);
  CMOM_RETURN_IF_ERROR(store.Commit());
  // The cutover rewrote a large slice of the keyspace; fold the
  // store's history (FileStore truncates its write-ahead log).
  return store.Checkpoint();
}

Result<std::optional<EpochRecord>> Coordinator::EpochRecordOf(
    ServerId id, std::string_view key) {
  if (mom::AgentServer* server = host_->ServerOf(id)) {
    return ParseEpochRecord(server->ReadControlRecord(key));
  }
  mom::Store* store = host_->StoreOf(id);
  if (store == nullptr) {
    return Status::NotFound("no store for " + to_string(id));
  }
  return ReadEpochRecord(*store, key);
}

Status Coordinator::WriteControlRecord(ServerId id, std::string_view key,
                                       std::optional<Bytes> value) {
  if (mom::AgentServer* server = host_->ServerOf(id)) {
    // The server is live: its store may hold a half-staged protocol
    // transaction, so the write must ride the server's own pipeline.
    return server->ApplyControlRecord(key, std::move(value));
  }
  mom::Store* store = host_->StoreOf(id);
  if (store == nullptr) {
    return Status::NotFound("no store for " + to_string(id));
  }
  if (value.has_value()) {
    store->Put(key, std::move(*value));
  } else {
    store->Delete(key);
  }
  return store->Commit();
}

}  // namespace cmom::control
