#include "autopilot/controller.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "control/epoch.h"
#include "control/plan.h"

namespace cmom::autopilot {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNone: return "none";
    case OpKind::kSplit: return "split";
    case OpKind::kMerge: return "merge";
    case OpKind::kPromote: return "promote";
    case OpKind::kAbsorb: return "absorb";
    case OpKind::kRetire: return "retire";
  }
  return "?";
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kNoCandidate: return "no_candidate";
    case Verdict::kBelowThreshold: return "below_threshold";
    case Verdict::kHysteresis: return "hysteresis";
    case Verdict::kCooldown: return "cooldown";
    case Verdict::kBackoff: return "backoff";
    case Verdict::kDryRun: return "dry_run";
    case Verdict::kTaken: return "taken";
    case Verdict::kAborted: return "aborted";
  }
  return "?";
}

namespace {

template <typename Enum>
std::optional<Enum> ParseByName(const std::string& text, Enum last,
                                const char* (*name)(Enum)) {
  for (std::uint8_t i = 0; i <= static_cast<std::uint8_t>(last); ++i) {
    const Enum value = static_cast<Enum>(i);
    if (text == name(value)) return value;
  }
  return std::nullopt;
}

std::string Sanitize(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

std::string EncodeDecision(const Decision& d) {
  std::ostringstream out;
  out << "window=" << d.window << '\n'
      << "from_epoch=" << d.from_epoch << '\n'
      << "to_epoch=" << d.to_epoch << '\n'
      << "verdict=" << VerdictName(d.verdict) << '\n'
      << "op=" << OpKindName(d.op) << '\n'
      << "detail=" << Sanitize(d.detail) << '\n'
      << "current_score=" << d.current_score << '\n'
      << "candidate_score=" << d.candidate_score << '\n'
      << "reason=" << Sanitize(d.reason) << '\n';
  for (const CandidateScore& c : d.candidates) {
    out << "cand=" << OpKindName(c.op) << '|' << c.score << '|'
        << (c.valid ? 1 : 0) << '|' << Sanitize(c.detail) << '|'
        << Sanitize(c.rejection) << '\n';
  }
  return out.str();
}

Result<Decision> DecodeDecision(const std::string& text) {
  Decision d;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "window") {
      d.window = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "from_epoch") {
      d.from_epoch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "to_epoch") {
      d.to_epoch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "verdict") {
      auto verdict = ParseByName(value, Verdict::kAborted, VerdictName);
      if (!verdict) return Status::DataLoss("bad verdict: " + value);
      d.verdict = *verdict;
    } else if (key == "op") {
      auto op = ParseByName(value, OpKind::kRetire, OpKindName);
      if (!op) return Status::DataLoss("bad op: " + value);
      d.op = *op;
    } else if (key == "detail") {
      d.detail = value;
    } else if (key == "current_score") {
      d.current_score = std::strtod(value.c_str(), nullptr);
    } else if (key == "candidate_score") {
      d.candidate_score = std::strtod(value.c_str(), nullptr);
    } else if (key == "reason") {
      d.reason = value;
    } else if (key == "cand") {
      CandidateScore c;
      std::istringstream fields(value);
      std::string field;
      if (!std::getline(fields, field, '|')) continue;
      auto op = ParseByName(field, OpKind::kRetire, OpKindName);
      if (!op) return Status::DataLoss("bad candidate op: " + field);
      c.op = *op;
      if (!std::getline(fields, field, '|')) continue;
      c.score = std::strtod(field.c_str(), nullptr);
      if (!std::getline(fields, field, '|')) continue;
      c.valid = field == "1";
      std::getline(fields, c.detail, '|');
      std::getline(fields, c.rejection);
      d.candidates.push_back(std::move(c));
    }
  }
  return d;
}

Autopilot::Autopilot(control::ClusterHost* host, domains::MomConfig config,
                     std::uint64_t epoch, AutopilotOptions options)
    : host_(host),
      config_(std::move(config)),
      epoch_(epoch),
      options_(options),
      profile_(options.decay) {}

void Autopilot::NoteJoinRequest(ServerId id) {
  if (std::find(config_.servers.begin(), config_.servers.end(), id) !=
      config_.servers.end()) {
    return;  // already a member
  }
  if (std::find(pending_joins_.begin(), pending_joins_.end(), id) ==
      pending_joins_.end()) {
    pending_joins_.push_back(id);
  }
}

void Autopilot::NoteLeaveRequest(ServerId id) {
  if (std::find(pending_leaves_.begin(), pending_leaves_.end(), id) ==
      pending_leaves_.end()) {
    pending_leaves_.push_back(id);
  }
}

void Autopilot::SampleCluster() {
  for (ServerId id : config_.servers) {
    mom::AgentServer* server = host_->ServerOf(id);
    if (server == nullptr) continue;  // crashed/stopped: nothing to read
    profile_.Ingest(id, server->OriginatedByDestination());
    const auto flow = server->flow_status();
    const std::uint64_t backlog =
        static_cast<std::uint64_t>(flow.staged_forwards) +
        static_cast<std::uint64_t>(flow.wait_queue);
    peak_router_backlog_ = std::max(peak_router_backlog_, backlog);
  }
}

std::uint16_t Autopilot::NextFreeDomainId() const {
  std::uint16_t next = 0;
  for (const auto& domain : config_.domains) {
    next = std::max<std::uint16_t>(
        next, static_cast<std::uint16_t>(domain.id.value() + 1));
  }
  return next;
}

std::size_t Autopilot::ProfileSpan() const {
  std::uint16_t max_id = 0;
  for (ServerId id : config_.servers) max_id = std::max(max_id, id.value());
  for (ServerId id : pending_joins_) max_id = std::max(max_id, id.value());
  return static_cast<std::size_t>(max_id) + 1;
}

std::vector<Autopilot::Candidate> Autopilot::GenerateCandidates(
    const domains::TrafficProfile& traffic) {
  std::vector<Candidate> out;

  // Membership requests first: they answer an explicit operator signal,
  // not a score, so one of each is proposed per window.
  if (!pending_leaves_.empty()) {
    const ServerId leaver = pending_leaves_.front();
    auto next = control::RemoveServer(config_, leaver);
    if (next.ok()) {
      Candidate c;
      c.op = OpKind::kRetire;
      c.detail = "retire " + to_string(leaver);
      c.config = std::move(next.value());
      c.membership = leaver;
      out.push_back(std::move(c));
    } else {
      // Un-removable (e.g. last member of a domain): drop the request
      // rather than re-propose it forever.
      pending_leaves_.pop_front();
    }
  }
  if (!pending_joins_.empty()) {
    const ServerId joiner = pending_joins_.front();
    // Join the domain the newcomer already talks to most; silent
    // newcomers land in the smallest domain.
    const domains::DomainSpec* target = nullptr;
    double best_affinity = -1;
    for (const auto& domain : config_.domains) {
      double affinity = 0;
      for (ServerId member : domain.members) {
        if (joiner.value() < traffic.server_count() &&
            member.value() < traffic.server_count()) {
          affinity += traffic.Between(joiner.value(), member.value());
        }
      }
      // Tie-break toward the smallest domain (cheapest matrix growth).
      const bool better =
          target == nullptr || affinity > best_affinity ||
          (affinity == best_affinity &&
           domain.members.size() < target->members.size());
      if (better) {
        target = &domain;
        best_affinity = affinity;
      }
    }
    if (target != nullptr) {
      auto next = control::AddServerToDomain(config_, joiner, target->id);
      if (next.ok()) {
        Candidate c;
        c.op = OpKind::kAbsorb;
        c.detail = "absorb " + to_string(joiner) + " into domain " +
                   std::to_string(target->id.value());
        c.config = std::move(next.value());
        c.membership = joiner;
        out.push_back(std::move(c));
      }
    }
  }

  if (profile_.TotalRate() < options_.min_total_rate) return out;

  // Splits: every sufficiently wide domain, partitioned by the
  // Section 7 splitter over the domain-local slice of the profile.
  for (const auto& domain : config_.domains) {
    if (domain.members.size() < options_.split_candidate_min_size) continue;
    domains::TrafficProfile sub(domain.members.size());
    for (std::size_t i = 0; i < domain.members.size(); ++i) {
      for (std::size_t j = 0; j < domain.members.size(); ++j) {
        if (i == j) continue;
        const ServerId a = domain.members[i];
        const ServerId b = domain.members[j];
        if (a.value() >= traffic.server_count() ||
            b.value() >= traffic.server_count()) {
          continue;
        }
        sub.set(i, j, traffic.at(a.value(), b.value()));
      }
    }
    const std::size_t part_cap =
        std::max<std::size_t>(2, (domain.members.size() + 1) / 2);
    auto next = control::SplitDomain(config_, domain.id, sub,
                                     DomainId(NextFreeDomainId()), part_cap);
    if (!next.ok()) continue;
    Candidate c;
    c.op = OpKind::kSplit;
    c.detail = "split domain " + std::to_string(domain.id.value()) +
               " (size " + std::to_string(domain.members.size()) + ")";
    c.config = std::move(next.value());
    out.push_back(std::move(c));
  }

  // Merges: every domain pair with traffic between their exclusive
  // members (merging pure strangers can never pay for the wider clock).
  for (std::size_t i = 0; i < config_.domains.size(); ++i) {
    for (std::size_t j = i + 1; j < config_.domains.size(); ++j) {
      const auto& a = config_.domains[i];
      const auto& b = config_.domains[j];
      double cross = 0;
      for (ServerId u : a.members) {
        for (ServerId v : b.members) {
          if (u == v) continue;
          if (u.value() >= traffic.server_count() ||
              v.value() >= traffic.server_count()) {
            continue;
          }
          cross += traffic.Between(u.value(), v.value());
        }
      }
      if (cross <= 0) continue;
      auto next = control::MergeDomains(config_, a.id, b.id);
      if (!next.ok()) continue;
      Candidate c;
      c.op = OpKind::kMerge;
      c.detail = "merge domain " + std::to_string(b.id.value()) +
                 " into domain " + std::to_string(a.id.value());
      c.config = std::move(next.value());
      out.push_back(std::move(c));
    }
  }

  // Router promotion: take the heaviest cross-domain pair and pull one
  // endpoint into the other's domain, cutting the multi-hop route to a
  // shared-domain hop.
  std::vector<DomainId> domains_of[2];
  double heaviest = 0;
  ServerId hot_u{0}, hot_v{0};
  const auto domain_ids_of = [&](ServerId server) {
    std::vector<DomainId> ids;
    for (const auto& domain : config_.domains) {
      if (std::find(domain.members.begin(), domain.members.end(), server) !=
          domain.members.end()) {
        ids.push_back(domain.id);
      }
    }
    return ids;
  };
  for (ServerId u : config_.servers) {
    for (ServerId v : config_.servers) {
      if (u.value() >= v.value()) continue;
      if (u.value() >= traffic.server_count() ||
          v.value() >= traffic.server_count()) {
        continue;
      }
      const double w = traffic.Between(u.value(), v.value());
      if (w <= heaviest) continue;
      const auto du = domain_ids_of(u);
      const auto dv = domain_ids_of(v);
      bool share = false;
      for (DomainId d : du) {
        share = share || std::find(dv.begin(), dv.end(), d) != dv.end();
      }
      if (share) continue;  // already one hop
      heaviest = w;
      hot_u = u;
      hot_v = v;
      domains_of[0] = du;
      domains_of[1] = dv;
    }
  }
  if (heaviest > 0) {
    const auto propose = [&](ServerId server, DomainId into) {
      auto next = control::PromoteRouter(config_, server, into);
      if (!next.ok()) return;
      Candidate c;
      c.op = OpKind::kPromote;
      c.detail = "promote " + to_string(server) + " into domain " +
                 std::to_string(into.value());
      c.config = std::move(next.value());
      out.push_back(std::move(c));
    };
    if (!domains_of[1].empty()) propose(hot_u, domains_of[1].front());
    if (!domains_of[0].empty()) propose(hot_v, domains_of[0].front());
  }
  return out;
}

Decision Autopilot::Tick() {
  SampleCluster();
  profile_.EndWindow();
  ++window_;

  Decision d;
  d.window = window_;
  d.from_epoch = epoch_;
  d.to_epoch = epoch_;

  if (window_ < backoff_until_window_) {
    d.verdict = Verdict::kBackoff;
    d.reason = "backing off until window " +
               std::to_string(backoff_until_window_) +
               " after an aborted epoch";
    history_.push_back(d);
    Journal(d);
    return d;
  }

  const domains::TrafficProfile traffic = profile_.Snapshot(ProfileSpan());
  auto current = ScoreConfig(config_, traffic, options_.scorer);
  if (!current.ok()) {
    d.verdict = Verdict::kNoCandidate;
    d.reason = "current config unscorable: " + current.status().to_string();
    history_.push_back(d);
    Journal(d);
    return d;
  }
  d.current_score = current.value().Total(options_.scorer);

  // Score every candidate; plan validation (the Section 4.3 acyclicity
  // theorem included) runs HERE, so an invalid candidate is rejected
  // before any store or server is touched.
  std::vector<Candidate> candidates = GenerateCandidates(traffic);
  const Candidate* winner = nullptr;
  double winner_score = 0;
  bool winner_is_membership = false;
  for (Candidate& candidate : candidates) {
    CandidateScore entry;
    entry.op = candidate.op;
    entry.detail = candidate.detail;
    auto plan =
        control::ReconfigPlan::Build(epoch_, config_, candidate.config);
    if (!plan.ok()) {
      entry.valid = false;
      entry.rejection = plan.status().to_string();
      d.candidates.push_back(std::move(entry));
      continue;
    }
    auto score = ScoreConfig(candidate.config, traffic, options_.scorer);
    if (!score.ok()) {
      entry.valid = false;
      entry.rejection = score.status().to_string();
      d.candidates.push_back(std::move(entry));
      continue;
    }
    entry.valid = true;
    entry.score = score.value().Total(options_.scorer);
    const bool membership = candidate.membership.has_value();
    const bool better =
        winner == nullptr ||
        (membership && !winner_is_membership) ||
        (membership == winner_is_membership && entry.score < winner_score);
    if (better) {
      winner = &candidate;
      winner_score = entry.score;
      winner_is_membership = membership;
    }
    d.candidates.push_back(std::move(entry));
  }

  if (winner == nullptr) {
    d.verdict = Verdict::kNoCandidate;
    d.reason = candidates.empty() ? "no candidates generated"
                                  : "no candidate passed validation";
    hysteresis_signature_.clear();
    history_.push_back(d);
    Journal(d);
    return d;
  }

  d.op = winner->op;
  d.detail = winner->detail;
  d.candidate_score = winner_score;

  // Gate: per-op-kind cooldown.
  const auto kind_key = static_cast<std::uint8_t>(winner->op);
  const auto acted = last_acted_window_.find(kind_key);
  if (acted != last_acted_window_.end() &&
      window_ <= acted->second + options_.cooldown_windows) {
    d.verdict = Verdict::kCooldown;
    d.reason = std::string(OpKindName(winner->op)) + " acted at window " +
               std::to_string(acted->second) + "; cooling down";
    history_.push_back(d);
    Journal(d);
    return d;
  }

  if (!winner_is_membership) {
    // Gate: minimum fractional improvement.
    const double improvement =
        d.current_score <= 0
            ? 0
            : (d.current_score - winner_score) / d.current_score;
    if (improvement < options_.min_improvement) {
      d.verdict = Verdict::kBelowThreshold;
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer),
                    "improvement %.3f below threshold %.3f", improvement,
                    options_.min_improvement);
      d.reason = buffer;
      hysteresis_signature_.clear();
      history_.push_back(d);
      Journal(d);
      return d;
    }
    // Gate: hysteresis -- the same candidate must win two windows in a
    // row before the controller trusts the trend.
    const std::string signature =
        std::string(OpKindName(winner->op)) + ":" + winner->detail;
    if (signature != hysteresis_signature_) {
      hysteresis_signature_ = signature;
      d.verdict = Verdict::kHysteresis;
      d.reason = "first window this candidate wins; confirming next window";
      history_.push_back(d);
      Journal(d);
      return d;
    }
  }

  if (options_.dry_run) {
    d.verdict = Verdict::kDryRun;
    d.reason = "dry-run mode";
    history_.push_back(d);
    Journal(d);
    return d;
  }

  // Act.  The guardrail wraps Reconfigure's two failure shapes:
  // propose/quiesce failures roll back inside Reconfigure itself, but a
  // cutover-phase failure leaves stores straddling the epoch boundary
  // with servers stopped, so any failure is followed by Recover() --
  // which rolls forward iff some store durably cut over (the drain was
  // proven), else rolls back, and restarts whatever is down.  The
  // durable epoch records then tell the controller which way it went.
  auto plan = control::ReconfigPlan::Build(epoch_, config_, winner->config);
  if (!plan.ok()) {
    d.verdict = Verdict::kNoCandidate;
    d.reason = plan.status().to_string();
    history_.push_back(d);
    Journal(d);
    return d;
  }
  control::Coordinator coordinator(
      host_, control::CoordinatorOptions{options_.quiesce_timeout_ms});
  const Status status = coordinator.Reconfigure(plan.value());
  if (!status.ok()) {
    const Status recovered = coordinator.Recover();
    bool went_forward = false;
    if (recovered.ok()) {
      for (ServerId id : plan.value().AllServers()) {
        auto now = coordinator.EpochRecordOf(id, control::kEpochCurrentKey);
        if (now.ok() && now.value().has_value() &&
            now.value()->epoch == plan.value().to_epoch) {
          went_forward = true;
          break;
        }
      }
    }
    if (went_forward) {
      // The epoch committed despite the error (failure between cutover
      // and resume): the durable records are the truth, not the error
      // code, so adopt the new configuration.
      AdoptEpoch(*winner, plan.value().to_epoch);
      d.to_epoch = epoch_;
      d.verdict = Verdict::kTaken;
      d.reason = "recovered forward after: " + status.to_string();
      history_.push_back(d);
      Journal(d);
      return d;
    }
    ++aborts_;
    backoff_until_window_ = window_ + 1 + options_.backoff_windows;
    hysteresis_signature_.clear();
    d.verdict = Verdict::kAborted;
    d.reason = recovered.ok() ? status.to_string()
                              : status.to_string() +
                                    "; recover: " + recovered.to_string();
    history_.push_back(d);
    Journal(d);
    return d;
  }

  AdoptEpoch(*winner, plan.value().to_epoch);
  d.to_epoch = epoch_;
  d.verdict = Verdict::kTaken;
  history_.push_back(d);
  Journal(d);
  return d;
}

void Autopilot::AdoptEpoch(const Candidate& winner, std::uint64_t to_epoch) {
  epoch_ = to_epoch;
  config_ = winner.config;
  ++epochs_taken_;
  const auto kind_key = static_cast<std::uint8_t>(winner.op);
  ++ops_taken_[kind_key];
  last_acted_window_[kind_key] = window_;
  hysteresis_signature_.clear();
  if (winner.membership.has_value()) {
    const ServerId member = *winner.membership;
    if (winner.op == OpKind::kAbsorb) {
      if (!pending_joins_.empty() && pending_joins_.front() == member) {
        pending_joins_.pop_front();
      }
    } else if (winner.op == OpKind::kRetire) {
      if (!pending_leaves_.empty() && pending_leaves_.front() == member) {
        pending_leaves_.pop_front();
      }
      profile_.Forget(member);
    }
  }
}

std::uint64_t Autopilot::ops_taken(OpKind kind) const {
  const auto it = ops_taken_.find(static_cast<std::uint8_t>(kind));
  return it == ops_taken_.end() ? 0 : it->second;
}

void Autopilot::Journal(const Decision& decision) {
  if (!options_.journal) return;
  // Best effort: the first live server carries the journal.  A window
  // with every server down simply goes unjournaled; the in-memory
  // history is the authoritative record for the process's lifetime.
  for (ServerId id : config_.servers) {
    mom::AgentServer* server = host_->ServerOf(id);
    if (server == nullptr) continue;
    char key[32];
    std::snprintf(key, sizeof(key), "autopilot/%016" PRIx64, journal_seq_);
    const std::string text = EncodeDecision(decision);
    Bytes value(text.begin(), text.end());
    if (server->ApplyControlRecord(key, std::move(value)).ok()) {
      ++journal_seq_;
    }
    return;
  }
}

}  // namespace cmom::autopilot
