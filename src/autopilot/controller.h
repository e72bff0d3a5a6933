// The autopilot: a closed-loop topology controller.
//
// Closes the loop the ROADMAP left open between the live gauges (PR 5)
// and epoch reconfiguration (PR 4):
//
//   collect  Every observation window Tick() samples each live
//            server's cumulative per-destination origination counters,
//            router staging depth and flow gauges into a decaying
//            LiveTrafficProfile (EWMA; stale hotspots fade).
//   score    The current config and a set of candidate configs (domain
//            splits via the Section 7 splitter, merges of adjacent
//            chatty domains, router promotions for hot cross-domain
//            pairs, absorption of join requests, retirement of leave
//            requests) are priced with the s^2-per-hop analytic model
//            (autopilot/scorer.h) over the same profile snapshot.
//   decide   A candidate acts only if it clears every gate:
//            - min-improvement threshold (fractional score reduction),
//            - hysteresis (the same candidate must win two consecutive
//              windows before it is trusted -- one hot window is not a
//              trend),
//            - per-op-kind cooldown (a domain freshly split is not
//              immediately re-merged),
//            - guardrail backoff (after an aborted epoch the
//              controller sits out `backoff_windows` windows).
//            Membership ops (absorb/retire) answer explicit requests,
//            so they skip the improvement/hysteresis gates but honor
//            cooldown and backoff.
//   act      The winning candidate becomes a ReconfigPlan (full
//            Section 4.3 re-validation in ReconfigPlan::Build -- a
//            cyclic candidate dies before any store is touched) and is
//            driven through Coordinator::Reconfigure under a bounded
//            quiesce budget.  The guardrail: any Reconfigure failure
//            is followed by Coordinator::Recover(), which converges
//            the cluster (forward iff some store durably cut over,
//            else back to the old epoch) and restarts what is down;
//            the controller adopts whichever epoch the stores settled
//            on, records the abort if it rolled back, and backs off.
//            dry_run mode stops short of acting and records what
//            would have been done.
//
// Every window's outcome is a Decision; the history doubles as the
// controller's journal.  When `journal` is enabled each decision is
// also written durably (key "autopilot/<seq>") through the journal
// server's own commit pipeline, so `momtool autopilot <store-dir>` can
// reconstruct the controller's reasoning post-mortem.  The controller
// itself keeps NO durable state it depends on: if it crashes
// mid-propose, Coordinator::Recover() rolls the half-proposed epoch
// back from the stores alone and a fresh controller simply starts
// observing again.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "autopilot/profile.h"
#include "autopilot/scorer.h"
#include "common/status.h"
#include "control/coordinator.h"
#include "control/fence.h"
#include "domains/config.h"

namespace cmom::autopilot {

enum class OpKind : std::uint8_t {
  kNone = 0,
  kSplit,
  kMerge,
  kPromote,
  kAbsorb,  // AddServerToDomain for a join request
  kRetire,  // RemoveServer for a leave request
};

[[nodiscard]] const char* OpKindName(OpKind kind);

// What happened in one observation window.
enum class Verdict : std::uint8_t {
  kNoCandidate = 0,     // nothing to propose (or all candidates invalid)
  kBelowThreshold,      // best candidate does not clear min_improvement
  kHysteresis,          // best candidate must win again next window
  kCooldown,            // op kind acted too recently
  kBackoff,             // sitting out a guardrail backoff
  kDryRun,              // would have acted; dry_run held the trigger
  kTaken,               // epoch executed
  kAborted,             // Coordinator::Reconfigure failed; backed off
};

[[nodiscard]] const char* VerdictName(Verdict verdict);

struct CandidateScore {
  OpKind op = OpKind::kNone;
  std::string detail;   // e.g. "split domain 2 -> 7"
  double score = 0;     // total under ScorerOptions; lower is better
  bool valid = false;   // ReconfigPlan::Build accepted it
  std::string rejection;  // why !valid
};

struct Decision {
  std::uint64_t window = 0;
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;  // == from_epoch unless kTaken
  Verdict verdict = Verdict::kNoCandidate;
  OpKind op = OpKind::kNone;
  std::string detail;
  double current_score = 0;
  double candidate_score = 0;
  std::string reason;  // suppression / abort explanation
  std::vector<CandidateScore> candidates;
};

// Journal record codec (also used by `momtool autopilot <store-dir>`).
[[nodiscard]] std::string EncodeDecision(const Decision& decision);
[[nodiscard]] Result<Decision> DecodeDecision(const std::string& text);

struct AutopilotOptions {
  // EWMA history weight per window (see LiveTrafficProfile).
  double decay = 0.5;
  // Fractional score improvement a structural op must clear:
  // (current - candidate) / current >= min_improvement.
  double min_improvement = 0.05;
  // Windows an op kind rests after acting.
  std::uint64_t cooldown_windows = 2;
  // Windows the controller sits out after an aborted epoch.
  std::uint64_t backoff_windows = 4;
  // Upper bound on split part sizes (SplitterOptions::max_domain_size).
  std::size_t max_domain_size = 8;
  // Domains at or above this size get split candidates generated.
  std::size_t split_candidate_min_size = 4;
  // Observe and journal, never reconfigure.
  bool dry_run = false;
  // Quiesce budget handed to the coordinator per epoch.
  std::uint64_t quiesce_timeout_ms = 10'000;
  // Scoring weights.
  ScorerOptions scorer;
  // Ignore windows whose total smoothed rate is below this (no point
  // reshaping an idle bus around noise).
  double min_total_rate = 1.0;
  // Durable decision journal ("autopilot/<seq>" on the journal
  // server's store; best effort -- a down journal server drops the
  // record, never blocks the loop).
  bool journal = true;
};

class Autopilot {
 public:
  // `host` must outlive the controller.  `config`/`epoch` describe the
  // cluster as currently deployed.
  Autopilot(control::ClusterHost* host, domains::MomConfig config,
            std::uint64_t epoch, AutopilotOptions options = {});

  // Membership signals (operator or discovery layer): servers asking to
  // join or announce departure.  Honored on later Ticks.
  void NoteJoinRequest(ServerId id);
  void NoteLeaveRequest(ServerId id);

  // One observation window: sample, smooth, score, gate, maybe act.
  // Never throws the cluster away: a failed reconfiguration is
  // converged by Coordinator::Recover() (forward or back) and the
  // returned Decision records which way the stores settled.
  Decision Tick();

  [[nodiscard]] const domains::MomConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t window() const { return window_; }
  [[nodiscard]] const std::vector<Decision>& history() const {
    return history_;
  }
  [[nodiscard]] const LiveTrafficProfile& profile() const { return profile_; }

  // Peak router staging depth observed over all samples so far.
  [[nodiscard]] std::uint64_t peak_router_backlog() const {
    return peak_router_backlog_;
  }

  // Counters over the whole history (for reports).
  [[nodiscard]] std::uint64_t epochs_taken() const { return epochs_taken_; }
  [[nodiscard]] std::uint64_t ops_taken(OpKind kind) const;
  [[nodiscard]] std::uint64_t aborts() const { return aborts_; }

 private:
  struct Candidate {
    OpKind op = OpKind::kNone;
    std::string detail;
    domains::MomConfig config;
    // Join/leave this candidate answers (cleared from the pending
    // queues once taken).
    std::optional<ServerId> membership;
  };

  void SampleCluster();
  [[nodiscard]] std::vector<Candidate> GenerateCandidates(
      const domains::TrafficProfile& traffic);
  // Bookkeeping once an epoch is durably committed (normal success or
  // a Recover() that rolled forward): adopt the config, bump the
  // counters, clear the answered membership request.
  void AdoptEpoch(const Candidate& winner, std::uint64_t to_epoch);
  [[nodiscard]] std::uint16_t NextFreeDomainId() const;
  [[nodiscard]] std::size_t ProfileSpan() const;
  void Journal(const Decision& decision);

  control::ClusterHost* host_;
  domains::MomConfig config_;
  std::uint64_t epoch_;
  AutopilotOptions options_;

  LiveTrafficProfile profile_;
  std::uint64_t window_ = 0;
  std::vector<Decision> history_;
  std::deque<ServerId> pending_joins_;
  std::deque<ServerId> pending_leaves_;

  // Gate state.
  std::uint64_t backoff_until_window_ = 0;
  std::unordered_map<std::uint8_t, std::uint64_t> last_acted_window_;
  std::string hysteresis_signature_;  // candidate that won last window

  // Gauges and counters.
  std::uint64_t peak_router_backlog_ = 0;
  std::uint64_t epochs_taken_ = 0;
  std::uint64_t aborts_ = 0;
  std::unordered_map<std::uint8_t, std::uint64_t> ops_taken_;
  std::uint64_t journal_seq_ = 0;
};

}  // namespace cmom::autopilot
