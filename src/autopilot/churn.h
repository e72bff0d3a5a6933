// Churn soak: the autopilot's proving ground.
//
// Runs a daisy-chain MOM (the Figure 9 middle organization) under a
// seeded, phase-shifting traffic storm the way Nedelec et al. frame
// the scalability problem: continuous join/leave churn plus a hotspot
// that migrates between domains while the bus keeps serving.  The
// controller ticks once per observation window; the scenario is built
// so a well-behaved policy engine should
//
//   phase 1  merge the two chain-adjacent domains the hotspot spans,
//   phase 2  split the merged domain back apart when the hotspot
//            decays into two disjoint cliques,
//   phase 3  react to a second hotspot between two far domains
//            (merge or router promotion),
//
// while absorbing join requests and retiring leavers at the phase
// boundaries.  Every epoch boundary is crossed under live traffic.
//
// After the last window the bus drains and the offline oracle judges
// the WHOLE run -- causal delivery and exactly-once across every epoch
// the controller minted.  The same seeded scenario re-run with
// `frozen = true` (controller in dry-run: observes, scores, journals,
// never acts) is the baseline a BENCH_autopilot.json report compares
// against: steady-state analytic score (s^2-per-hop message cost)
// and peak router backlog, frozen vs closed-loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autopilot/controller.h"
#include "common/status.h"

namespace cmom::autopilot {

struct ChurnSoakOptions {
  // Master seed (traffic mix and membership schedule derive from it);
  // replay with CMOM_SEED=<seed>.
  std::uint64_t seed = 1;
  // Daisy chain shape: `chain_domains` domains of `domain_size`
  // servers, adjacent domains sharing one router.  Total servers:
  // chain_domains * domain_size - (chain_domains - 1).
  std::size_t chain_domains = 7;
  std::size_t domain_size = 4;
  // Servers that ask to join / leave mid-run.
  std::size_t joiners = 2;
  std::size_t leavers = 2;
  // Observation windows and sends per window.
  std::size_t windows = 30;
  std::size_t sends_per_window = 400;
  // Fraction of a window's sends aimed at the phase's hotspot.
  double hotspot_share = 0.7;
  // Baseline mode: the controller observes and journals but never
  // reconfigures (AutopilotOptions::dry_run).
  bool frozen = false;
  // Policy gates (scenario-tuned defaults applied in RunChurnSoak when
  // left at zero).
  AutopilotOptions autopilot;
  // When non-empty the single-run report is written here as JSON.
  std::string report_path;
};

// One observation window's outcome, for the report series.
struct ChurnWindow {
  std::uint64_t window = 0;
  std::uint64_t epoch = 0;
  double score = 0;       // analytic total of the live config
  double clock_cost = 0;  // standing sum of per-domain stamp costs
  double stamp_rate = 0;  // traffic-weighted stamp entries shipped
  // Traffic-weighted extra hops: messages per unit rate some router
  // must re-stamp, stage and forward -- the backlog pressure the
  // topology creates (the mid-burst probes bound it from below).
  double router_load = 0;
  // Peak staging + credit-wait depth probed mid-burst THIS window (the
  // post-window gauges always read zero: the soak quiesces before each
  // Tick, so in-flight probes are the only view of router pressure).
  std::uint64_t router_backlog = 0;
  std::string verdict;
  std::string op;
  std::string reason;  // suppression / abort explanation
};

struct ChurnReport {
  std::uint64_t seed = 0;
  std::size_t windows = 0;
  std::size_t servers = 0;  // initial server count
  bool frozen = false;
  double wall_seconds = 0;

  // Traffic totals (accepted = admission took the send; rejected =
  // fence/overload turned it away, which the driver tolerates).
  std::uint64_t messages_accepted = 0;
  std::uint64_t messages_rejected = 0;
  std::uint64_t messages_sent = 0;       // committed sends in the trace
  std::uint64_t messages_delivered = 0;  // deliveries in the trace

  // Controller activity.
  std::uint64_t epochs_taken = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t promotes = 0;
  std::uint64_t absorbs = 0;
  std::uint64_t retires = 0;
  std::uint64_t aborts = 0;
  std::uint64_t suppressed_cooldown = 0;
  std::uint64_t suppressed_threshold = 0;
  std::uint64_t suppressed_hysteresis = 0;
  std::uint64_t suppressed_backoff = 0;

  // Cost tracking.
  double steady_score = 0;      // mean score over the last third
  double steady_stamp_rate = 0;  // mean stamp entries/rate, last third
  double steady_router_load = 0;  // mean routed extra hops, last third
  double final_clock_cost = 0;  // standing stamp cost of the final config
  std::uint64_t peak_router_backlog = 0;  // whole run, mid-burst probes
  std::uint64_t steady_backlog = 0;       // peak over the last third
  std::uint64_t final_epoch = 0;

  // Oracle verdicts over the whole run (every epoch boundary).
  bool causal = false;
  bool exactly_once = false;
  std::string first_violation;

  std::vector<ChurnWindow> series;

  [[nodiscard]] bool ok() const { return causal && exactly_once; }
};

// Runs one churn soak.  Non-ok means the scenario could not run;
// invariant violations land in the report.
[[nodiscard]] Result<ChurnReport> RunChurnSoak(const ChurnSoakOptions& options);

// Writes one run as JSON (report_path plumbing uses this too).
[[nodiscard]] Status WriteChurnReport(const std::string& path,
                                      const ChurnReport& report);

// Writes the closed-loop vs frozen comparison (BENCH_autopilot.json):
// per-run sections, a per-window score series, and a summary block
// with the steady-state improvement the acceptance gate reads.
[[nodiscard]] Status WriteAutopilotBench(const std::string& path,
                                         const ChurnReport& autopilot,
                                         const ChurnReport& frozen,
                                         bool smoke);

}  // namespace cmom::autopilot
