// Deployment scoring: how expensive is this topology under this
// traffic, right now?
//
// Extends the Section 6.2 analytic model the offline splitter uses
// with the two gauges the autopilot budgets against:
//
//   route_cost   traffic-weighted per-message cost over routed paths,
//                where each hop is priced with the *core-aware* stamp
//                cost of the domain it crosses (s^2 matrix, O(1)
//                hybrid -- clocks::CausalCoreStampCost), i.e. the same
//                model CostEstimator::Estimate applies;
//   router_load  traffic-weighted count of extra hops -- every unit is
//                a message some router-server must re-stamp, stage and
//                forward, so this tracks the router backlog pressure a
//                decomposition creates;
//   clock_cost   sum over domains of the per-message stamp cost each
//                member pays (the "sum s^2" budget of the ROADMAP item,
//                generalized per core): the standing price of domain
//                width, independent of traffic.
//
// total() mixes the three with the option weights; the policy engine
// compares totals between the live config and candidate configs over
// the same LiveTrafficProfile snapshot.
#pragma once

#include "common/status.h"
#include "domains/config.h"
#include "domains/splitter.h"

namespace cmom::autopilot {

struct ScorerOptions {
  domains::CostParams cost;       // per_hop_fixed / per_entry
  double router_load_weight = 0.5;  // cost units per routed extra hop
  double clock_cost_weight = 0.01;  // cost units per standing stamp entry
};

struct DeploymentScore {
  double route_cost = 0;
  double router_load = 0;
  double clock_cost = 0;
  // Unweighted stamp entries shipped per unit time: sum over routed
  // traffic of each hop's core stamp cost (s^2 entries for a matrix
  // domain) times the link's rate.  This is the operational "sum s^2
  // clock cost" the reports track -- what the wire actually carries --
  // as opposed to clock_cost, the standing width of the clocks.
  double stamp_rate = 0;

  [[nodiscard]] double Total(const ScorerOptions& options) const {
    return route_cost + options.router_load_weight * router_load +
           options.clock_cost_weight * clock_cost;
  }
};

// Scores `config` under `traffic`.  Fails when the config does not
// validate (Deployment::Create) -- an invalid candidate can never win.
[[nodiscard]] Result<DeploymentScore> ScoreConfig(
    const domains::MomConfig& config, const domains::TrafficProfile& traffic,
    const ScorerOptions& options = {});

}  // namespace cmom::autopilot
