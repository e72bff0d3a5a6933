#include "autopilot/churn.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "causality/checker.h"
#include "common/rng.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/threaded_harness.h"

namespace cmom::autopilot {

namespace {

// Standing stamp cost of a config (the report's "clock cost" series).
double ClockCostOf(const domains::MomConfig& config) {
  double total = 0;
  for (const auto& domain : config.domains) {
    const double s = static_cast<double>(domain.members.size());
    total += s * s;
  }
  return total;
}

// Members belonging to exactly one domain (hotspot endpoints avoid the
// chain's shared routers so promotion stays a distinct option).
std::vector<ServerId> InteriorMembers(const domains::MomConfig& config,
                                      const domains::DomainSpec& domain) {
  std::unordered_map<std::uint16_t, int> memberships;
  for (const auto& spec : config.domains) {
    for (ServerId member : spec.members) ++memberships[member.value()];
  }
  std::vector<ServerId> interior;
  for (ServerId member : domain.members) {
    if (memberships[member.value()] == 1) interior.push_back(member);
  }
  return interior;
}

}  // namespace

Result<ChurnReport> RunChurnSoak(const ChurnSoakOptions& options) {
  if (options.chain_domains < 4 || options.domain_size < 3) {
    return Status::InvalidArgument(
        "churn scenario needs >= 4 chain domains of >= 3 servers");
  }
  const auto start = std::chrono::steady_clock::now();

  domains::MomConfig config = domains::topologies::Daisy(
      options.chain_domains, options.domain_size);

  // Scenario anchors, read from the generated chain rather than
  // hard-coded ids: the first two domains host the phase-1 hotspot
  // (merge bait) whose decay into two disjoint cliques is the phase-2
  // split bait; two mid-chain domains host the phase-3 hotspot.
  const auto d0 = config.domains[0];
  const auto d1 = config.domains[1];
  const auto da = config.domains[options.chain_domains / 2];
  const auto db = config.domains[options.chain_domains / 2 + 1];
  const std::vector<ServerId> clique_a = InteriorMembers(config, d0);
  const std::vector<ServerId> clique_b = InteriorMembers(config, d1);
  const std::vector<ServerId> far_a = InteriorMembers(config, da);
  const std::vector<ServerId> far_b = InteriorMembers(config, db);
  if (clique_a.size() < 2 || clique_b.empty() || far_a.empty() ||
      far_b.empty()) {
    return Status::InvalidArgument("chain too small for hotspot cliques");
  }

  workload::ThreadedHarness harness(config);
  Status status = harness.Init([](ServerId, mom::AgentServer& server) {
    server.AttachAgent(0, std::make_unique<workload::SinkAgent>());
  });
  if (!status.ok()) return status;
  status = harness.BootAll();
  if (!status.ok()) return status;

  AutopilotOptions pilot_options = options.autopilot;
  pilot_options.dry_run = options.frozen;
  Autopilot pilot(&harness, config, 0, pilot_options);

  // Membership schedule: joiners knock shortly after the first
  // reshape settles; leavers (interior members of the far end of the
  // chain, away from every hotspot) announce in the final third.
  std::uint16_t max_id = 0;
  for (ServerId id : config.servers) max_id = std::max(max_id, id.value());
  std::vector<std::pair<std::size_t, ServerId>> joins;
  for (std::size_t i = 0; i < options.joiners; ++i) {
    joins.emplace_back(options.windows * 2 / 5 + 2 * i,
                       ServerId(static_cast<std::uint16_t>(max_id + 1 + i)));
  }
  const auto leaver_pool =
      InteriorMembers(config, config.domains[options.chain_domains - 1]);
  std::vector<std::pair<std::size_t, ServerId>> leaves;
  for (std::size_t i = 0; i < std::min(options.leavers, leaver_pool.size());
       ++i) {
    leaves.emplace_back(options.windows * 3 / 5 + 2 * i, leaver_pool[i]);
  }

  ChurnReport report;
  report.seed = options.seed;
  report.windows = options.windows;
  report.servers = config.servers.size();
  report.frozen = options.frozen;

  Rng rng(options.seed);
  const std::size_t phase1_end = options.windows / 3;
  const std::size_t phase2_end = options.windows * 2 / 3;

  const auto pick = [&](const std::vector<ServerId>& pool) {
    return pool[rng.NextBelow(pool.size())];
  };

  for (std::size_t w = 0; w < options.windows; ++w) {
    for (const auto& [when, id] : joins) {
      if (when == w) pilot.NoteJoinRequest(id);
    }
    for (const auto& [when, id] : leaves) {
      if (when == w) pilot.NoteLeaveRequest(id);
    }

    const auto& live = pilot.config().servers;
    // Router pressure is only visible mid-burst: the soak quiesces
    // before every Tick, so probe the staging/credit-wait gauges while
    // the window's traffic is still in flight.
    std::uint64_t window_backlog = 0;
    const std::size_t probe_every =
        std::max<std::size_t>(1, options.sends_per_window / 32);
    for (std::size_t s = 0; s < options.sends_per_window; ++s) {
      if (s % probe_every == 0) {
        for (ServerId id : live) {
          mom::AgentServer* server = harness.ServerOf(id);
          if (server == nullptr) continue;
          const auto flow = server->flow_status();
          window_backlog = std::max<std::uint64_t>(
              window_backlog, static_cast<std::uint64_t>(flow.staged_forwards) +
                                  static_cast<std::uint64_t>(flow.wait_queue));
        }
      }
      ServerId from{0}, to{0};
      if (rng.NextDouble() < options.hotspot_share) {
        if (w < phase1_end) {
          // Cross-domain hotspot spanning the first two chain domains.
          from = pick(clique_a);
          to = pick(clique_b);
        } else if (w < phase2_end) {
          // The hotspot decays into two disjoint intra-clique storms.
          const auto& clique =
              rng.NextBelow(2) == 0 && clique_a.size() >= 2 ? clique_a
                                                            : clique_b;
          if (clique.size() < 2) {
            from = pick(clique_a);
            to = pick(clique_a);
          } else {
            from = pick(clique);
            to = pick(clique);
          }
        } else {
          // The hotspot migrates to two far, still-separate domains.
          from = pick(far_a);
          to = pick(far_b);
        }
        if (rng.NextBelow(2) == 0) std::swap(from, to);
      } else {
        from = live[rng.NextBelow(live.size())];
        to = live[rng.NextBelow(live.size())];
      }
      if (from == to) continue;
      auto sent = harness.Send(from, 0, to, 0, "churn");
      if (sent.ok()) {
        ++report.messages_accepted;
      } else {
        // Fenced (mid-epoch), overloaded or not-running senders are
        // part of life under churn; the oracle only audits committed
        // sends.
        ++report.messages_rejected;
      }
    }
    harness.WaitQuiescent();

    const Decision decision = pilot.Tick();
    switch (decision.verdict) {
      case Verdict::kCooldown: ++report.suppressed_cooldown; break;
      case Verdict::kBelowThreshold: ++report.suppressed_threshold; break;
      case Verdict::kHysteresis: ++report.suppressed_hysteresis; break;
      case Verdict::kBackoff: ++report.suppressed_backoff; break;
      default: break;
    }

    ChurnWindow row;
    row.window = decision.window;
    row.epoch = pilot.epoch();
    row.score = decision.current_score;
    row.clock_cost = ClockCostOf(pilot.config());
    {
      // The operational sum-s^2 series: stamp entries the smoothed
      // traffic ships through the CURRENT topology each unit of rate.
      std::uint16_t span = 0;
      for (ServerId id : pilot.config().servers) {
        span = std::max(span, static_cast<std::uint16_t>(id.value() + 1));
      }
      auto scored = ScoreConfig(pilot.config(), pilot.profile().Snapshot(span),
                                pilot_options.scorer);
      if (scored.ok()) {
        row.stamp_rate = scored.value().stamp_rate;
        row.router_load = scored.value().router_load;
      }
    }
    row.router_backlog = window_backlog;
    row.verdict = VerdictName(decision.verdict);
    row.op = OpKindName(decision.op);
    row.reason = decision.reason;
    report.series.push_back(std::move(row));
  }

  harness.WaitQuiescent();
  harness.HaltAll();

  const causality::Trace trace = harness.trace().Snapshot();
  for (const auto& event : trace) {
    if (event.kind == causality::EventKind::kSend) {
      ++report.messages_sent;
    } else {
      ++report.messages_delivered;
    }
  }
  const causality::CausalityChecker checker = harness.MakeChecker();
  const auto causal_report = checker.CheckCausalDelivery(trace);
  report.causal = causal_report.causal();
  if (!causal_report.violations.empty()) {
    report.first_violation = causal_report.violations.front().description;
  }
  const Status once = checker.CheckExactlyOnce(trace);
  report.exactly_once = once.ok();
  if (report.first_violation.empty() && !once.ok()) {
    report.first_violation = once.to_string();
  }

  report.epochs_taken = pilot.epochs_taken();
  report.splits = pilot.ops_taken(OpKind::kSplit);
  report.merges = pilot.ops_taken(OpKind::kMerge);
  report.promotes = pilot.ops_taken(OpKind::kPromote);
  report.absorbs = pilot.ops_taken(OpKind::kAbsorb);
  report.retires = pilot.ops_taken(OpKind::kRetire);
  report.aborts = pilot.aborts();
  report.final_clock_cost = ClockCostOf(pilot.config());
  report.final_epoch = pilot.epoch();

  double steady_sum = 0;
  double steady_stamp_sum = 0;
  double steady_load_sum = 0;
  std::size_t steady_count = 0;
  for (std::size_t w = 0; w < report.series.size(); ++w) {
    report.peak_router_backlog =
        std::max(report.peak_router_backlog, report.series[w].router_backlog);
    if (w < phase2_end) continue;
    steady_sum += report.series[w].score;
    steady_stamp_sum += report.series[w].stamp_rate;
    steady_load_sum += report.series[w].router_load;
    report.steady_backlog =
        std::max(report.steady_backlog, report.series[w].router_backlog);
    ++steady_count;
  }
  report.peak_router_backlog =
      std::max(report.peak_router_backlog, pilot.peak_router_backlog());
  report.steady_score = steady_count == 0 ? 0 : steady_sum / steady_count;
  report.steady_stamp_rate =
      steady_count == 0 ? 0 : steady_stamp_sum / steady_count;
  report.steady_router_load =
      steady_count == 0 ? 0 : steady_load_sum / steady_count;

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!options.report_path.empty()) {
    const Status written = WriteChurnReport(options.report_path, report);
    if (!written.ok()) return written;
  }
  return report;
}

namespace {

void WriteRunSection(std::FILE* out, const char* prefix,
                     const ChurnReport& r) {
  std::fprintf(out,
               "  \"%s_epochs_taken\": %" PRIu64 ",\n"
               "  \"%s_splits\": %" PRIu64 ",\n"
               "  \"%s_merges\": %" PRIu64 ",\n"
               "  \"%s_promotes\": %" PRIu64 ",\n"
               "  \"%s_absorbs\": %" PRIu64 ",\n"
               "  \"%s_retires\": %" PRIu64 ",\n"
               "  \"%s_aborts\": %" PRIu64 ",\n",
               prefix, r.epochs_taken, prefix, r.splits, prefix, r.merges,
               prefix, r.promotes, prefix, r.absorbs, prefix, r.retires,
               prefix, r.aborts);
  std::fprintf(out,
               "  \"%s_steady_score\": %.3f,\n"
               "  \"%s_steady_stamp_rate\": %.3f,\n"
               "  \"%s_steady_router_load\": %.3f,\n"
               "  \"%s_final_clock_cost\": %.1f,\n"
               "  \"%s_peak_router_backlog\": %" PRIu64 ",\n"
               "  \"%s_steady_backlog\": %" PRIu64 ",\n"
               "  \"%s_causal\": %s,\n"
               "  \"%s_exactly_once\": %s,\n",
               prefix, r.steady_score, prefix, r.steady_stamp_rate, prefix,
               r.steady_router_load, prefix, r.final_clock_cost, prefix,
               r.peak_router_backlog, prefix, r.steady_backlog, prefix,
               r.causal ? "true" : "false", prefix,
               r.exactly_once ? "true" : "false");
}

}  // namespace

Status WriteChurnReport(const std::string& path, const ChurnReport& r) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Unavailable("cannot write " + path);
  std::fprintf(out, "{\n  \"bench\": \"autopilot_churn_run\",\n");
  std::fprintf(out, "  \"seed\": %" PRIu64 ",\n", r.seed);
  std::fprintf(out, "  \"windows\": %zu,\n", r.windows);
  std::fprintf(out, "  \"servers\": %zu,\n", r.servers);
  std::fprintf(out, "  \"frozen\": %s,\n", r.frozen ? "true" : "false");
  std::fprintf(out, "  \"wall_seconds\": %.3f,\n", r.wall_seconds);
  std::fprintf(out,
               "  \"accepted\": %" PRIu64 ",\n  \"rejected\": %" PRIu64
               ",\n  \"sent\": %" PRIu64 ",\n  \"delivered\": %" PRIu64 ",\n",
               r.messages_accepted, r.messages_rejected, r.messages_sent,
               r.messages_delivered);
  WriteRunSection(out, "run", r);
  std::fprintf(out,
               "  \"suppressed_cooldown\": %" PRIu64
               ",\n  \"suppressed_threshold\": %" PRIu64
               ",\n  \"suppressed_hysteresis\": %" PRIu64
               ",\n  \"suppressed_backoff\": %" PRIu64 ",\n",
               r.suppressed_cooldown, r.suppressed_threshold,
               r.suppressed_hysteresis, r.suppressed_backoff);
  std::fprintf(out, "  \"final_epoch\": %" PRIu64 ",\n", r.final_epoch);
  std::fprintf(out, "  \"first_violation\": \"%s\",\n",
               r.first_violation.c_str());
  std::fprintf(out, "  \"series\": [\n");
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const ChurnWindow& row = r.series[i];
    std::fprintf(out,
                 "    {\"w\": %" PRIu64 ", \"epoch\": %" PRIu64
                 ", \"score\": %.3f, \"stamp\": %.1f, \"clock_cost\": %.1f"
                 ", \"backlog\": %" PRIu64
                 ", \"verdict\": \"%s\", \"op\": \"%s\", \"reason\": \"%s\"}%s\n",
                 row.window, row.epoch, row.score, row.stamp_rate,
                 row.clock_cost, row.router_backlog, row.verdict.c_str(),
                 row.op.c_str(), row.reason.c_str(),
                 i + 1 == r.series.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"all_ok\": %s\n}\n", r.ok() ? "true" : "false");
  std::fclose(out);
  return Status::Ok();
}

Status WriteAutopilotBench(const std::string& path, const ChurnReport& ap,
                           const ChurnReport& fz, bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Unavailable("cannot write " + path);
  std::fprintf(out, "{\n  \"bench\": \"autopilot_churn\",\n");
  std::fprintf(out, "  \"seed\": %" PRIu64 ",\n", ap.seed);
  std::fprintf(out, "  \"windows\": %zu,\n", ap.windows);
  std::fprintf(out, "  \"servers\": %zu,\n", ap.servers);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  WriteRunSection(out, "autopilot", ap);
  WriteRunSection(out, "frozen", fz);
  std::fprintf(out, "  \"series\": [\n");
  const std::size_t rows = std::min(ap.series.size(), fz.series.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::fprintf(out,
                 "    {\"w\": %" PRIu64 ", \"ap_score\": %.3f, \"fz_score\": "
                 "%.3f, \"ap_stamp\": %.1f, \"fz_stamp\": %.1f, \"ap_clock\": "
                 "%.1f, \"fz_clock\": %.1f, \"ap_backlog\": %" PRIu64
                 ", \"fz_backlog\": %" PRIu64 ", \"ap_epoch\": %" PRIu64
                 "}%s\n",
                 ap.series[i].window, ap.series[i].score, fz.series[i].score,
                 ap.series[i].stamp_rate, fz.series[i].stamp_rate,
                 ap.series[i].clock_cost, fz.series[i].clock_cost,
                 ap.series[i].router_backlog, fz.series[i].router_backlog,
                 ap.series[i].epoch, i + 1 == rows ? "" : ",");
  }
  std::fprintf(out, "  ],\n");
  const double improvement =
      fz.steady_score <= 0
          ? 0
          : (fz.steady_score - ap.steady_score) / fz.steady_score;
  const std::uint64_t distinct_ops =
      (ap.splits > 0 ? 1 : 0) + (ap.merges > 0 ? 1 : 0) +
      (ap.promotes > 0 ? 1 : 0) + (ap.absorbs > 0 ? 1 : 0) +
      (ap.retires > 0 ? 1 : 0);
  std::fprintf(out, "  \"summary\": {\n");
  std::fprintf(out, "    \"steady_score_autopilot\": %.3f,\n",
               ap.steady_score);
  std::fprintf(out, "    \"steady_score_frozen\": %.3f,\n", fz.steady_score);
  std::fprintf(out, "    \"score_improvement\": %.4f,\n", improvement);
  std::fprintf(out, "    \"steady_stamp_autopilot\": %.3f,\n",
               ap.steady_stamp_rate);
  std::fprintf(out, "    \"steady_stamp_frozen\": %.3f,\n",
               fz.steady_stamp_rate);
  const double stamp_improvement =
      fz.steady_stamp_rate <= 0
          ? 0
          : (fz.steady_stamp_rate - ap.steady_stamp_rate) /
                fz.steady_stamp_rate;
  std::fprintf(out, "    \"stamp_improvement\": %.4f,\n", stamp_improvement);
  std::fprintf(out, "    \"steady_router_load_autopilot\": %.3f,\n",
               ap.steady_router_load);
  std::fprintf(out, "    \"steady_router_load_frozen\": %.3f,\n",
               fz.steady_router_load);
  std::fprintf(out, "    \"clock_cost_autopilot\": %.1f,\n",
               ap.final_clock_cost);
  std::fprintf(out, "    \"clock_cost_frozen\": %.1f,\n", fz.final_clock_cost);
  std::fprintf(out,
               "    \"backlog_autopilot\": %" PRIu64
               ",\n    \"backlog_frozen\": %" PRIu64
               ",\n    \"steady_backlog_autopilot\": %" PRIu64
               ",\n    \"steady_backlog_frozen\": %" PRIu64 ",\n",
               ap.peak_router_backlog, fz.peak_router_backlog,
               ap.steady_backlog, fz.steady_backlog);
  std::fprintf(out, "    \"epochs_taken\": %" PRIu64 ",\n", ap.epochs_taken);
  std::fprintf(out, "    \"distinct_ops\": %" PRIu64 ",\n", distinct_ops);
  std::fprintf(out, "    \"frozen_epochs\": %" PRIu64 ",\n", fz.epochs_taken);
  std::fprintf(out, "    \"all_ok\": %s\n",
               ap.ok() && fz.ok() ? "true" : "false");
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  return Status::Ok();
}

}  // namespace cmom::autopilot
