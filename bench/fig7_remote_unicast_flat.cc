// Figure 7: remote unicast WITHOUT domains of causality.
//
// One global domain over n servers (the classical algorithm, full
// matrix-clock timestamps); the main agent on S0 ping-pongs against an
// echo agent on S(n-1).  The paper measured 61..201 ms for n = 10..50
// and fitted a quadratic -- the per-message cost is dominated by the
// O(n^2) matrix timestamp and the O(n^2) persistent clock image.
//
// The rounds are fewer than the paper's 100 because the simulation is
// deterministic: every round takes identical simulated time, so the
// average is exact after the warm-up round.
//
// A second section re-runs the same experiment under all three
// causal_core choices (matrix full / matrix updates / hybrid) and
// records one JSON row per (core, n) pair in
// BENCH_fig7_cores.json (--out to redirect): the figure's quadratic
// blow-up is a property of the matrix core, not of causal delivery.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "clocks/causal_core.h"
#include "domains/topologies.h"
#include "workload/experiments.h"

using namespace cmom;

namespace {

struct CoreChoice {
  const char* name;
  clocks::CausalCoreKind kind;
  clocks::StampMode mode;
};
constexpr CoreChoice kCoreChoices[] = {
    {"matrix_full", clocks::CausalCoreKind::kMatrix,
     clocks::StampMode::kFullMatrix},
    {"matrix_updates", clocks::CausalCoreKind::kMatrix,
     clocks::StampMode::kUpdates},
    {"hybrid", clocks::CausalCoreKind::kHybrid, clocks::StampMode::kUpdates},
};

struct CoreRow {
  const char* core;
  std::size_t n;
  double rtt_ms;
  double stamp_bytes_per_frame;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fig7_cores.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const std::vector<std::pair<std::size_t, double>> paper = {
      {10, 61}, {20, 69}, {30, 88}, {40, 136}, {50, 201}};

  workload::ExperimentOptions options;
  options.rounds = 10;

  std::vector<workload::SeriesPoint> series;
  for (auto [n, paper_ms] : paper) {
    auto config =
        domains::topologies::Flat(n, clocks::StampMode::kFullMatrix);
    auto result = workload::RunPingPong(
        config, ServerId(0), ServerId(static_cast<std::uint16_t>(n - 1)),
        options);
    if (!result.ok()) {
      std::fprintf(stderr, "n=%zu failed: %s\n", n,
                   result.status().to_string().c_str());
      return 1;
    }
    series.push_back({n, result.value().avg_rtt_ms, paper_ms});
  }
  workload::PrintSeries(
      "Figure 7: remote unicast, no domains (flat matrix clock)", series);
  std::printf(
      "\nExpected shape: quadratic growth (R^2 of the quadratic fit should\n"
      "exceed the linear fit, as in the paper's quadratic-fit overlay).\n");

  // The same flat-domain experiment under each causal core.
  std::printf("\nCausal-core sweep (same flat domain, avg RTT ms / stamp "
              "bytes per frame):\n");
  std::printf("%16s", "n");
  for (const CoreChoice& choice : kCoreChoices) {
    std::printf("  %20s", choice.name);
  }
  std::printf("\n");
  std::vector<CoreRow> rows;
  for (auto [n, paper_ms] : paper) {
    (void)paper_ms;
    std::printf("%16zu", n);
    for (const CoreChoice& choice : kCoreChoices) {
      auto config = domains::topologies::Flat(n, choice.mode);
      config.causal_core = choice.kind;
      auto result = workload::RunPingPong(
          config, ServerId(0), ServerId(static_cast<std::uint16_t>(n - 1)),
          options);
      if (!result.ok()) {
        std::fprintf(stderr, "core=%s n=%zu failed: %s\n", choice.name, n,
                     result.status().to_string().c_str());
        return 1;
      }
      const double stamp_per_frame =
          result.value().wire_frames == 0
              ? 0
              : static_cast<double>(result.value().stamp_bytes) /
                    static_cast<double>(result.value().wire_frames);
      std::printf("  %11.2f / %6.1f", result.value().avg_rtt_ms,
                  stamp_per_frame);
      rows.push_back({choice.name, n, result.value().avg_rtt_ms,
                      stamp_per_frame});
    }
    std::printf("\n");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fig7_cores\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"core\": \"%s\", \"n\": %zu, \"rtt_ms\": %.3f, "
                 "\"stamp_bytes_per_frame\": %.1f}%s\n",
                 rows[i].core, rows[i].n, rows[i].rtt_ms,
                 rows[i].stamp_bytes_per_frame,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
