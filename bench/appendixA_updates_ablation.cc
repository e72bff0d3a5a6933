// Appendix A ablation: full-matrix stamps vs the Updates optimization.
//
// Same flat-topology remote unicast as Figure 7, run under both
// stamping modes.  The Updates algorithm sends only the matrix entries
// modified since the last message to the same destination, so the
// causal timestamp on the wire collapses from O(n^2) to O(1) for this
// traffic -- while the round-trip time stays quadratic, because the
// persistent clock image written on every commit is still O(n^2).
// (That residual quadratic disk cost is precisely the second problem of
// Section 3 that only the domain decomposition removes.)
#include <cstdio>
#include <vector>

#include "clocks/stamp.h"
#include "domains/topologies.h"
#include "workload/experiments.h"

using namespace cmom;

int main() {
  const std::vector<std::size_t> sizes = {10, 20, 30, 40, 50};
  workload::ExperimentOptions options;
  options.rounds = 10;

  std::printf(
      "Appendix A ablation: classical full-matrix stamps vs Updates\n");
  std::printf("%8s | %14s %14s | %14s %14s\n", "servers", "full: B/msg",
              "full: RTT ms", "upd: B/msg", "upd: RTT ms");
  for (std::size_t n : sizes) {
    workload::ExperimentResult results[2];
    const clocks::StampMode modes[2] = {clocks::StampMode::kFullMatrix,
                                        clocks::StampMode::kUpdates};
    for (int m = 0; m < 2; ++m) {
      auto config = domains::topologies::Flat(n, modes[m]);
      auto result = workload::RunPingPong(
          config, ServerId(0), ServerId(static_cast<std::uint16_t>(n - 1)),
          options);
      if (!result.ok()) {
        std::fprintf(stderr, "n=%zu failed: %s\n", n,
                     result.status().to_string().c_str());
        return 1;
      }
      results[m] = result.value();
    }
    auto per_msg = [](const workload::ExperimentResult& r) {
      return static_cast<double>(r.stamp_bytes) /
             static_cast<double>(r.wire_frames);
    };
    std::printf("%8zu | %14.1f %14.2f | %14.1f %14.2f\n", n,
                per_msg(results[0]), results[0].avg_rtt_ms,
                per_msg(results[1]), results[1].avg_rtt_ms);
  }
  std::printf(
      "\nExpected: full-matrix stamp bytes grow ~n^2; Updates stamp bytes\n"
      "stay constant; both RTT columns remain quadratic (dominated by the\n"
      "persistent O(n^2) clock image, Section 3's disk-I/O problem).\n");
  return 0;
}
