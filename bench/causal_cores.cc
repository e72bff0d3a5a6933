// Causal-core comparison: timestamp bytes, hold-back behaviour and
// throughput of the pluggable causal cores as the domain grows.
//
// The paper's matrix clock pays O(s^2) per timestamp, which is the
// force that caps domain size and drives the splitter.  The hybrid
// core (Almeida) ships per-link FIFO headers plus an explicit
// causal-barrier set -- independent of s at a fixed in-flight load over
// a bounded partner set.  This bench
// runs the SAME seeded traffic schedule through each core at n in
// {4, 8, 16, 32, 64} members and reports bytes/msg, hold-back depth,
// delivery latency (in scheduler steps) and msgs/sec.
//
// Two traffic patterns bound the comparison:
//   ring      each member converses with its two neighbours only
//             (bounded-degree, bidirectional -- the regime every MOM
//             conversation workload lives in).  Hybrid stamps stay
//             FLAT as n grows: delivery confirmations flow straight
//             back along each link, so the barrier set tracks local
//             in-flight.  Matrix still pays the full s^2.
//   uniform   every member sends to every other uniformly.  With the
//             total in-flight capped, each link carries ~1/n^2 of the
//             traffic, confirmations lag ~n messages, and ANY exact
//             scheme must carry the grown possibly-undelivered pool;
//             hybrid degrades gracefully (still far below matrix)
//             rather than staying constant.
//
// The matrix run doubles as ground truth: every core implements exact
// causal delivery, so each run asserts (a) per-receiver delivery order
// identical to the matrix reference, (b) every message delivered
// exactly once, and (c) no message left in a hold-back queue at drain.
// A run that violates any of these aborts the bench with exit 1.
//
// Output: a table on stdout plus BENCH_causal_cores.json (use --out to
// redirect).  --smoke shrinks message counts for the CI bench label.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "clocks/causal_core.h"
#include "common/bytes.h"

using namespace cmom;

namespace {

// Deterministic xorshift64* scheduler RNG: the schedule must replay
// bit-identically across cores for the equivalence assertion.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
  std::size_t Below(std::size_t n) { return Next() % n; }
};

struct InFlight {
  std::uint16_t src = 0;
  std::uint64_t seq = 0;   // per-link FIFO position, 1-based
  std::uint64_t sent_step = 0;
  clocks::Stamp stamp;
};

struct RunResult {
  std::string core;
  std::string pattern;
  std::size_t members = 0;
  std::size_t messages = 0;
  double stamp_bytes_per_msg = 0;
  double stamp_bytes_max = 0;
  double holdback_mean = 0;
  std::size_t holdback_max = 0;
  double latency_steps_mean = 0;
  double msgs_per_sec = 0;
  bool causal = false;
  bool exactly_once = false;
};

// One (core kind, n) cell: n members of one domain exchanging
// `messages` random unicasts over per-link FIFO queues with a fixed
// in-flight cap, cross-link interleaving chosen by the seeded RNG.
// Every member also keeps a hold-back queue fed by CheckReceive, like
// the AgentServer's.  `reference_order` is the matrix run's delivery
// log; when non-null the run asserts order equality against it.
enum class Traffic { kRing, kUniform };

RunResult RunCell(clocks::CausalCoreKind kind, clocks::StampMode mode,
                  Traffic traffic, std::size_t n, std::size_t messages,
                  std::uint64_t seed,
                  const std::vector<std::vector<std::uint64_t>>*
                      reference_order,
                  std::vector<std::vector<std::uint64_t>>* order_out) {
  // Fixed in-flight cap, independent of n: the load level at which the
  // hybrid core's barrier set (and so its stamp) is expected to stay
  // flat as the domain grows.
  constexpr std::size_t kMaxInFlight = 48;

  std::vector<std::unique_ptr<clocks::CausalCore>> cores;
  cores.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cores.push_back(clocks::MakeCausalCore(
        kind, DomainServerId(static_cast<std::uint16_t>(i)), n, mode));
  }

  // links[src * n + dst]: FIFO transit queue of the src -> dst link.
  std::vector<std::deque<InFlight>> links(n * n);
  std::vector<std::deque<InFlight>> holdback(n);
  std::vector<std::vector<std::uint64_t>> delivery_order(n);
  std::vector<std::uint64_t> sent_seq(n * n, 0);
  std::vector<std::uint64_t> delivered_seq(n * n, 0);

  Rng rng{seed};
  std::size_t in_flight = 0;
  std::size_t sent = 0;
  std::uint64_t step = 0;
  std::uint64_t stamp_bytes = 0;
  std::uint64_t stamp_bytes_max = 0;
  std::uint64_t holdback_sum = 0;
  std::size_t holdback_peak = 0;
  std::size_t holds = 0;
  std::uint64_t latency_sum = 0;
  std::size_t delivered = 0;
  bool exactly_once = true;

  // Encodes a (src,dst,seq) link position into the per-receiver
  // delivery log; identical logs across cores == identical order.
  auto log_key = [n](std::size_t src, std::size_t dst, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(src * n + dst) << 40) | seq;
  };

  auto deliver_from_holdback = [&](std::size_t dst) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      auto& queue = holdback[dst];
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const InFlight& m = queue[i];
        const auto verdict = cores[dst]->CheckReceive(
            DomainServerId(m.src), m.stamp);
        if (verdict == clocks::CheckResult::kHold) continue;
        if (verdict == clocks::CheckResult::kDeliver) {
          cores[dst]->OnDeliver(DomainServerId(m.src), m.stamp);
          latency_sum += step - m.sent_step;
          const std::size_t link = m.src * n + dst;
          if (m.seq != delivered_seq[link] + 1) exactly_once = false;
          delivered_seq[link] = m.seq;
          delivery_order[dst].push_back(log_key(m.src, dst, m.seq));
          ++delivered;
        } else {
          exactly_once = false;  // a held message can never be a dup
        }
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  while (delivered < messages) {
    ++step;
    const bool can_send = sent < messages && in_flight < kMaxInFlight;
    // 50/50 send vs receive while both are possible keeps the network
    // loaded near the cap without starving delivery.
    bool do_send = can_send && (in_flight == 0 || rng.Below(2) == 0);
    if (!do_send && in_flight == 0) {
      if (!can_send) break;  // nothing in flight, nothing left to send
      do_send = true;
    }
    if (do_send) {
      const std::size_t src = rng.Below(n);
      std::size_t dst;
      if (traffic == Traffic::kRing) {
        dst = rng.Below(2) == 0 ? (src + 1) % n : (src + n - 1) % n;
      } else {
        dst = rng.Below(n - 1);
        if (dst >= src) ++dst;
      }
      InFlight m;
      m.src = static_cast<std::uint16_t>(src);
      m.seq = ++sent_seq[src * n + dst];
      m.sent_step = step;
      m.stamp = cores[src]->PrepareSend(
          DomainServerId(static_cast<std::uint16_t>(dst)));
      ByteWriter encoded;
      m.stamp.Encode(encoded);
      const std::uint64_t bytes = std::move(encoded).Take().size();
      stamp_bytes += bytes;
      stamp_bytes_max = std::max(stamp_bytes_max, bytes);
      links[src * n + dst].push_back(std::move(m));
      ++in_flight;
      ++sent;
      continue;
    }
    // Receive: pop the head of a random non-empty link (FIFO per link,
    // arbitrary interleaving across links -- the transport's contract).
    std::size_t pick = rng.Below(in_flight);
    for (std::size_t link = 0; link < links.size(); ++link) {
      if (links[link].empty()) continue;
      if (pick >= links[link].size()) {
        pick -= links[link].size();
        continue;
      }
      // FIFO: always the head; `pick` only chose the link.
      InFlight m = std::move(links[link].front());
      links[link].pop_front();
      --in_flight;
      const std::size_t dst = link % n;
      const auto verdict = cores[dst]->CheckReceive(
          DomainServerId(m.src), m.stamp);
      if (verdict == clocks::CheckResult::kDeliver) {
        cores[dst]->OnDeliver(DomainServerId(m.src), m.stamp);
        latency_sum += step - m.sent_step;
        if (m.seq != delivered_seq[link] + 1) exactly_once = false;
        delivered_seq[link] = m.seq;
        delivery_order[dst].push_back(log_key(m.src, dst, m.seq));
        ++delivered;
        deliver_from_holdback(dst);
      } else if (verdict == clocks::CheckResult::kHold) {
        holdback[dst].push_back(std::move(m));
        ++holds;
        holdback_sum += holdback[dst].size();
        holdback_peak = std::max(holdback_peak, holdback[dst].size());
      } else {
        exactly_once = false;  // nothing is retransmitted in this sim
      }
      break;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  // Drain check: exact cores leave nothing held back once every link
  // is empty.
  bool leak_free = delivered == messages;
  for (const auto& queue : holdback) {
    if (!queue.empty()) leak_free = false;
  }
  bool causal = leak_free;
  if (reference_order != nullptr && delivery_order != *reference_order) {
    causal = false;
  }
  for (std::size_t link = 0; link < links.size(); ++link) {
    if (delivered_seq[link] != sent_seq[link]) exactly_once = false;
  }

  RunResult result;
  result.core = std::string(clocks::CausalCoreKindName(kind));
  if (kind == clocks::CausalCoreKind::kMatrix &&
      mode == clocks::StampMode::kUpdates) {
    result.core = "matrix_updates";
  }
  result.pattern = traffic == Traffic::kRing ? "ring" : "uniform";
  result.members = n;
  result.messages = messages;
  result.stamp_bytes_per_msg =
      sent > 0 ? static_cast<double>(stamp_bytes) / static_cast<double>(sent)
               : 0;
  result.stamp_bytes_max = static_cast<double>(stamp_bytes_max);
  result.holdback_mean =
      holds > 0 ? static_cast<double>(holdback_sum) /
                      static_cast<double>(holds)
                : 0;
  result.holdback_max = holdback_peak;
  result.latency_steps_mean =
      delivered > 0 ? static_cast<double>(latency_sum) /
                          static_cast<double>(delivered)
                    : 0;
  result.msgs_per_sec =
      seconds > 0 ? static_cast<double>(delivered) / seconds : 0;
  result.causal = causal;
  result.exactly_once = exactly_once && leak_free;
  if (order_out != nullptr) *order_out = std::move(delivery_order);
  return result;
}

void WriteJson(const std::string& path, const std::vector<RunResult>& results,
               bool smoke, bool all_ok) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"causal_cores\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"core\": \"%s\", \"pattern\": \"%s\", "
                 "\"members\": %zu, "
                 "\"messages\": %zu, \"stamp_bytes_per_msg\": %.1f, "
                 "\"stamp_bytes_max\": %.0f, \"holdback_mean\": %.2f, "
                 "\"holdback_max\": %zu, \"latency_steps_mean\": %.1f, "
                 "\"msgs_per_sec\": %.0f, \"causal\": %s, "
                 "\"exactly_once\": %s}%s\n",
                 r.core.c_str(), r.pattern.c_str(), r.members, r.messages,
                 r.stamp_bytes_per_msg, r.stamp_bytes_max, r.holdback_mean,
                 r.holdback_max, r.latency_steps_mean, r.msgs_per_sec,
                 r.causal ? "true" : "false",
                 r.exactly_once ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  // Headline: stamp growth from the smallest to the largest n, per
  // (core, pattern).  Under ring traffic matrix should grow
  // ~quadratically and hybrid should stay flat
  // (ratio near 1); uniform traffic shows hybrid's graceful
  // degradation.
  auto at = [&](std::string_view core, std::string_view pattern,
                bool largest) -> const RunResult* {
    const RunResult* found = nullptr;
    for (const RunResult& r : results) {
      if (r.core != core || r.pattern != pattern) continue;
      if (found == nullptr || (largest ? r.members > found->members
                                       : r.members < found->members)) {
        found = &r;
      }
    }
    return found;
  };
  std::fprintf(out, "  \"summary\": {\n");
  for (const char* pattern : {"ring", "uniform"}) {
    for (const char* core : {"matrix", "matrix_updates", "hybrid"}) {
      const RunResult* small = at(core, pattern, false);
      const RunResult* large = at(core, pattern, true);
      const double growth =
          (small != nullptr && large != nullptr &&
           small->stamp_bytes_per_msg > 0)
              ? large->stamp_bytes_per_msg / small->stamp_bytes_per_msg
              : 0;
      std::fprintf(out, "    \"%s_%s_stamp_growth\": %.2f,\n", pattern,
                   core, growth);
    }
  }
  std::fprintf(out, "    \"all_ok\": %s\n  }\n}\n",
               all_ok ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_causal_cores.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::vector<std::size_t> sizes = {4, 8, 16, 32, 64};
  const std::size_t per_member = smoke ? 40 : 400;
  const std::uint64_t seed = 0x5eedc0de;

  std::printf("Causal cores: stamp cost and delivery behaviour vs domain "
              "size (in-flight cap 48)\n");
  std::printf("%-8s %-16s %4s %8s %11s %9s %9s %8s %9s %7s %5s\n", "pattern",
              "core", "n", "msgs", "stampB/msg", "stampBmax", "hold-mean",
              "hold-max", "lat-steps", "causal", "1x");

  std::vector<RunResult> results;
  bool all_ok = true;
  for (Traffic traffic : {Traffic::kRing, Traffic::kUniform}) {
    for (std::size_t n : sizes) {
      const std::size_t messages = per_member * n;
      // The matrix (full-stamp) run is the reference order for this
      // (pattern, n) cell.
      std::vector<std::vector<std::uint64_t>> reference;
      struct Cell {
        clocks::CausalCoreKind kind;
        clocks::StampMode mode;
      };
      const Cell cells[] = {
          {clocks::CausalCoreKind::kMatrix, clocks::StampMode::kFullMatrix},
          {clocks::CausalCoreKind::kMatrix, clocks::StampMode::kUpdates},
          {clocks::CausalCoreKind::kHybrid, clocks::StampMode::kFullMatrix},
      };
      for (const Cell& cell : cells) {
        const bool is_reference =
            cell.kind == clocks::CausalCoreKind::kMatrix &&
            cell.mode == clocks::StampMode::kFullMatrix;
        RunResult r = RunCell(cell.kind, cell.mode, traffic, n, messages,
                              seed, is_reference ? nullptr : &reference,
                              is_reference ? &reference : nullptr);
        std::printf(
            "%-8s %-16s %4zu %8zu %11.1f %9.0f %9.2f %8zu %9.1f %7s %5s\n",
            r.pattern.c_str(), r.core.c_str(), r.members, r.messages,
            r.stamp_bytes_per_msg, r.stamp_bytes_max, r.holdback_mean,
            r.holdback_max, r.latency_steps_mean, r.causal ? "yes" : "NO",
            r.exactly_once ? "yes" : "NO");
        all_ok = all_ok && r.causal && r.exactly_once;
        results.push_back(std::move(r));
      }
    }
  }

  WriteJson(out_path, results, smoke, all_ok);
  if (!all_ok) {
    std::fprintf(stderr, "FAILED: a core violated causal order or "
                         "exactly-once delivery\n");
    return 1;
  }
  return 0;
}
