// Commit-path benchmark: cost of making one message durable, as a
// function of the QueueOUT backlog behind it.
//
// A whole-image scheme rewrites the server's entire channel image
// (clocks + QueueOUT + QueueIN + hold-back) on every commit, so the
// bytes per message grow linearly with the backlog of unacknowledged
// messages -- exactly the disk-I/O overload the paper's Section 3
// worries about.  The server's incremental schema writes per-entry
// keys and only the clock images whose version advanced, so bytes per
// message are O(1) in the backlog.
//
// Scenario: Flat(2), only S0 booted; its peer never acks, so every
// send stays in QueueOUT and the backlog is exact.  After building a
// backlog of B messages, a probe batch measures commit bytes, commit
// count and wall-clock per message.  Runs over InMemoryStore and
// FileStore (real WAL writes).
//
// The whole-image rows are priced, not run: after each probe commit a
// whole-image rewrite would have written the server's DebugImage()
// (which serializes exactly those blobs, minus the meta record's
// incarnation varint) under five fixed keys.  They carry bytes only.
//
// Output: a table on stdout plus BENCH_commit_path.json (use --out to
// redirect).  --smoke shrinks the counts for the CI bench label.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/file_store.h"
#include "mom/store.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

using namespace cmom;

namespace {

struct RunResult {
  std::string store;
  std::string mode;
  bool analytic = false;  // priced from DebugImage(), bytes only
  std::size_t backlog = 0;
  std::size_t probes = 0;
  double commit_bytes_per_msg = 0;
  double commits_per_msg = 0;
  double msgs_per_sec = 0;
  double wal_file_bytes_per_msg = 0;  // FileStore only: on-disk growth
};

// Bytes a whole-image commit writes beyond DebugImage(): the five key
// names "meta", "channel/clocks", "channel/qout", "engine/qin" and
// "channel/holdback" (56 B), plus the meta record's incarnation varint
// (1 B on a first boot).
constexpr std::size_t kFullImageOverheadBytes = 56 + 1;

std::uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Sends `backlog` warm-up messages, then `probes` measured ones, into a
// QueueOUT that never drains (the peer is down).  Frames land in the
// simulator's event queue and are never delivered; retransmit timers
// are pushed out beyond the run.  Returns the measured incremental row
// and the priced whole-image row.
std::pair<RunResult, RunResult> Measure(mom::Store* store,
                                        const std::filesystem::path* store_dir,
                                        std::string_view store_name,
                                        std::size_t backlog,
                                        std::size_t probes) {
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto deployment = domains::Deployment::Create(domains::topologies::Flat(2))
                        .value();
  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();  // dead peer

  mom::AgentServerOptions options;
  options.retransmit_timeout_ns = 1ull << 50;  // never fires in-run
  mom::AgentServer server(deployment, ServerId(0), endpoint0.get(), &runtime,
                          store, options);
  if (!server.Boot().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return {};
  }

  const AgentId from{ServerId(0), 1};
  const AgentId to{ServerId(1), 1};
  for (std::size_t i = 0; i < backlog; ++i) {
    (void)server.SendMessage(from, to, "backlog");
  }

  const std::uint64_t bytes_before = store->total_bytes_written();
  const std::uint64_t commits_before = server.stats().commits;
  const std::uint64_t files_before =
      store_dir != nullptr ? DirectoryBytes(*store_dir) : 0;
  std::chrono::steady_clock::duration send_time{};
  std::uint64_t full_image_bytes = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)server.SendMessage(from, to, "probe");
    send_time += std::chrono::steady_clock::now() - t0;
    // The send committed inline (no cost model): price the whole-image
    // rewrite that commit would have been.
    full_image_bytes += server.DebugImage().size() + kFullImageOverheadBytes;
  }
  const double seconds = std::chrono::duration<double>(send_time).count();

  RunResult result;
  result.store = std::string(store_name);
  result.mode = "incremental";
  result.backlog = backlog;
  result.probes = probes;
  result.commit_bytes_per_msg =
      static_cast<double>(store->total_bytes_written() - bytes_before) /
      static_cast<double>(probes);
  result.commits_per_msg =
      static_cast<double>(server.stats().commits - commits_before) /
      static_cast<double>(probes);
  result.msgs_per_sec =
      seconds > 0 ? static_cast<double>(probes) / seconds : 0;
  if (store_dir != nullptr) {
    result.wal_file_bytes_per_msg =
        static_cast<double>(DirectoryBytes(*store_dir) - files_before) /
        static_cast<double>(probes);
  }

  RunResult priced;
  priced.store = result.store;
  priced.mode = "full_image";
  priced.analytic = true;
  priced.backlog = backlog;
  priced.probes = probes;
  priced.commit_bytes_per_msg = static_cast<double>(full_image_bytes) /
                                static_cast<double>(probes);
  server.Shutdown();
  return {result, priced};
}

void WriteJson(const std::string& path, const std::vector<RunResult>& results,
               std::size_t backlog, bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"commit_path\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"backlog\": %zu,\n", backlog);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"store\": \"%s\", \"mode\": \"%s\", "
                 "\"analytic\": %s, \"backlog\": %zu, \"probes\": %zu, "
                 "\"commit_bytes_per_msg\": %.1f",
                 r.store.c_str(), r.mode.c_str(),
                 r.analytic ? "true" : "false", r.backlog, r.probes,
                 r.commit_bytes_per_msg);
    if (!r.analytic) {
      std::fprintf(out,
                   ", \"commits_per_msg\": %.2f, \"msgs_per_sec\": %.0f, "
                   "\"wal_file_bytes_per_msg\": %.1f",
                   r.commits_per_msg, r.msgs_per_sec,
                   r.wal_file_bytes_per_msg);
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  // Headline numbers: bytes/msg at full backlog, old vs new path.
  auto find = [&](std::string_view store, std::string_view mode,
                  std::size_t bl) -> const RunResult* {
    for (const RunResult& r : results) {
      if (r.store == store && r.mode == mode && r.backlog == bl) return &r;
    }
    return nullptr;
  };
  const RunResult* full = find("inmemory", "full_image", backlog);
  const RunResult* incr = find("inmemory", "incremental", backlog);
  const RunResult* incr0 = find("inmemory", "incremental", 0);
  const double reduction =
      (full != nullptr && incr != nullptr && incr->commit_bytes_per_msg > 0)
          ? full->commit_bytes_per_msg / incr->commit_bytes_per_msg
          : 0;
  const double backlog_ratio =
      (incr != nullptr && incr0 != nullptr && incr0->commit_bytes_per_msg > 0)
          ? incr->commit_bytes_per_msg / incr0->commit_bytes_per_msg
          : 0;
  std::fprintf(out,
               "  \"summary\": {\"bytes_per_msg_reduction_at_backlog\": %.1f, "
               "\"incremental_backlog_sensitivity\": %.2f}\n}\n",
               reduction, backlog_ratio);
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
  std::printf("full-image vs incremental at backlog %zu: %.1fx fewer "
              "commit bytes/msg\n",
              backlog, reduction);
  std::printf("incremental bytes/msg, backlog %zu vs 0: %.2fx "
              "(1.0 = backlog-independent)\n",
              backlog, backlog_ratio);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_commit_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::size_t backlog = smoke ? 32 : 1000;
  const std::size_t probes = smoke ? 16 : 256;

  std::printf("Commit path: durable bytes per message vs QueueOUT backlog\n");
  std::printf("%-9s %-12s %8s %14s %12s %12s %12s\n", "store", "mode",
              "backlog", "bytes/msg", "commits/msg", "msgs/sec",
              "file B/msg");

  std::vector<RunResult> results;
  for (std::size_t bl : {std::size_t{0}, backlog}) {
    std::pair<RunResult, RunResult> inmemory;
    {
      mom::InMemoryStore store;
      inmemory = Measure(&store, nullptr, "inmemory", bl, probes);
    }
    std::pair<RunResult, RunResult> filestore;
    {
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() / "cmom_bench_commit_path";
      std::filesystem::remove_all(dir);
      auto store = mom::FileStore::Open(dir).value();
      store->set_compaction_threshold(1ull << 40);  // no compaction in-run
      filestore = Measure(store.get(), &dir, "filestore", bl, probes);
      store.reset();
      std::filesystem::remove_all(dir);
    }
    results.push_back(inmemory.second);
    results.push_back(filestore.second);
    results.push_back(inmemory.first);
    results.push_back(filestore.first);
  }

  for (const RunResult& r : results) {
    if (r.analytic) {
      std::printf("%-9s %-12s %8zu %14.1f %12s %12s %12s  (priced)\n",
                  r.store.c_str(), r.mode.c_str(), r.backlog,
                  r.commit_bytes_per_msg, "-", "-", "-");
      continue;
    }
    std::printf("%-9s %-12s %8zu %14.1f %12.2f %12.0f %12.1f\n",
                r.store.c_str(), r.mode.c_str(), r.backlog,
                r.commit_bytes_per_msg, r.commits_per_msg, r.msgs_per_sec,
                r.wal_file_bytes_per_msg);
  }
  WriteJson(out_path, results, backlog, smoke);
  return 0;
}
