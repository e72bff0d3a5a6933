// momtool -- command-line administration for domain-partitioned MOMs.
//
//   momtool validate <config>             check a configuration: ids,
//                                         coverage, routing, and the
//                                         theorem's acyclicity condition
//   momtool routes <config> <from> <to>   print the routed path
//   momtool topo <kind> <args...>         emit a canonical topology:
//       flat <n> | bus <k> <s> | daisy <k> <s> | tree <k> <s> <d> |
//       ring <k> <s>
//   momtool topo <config-file>            pre-deploy lint: print the
//                                         domain graph, router-servers,
//                                         per-domain causal cores, and
//                                         per-server clock cost (per-core
//                                         stamp cost: s^2 matrix, 1
//                                         hybrid); exits non-zero when
//                                         the graph is cyclic
//   momtool split <traffic> <max-size>    traffic-aware domain split
//                                         (Section 7 future work);
//                                         emits the config, plus cost
//                                         vs the naive index bus
//   momtool estimate <config> <traffic>   analytic cost of a config
//                                         under a traffic profile
//   momtool tcpsmoke <servers> <pings>    boot a flat MOM over real TCP
//       [--base-port P]                   loopback sockets with fault
//       [--drop p] [--dup p] [--disc p]   injection, run a ping storm,
//       [--seed s] [--core K]             verify causal exactly-once
//                                         delivery and print transport
//                                         health, commit counters and
//                                         the active causal core per
//                                         domain (K = matrix|hybrid)
//   momtool storestat <dir>               inspect a FileStore directory:
//                                         keys and bytes per key-space
//                                         prefix, plus WAL/snapshot
//                                         file sizes
//   momtool dlq <dir>                     list a store's dead-letter
//                                         records (messages shed by the
//                                         slow-consumer policy): seq,
//                                         reason, route and payload size
//   momtool epoch <dir>                   print a store's config epoch
//                                         records (current + pending)
//   momtool epoch <dir> --cutover <id>    offline repair: apply the
//                                         store's pending epoch record
//                                         for server <id> (what the
//                                         coordinator's crash recovery
//                                         does, one store at a time)
//   momtool chaos <report.json>           pretty-print a CHAOS_soak.json
//                                         report: seed, traffic, latency
//                                         percentiles, faults injected
//                                         and the invariant verdicts
//   momtool autopilot <store-dir>         replay the topology controller's
//                                         durable decision journal: every
//                                         window's verdict, candidate
//                                         scores and suppression/abort
//                                         reasons
//   momtool autopilot <report.json>       summarize a BENCH_autopilot.json
//                                         comparison (or a single
//                                         *.live_run.json section): epochs
//                                         taken, steady-state score /
//                                         router load / stamp rate vs the
//                                         frozen baseline, invariants
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autopilot/controller.h"
#include "causality/checker.h"
#include "control/coordinator.h"
#include "control/epoch.h"
#include "control/plan.h"
#include "domains/config_io.h"
#include "domains/domain_graph.h"
#include "domains/deployment.h"
#include "domains/splitter.h"
#include "domains/topologies.h"
#include "flow/dead_letter.h"
#include "mom/agent_server.h"
#include "mom/file_store.h"
#include "net/faulty_network.h"
#include "net/runtime.h"
#include "net/tcp_network.h"
#include "workload/agents.h"

using namespace cmom;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

int Validate(const std::string& path) {
  auto config = domains::LoadMomConfig(path);
  if (!config.ok()) return Fail(config.status());
  auto deployment = domains::Deployment::Create(config.value());
  if (!deployment.ok()) return Fail(deployment.status());
  const auto& d = deployment.value();

  std::size_t diameter = 0;
  for (ServerId a : d.servers()) {
    for (ServerId b : d.servers()) {
      diameter = std::max(diameter, d.routing().HopCount(a, b));
    }
  }
  std::size_t max_domain = 0;
  for (const auto& domain : d.domains()) {
    max_domain = std::max(max_domain, domain.size());
  }
  std::printf("OK: %zu servers, %zu domains, %zu causal router-servers\n",
              d.servers().size(), d.domains().size(),
              d.domain_graph().routers().size());
  std::printf("domain graph: acyclic, %s\n",
              d.domain_graph().IsConnected() ? "connected" : "DISCONNECTED");
  std::printf("largest domain: %zu servers (matrix %zux%zu)\n", max_domain,
              max_domain, max_domain);
  std::printf("routing diameter: %zu hops\n", diameter);
  return 0;
}

int Routes(const std::string& path, const std::string& from_str,
           const std::string& to_str) {
  auto config = domains::LoadMomConfig(path);
  if (!config.ok()) return Fail(config.status());
  auto deployment = domains::Deployment::Create(config.value());
  if (!deployment.ok()) return Fail(deployment.status());
  const auto& d = deployment.value();

  const ServerId from(static_cast<std::uint16_t>(std::stoul(from_str)));
  const ServerId to(static_cast<std::uint16_t>(std::stoul(to_str)));
  std::printf("%s", to_string(from).c_str());
  ServerId at = from;
  while (at != to) {
    const ServerId hop = d.routing().NextHop(at, to);
    auto link = d.LinkDomainIndex(at, hop);
    std::printf(" -[%s]-> %s",
                link.ok() ? to_string(d.domain(link.value()).id).c_str()
                          : "?",
                to_string(hop).c_str());
    at = hop;
  }
  std::printf("   (%zu hops)\n", d.routing().HopCount(from, to));
  return 0;
}

// Pre-deploy lint: everything an operator wants to see before pushing
// a configuration (or proposing it as the next epoch), with the
// acyclicity verdict as the exit code so CI can gate on it.
int TopoLint(const std::string& path) {
  auto config = domains::LoadMomConfig(path);
  if (!config.ok()) return Fail(config.status());
  // The lint must render cyclic graphs, not refuse to look at them, so
  // build the deployment with the acyclicity check relaxed and report
  // the cycle ourselves.
  domains::MomConfig relaxed = config.value();
  relaxed.allow_cyclic_domain_graph = true;
  auto deployment = domains::Deployment::Create(relaxed);
  if (!deployment.ok()) return Fail(deployment.status());
  const auto& d = deployment.value();
  const domains::DomainGraph& graph = d.domain_graph();

  std::printf("%zu servers, %zu domains, stamp mode %s, causal core %s\n",
              d.servers().size(), relaxed.domains.size(),
              relaxed.stamp_mode == clocks::StampMode::kUpdates ? "updates"
                                                                : "full",
              std::string(clocks::CausalCoreKindName(relaxed.causal_core))
                  .c_str());
  for (const domains::DomainSpec& spec : relaxed.domains) {
    std::printf("  %s (%zu):", to_string(spec.id).c_str(),
                spec.members.size());
    for (ServerId member : spec.members) {
      std::printf(" %s", to_string(member).c_str());
    }
    const clocks::CausalCoreKind kind = relaxed.CoreFor(spec.id);
    if (kind != relaxed.causal_core) {
      std::printf("  [core %s]",
                  std::string(clocks::CausalCoreKindName(kind)).c_str());
    }
    std::printf("\n");
  }
  std::printf("router-servers:");
  for (ServerId router : graph.routers()) {
    std::printf(" %s", to_string(router).c_str());
  }
  std::printf("%s\n", graph.routers().empty() ? " none" : "");
  for (const domains::DomainEdge& edge : graph.edges()) {
    std::printf("  edge %s -- %s via %s\n", to_string(edge.a).c_str(),
                to_string(edge.b).c_str(), to_string(edge.via).c_str());
  }

  // Per-server clock cost: what a server pays per stamp in each of its
  // domains, summed -- s^2 under a matrix core, O(1) under hybrid
  // buffering.  This (not a fixed s^2) is the quantity the splitter's
  // objective approximates.
  std::size_t total = 0;
  std::printf("clock cost (sum of per-core stamp cost per server):\n");
  for (ServerId id : d.servers()) {
    std::size_t cost = 0;
    for (const domains::DomainSpec& spec : relaxed.domains) {
      if (std::find(spec.members.begin(), spec.members.end(), id) !=
          spec.members.end()) {
        cost += clocks::CausalCoreStampCost(relaxed.CoreFor(spec.id),
                                            spec.members.size());
      }
    }
    total += cost;
    std::printf("  %s: %zu\n", to_string(id).c_str(), cost);
  }
  std::printf("  total: %zu entries\n", total);

  std::printf("connected: %s\n", graph.IsConnected() ? "yes" : "NO");
  if (auto cycle = graph.FindCycle()) {
    std::printf("CYCLIC: %s\n", cycle->c_str());
    return 1;
  }
  std::printf("acyclic: yes\n");
  return 0;
}

int Topo(int argc, char** argv) {
  const std::string kind = argv[0];
  if (argc == 1 && std::filesystem::exists(kind)) return TopoLint(kind);
  auto arg = [&](int i) {
    return static_cast<std::size_t>(std::stoul(argv[i]));
  };
  domains::MomConfig config;
  if (kind == "flat" && argc == 2) {
    config = domains::topologies::Flat(arg(1));
  } else if (kind == "bus" && argc == 3) {
    config = domains::topologies::Bus(arg(1), arg(2));
  } else if (kind == "daisy" && argc == 3) {
    config = domains::topologies::Daisy(arg(1), arg(2));
  } else if (kind == "tree" && argc == 4) {
    config = domains::topologies::Tree(arg(1), arg(2), arg(3));
  } else if (kind == "ring" && argc == 3) {
    config = domains::topologies::Ring(arg(1), arg(2));
  } else {
    std::fprintf(stderr, "usage: momtool topo flat <n> | bus <k> <s> | "
                         "daisy <k> <s> | tree <k> <s> <d> | ring <k> <s>\n");
    return 1;
  }
  std::fputs(domains::FormatMomConfig(config).c_str(), stdout);
  return 0;
}

int Split(const std::string& traffic_path, const std::string& size_str) {
  auto traffic = domains::LoadTrafficProfile(traffic_path);
  if (!traffic.ok()) return Fail(traffic.status());
  domains::SplitterOptions options;
  options.max_domain_size =
      static_cast<std::size_t>(std::stoul(size_str));
  auto config = domains::DomainSplitter::Split(traffic.value(), options);
  if (!config.ok()) return Fail(config.status());

  const auto naive = domains::DomainSplitter::NaiveSplit(
      traffic.value().server_count(), options);
  const double optimized_cost =
      domains::CostEstimator::Estimate(config.value(), traffic.value())
          .value_or(-1);
  const double naive_cost =
      domains::CostEstimator::Estimate(naive, traffic.value()).value_or(-1);

  std::fputs(domains::FormatMomConfig(config.value()).c_str(), stdout);
  std::fprintf(stderr,
               "# analytic cost: %.1f (naive index bus: %.1f, %.1fx)\n",
               optimized_cost, naive_cost,
               optimized_cost > 0 ? naive_cost / optimized_cost : 0.0);
  return 0;
}

void PrintTransportStats(ServerId id, const net::TransportStats& stats) {
  std::printf("S%u: connects=%llu reconnects=%llu connect_failures=%llu "
              "forced_disconnects=%llu frames_sent=%llu buffered=%llu "
              "dropped=%llu bytes_retx=%llu outbox=%llu/%lluB backoff=%.1fms\n",
              id.value(),
              static_cast<unsigned long long>(stats.connects),
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.connect_failures),
              static_cast<unsigned long long>(stats.forced_disconnects),
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.frames_buffered),
              static_cast<unsigned long long>(stats.frames_dropped),
              static_cast<unsigned long long>(stats.bytes_retransmitted),
              static_cast<unsigned long long>(stats.outbox_frames),
              static_cast<unsigned long long>(stats.outbox_bytes),
              static_cast<double>(stats.current_backoff_ns) / 1e6);
}

// Prints commit-path health for one server: how many store commits it
// made, their size distribution, and how well reaction/frame batching
// engaged.
void PrintServerCommitStats(ServerId id, const mom::ServerStats& stats) {
  const double bytes_per_commit =
      stats.commits > 0 ? static_cast<double>(stats.commit_bytes) /
                              static_cast<double>(stats.commits)
                        : 0.0;
  const double acks_per_frame =
      stats.ack_frames_sent > 0 ? static_cast<double>(stats.acks_sent) /
                                      static_cast<double>(stats.ack_frames_sent)
                                : 0.0;
  std::printf("S%u: commits=%llu bytes/commit=%.1f ack-coalescing=%.2f\n",
              id.value(), static_cast<unsigned long long>(stats.commits),
              bytes_per_commit, acks_per_frame);
  std::printf("S%u:   commit bytes  %s\n", id.value(),
              stats.commit_bytes_hist.ToString().c_str());
  std::printf("S%u:   engine batch  %s\n", id.value(),
              stats.engine_batch_hist.ToString().c_str());
  std::printf("S%u:   channel batch %s\n", id.value(),
              stats.channel_batch_hist.ToString().c_str());
  // Flow-control health: only printed when backpressure actually
  // engaged, so un-throttled runs keep their historical output.
  if (stats.credit_blocked > 0 || stats.sends_deferred > 0 ||
      stats.sends_shed > 0 || stats.dead_letters > 0 ||
      stats.drr_forwarded > 0 || stats.transport_overloads > 0) {
    std::printf("S%u:   flow          blocked=%llu probes=%llu "
                "credit-acks=%llu drr=%llu/%llur staged-peak=%llu "
                "deferred=%llu shed=%llu wait-peak=%llu dlq=%llu "
                "transport-overloads=%llu\n",
                id.value(),
                static_cast<unsigned long long>(stats.credit_blocked),
                static_cast<unsigned long long>(stats.credit_probes),
                static_cast<unsigned long long>(stats.credit_only_acks),
                static_cast<unsigned long long>(stats.drr_forwarded),
                static_cast<unsigned long long>(stats.drr_rounds),
                static_cast<unsigned long long>(stats.staged_forward_peak),
                static_cast<unsigned long long>(stats.sends_deferred),
                static_cast<unsigned long long>(stats.sends_shed),
                static_cast<unsigned long long>(stats.wait_queue_peak),
                static_cast<unsigned long long>(stats.dead_letters),
                static_cast<unsigned long long>(stats.transport_overloads));
  }
}

// Prints the causal-core health of one server: which core each of its
// domains runs, the encoded stamp-size distribution, hold-back depth at
// enqueue time, and frames fenced for carrying the wrong core tag.
void PrintCausalCoreStats(ServerId id, const mom::AgentServer& server) {
  const auto cores = server.ActiveCores();
  const mom::ServerStats stats = server.stats();
  std::printf("S%u:   causal cores ", id.value());
  for (const auto& [domain, kind] : cores) {
    std::printf(" %s=%s", to_string(domain).c_str(),
                std::string(clocks::CausalCoreKindName(kind)).c_str());
  }
  if (stats.core_fenced_frames > 0) {
    std::printf("  fenced=%llu",
                static_cast<unsigned long long>(stats.core_fenced_frames));
  }
  std::printf("\n");
  if (stats.stamp_bytes_hist.count > 0) {
    std::printf("S%u:   stamp bytes   %s\n", id.value(),
                stats.stamp_bytes_hist.ToString().c_str());
  }
  if (stats.holdback_depth_hist.count > 0) {
    std::printf("S%u:   holdback depth %s\n", id.value(),
                stats.holdback_depth_hist.ToString().c_str());
  }
}

// Prints the live credit/backpressure gauges of one server.
void PrintFlowStatus(ServerId id, const mom::AgentServer::FlowStatus& flow) {
  if (flow.paused_links == 0 && flow.blocked_messages == 0 &&
      flow.wait_queue == 0 && flow.dead_letters == 0) {
    return;
  }
  std::printf("S%u:   flow gauges   paused-links=%zu blocked=%zu "
              "credits-out=%llu staged=%zu waiting=%zu dlq=%llu\n",
              id.value(), flow.paused_links, flow.blocked_messages,
              static_cast<unsigned long long>(flow.credits_outstanding),
              flow.staged_forwards, flow.wait_queue,
              static_cast<unsigned long long>(flow.dead_letters));
}

// Parses the value of `--flag` at argv[arg + 1], reporting a clear
// error instead of letting std::stod terminate the process on junk.
bool ParseValue(const char* flag, int argc, char** argv, int& arg,
                double lo, double hi, double& out) {
  if (arg + 1 >= argc) {
    std::fprintf(stderr, "tcpsmoke: %s requires a value\n", flag);
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(argv[++arg], &end);
  if (end == argv[arg] || *end != '\0' || value < lo || value > hi) {
    std::fprintf(stderr, "tcpsmoke: %s expects a number in [%g, %g], got '%s'\n",
                 flag, lo, hi, argv[arg]);
    return false;
  }
  out = value;
  return true;
}

// Boots a flat-topology MOM over real TCP loopback sockets (optionally
// behind a FaultyNetwork), fires `pings` echo round trips, then checks
// exactly-once causal delivery and dumps the transport counters.
int TcpSmoke(int argc, char** argv) {
  char* end = nullptr;
  const std::size_t n_servers = std::strtoul(argv[0], &end, 10);
  if (end == argv[0] || *end != '\0') {
    std::fprintf(stderr, "tcpsmoke: <servers> must be a number, got '%s'\n",
                 argv[0]);
    return 2;
  }
  const std::size_t pings = std::strtoul(argv[1], &end, 10);
  if (end == argv[1] || *end != '\0') {
    std::fprintf(stderr, "tcpsmoke: <pings> must be a number, got '%s'\n",
                 argv[1]);
    return 2;
  }
  std::uint16_t base_port = 26000;
  clocks::CausalCoreKind core = clocks::CausalCoreKind::kMatrix;
  net::FaultyNetworkOptions fault;
  bool any_fault = false;
  for (int arg = 2; arg < argc; ++arg) {
    double value = 0;
    if (std::strcmp(argv[arg], "--core") == 0) {
      if (arg + 1 >= argc) {
        std::fprintf(stderr, "tcpsmoke: --core requires a value\n");
        return 2;
      }
      auto kind = clocks::ParseCausalCoreKind(argv[++arg]);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "tcpsmoke: --core expects matrix|hybrid, "
                     "got '%s'\n",
                     argv[arg]);
        return 2;
      }
      core = *kind;
    } else if (std::strcmp(argv[arg], "--base-port") == 0) {
      if (!ParseValue("--base-port", argc, argv, arg, 1024, 65535, value)) {
        return 2;
      }
      base_port = static_cast<std::uint16_t>(value);
    } else if (std::strcmp(argv[arg], "--drop") == 0) {
      if (!ParseValue("--drop", argc, argv, arg, 0, 1, value)) return 2;
      fault.model.drop_probability = value;
      any_fault = true;
    } else if (std::strcmp(argv[arg], "--dup") == 0) {
      if (!ParseValue("--dup", argc, argv, arg, 0, 1, value)) return 2;
      fault.model.duplicate_probability = value;
      any_fault = true;
    } else if (std::strcmp(argv[arg], "--disc") == 0) {
      if (!ParseValue("--disc", argc, argv, arg, 0, 1, value)) return 2;
      fault.disconnect_probability = value;
      any_fault = true;
    } else if (std::strcmp(argv[arg], "--seed") == 0) {
      if (!ParseValue("--seed", argc, argv, arg, 0, 1e18, value)) return 2;
      fault.seed = static_cast<std::uint64_t>(value);
    } else {
      std::fprintf(stderr, "tcpsmoke: unknown argument '%s'\n", argv[arg]);
      return 2;
    }
  }
  if (n_servers < 2) {
    std::fprintf(stderr, "tcpsmoke: need at least 2 servers\n");
    return 2;
  }

  domains::MomConfig topo = domains::topologies::Flat(n_servers);
  topo.causal_core = core;
  auto deployment = domains::Deployment::Create(topo);
  if (!deployment.ok()) return Fail(deployment.status());

  net::TcpNetwork tcp(base_port);
  std::unique_ptr<net::FaultyNetwork> faulty;
  net::ThreadRuntime runtime;
  net::Network* network = &tcp;
  if (any_fault) {
    faulty = std::make_unique<net::FaultyNetwork>(tcp, fault, &runtime);
    network = faulty.get();
  }

  causality::TraceRecorder trace;
  std::vector<std::unique_ptr<mom::InMemoryStore>> stores;
  std::vector<std::unique_ptr<net::Endpoint>> endpoints;
  std::vector<std::unique_ptr<mom::AgentServer>> servers;
  workload::EchoAgent* echo = nullptr;
  for (ServerId id : deployment.value().servers()) {
    auto endpoint = network->CreateEndpoint(id);
    if (!endpoint.ok()) return Fail(endpoint.status());
    endpoints.push_back(std::move(endpoint).value());
    stores.push_back(std::make_unique<mom::InMemoryStore>());
    mom::AgentServerOptions options;
    options.trace = &trace;
    options.retransmit_timeout_ns = 100ull * 1000 * 1000;
    servers.push_back(std::make_unique<mom::AgentServer>(
        deployment.value(), id, endpoints.back().get(), &runtime,
        stores.back().get(), options));
    if (id.value() == n_servers - 1) {
      auto agent = std::make_unique<workload::EchoAgent>();
      echo = agent.get();
      servers.back()->AttachAgent(1, std::move(agent));
    } else {
      // Pongs come back to the pinging agent; give them a home.
      servers.back()->AttachAgent(7, std::make_unique<workload::SinkAgent>());
    }
  }
  for (auto& server : servers) {
    if (Status status = server->Boot(); !status.ok()) return Fail(status);
  }

  const AgentId target{ServerId(static_cast<std::uint16_t>(n_servers - 1)), 1};
  for (std::size_t i = 0; i < pings; ++i) {
    const auto from =
        ServerId(static_cast<std::uint16_t>(i % (n_servers - 1)));
    auto sent = servers[from.value()]->SendMessage(AgentId{from, 7}, target,
                                                   workload::kPing);
    if (!sent.ok()) return Fail(sent.status());
  }

  // Quiescence: every server idle (QueueOUT drained => all ACKed).
  int stable = 0;
  while (stable < 3) {
    bool idle = true;
    for (auto& server : servers) {
      if (!server->Idle()) {
        idle = false;
        break;
      }
    }
    if (faulty != nullptr && faulty->pending_delayed() > 0) idle = false;
    stable = idle ? stable + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (std::size_t i = 0; i < servers.size(); ++i) {
    PrintTransportStats(ServerId(static_cast<std::uint16_t>(i)),
                        endpoints[i]->stats());
  }
  // All endpoints share the transport's epoll shard pool; show how the
  // fd load and event traffic spread across it.
  const auto shards = tcp.reactor_stats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::printf("reactor[%zu]: fds=%llu polls=%llu events=%llu tasks=%llu "
                "timers=%llu wakeups=%llu\n",
                i, static_cast<unsigned long long>(shards[i].fds),
                static_cast<unsigned long long>(shards[i].polls),
                static_cast<unsigned long long>(shards[i].events),
                static_cast<unsigned long long>(shards[i].tasks),
                static_cast<unsigned long long>(shards[i].timers),
                static_cast<unsigned long long>(shards[i].wakeups));
  }
  for (std::size_t i = 0; i < servers.size(); ++i) {
    PrintServerCommitStats(ServerId(static_cast<std::uint16_t>(i)),
                           servers[i]->stats());
    PrintCausalCoreStats(ServerId(static_cast<std::uint16_t>(i)),
                         *servers[i]);
    PrintFlowStatus(ServerId(static_cast<std::uint16_t>(i)),
                    servers[i]->flow_status());
  }
  if (faulty != nullptr) {
    const auto injected = faulty->stats();
    std::printf("injected: dropped=%llu duplicated=%llu delayed=%llu "
                "disconnects=%llu of %llu frames\n",
                static_cast<unsigned long long>(injected.frames_dropped),
                static_cast<unsigned long long>(injected.frames_duplicated),
                static_cast<unsigned long long>(injected.frames_delayed),
                static_cast<unsigned long long>(injected.disconnects_forced),
                static_cast<unsigned long long>(injected.frames_seen));
  }

  std::vector<ServerId> ids(deployment.value().servers().begin(),
                            deployment.value().servers().end());
  causality::CausalityChecker checker(std::move(ids));
  const causality::Trace snapshot = trace.Snapshot();
  const auto report = checker.CheckCausalDelivery(snapshot);
  const Status once = checker.CheckExactlyOnce(snapshot);
  std::printf("echoed %llu pings; causal=%s exactly-once=%s\n",
              static_cast<unsigned long long>(
                  echo != nullptr ? echo->pings_seen() : 0),
              report.causal() ? "yes" : "NO",
              once.ok() ? "yes" : once.to_string().c_str());
  for (auto& server : servers) server->Shutdown();
  return report.causal() && once.ok() ? 0 : 1;
}

// Key-space statistics for a FileStore directory: the incremental
// schema's footprint (per-entry queue keys, per-domain clock images)
// made visible, plus the on-disk WAL/snapshot sizes.
int StoreStat(const std::string& dir) {
  auto store = mom::FileStore::Open(dir);
  if (!store.ok()) return Fail(store.status());

  struct PrefixStats {
    std::size_t keys = 0;
    std::size_t key_bytes = 0;
    std::size_t value_bytes = 0;
  };
  std::map<std::string, PrefixStats> by_prefix;
  for (const std::string& key : store.value()->Keys("")) {
    const std::size_t slash = key.find('/');
    const std::string prefix =
        slash == std::string::npos ? key : key.substr(0, slash + 1);
    PrefixStats& entry = by_prefix[prefix];
    ++entry.keys;
    entry.key_bytes += key.size();
    if (auto value = store.value()->Get(key)) {
      entry.value_bytes += value->size();
    }
  }

  std::printf("%-12s %8s %10s %12s\n", "prefix", "keys", "key B", "value B");
  std::size_t total_keys = 0, total_bytes = 0;
  for (const auto& [prefix, entry] : by_prefix) {
    std::printf("%-12s %8zu %10zu %12zu\n", prefix.c_str(), entry.keys,
                entry.key_bytes, entry.value_bytes);
    total_keys += entry.keys;
    total_bytes += entry.key_bytes + entry.value_bytes;
  }
  std::printf("total        %8zu %23zu\n", total_keys, total_bytes);

  for (const char* name : {"snapshot.log", "wal.log"}) {
    const std::filesystem::path file = std::filesystem::path(dir) / name;
    std::error_code ec;
    const auto size = std::filesystem::file_size(file, ec);
    std::printf("%-12s %s\n", name,
                ec ? "absent" : (std::to_string(size) + " bytes").c_str());
  }
  return 0;
}

// Lists the dead-letter records of one server's store: what the
// slow-consumer policy shed, why, and where it was headed.  Records are
// printed in retirement order (the key's fixed-width hex seq).
int Dlq(const std::string& dir) {
  auto store = mom::FileStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  std::size_t count = 0;
  std::size_t payload_bytes = 0;
  for (const std::string& key :
       store.value()->Keys(flow::kDeadLetterKeyPrefix)) {
    std::uint64_t seq = 0;
    if (!flow::ParseDeadLetterKey(key, seq)) {
      std::printf("%-20s  (malformed key)\n", key.c_str());
      continue;
    }
    auto value = store.value()->Get(key);
    if (!value.has_value()) continue;
    auto record = flow::DeadLetterRecord::Deserialize(*value);
    if (!record.ok()) {
      std::printf("#%llu  (corrupt: %s)\n",
                  static_cast<unsigned long long>(seq),
                  record.status().to_string().c_str());
      continue;
    }
    const flow::DeadLetterRecord& r = record.value();
    std::ostringstream route;
    route << r.id << ": " << r.from << " -> " << r.to;
    std::printf("#%llu  %s  subject='%s' payload=%zuB  (%s)\n",
                static_cast<unsigned long long>(seq), route.str().c_str(),
                r.subject.c_str(), r.payload.size(), r.reason.c_str());
    ++count;
    payload_bytes += r.payload.size();
  }
  std::printf("%zu dead-lettered message%s, %zu payload bytes\n", count,
              count == 1 ? "" : "s", payload_bytes);
  return 0;
}

void PrintEpochRecord(const char* label,
                      const std::optional<control::EpochRecord>& record) {
  if (!record.has_value()) {
    std::printf("%s: none\n", label);
    return;
  }
  std::printf("%s: epoch %llu\n", label,
              static_cast<unsigned long long>(record->epoch));
  std::string text = record->config_text;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::printf("  | %.*s\n", static_cast<int>(end - start),
                text.c_str() + start);
    start = end + 1;
  }
}

// Inspects a store's epoch records; with --cutover, applies the pending
// record for one server offline -- the per-store half of what the
// coordinator's crash recovery does, exposed for manual repair.
int EpochCmd(int argc, char** argv) {
  const std::string dir = argv[0];
  auto store = mom::FileStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  auto current =
      control::ReadEpochRecord(*store.value(), control::kEpochCurrentKey);
  if (!current.ok()) return Fail(current.status());
  auto pending =
      control::ReadEpochRecord(*store.value(), control::kEpochPendingKey);
  if (!pending.ok()) return Fail(pending.status());

  PrintEpochRecord("current", current.value());
  PrintEpochRecord("pending", pending.value());

  if (argc == 1) return 0;
  if (argc != 3 || std::strcmp(argv[1], "--cutover") != 0) {
    std::fprintf(stderr, "usage: momtool epoch <dir> [--cutover <id>]\n");
    return 2;
  }
  if (!pending.value().has_value()) {
    std::fprintf(stderr, "epoch: no pending record to cut over to\n");
    return 1;
  }
  const ServerId self(static_cast<std::uint16_t>(std::stoul(argv[2])));
  auto new_config = domains::ParseMomConfig(pending.value()->config_text);
  if (!new_config.ok()) return Fail(new_config.status());
  auto old_config = domains::ParseMomConfig(pending.value()->prev_config_text);
  if (!old_config.ok()) return Fail(old_config.status());
  auto plan = control::ReconfigPlan::Build(pending.value()->epoch - 1,
                                           std::move(old_config).value(),
                                           std::move(new_config).value());
  if (!plan.ok()) return Fail(plan.status());
  if (Status status =
          control::Coordinator::CutoverStore(*store.value(), self,
                                             plan.value());
      !status.ok()) {
    return Fail(status);
  }
  std::printf("cut over to epoch %llu\n",
              static_cast<unsigned long long>(plan.value().to_epoch));
  return 0;
}

// --- chaos report pretty-printer --------------------------------------
//
// CHAOS_soak.json is flat-ish (one level of nested objects, scalar
// values only), so a small scanner over "key": value pairs is enough --
// no JSON library in the tree, and none needed.
std::map<std::string, std::string> ScanFlatJson(const std::string& text) {
  std::map<std::string, std::string> values;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t cursor = key_end + 1;
    while (cursor < text.size() &&
           (text[cursor] == ' ' || text[cursor] == '\t')) {
      ++cursor;
    }
    if (cursor >= text.size() || text[cursor] != ':') {
      pos = key_end + 1;
      continue;
    }
    ++cursor;
    while (cursor < text.size() &&
           (text[cursor] == ' ' || text[cursor] == '\t')) {
      ++cursor;
    }
    if (cursor < text.size() && text[cursor] == '"') {
      const std::size_t value_end = text.find('"', cursor + 1);
      if (value_end == std::string::npos) break;
      values[key] = text.substr(cursor + 1, value_end - cursor - 1);
      pos = value_end + 1;
    } else if (cursor < text.size() && text[cursor] != '{') {
      std::size_t value_end = cursor;
      while (value_end < text.size() && text[value_end] != ',' &&
             text[value_end] != '}' && text[value_end] != '\n') {
        ++value_end;
      }
      values[key] = text.substr(cursor, value_end - cursor);
      pos = value_end;
    } else {
      pos = cursor;  // nested object: keep scanning inside it
    }
  }
  return values;
}

int ChaosReport(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "chaos: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(in);

  auto values = ScanFlatJson(text);
  auto get = [&](const char* key) -> std::string {
    auto it = values.find(key);
    return it == values.end() ? std::string("?") : it->second;
  };
  auto verdict = [&](const char* key) {
    const std::string v = get(key);
    return v == "true" ? "ok" : (v == "false" ? "VIOLATED" : "?");
  };

  std::printf("chaos soak report: %s\n", path.c_str());
  std::printf("  seed          %s  (replay: CMOM_SEED=%s ctest -L chaos)\n",
              get("seed").c_str(), get("seed").c_str());
  std::printf("  duration      %s ms scheduled, %s s wall\n",
              get("duration_ms").c_str(), get("wall_seconds").c_str());
  std::printf("  traffic       accepted %s, committed sends %s, delivered %s,"
              " sheds %s\n",
              get("accepted").c_str(), get("sent").c_str(),
              get("delivered").c_str(), get("overload_sheds").c_str());
  std::printf("  latency (ms)  p50 %s  p99 %s  max %s  (%s samples)\n",
              get("p50").c_str(), get("p99").c_str(), get("max").c_str(),
              get("samples").c_str());
  std::printf("  backlog peaks consumer %s (bound %s), router %s (bound %s)\n",
              get("peak_consumer").c_str(), get("consumer_bound").c_str(),
              get("peak_router").c_str(), get("router_bound").c_str());
  std::printf("  faults        crashes %s, restarts %s, partitions %s/%s "
              "healed,\n"
              "                store faults armed %s / injected %s, "
              "fail-stops %s,\n"
              "                frames cut %s, slow-consumer phases %s\n",
              get("crashes").c_str(), get("restarts").c_str(),
              get("heals").c_str(), get("partitions").c_str(),
              get("store_faults_armed").c_str(),
              get("store_faults_injected").c_str(), get("fail_stops").c_str(),
              get("frames_partitioned").c_str(),
              get("slow_consumer_phases").c_str());
  std::printf("  invariants    causal %s, exactly-once %s, zero-loss %s, "
              "bounded-backlog %s\n",
              verdict("causal"), verdict("exactly_once"), verdict("zero_loss"),
              verdict("bounded_backlog"));
  const std::string violation = get("first_violation");
  if (!violation.empty() && violation != "?") {
    std::printf("  violation     %s\n", violation.c_str());
  }
  const bool all_ok = get("all_ok") == "true";
  std::printf("  verdict       %s\n", all_ok ? "ALL INVARIANTS GREEN"
                                             : "INVARIANT VIOLATIONS");
  return all_ok ? 0 : 1;
}

// --- autopilot post-mortems -------------------------------------------
//
// Two sources, one command:
//   momtool autopilot <store-dir>     replay the controller's durable
//                                     decision journal ("autopilot/<seq>"
//                                     records written through the journal
//                                     server's commit pipeline)
//   momtool autopilot <report.json>   summarize a churn-bench report
//                                     (BENCH_autopilot.json or a
//                                     *.live_run.json / *.frozen_run.json
//                                     single-run section)

int AutopilotJournal(const std::string& dir) {
  auto store = mom::FileStore::Open(dir);
  if (!store.ok()) return Fail(store.status());

  std::size_t records = 0;
  std::size_t epochs = 0;
  std::size_t aborts = 0;
  std::uint64_t last_epoch = 0;
  for (const std::string& key : store.value()->Keys("autopilot/")) {
    auto value = store.value()->Get(key);
    if (!value.has_value()) continue;
    auto decision = autopilot::DecodeDecision(
        std::string(value->begin(), value->end()));
    if (!decision.ok()) {
      std::printf("%-28s  (corrupt: %s)\n", key.c_str(),
                  decision.status().to_string().c_str());
      continue;
    }
    const autopilot::Decision& d = decision.value();
    ++records;
    last_epoch = d.to_epoch;
    if (d.verdict == autopilot::Verdict::kTaken) ++epochs;
    if (d.verdict == autopilot::Verdict::kAborted) ++aborts;

    std::printf("w%-4llu epoch %llu->%llu  %-14s %-8s %s\n",
                static_cast<unsigned long long>(d.window),
                static_cast<unsigned long long>(d.from_epoch),
                static_cast<unsigned long long>(d.to_epoch),
                autopilot::VerdictName(d.verdict),
                autopilot::OpKindName(d.op), d.detail.c_str());
    if (d.current_score > 0 || d.candidate_score > 0) {
      std::printf("      score %.2f -> %.2f\n", d.current_score,
                  d.candidate_score);
    }
    if (!d.reason.empty()) {
      std::printf("      reason: %s\n", d.reason.c_str());
    }
    for (const autopilot::CandidateScore& c : d.candidates) {
      if (c.valid) {
        std::printf("      cand  %-8s %-32s %.2f\n",
                    autopilot::OpKindName(c.op), c.detail.c_str(), c.score);
      } else {
        std::printf("      cand  %-8s %-32s invalid: %s\n",
                    autopilot::OpKindName(c.op), c.detail.c_str(),
                    c.rejection.c_str());
      }
    }
  }
  if (records == 0) {
    std::printf("no autopilot journal records in %s\n", dir.c_str());
    return 1;
  }
  std::printf("%zu decisions, %zu epochs taken, %zu aborts, final epoch "
              "%llu\n",
              records, epochs, aborts,
              static_cast<unsigned long long>(last_epoch));
  return 0;
}

int AutopilotReport(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "autopilot: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(in);

  auto values = ScanFlatJson(text);
  auto get = [&](const std::string& key) -> std::string {
    auto it = values.find(key);
    return it == values.end() ? std::string("?") : it->second;
  };
  auto verdict = [&](const std::string& key) {
    const std::string v = get(key);
    return v == "true" ? "ok" : (v == "false" ? "VIOLATED" : "?");
  };

  const std::string bench = get("bench");
  std::printf("autopilot report: %s\n", path.c_str());
  std::printf("  seed          %s  (replay: CMOM_SEED=%s ctest -L chaos)\n",
              get("seed").c_str(), get("seed").c_str());

  if (bench == "autopilot_churn") {
    // Comparison report: autopilot vs frozen baseline on one schedule.
    std::printf("  scale         %s windows x %s servers (smoke=%s)\n",
                get("windows").c_str(), get("servers").c_str(),
                get("smoke").c_str());
    std::printf("  reshaping     %s epochs (%s distinct op kinds); frozen "
                "took %s\n",
                get("epochs_taken").c_str(), get("distinct_ops").c_str(),
                get("frozen_epochs").c_str());
    std::printf("  ops           %s splits, %s merges, %s promotes, "
                "%s absorbs, %s retires; %s aborts\n",
                get("autopilot_splits").c_str(),
                get("autopilot_merges").c_str(),
                get("autopilot_promotes").c_str(),
                get("autopilot_absorbs").c_str(),
                get("autopilot_retires").c_str(),
                get("autopilot_aborts").c_str());
    std::printf("  invariants    autopilot causal %s exactly-once %s; "
                "frozen causal %s exactly-once %s\n",
                verdict("autopilot_causal"),
                verdict("autopilot_exactly_once"), verdict("frozen_causal"),
                verdict("frozen_exactly_once"));
    std::printf("  steady score  autopilot %s vs frozen %s  "
                "(improvement %s)\n",
                get("steady_score_autopilot").c_str(),
                get("steady_score_frozen").c_str(),
                get("score_improvement").c_str());
    std::printf("  router load   autopilot %s vs frozen %s  "
                "(traffic-weighted extra hops)\n",
                get("steady_router_load_autopilot").c_str(),
                get("steady_router_load_frozen").c_str());
    std::printf("  stamp rate    autopilot %s vs frozen %s  "
                "(entries/window; wider domains stamp wider)\n",
                get("steady_stamp_autopilot").c_str(),
                get("steady_stamp_frozen").c_str());
    std::printf("  clock cost    autopilot %s vs frozen %s  (standing "
                "sum s^2)\n",
                get("clock_cost_autopilot").c_str(),
                get("clock_cost_frozen").c_str());
    std::printf("  backlog       autopilot peak %s steady %s vs frozen "
                "peak %s steady %s\n",
                get("backlog_autopilot").c_str(),
                get("steady_backlog_autopilot").c_str(),
                get("backlog_frozen").c_str(),
                get("steady_backlog_frozen").c_str());
  } else if (bench == "autopilot_churn_run") {
    // Single-run section (live_run / frozen_run).
    std::printf("  scale         %s windows x %s servers (frozen=%s), "
                "%s s wall\n",
                get("windows").c_str(), get("servers").c_str(),
                get("frozen").c_str(), get("wall_seconds").c_str());
    std::printf("  traffic       accepted %s, sent %s, delivered %s\n",
                get("accepted").c_str(), get("sent").c_str(),
                get("delivered").c_str());
    std::printf("  reshaping     %s epochs: %s splits, %s merges, "
                "%s promotes, %s absorbs, %s retires; %s aborts\n",
                get("run_epochs_taken").c_str(), get("run_splits").c_str(),
                get("run_merges").c_str(), get("run_promotes").c_str(),
                get("run_absorbs").c_str(), get("run_retires").c_str(),
                get("run_aborts").c_str());
    std::printf("  suppressed    cooldown %s, threshold %s, hysteresis %s, "
                "backoff %s\n",
                get("suppressed_cooldown").c_str(),
                get("suppressed_threshold").c_str(),
                get("suppressed_hysteresis").c_str(),
                get("suppressed_backoff").c_str());
    std::printf("  steady state  score %s, stamp rate %s, router load %s, "
                "backlog %s\n",
                get("run_steady_score").c_str(),
                get("run_steady_stamp_rate").c_str(),
                get("run_steady_router_load").c_str(),
                get("run_steady_backlog").c_str());
    std::printf("  invariants    causal %s, exactly-once %s\n",
                verdict("run_causal"), verdict("run_exactly_once"));
    const std::string violation = get("first_violation");
    if (!violation.empty() && violation != "?") {
      std::printf("  violation     %s\n", violation.c_str());
    }
  } else {
    std::fprintf(stderr, "autopilot: %s is not an autopilot report "
                 "(bench=%s)\n", path.c_str(), bench.c_str());
    return 2;
  }

  const bool all_ok = get("all_ok") == "true";
  std::printf("  verdict       %s\n",
              all_ok ? "ALL INVARIANTS GREEN" : "INVARIANT VIOLATIONS");
  return all_ok ? 0 : 1;
}

int AutopilotCmd(const std::string& path) {
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    return AutopilotReport(path);
  }
  return AutopilotJournal(path);
}

int Estimate(const std::string& config_path,
             const std::string& traffic_path) {
  auto config = domains::LoadMomConfig(config_path);
  if (!config.ok()) return Fail(config.status());
  auto traffic = domains::LoadTrafficProfile(traffic_path);
  if (!traffic.ok()) return Fail(traffic.status());
  auto cost = domains::CostEstimator::Estimate(config.value(),
                                               traffic.value());
  if (!cost.ok()) return Fail(cost.status());
  std::printf("analytic cost: %.2f\n", cost.value());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "validate") == 0) {
    return Validate(argv[2]);
  }
  if (argc == 5 && std::strcmp(argv[1], "routes") == 0) {
    return Routes(argv[2], argv[3], argv[4]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "topo") == 0) {
    return Topo(argc - 2, argv + 2);
  }
  if (argc == 4 && std::strcmp(argv[1], "split") == 0) {
    return Split(argv[2], argv[3]);
  }
  if (argc == 4 && std::strcmp(argv[1], "estimate") == 0) {
    return Estimate(argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "tcpsmoke") == 0) {
    return TcpSmoke(argc - 2, argv + 2);
  }
  if (argc == 3 && std::strcmp(argv[1], "storestat") == 0) {
    return StoreStat(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "dlq") == 0) {
    return Dlq(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "epoch") == 0) {
    return EpochCmd(argc - 2, argv + 2);
  }
  if (argc == 3 && std::strcmp(argv[1], "chaos") == 0) {
    return ChaosReport(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "autopilot") == 0) {
    return AutopilotCmd(argv[2]);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  momtool validate <config>\n"
               "  momtool routes <config> <from> <to>\n"
               "  momtool topo <kind> <args...> | topo <config-file>\n"
               "  momtool split <traffic> <max-domain-size>\n"
               "  momtool estimate <config> <traffic>\n"
               "  momtool tcpsmoke <servers> <pings> [--base-port P] "
               "[--drop p] [--dup p] [--disc p] [--seed s]\n"
               "  momtool storestat <store-dir>\n"
               "  momtool dlq <store-dir>\n"
               "  momtool epoch <store-dir> [--cutover <server-id>]\n"
               "  momtool chaos <report.json>\n"
               "  momtool autopilot <store-dir> | autopilot <report.json>\n");
  return 2;
}
