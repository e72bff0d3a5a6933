// perfbench: the middleware's end-to-end benchmark.
//
//   perfbench --workload <client_rtt|wide_domain|durable_fanin>
//             --seed N --seconds S --trace 0|1 [--state-dir DIR]
//             [--git-sha SHA]
//
// Each workload is a closed loop over the TCP loopback transport (the
// one momd deploys) on at most nproc threads.  An untraced run builds
// five deployments in turn, each in a child process, measures each for
// S/5 seconds, drains every outstanding request and checks each reply;
// every metric is the median over the deployments.  With --trace 1 one
// deployment is measured untraced and then traced for S/2 seconds each
// and the per-layer metrics are printed.  README.md documents shapes,
// metrics and traces.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it starting with "info " carry the run fingerprint,
// the ungated p99 and the traced run's layer shares.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "causality/checker.h"
#include "causality/trace.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "ladder.h"
#include "mom/agent_server.h"
#include "mom/file_store.h"
#include "mom/gateway.h"
#include "mom/gateway_client.h"
#include "net/runtime.h"
#include "net/tcp_network.h"
#include "seams.h"
#include "trace.h"

namespace perfbench {
namespace {

using cmom::AgentId;
using cmom::Bytes;
using cmom::ServerId;
using cmom::Status;

constexpr std::uint64_t kSecond = 1'000'000'000ull;

// ---------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------

enum class Kind { kClientRtt, kWideDomain, kDurableFanin };

struct Shape {
  Kind kind;
  const char* name;
  cmom::domains::MomConfig config;
  bool durable = false;  // FileStore + fdatasync on every server
  bool gateway = false;  // gateway on S1 plus a client pool thread
  std::size_t window = 0;          // requests outstanding per requester
  std::size_t payload = 0;         // request payload bytes
  std::uint64_t warmup = 0;        // replies completed inside set-up
  std::uint16_t base_port = 0;     // servers listen on base + id
};

// Server-local agent ids.
constexpr std::uint32_t kEchoLocal = 1;
constexpr std::uint32_t kWorkerLocal = 1;
constexpr std::uint32_t kRequesterLocal = 2;

// client_rtt
constexpr std::size_t kSessions = 4;
constexpr ServerId kGatewayServer{1};
constexpr ServerId kEchoServer{3};
// wide_domain
constexpr std::size_t kWideServers = 16;
constexpr std::size_t kScheduleLength = 4096;
// durable_fanin
constexpr ServerId kWorkerServer{4};
const ServerId kProducerServers[] = {ServerId(1), ServerId(2), ServerId(5)};
// Fixed CPU work per job: rounds of a 64-bit mix (tens of microseconds).
constexpr std::uint32_t kWorkRounds = 6000;

Shape MakeShape(Kind kind) {
  namespace topo = cmom::domains::topologies;
  switch (kind) {
    case Kind::kClientRtt:
      return Shape{kind, "client_rtt", topo::Bus(2, 2), false, true,
                   /*window=*/4, /*payload=*/64, /*warmup=*/8000, 27100};
    case Kind::kWideDomain:
      return Shape{kind, "wide_domain", topo::Flat(kWideServers), false, false,
                   /*window=*/4, /*payload=*/64, /*warmup=*/12000, 27300};
    case Kind::kDurableFanin:
      return Shape{kind, "durable_fanin", topo::Bus(2, 3), true, false,
                   /*window=*/8, /*payload=*/1024, /*warmup=*/800, 27500};
  }
  std::abort();
}

// Threads besides the server reactor pool: main and the runtime's
// timer thread, plus the client pool's reactor under client_rtt.
std::size_t FixedThreads(const Shape& shape) { return shape.gateway ? 3 : 2; }

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// The shared server reactor gets what nproc leaves, clamped to [1, 2].
std::size_t ReactorThreads(const Shape& shape) {
  const std::size_t nproc = Nproc();
  const std::size_t fixed = FixedThreads(shape);
  return std::clamp<std::size_t>(nproc > fixed ? nproc - fixed : 1, 1, 2);
}

// ---------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Hash(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0x6A09E667F3BCC909ull ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = Mix(h ^ word);
  }
  for (; i < size; ++i) h = Mix(h ^ data[i]);
  return h;
}

// The worker's fixed CPU work per job.
std::uint64_t Work(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint32_t i = 0; i < kWorkRounds; ++i) x = Mix(x + i);
  return x;
}

void PutU64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  std::memcpy(&v, in, 8);
  return v;
}

// Request payload: [u64 request id][filler drawn from (seed, id)].
void FillPayload(std::uint64_t seed, std::uint64_t request, std::uint8_t* out,
                 std::size_t size) {
  PutU64(out, request);
  cmom::Rng rng(seed ^ (request * 0x9E3779B97F4A7C15ull));
  for (std::size_t i = 8; i < size; i += 8) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out + i, &word, std::min<std::size_t>(8, size - i));
  }
}

// Reply of the durable_fanin worker: [u64 request][u64 Hash(job)][u64 Work].
constexpr std::size_t kDoneSize = 24;

// ---------------------------------------------------------------------
// Closed-loop requesters
// ---------------------------------------------------------------------

struct Control {
  std::atomic<bool> issuing{true};  // false: finish, issue nothing new
  // Measurement window replies are filed under; 0 keeps no samples.
  std::atomic<std::uint32_t> window{0};
};

// A latency sample: the window it completed in, and its round trip.
constexpr int kWindowShift = 40;
constexpr std::uint64_t kLatencyMask = (1ull << kWindowShift) - 1;

struct Failures {
  std::uint64_t send_refused = 0;
  std::uint64_t unexpected_reply = 0;  // duplicate or unknown request id
  std::uint64_t bad_payload = 0;
  std::uint64_t missing = 0;           // still outstanding after the drain
  std::uint64_t rejected = 0;          // shed, gateway reject or drop

  [[nodiscard]] std::uint64_t total() const {
    return send_refused + unexpected_reply + bad_payload + missing + rejected;
  }
  void Add(const Failures& o) {
    send_refused += o.send_refused;
    unexpected_reply += o.unexpected_reply;
    bad_payload += o.bad_payload;
    missing += o.missing;
    rejected += o.rejected;
  }
};

// One requester's window: `window` slots, each one request outstanding.
// A request id is (stream << 32) | seq with one stream per slot, so a
// reply names its slot.  Called from one thread at a time (a server's
// work loop or the client reactor); the counters are read by main.
class LoadGen {
 public:
  LoadGen(std::uint32_t first_stream, std::size_t window, std::size_t payload,
          bool echo, std::uint64_t seed, const Control* control)
      : first_stream_(first_stream),
        payload_(payload),
        echo_(echo),
        seed_(seed),
        control_(control),
        slots_(window),
        expected_(payload) {
    samples_.reserve(1u << 16);
  }

  [[nodiscard]] std::size_t window() const { return slots_.size(); }
  [[nodiscard]] bool issuing() const {
    return control_->issuing.load(std::memory_order_relaxed);
  }

  // The next request of `slot`; marks it outstanding.
  [[nodiscard]] Bytes NextRequest(std::size_t slot) {
    Slot& s = slots_[slot];
    ++s.seq;
    const std::uint64_t request =
        (static_cast<std::uint64_t>(first_stream_ + slot) << 32) | s.seq;
    Bytes payload(payload_);
    FillPayload(seed_, request, payload.data(), payload.size());
    s.checksum = echo_ ? 0 : Hash(payload.data(), payload.size());
    s.busy = true;
    issued_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    s.sent_ns = NowNs();
    return payload;
  }

  // The transport or gateway refused the request of `slot`.
  void SendRefused(std::size_t slot) {
    slots_[slot].busy = false;
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    Count(failures_.send_refused);
  }

  // Checks one reply; returns its slot, or -1 after counting a failure.
  long OnReply(const std::uint8_t* data, std::size_t size) {
    const std::uint64_t now = NowNs();
    if (size < 8) return Fail(failures_.bad_payload);
    const std::uint64_t request = GetU64(data);
    const std::uint64_t stream = request >> 32;
    if (stream < first_stream_ || stream - first_stream_ >= slots_.size()) {
      return Fail(failures_.unexpected_reply);
    }
    const std::size_t slot = stream - first_stream_;
    Slot& s = slots_[slot];
    if (!s.busy || (request & 0xFFFFFFFFu) != s.seq) {
      return Fail(failures_.unexpected_reply);
    }
    s.busy = false;
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    bool intact = false;
    if (echo_) {
      FillPayload(seed_, request, expected_.data(), expected_.size());
      intact = size == payload_ &&
               std::memcmp(data, expected_.data(), payload_) == 0;
    } else {
      intact = size == kDoneSize && GetU64(data + 8) == s.checksum;
    }
    if (!intact) return Fail(failures_.bad_payload);
    completed_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t window = control_->window.load(std::memory_order_relaxed);
    if (window != 0) {
      samples_.push_back(window << kWindowShift |
                         std::min(now - s.sent_ns, kLatencyMask));
    }
    return static_cast<long>(slot);
  }

  [[nodiscard]] std::uint64_t issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  // Read only once every thread that replies has stopped.
  [[nodiscard]] const Failures& failures() const { return failures_; }
  // Packed (window << kWindowShift | latency ns).
  [[nodiscard]] const std::vector<std::uint64_t>& samples() const {
    return samples_;
  }

 private:
  struct Slot {
    std::uint64_t seq = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t checksum = 0;
    bool busy = false;
  };

  long Fail(std::uint64_t& counter) {
    Count(counter);
    return -1;
  }
  void Count(std::uint64_t& counter) {
    std::lock_guard lock(failure_mutex_);
    ++counter;
  }

  const std::uint32_t first_stream_;
  const std::size_t payload_;
  const bool echo_;
  const std::uint64_t seed_;
  const Control* control_;
  std::vector<Slot> slots_;
  Bytes expected_;
  std::vector<std::uint64_t> samples_;
  std::mutex failure_mutex_;
  Failures failures_;
  alignas(64) std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> outstanding_{0};
};

class EchoAgent final : public cmom::mom::Agent {
 public:
  void React(cmom::mom::ReactionContext& ctx,
             const cmom::mom::Message& message) override {
    Span span(Layer::kReact,
              RequestOfPayload(message.payload.data(), message.payload.size()));
    ctx.Send(message.from, "echo", message.payload);
  }
};

// durable_fanin's worker: fixed CPU work per job, a persistent tally,
// and a "done" reply carrying the job's hash.
class WorkerAgent final : public cmom::mom::Agent {
 public:
  void React(cmom::mom::ReactionContext& ctx,
             const cmom::mom::Message& message) override {
    const Bytes& job = message.payload;
    Span span(Layer::kReact, RequestOfPayload(job.data(), job.size()));
    if (job.size() < 8) return;
    const std::uint64_t hash = Hash(job.data(), job.size());
    const std::uint64_t work = Work(hash);
    ++jobs_;
    digest_ = Mix(digest_ ^ work);
    Bytes done(kDoneSize);
    PutU64(done.data(), GetU64(job.data()));
    PutU64(done.data() + 8, hash);
    PutU64(done.data() + 16, work);
    ctx.Send(message.from, "done", std::move(done));
  }

  void EncodeState(cmom::ByteWriter& out) const override {
    out.WriteU64(jobs_);
    out.WriteU64(digest_);
  }
  [[nodiscard]] Status DecodeState(cmom::ByteReader& in) override {
    auto jobs = in.ReadU64();
    auto digest = in.ReadU64();
    if (!jobs.ok() || !digest.ok()) return Status::DataLoss("worker state");
    jobs_ = jobs.value();
    digest_ = digest.value();
    return Status::Ok();
  }

 private:
  std::uint64_t jobs_ = 0;
  std::uint64_t digest_ = 0;
};

// A requester agent: a "start" message to itself opens its window;
// each verified reply issues that slot's next request to the next
// destination of its seeded schedule.
class RequesterAgent final : public cmom::mom::Agent {
 public:
  RequesterAgent(LoadGen* gen, std::vector<AgentId> schedule)
      : gen_(gen), schedule_(std::move(schedule)) {}

  void React(cmom::mom::ReactionContext& ctx,
             const cmom::mom::Message& message) override {
    const Bytes& body = message.payload;
    Span span(Layer::kReact, RequestOfPayload(body.data(), body.size()));
    if (message.subject == "start") {
      for (std::size_t slot = 0; slot < gen_->window(); ++slot) {
        Issue(ctx, slot);
      }
      return;
    }
    const long slot = gen_->OnReply(body.data(), body.size());
    if (slot >= 0 && gen_->issuing()) {
      Issue(ctx, static_cast<std::size_t>(slot));
    }
  }

 private:
  void Issue(cmom::mom::ReactionContext& ctx, std::size_t slot) {
    const AgentId to = schedule_[next_++ % schedule_.size()];
    ctx.Send(to, "req", gen_->NextRequest(slot));
  }

  LoadGen* gen_;
  std::vector<AgentId> schedule_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

struct Options {
  Kind kind = Kind::kClientRtt;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_build/state";
  std::string git_sha = "unknown";
};

// One booted deployment with its requesters.  Members are declared so
// that destruction runs servers before endpoints, stores, network and
// runtimes; Teardown() stops the clients and halts the servers first.
class Cluster {
 public:
  Cluster(const Shape& shape, const Options& options, int rep,
          cmom::causality::TraceRecorder* recorder, FrameCapture* capture)
      : shape_(shape),
        options_(options),
        rep_(rep),
        recorder_(recorder),
        capture_(capture),
        deployment_(cmom::domains::Deployment::Create(shape.config).value()) {}

  ~Cluster() { Teardown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates endpoints (trying further port blocks when one is taken),
  // opens stores, attaches agents, boots, and for client_rtt starts the
  // gateway and binds the client sessions.
  Status Boot() {
    Status status;
    for (int attempt = 0; attempt < 4; ++attempt) {
      status = CreateEndpoints(static_cast<std::uint16_t>(
          shape_.base_port + 1000 * attempt));
      if (status.ok()) break;
      endpoints_.clear();
      network_.reset();
    }
    if (!status.ok()) return status;
    if (shape_.durable) {
      store_dir_ = std::filesystem::path(options_.state_dir) /
                   (std::string(shape_.name) + "-" +
                    std::to_string(::getpid()) + "-" + std::to_string(rep_));
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
    }
    for (ServerId id : deployment_.servers()) {
      std::unique_ptr<cmom::mom::Store> store;
      cmom::mom::FileStore* file = nullptr;
      if (shape_.durable) {
        auto opened = cmom::mom::FileStore::Open(
            store_dir_ / ("s" + std::to_string(id.value())),
            {cmom::mom::SyncMode::kDataSync});
        if (!opened.ok()) return opened.status();
        file = opened.value().get();
        store = std::move(opened).value();
      } else {
        store = std::make_unique<cmom::mom::InMemoryStore>();
      }
      stores_.push_back(std::make_unique<TimedStore>(std::move(store), file));
    }
    cmom::mom::AgentServerOptions server_options;
    server_options.trace = recorder_;
    for (std::size_t i = 0; i < deployment_.servers().size(); ++i) {
      servers_.push_back(std::make_unique<cmom::mom::AgentServer>(
          deployment_, deployment_.servers()[i], endpoints_[i].get(),
          &timed_runtime_, stores_[i].get(), server_options));
    }
    AttachAgents();
    for (auto& server : servers_) CMOM_RETURN_IF_ERROR(server->Boot());
    if (gateway_ != nullptr) {
      CMOM_RETURN_IF_ERROR(gateway_->Start());
      return StartClients();
    }
    return Status::Ok();
  }

  // Opens every requester's window.
  Status Kick() {
    if (pool_ != nullptr) {
      for (std::size_t session = 0; session < kSessions; ++session) {
        for (std::size_t slot = 0; slot < shape_.window; ++slot) {
          ClientIssue(session, slot);
        }
      }
      return Status::Ok();
    }
    for (const AgentId& requester : requesters_) {
      auto sent = servers_[requester.server.value()]->SendMessage(
          requester, requester, "start");
      if (!sent.ok()) return sent.status();
    }
    return Status::Ok();
  }

  void Teardown() {
    if (torn_down_) return;
    torn_down_ = true;
    if (pool_ != nullptr) pool_->Stop();
    if (gateway_ != nullptr) gateway_->Stop();
    for (auto& server : servers_) server->Halt();
    // Open store files stay readable after their names are gone.
    if (!store_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
    }
  }

  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t total = 0;
    for (const auto& gen : gens_) total += gen->completed();
    return total;
  }
  [[nodiscard]] std::uint64_t outstanding() const {
    std::uint64_t total = 0;
    for (const auto& gen : gens_) total += gen->outstanding();
    return total;
  }
  [[nodiscard]] std::uint64_t issued() const {
    std::uint64_t total = 0;
    for (const auto& gen : gens_) total += gen->issued();
    return total;
  }
  [[nodiscard]] bool Idle() const {
    for (const auto& server : servers_) {
      if (!server->Idle()) return false;
    }
    return true;
  }

  Control& control() { return control_; }
  const cmom::domains::Deployment& deployment() const { return deployment_; }
  const std::vector<std::unique_ptr<LoadGen>>& gens() const { return gens_; }
  const std::vector<std::unique_ptr<cmom::mom::AgentServer>>& servers() const {
    return servers_;
  }
  const std::vector<std::unique_ptr<CountingEndpoint>>& endpoints() const {
    return endpoints_;
  }
  const std::vector<std::unique_ptr<TimedStore>>& stores() const {
    return stores_;
  }
  const cmom::net::TcpNetwork& network() const { return *network_; }
  const TimedRuntime& timed_runtime() const { return timed_runtime_; }
  const cmom::mom::GatewayServer* gateway() const { return gateway_.get(); }
  const cmom::mom::GatewayClientPool* pool() const { return pool_.get(); }

 private:
  Status CreateEndpoints(std::uint16_t base_port) {
    cmom::net::TcpNetworkOptions net_options;
    net_options.reactor_threads = ReactorThreads(shape_);
    network_ = std::make_unique<cmom::net::TcpNetwork>(base_port, net_options);
    base_port_ = base_port;
    for (ServerId id : deployment_.servers()) {
      auto endpoint = network_->CreateEndpoint(id);
      if (!endpoint.ok()) return endpoint.status();
      endpoints_.push_back(std::make_unique<CountingEndpoint>(
          std::move(endpoint).value(), capture_));
    }
    return Status::Ok();
  }

  LoadGen& NewGen() {
    gens_.push_back(std::make_unique<LoadGen>(
        static_cast<std::uint32_t>(1 + gens_.size() * shape_.window),
        shape_.window, shape_.payload, shape_.kind != Kind::kDurableFanin,
        options_.seed, &control_));
    return *gens_.back();
  }

  cmom::mom::AgentServer& Server(ServerId id) {
    return *servers_[id.value()];
  }

  void AttachAgents() {
    cmom::Rng rng(options_.seed);
    switch (shape_.kind) {
      case Kind::kClientRtt: {
        Server(kEchoServer).AttachAgent(kEchoLocal,
                                        std::make_unique<EchoAgent>());
        cmom::mom::GatewayOptions gw;
        gw.listen_port = static_cast<std::uint16_t>(base_port_ + 64);
        gw.first_session_agent = 1;
        gateway_ = std::make_unique<cmom::mom::GatewayServer>(
            Server(kGatewayServer), gw, network_->reactor());
        gateway_->AttachSessionAgents(kSessions);
        for (std::size_t i = 0; i < kSessions; ++i) NewGen();
        break;
      }
      case Kind::kWideDomain: {
        for (ServerId id : deployment_.servers()) {
          Server(id).AttachAgent(kEchoLocal, std::make_unique<EchoAgent>());
          // Peers drawn uniformly from the other servers.
          std::vector<AgentId> schedule;
          schedule.reserve(kScheduleLength);
          for (std::size_t k = 0; k < kScheduleLength; ++k) {
            std::uint64_t peer = rng.NextBelow(kWideServers - 1);
            if (peer >= id.value()) ++peer;
            schedule.push_back(AgentId{
                ServerId(static_cast<std::uint16_t>(peer)), kEchoLocal});
          }
          const AgentId self{id, kRequesterLocal};
          Server(id).AttachAgent(
              self.local,
              std::make_unique<RequesterAgent>(&NewGen(), std::move(schedule)));
          requesters_.push_back(self);
        }
        break;
      }
      case Kind::kDurableFanin: {
        Server(kWorkerServer).AttachAgent(kWorkerLocal,
                                          std::make_unique<WorkerAgent>());
        for (ServerId id : kProducerServers) {
          const AgentId self{id, kRequesterLocal};
          Server(id).AttachAgent(
              self.local, std::make_unique<RequesterAgent>(
                              &NewGen(), std::vector<AgentId>{
                                             AgentId{kWorkerServer, kWorkerLocal}}));
          requesters_.push_back(self);
        }
        break;
      }
    }
  }

  Status StartClients() {
    cmom::mom::GatewayClientOptions client;
    client.port = static_cast<std::uint16_t>(base_port_ + 64);
    client.sessions = kSessions;
    client.first_agent = 1;
    client.reactor_threads = 1;
    pool_ = std::make_unique<cmom::mom::GatewayClientPool>(client);
    pool_->set_delivery_handler(
        [this](std::size_t session, std::uint16_t, std::uint32_t,
               std::string_view, const std::uint8_t* data, std::size_t size) {
          Span span(Layer::kClientDeliver, RequestOfPayload(data, size));
          LoadGen& gen = *gens_[session];
          const long slot = gen.OnReply(data, size);
          if (slot >= 0 && gen.issuing()) {
            ClientIssue(session, static_cast<std::size_t>(slot));
          }
        });
    pool_->Start();
    if (!pool_->WaitAllBound(10 * kSecond)) {
      return Status::Unavailable("client sessions did not bind");
    }
    return Status::Ok();
  }

  void ClientIssue(std::size_t session, std::size_t slot) {
    LoadGen& gen = *gens_[session];
    const Bytes request = gen.NextRequest(slot);
    Span span(Layer::kClientSend, RequestOfPayload(request.data(), request.size()));
    if (!pool_->Send(session, kEchoServer.value(), kEchoLocal, "req",
                     request.data(), request.size())) {
      gen.SendRefused(slot);
    }
  }

  const Shape& shape_;
  const Options& options_;
  const int rep_;
  cmom::causality::TraceRecorder* recorder_;
  FrameCapture* capture_;
  bool torn_down_ = false;
  Control control_;
  std::vector<std::unique_ptr<LoadGen>> gens_;
  std::vector<AgentId> requesters_;

  cmom::domains::Deployment deployment_;
  cmom::net::ThreadRuntime runtime_;
  TimedRuntime timed_runtime_{runtime_};
  std::unique_ptr<cmom::net::TcpNetwork> network_;
  std::uint16_t base_port_ = 0;
  std::filesystem::path store_dir_;
  std::vector<std::unique_ptr<TimedStore>> stores_;
  std::vector<std::unique_ptr<CountingEndpoint>> endpoints_;
  std::vector<std::unique_ptr<cmom::mom::AgentServer>> servers_;
  std::unique_ptr<cmom::mom::GatewayServer> gateway_;
  std::unique_ptr<cmom::mom::GatewayClientPool> pool_;
};

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// A "Key:   value kB" field of /proc/self/status.
std::uint64_t ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

// Host-wide CPU ticks from /proc/stat: all of them, and those the
// hypervisor spent elsewhere (steal).  A slow phase of a shared host
// shows as steal; a slower program does not.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal
  HostTicks ticks;
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

struct Snapshot {
  std::uint64_t t_ns = 0;
  double cpu_s = 0;
  HostTicks host;
  cmom::mom::ServerStats total;  // summed counters, merged histograms
  std::uint64_t backlog_peak = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t polls = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t timers = 0;
  std::uint64_t sync_wait_ns = 0;
  cmom::BufferPool::Counters pool;
  cmom::mom::GatewayStats gateway;
  cmom::mom::GatewayClientStats clients;
};

Snapshot Take(const Cluster& cluster) {
  Snapshot s;
  for (const auto& server : cluster.servers()) {
    const cmom::mom::ServerStats st = server->stats();
    auto& t = s.total;
    t.messages_sent += st.messages_sent;
    t.messages_delivered += st.messages_delivered;
    t.messages_forwarded += st.messages_forwarded;
    t.duplicates_dropped += st.duplicates_dropped;
    t.retransmissions += st.retransmissions;
    t.stamp_bytes_sent += st.stamp_bytes_sent;
    t.commits += st.commits;
    t.commit_bytes += st.commit_bytes;
    t.ack_frames_sent += st.ack_frames_sent;
    t.acks_sent += st.acks_sent;
    t.credit_blocked += st.credit_blocked;
    t.sends_deferred += st.sends_deferred;
    t.sends_shed += st.sends_shed;
    t.fenced_sends_rejected += st.fenced_sends_rejected;
    t.channel_batch_hist.MergeFrom(st.channel_batch_hist);
    t.engine_batch_hist.MergeFrom(st.engine_batch_hist);
    t.holdback_depth_hist.MergeFrom(st.holdback_depth_hist);
    s.backlog_peak = std::max(s.backlog_peak, st.backlog_peak);
  }
  for (const auto& endpoint : cluster.endpoints()) {
    s.wire_frames += endpoint->frames();
    s.wire_bytes += endpoint->bytes();
  }
  for (const auto& shard : cluster.network().reactor_stats()) {
    s.polls += shard.polls;
    s.wakeups += shard.wakeups;
  }
  for (const auto& store : cluster.stores()) s.sync_wait_ns += store->sync_wait_ns();
  s.timers = cluster.timed_runtime().scheduled();
  s.pool = cmom::BufferPool::Totals();
  if (cluster.gateway() != nullptr) s.gateway = cluster.gateway()->stats();
  if (cluster.pool() != nullptr) s.clients = cluster.pool()->stats();
  s.cpu_s = CpuSeconds();
  s.host = ReadHostTicks();
  s.t_ns = NowNs();
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double HistMean(const cmom::LogHistogram& after, const cmom::LogHistogram& before) {
  return Ratio(static_cast<double>(after.sum - before.sum),
               static_cast<double>(after.count - before.count));
}

double Percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t index = std::min(
      sorted.size() - 1, static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[index]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::atomic<std::uint64_t> g_probe_sink{0};

// Fixed work timed before set-up: tells a slow phase of the host apart
// from a slower program.
double HostProbeSeconds() {
  const std::uint64_t start = NowNs();
  std::uint64_t x = 1;
  for (std::uint32_t i = 0; i < (1u << 24); ++i) x = Mix(x + i);
  const std::uint64_t end = NowNs();
  g_probe_sink.store(x, std::memory_order_relaxed);
  return static_cast<double>(end - start) / 1e9;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

// Metrics are medians over windows of this length, so a host stall
// that spoils a few windows does not move a run's result.
constexpr std::uint64_t kWindowNs = 500'000'000;

struct Phase {
  Snapshot begin;
  Snapshot end;
  std::uint64_t max_threads = 0;
  std::vector<double> window_msgs_per_s;
  std::vector<double> window_cpu_us_per_msg;
  std::uint32_t first_window = 0;  // latency window ids of this phase
  std::uint32_t last_window = 0;

  [[nodiscard]] double msgs() const {
    return static_cast<double>(end.total.messages_delivered -
                               begin.total.messages_delivered);
  }
  [[nodiscard]] double per_msg(std::uint64_t after, std::uint64_t before) const {
    return Ratio(static_cast<double>(after - before), msgs());
  }
  // Share of the host's CPU time the hypervisor stole during the phase.
  [[nodiscard]] double steal_pct() const {
    return 100 * Ratio(static_cast<double>(end.host.steal - begin.host.steal),
                       static_cast<double>(end.host.total - begin.host.total));
  }
};

std::uint64_t Delivered(const Cluster& cluster) {
  std::uint64_t total = 0;
  for (const auto& server : cluster.servers()) {
    total += server->stats().messages_delivered;
  }
  return total;
}

// Measures `seconds` of steady traffic window by window, sampling the
// thread count; latency samples are filed under windows numbered from
// `first_window` when it is not 0.
Phase Measure(Cluster& cluster, double seconds, std::uint32_t first_window) {
  Phase phase;
  phase.begin = Take(cluster);
  phase.first_window = first_window;
  const std::uint64_t windows = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(seconds * 1e9) / kWindowNs);
  std::uint64_t t = phase.begin.t_ns;
  std::uint64_t delivered = phase.begin.total.messages_delivered;
  double cpu = phase.begin.cpu_s;
  for (std::uint64_t w = 0; w < windows; ++w) {
    if (first_window != 0) {
      phase.last_window = first_window + static_cast<std::uint32_t>(w);
      cluster.control().window.store(phase.last_window,
                                     std::memory_order_relaxed);
    }
    const std::uint64_t deadline = phase.begin.t_ns + (w + 1) * kWindowNs;
    for (std::uint64_t now = NowNs(); now < deadline; now = NowNs()) {
      phase.max_threads = std::max(phase.max_threads, ProcStatus("Threads"));
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(deadline - now, 100'000'000)));
    }
    const std::uint64_t d = Delivered(cluster);
    const double c = CpuSeconds();
    const std::uint64_t now = NowNs();
    phase.window_msgs_per_s.push_back(static_cast<double>(d - delivered) /
                                      (static_cast<double>(now - t) / 1e9));
    phase.window_cpu_us_per_msg.push_back(
        Ratio((c - cpu) * 1e6, static_cast<double>(d - delivered)));
    t = now;
    delivered = d;
    cpu = c;
  }
  cluster.control().window.store(0, std::memory_order_relaxed);
  phase.end = Take(cluster);
  return phase;
}

// Median over the phase's windows of each window's latency quantile `q`.
double WindowedLatencyUs(const std::vector<std::vector<std::uint64_t>>& by_window,
                         const Phase& phase, double q) {
  std::vector<double> values;
  for (std::uint32_t w = phase.first_window;
       w != 0 && w <= phase.last_window && w < by_window.size(); ++w) {
    if (!by_window[w].empty()) values.push_back(Percentile(by_window[w], q) / 1e3);
  }
  return Median(std::move(values));
}

// Waits until `done` holds or `timeout_ns` passes.
template <typename Pred>
bool WaitFor(Pred done, std::uint64_t timeout_ns) {
  const std::uint64_t deadline = NowNs() + timeout_ns;
  while (!done()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

struct Outcome {
  std::uint64_t attempted = 0;
  Failures failures;
  std::string error;  // set-up or drain trouble, counted as a failure
};

// Stops issuing, waits for every outstanding reply, and tallies the
// run's requests and failures.  Leaves the cluster quiescent.
void Drain(Cluster& cluster, Outcome& outcome) {
  cluster.control().issuing.store(false, std::memory_order_relaxed);
  WaitFor([&] { return cluster.outstanding() == 0; }, 30 * kSecond);
  WaitFor([&] { return cluster.Idle(); }, 10 * kSecond);
  const Snapshot end = Take(cluster);
  cluster.Teardown();
  outcome.attempted += cluster.issued();
  for (const auto& gen : cluster.gens()) {
    outcome.failures.Add(gen->failures());
    outcome.failures.missing += gen->outstanding();
  }
  outcome.failures.rejected +=
      end.total.sends_shed + end.total.fenced_sends_rejected +
      end.gateway.client_send_rejects + end.gateway.delivery_drops +
      end.clients.send_rejects;
}

// Boots a deployment and runs the fixed warm-up; returns nullptr (with
// outcome.error set) when it cannot.
std::unique_ptr<Cluster> SetUp(const Shape& shape, const Options& options,
                               int rep, cmom::causality::TraceRecorder* recorder,
                               FrameCapture* capture, Outcome& outcome) {
  auto cluster =
      std::make_unique<Cluster>(shape, options, rep, recorder, capture);
  Status status = cluster->Boot();
  if (status.ok()) status = cluster->Kick();
  if (status.ok() &&
      !WaitFor([&] { return cluster->completed() >= shape.warmup; },
               60 * kSecond)) {
    status = Status::Unavailable("warm-up did not complete");
  }
  if (!status.ok()) {
    outcome.error = "set-up: " + status.to_string();
    Drain(*cluster, outcome);
    return nullptr;
  }
  return cluster;
}

// Independent deployments per untraced run.  Each runs in a child
// process forked before this process starts any thread, so each starts
// fresh (no heap, buffer pool or thread placement left over from
// another), and every end-to-end metric is the median over them.
constexpr int kDeployments = 5;

struct Latency {
  double p50_us = 0;  // medians over the phase's windows
  double p90_us = 0;
  double p99_us = 0;  // over the whole phase
  std::uint64_t samples = 0;
};

// Latency of the requests that completed during `phase`.
Latency PhaseLatency(const Cluster& cluster, const Phase& phase) {
  std::vector<std::uint64_t> all;
  std::vector<std::vector<std::uint64_t>> by_window(phase.last_window + 1);
  for (const auto& gen : cluster.gens()) {
    for (std::uint64_t packed : gen->samples()) {
      const std::uint64_t window = packed >> kWindowShift;
      if (window < phase.first_window || window >= by_window.size()) continue;
      all.push_back(packed & kLatencyMask);
      by_window[window].push_back(packed & kLatencyMask);
    }
  }
  std::sort(all.begin(), all.end());
  for (auto& window : by_window) std::sort(window.begin(), window.end());
  Latency latency;
  latency.p50_us = WindowedLatencyUs(by_window, phase, 0.50);
  latency.p90_us = WindowedLatencyUs(by_window, phase, 0.90);
  latency.p99_us = Percentile(all, 0.99) / 1e3;
  latency.samples = all.size();
  return latency;
}

// One deployment's untraced results.
struct Measured {
  double setup_s = 0;
  double msgs_per_s = 0;
  double cpu_us_per_msg = 0;
  double wire_bytes_per_msg = 0;
  double commit_bytes_per_msg = 0;
  double peak_rss_mb = 0;
  Latency latency;
  std::uint64_t max_threads = 0;
  double steal_pct = 0;
};

// Sets up one deployment, measures it for `seconds` and drains it, in a
// child process; nullopt (with outcome.error set) when it cannot.
std::optional<Measured> MeasureInChild(const Shape& shape,
                                       const Options& options, int rep,
                                       double seconds, Outcome& outcome) {
  struct Report {
    Measured measured;
    std::uint64_t attempted;
    Failures failures;
    bool ok;
  };
  int fds[2];
  if (::pipe(fds) != 0) {
    outcome.error = "pipe failed";
    return std::nullopt;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Outcome child;
    Report report{};
    const std::uint64_t start = NowNs();
    auto cluster = SetUp(shape, options, rep, nullptr, nullptr, child);
    if (cluster != nullptr) {
      Measured& m = report.measured;
      m.setup_s = static_cast<double>(NowNs() - start) / 1e9;
      const Phase phase = Measure(*cluster, seconds, 1);
      m.peak_rss_mb = static_cast<double>(ProcStatus("VmHWM")) / 1024.0;
      Drain(*cluster, child);
      m.msgs_per_s = Median(phase.window_msgs_per_s);
      m.cpu_us_per_msg = Median(phase.window_cpu_us_per_msg);
      m.wire_bytes_per_msg =
          phase.per_msg(phase.end.wire_bytes, phase.begin.wire_bytes);
      m.commit_bytes_per_msg = phase.per_msg(phase.end.total.commit_bytes,
                                             phase.begin.total.commit_bytes);
      m.latency = PhaseLatency(*cluster, phase);
      m.max_threads = phase.max_threads;
      m.steal_pct = phase.steal_pct();
      cluster.reset();
      report.ok = true;
    } else {
      std::fprintf(stderr, "perfbench: %s\n", child.error.c_str());
    }
    report.attempted = child.attempted;
    report.failures = child.failures;
    const bool written = ::write(fds[1], &report, sizeof(report)) ==
                         static_cast<ssize_t>(sizeof(report));
    std::fflush(stderr);
    ::_exit(written ? 0 : 1);
  }
  ::close(fds[1]);
  Report report{};
  const bool got = pid > 0 && ::read(fds[0], &report, sizeof(report)) ==
                                  static_cast<ssize_t>(sizeof(report));
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  if (got) {
    outcome.attempted += report.attempted;
    outcome.failures.Add(report.failures);
  }
  if (!got || !report.ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    outcome.error = "deployment " + std::to_string(rep) + " failed";
    return std::nullopt;
  }
  return report.measured;
}

bool OnTmpfs(const std::string& dir) {
  struct statfs fs {};
  constexpr long kTmpfsMagic = 0x01021994;
  return ::statfs(dir.c_str(), &fs) == 0 && fs.f_type == kTmpfsMagic;
}

// Median fdatasync of a small append in `dir`, in microseconds: the
// device's speed at the time of the run (0 when the probe fails).
double DiskSyncProbeUs(const std::string& dir) {
  const std::string path = dir + "/sync-probe-" + std::to_string(::getpid());
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return 0;
  const char block[512] = {};
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    std::fwrite(block, 1, sizeof(block), file);
    std::fflush(file);
    const std::uint64_t start = NowNs();
    ::fdatasync(::fileno(file));
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  std::fclose(file);
  std::remove(path.c_str());
  return Median(std::move(samples));
}

void PrintFingerprint(const Options& options, const Shape& shape,
                      double probe_s, double disk_sync_us) {
  std::printf(
      "info fingerprint {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %zu, \"reactor_threads\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"host_probe_s\": %.6f, "
      "\"disk_sync_p50_us\": %.1f}\n",
      shape.name, options.seed, Nproc(), ReactorThreads(shape),
      PERFBENCH_BUILD_TYPE, __VERSION__, options.git_sha.c_str(), probe_s,
      disk_sync_us);
}

// Prints the failure tally and the result line; returns the exit code.
int Finish(const Outcome& outcome, bool checks_ok,
           const std::vector<Metric>& metrics) {
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", outcome.error.c_str());
  }
  const Failures& f = outcome.failures;
  const std::uint64_t failed = f.total() + (outcome.error.empty() ? 0 : 1) +
                               (checks_ok ? 0 : 1);
  if (failed > 0) {
    std::fprintf(stderr,
                 "perfbench: failures: send_refused %" PRIu64
                 " unexpected_reply %" PRIu64 " bad_payload %" PRIu64
                 " missing %" PRIu64 " rejected %" PRIu64
                 " oracle and ladder %s\n",
                 f.send_refused, f.unexpected_reply, f.bad_payload, f.missing,
                 f.rejected, checks_ok ? "ok" : "FAILED");
  }
  PrintResult(failed == 0, std::max<std::uint64_t>(outcome.attempted, 1),
              failed, metrics);
  return failed == 0 ? 0 : 1;
}

void PrintThreads(std::uint64_t max_threads) {
  const std::size_t nproc = Nproc();
  std::printf("info threads max %" PRIu64 " nproc %zu%s\n", max_threads, nproc,
              max_threads > nproc ? " OVER_NPROC" : "");
}

// The gated run: kDeployments deployments of seconds / kDeployments
// each, every metric the median over them.
int RunUntraced(const Shape& shape, const Options& options) {
  Outcome outcome;
  std::vector<Measured> runs;
  for (int rep = 0; rep < kDeployments; ++rep) {
    const std::optional<Measured> m = MeasureInChild(
        shape, options, rep, options.seconds / kDeployments, outcome);
    if (!m) break;
    runs.push_back(*m);
    std::printf("info deployment %d setup_s %.6f msgs_per_s %.1f p50_us %.1f "
                "p90_us %.1f p99_us %.1f samples %" PRIu64
                " cpu_us_per_msg %.3f peak_rss_mb %.3f host_steal_pct %.2f\n",
                rep, m->setup_s, m->msgs_per_s, m->latency.p50_us,
                m->latency.p90_us, m->latency.p99_us, m->latency.samples,
                m->cpu_us_per_msg, m->peak_rss_mb, m->steal_pct);
  }
  if (runs.size() < static_cast<std::size_t>(kDeployments)) {
    return Finish(outcome, true, {});
  }
  auto median = [&](double Measured::*field) {
    std::vector<double> values;
    for (const Measured& m : runs) values.push_back(m.*field);
    return Median(std::move(values));
  };
  auto median_latency = [&](double Latency::*field) {
    std::vector<double> values;
    for (const Measured& m : runs) values.push_back(m.latency.*field);
    return Median(std::move(values));
  };
  std::uint64_t samples = 0;
  std::uint64_t max_threads = 0;
  for (const Measured& m : runs) {
    samples += m.latency.samples;
    max_threads = std::max(max_threads, m.max_threads);
  }
  std::printf("info latency_p99_us %.3f samples %" PRIu64
              " (median over deployments; ungated)\n",
              median_latency(&Latency::p99_us), samples);
  PrintThreads(max_threads);
  return Finish(
      outcome, true,
      {
          {"setup_s", median(&Measured::setup_s), "s"},
          {"throughput_msgs_per_s", median(&Measured::msgs_per_s), "msgs/s"},
          {"latency_p50_us", median_latency(&Latency::p50_us), "us"},
          {"latency_p90_us", median_latency(&Latency::p90_us), "us"},
          {"cpu_us_per_msg", median(&Measured::cpu_us_per_msg), "us"},
          {"wire_bytes_per_msg", median(&Measured::wire_bytes_per_msg), "B"},
          {"commit_bytes_per_msg", median(&Measured::commit_bytes_per_msg), "B"},
          {"peak_rss_mb", median(&Measured::peak_rss_mb), "MB"},
      });
}

// The traced run: one deployment with the oracle's recorder, measured
// untraced then traced for seconds / 2 each; per-layer metrics.
int RunTraced(const Shape& shape, const Options& options) {
  Outcome outcome;
  cmom::causality::TraceRecorder recorder;
  FrameCapture capture(1u << 14);
  std::unique_ptr<Cluster> cluster =
      SetUp(shape, options, 0, &recorder, &capture, outcome);
  if (cluster == nullptr) return Finish(outcome, true, {});
  const Phase plain = Measure(*cluster, options.seconds / 2, 1);
  CalibrateClocks();
  SetTracing(true);
  const Phase traced = Measure(*cluster, options.seconds / 2, 0);
  SetTracing(false);
  std::printf("info peak_rss_mb %.3f\n",
              static_cast<double>(ProcStatus("VmHWM")) / 1024.0);
  PrintThreads(std::max(plain.max_threads, traced.max_threads));
  std::printf("info host_steal_pct untraced %.2f traced %.2f\n",
              plain.steal_pct(), traced.steal_pct());
  Drain(*cluster, outcome);
  double sync_us = 0;
  for (const auto& store : cluster->stores()) {
    sync_us += static_cast<double>(store->sync_latency_ns()) / 1e3;
  }
  sync_us /= static_cast<double>(cluster->stores().size());
  const double p99_us = PhaseLatency(*cluster, plain).p99_us;

  // Causal delivery and exactly-once over the whole measured run.
  const cmom::causality::Trace events = recorder.Snapshot();
  cmom::causality::CausalityChecker checker(std::vector<ServerId>(
      cluster->deployment().servers().begin(),
      cluster->deployment().servers().end()));
  const bool causal = checker.CheckCausalDelivery(events).causal();
  const Status once = checker.CheckExactlyOnce(events);
  bool checks_ok = causal && once.ok();
  std::printf("info oracle events %zu causal %s exactly_once %s\n",
              events.size(), causal ? "yes" : "NO",
              once.ok() ? "yes" : once.to_string().c_str());

  std::vector<Metric> metrics;
  const LadderResult ladder = RunLadder(capture.Take(), cluster->deployment());
  // Span totals are read once every thread that records them is joined.
  cluster.reset();
  const LayerTotals totals = CollectTotals();
  const std::string spans_path = options.state_dir + "/" + shape.name +
                                 "-seed" + std::to_string(options.seed) +
                                 ".spans.csv";
  const long spans = WriteSpans(spans_path);
  std::printf("info spans %ld written to %s\n", spans, spans_path.c_str());
  std::printf("info ladder frames %zu anomalies %zu\n", ladder.frames,
              ladder.anomalies);
  // A frame that does not re-encode to its own bytes, or a replayed
  // message a fresh core will not deliver, is a codec or clock fault.
  checks_ok = checks_ok && ladder.anomalies == 0;

  const Phase& p = traced;
  const double msgs = p.msgs();
  const Snapshot& b = p.begin;
  const Snapshot& e = p.end;
  // Layer time is on-CPU self time; the store adds its device wait.
  auto self_us = [&](Layer layer) {
    return static_cast<double>(totals.self_cpu(layer)) / 1e3;
  };
  auto mean_us = [&](Layer layer) {
    return Ratio(self_us(layer), static_cast<double>(totals.count(layer)));
  };
  std::printf("info wall_self_us_per_call");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    std::printf(" %s %.3f", std::string(LayerName(layer)).c_str(),
                Ratio(static_cast<double>(totals.self(layer)) / 1e3,
                      static_cast<double>(totals.count(layer))));
  }
  std::printf("\n");
  const double timers_per_msg = p.per_msg(e.timers, b.timers);
  const double data_frames_per_msg =
      Ratio(static_cast<double>((e.wire_frames - b.wire_frames) -
                                (e.total.ack_frames_sent - b.total.ack_frames_sent)),
            msgs);
  // Per-message time by layer, in microseconds.
  const double net_us = Ratio(self_us(Layer::kNetSend), msgs) +
                        mean_us(Layer::kTimer) * timers_per_msg;
  const double gateway_us = Ratio(self_us(Layer::kClientSend) +
                                      self_us(Layer::kClientDeliver),
                                  msgs);
  const double channel_us = Ratio(self_us(Layer::kChannel), msgs);
  const double engine_us = Ratio(self_us(Layer::kReact), msgs);
  const double sync_wait_us =
      Ratio(static_cast<double>(e.sync_wait_ns - b.sync_wait_ns) / 1e3, msgs);
  const double store_us = Ratio(self_us(Layer::kStoreCommit) +
                                    self_us(Layer::kStoreStage),
                                msgs) +
                          sync_wait_us;
  const double codec_us = (ladder.encode_ns_per_frame + ladder.decode_ns_per_frame) *
                          data_frames_per_msg / 1e3;
  const double clocks_us = (ladder.prepare_send_ns + ladder.check_deliver_ns) *
                           data_frames_per_msg / 1e3;
  // Busy time per message: the untraced phase's CPU (the spans'
  // self times are corrected for their own clock reads) plus the
  // device wait inside commits.
  const double busy_us =
      Ratio((plain.end.cpu_s - plain.begin.cpu_s) * 1e6, plain.msgs()) +
      sync_wait_us;
  const double residual_us =
      busy_us - (net_us + gateway_us + channel_us + engine_us + store_us);
  std::printf(
      "info shares busy_us_per_msg %.3f net %.4f gateway %.4f channel %.4f "
      "engine %.4f store %.4f codec %.4f clocks %.4f residual %.4f "
      "(codec and clocks are carved out of channel, engine and timer "
      "self time)\n",
      busy_us, Ratio(net_us, busy_us), Ratio(gateway_us, busy_us),
      Ratio(channel_us, busy_us), Ratio(engine_us, busy_us),
      Ratio(store_us, busy_us), Ratio(codec_us, busy_us),
      Ratio(clocks_us, busy_us), Ratio(residual_us, busy_us));
  const double plain_tput = Median(plain.window_msgs_per_s);
  const double traced_tput = Median(traced.window_msgs_per_s);
  const Snapshot& end = p.end;
  metrics = {
      {"net.frames_per_msg", p.per_msg(e.wire_frames, b.wire_frames), "frames/msg"},
      {"net.send_us_per_frame", mean_us(Layer::kNetSend), "us/frame"},
      {"net.polls_per_msg", p.per_msg(e.polls, b.polls), "polls/msg"},
      {"net.wakeups_per_msg", p.per_msg(e.wakeups, b.wakeups), "wakeups/msg"},
      {"net.timers_per_msg", timers_per_msg, "timers/msg"},
      {"net.timer_us_per_msg", mean_us(Layer::kTimer) * timers_per_msg, "us/msg"},
      {"mom.gateway.bytes_per_req",
       Ratio(static_cast<double>((e.gateway.bytes_in - b.gateway.bytes_in) +
                                 (e.gateway.bytes_out - b.gateway.bytes_out)),
             static_cast<double>(e.gateway.client_sends - b.gateway.client_sends)),
       "B/req"},
      {"mom.gateway.client_send_us", mean_us(Layer::kClientSend), "us"},
      {"mom.gateway.rejects",
       static_cast<double>(end.gateway.client_send_rejects + end.clients.send_rejects),
       "count"},
      {"mom.gateway.drops", static_cast<double>(end.gateway.delivery_drops), "count"},
      {"mom.channel.self_us_per_frame", mean_us(Layer::kChannel), "us/frame"},
      {"mom.channel.batch_mean",
       HistMean(e.total.channel_batch_hist, b.total.channel_batch_hist), "frames"},
      {"mom.channel.acks_per_ack_frame",
       Ratio(static_cast<double>(e.total.acks_sent - b.total.acks_sent),
             static_cast<double>(e.total.ack_frames_sent - b.total.ack_frames_sent)),
       "acks/frame"},
      {"mom.channel.retransmissions", static_cast<double>(end.total.retransmissions),
       "count"},
      {"mom.channel.duplicates", static_cast<double>(end.total.duplicates_dropped),
       "count"},
      {"mom.engine.react_us_per_msg", engine_us, "us/msg"},
      {"mom.engine.batch_mean",
       HistMean(e.total.engine_batch_hist, b.total.engine_batch_hist), "msgs"},
      {"mom.store.commits_per_msg", p.per_msg(e.total.commits, b.total.commits),
       "commits/msg"},
      {"mom.store.commit_us_per_msg", store_us, "us/msg"},
      {"mom.store.bytes_per_commit",
       Ratio(static_cast<double>(e.total.commit_bytes - b.total.commit_bytes),
             static_cast<double>(e.total.commits - b.total.commits)),
       "B/commit"},
      {"mom.store.sync_us", sync_us, "us"},
      {"mom.codec.encode_ns_per_frame", ladder.encode_ns_per_frame, "ns/frame"},
      {"mom.codec.decode_ns_per_frame", ladder.decode_ns_per_frame, "ns/frame"},
      {"clocks.stamp_bytes_per_msg",
       p.per_msg(e.total.stamp_bytes_sent, b.total.stamp_bytes_sent), "B/msg"},
      {"clocks.holdback_depth_mean",
       HistMean(e.total.holdback_depth_hist, b.total.holdback_depth_hist), "msgs"},
      {"clocks.prepare_send_ns", ladder.prepare_send_ns, "ns"},
      {"clocks.check_deliver_ns", ladder.check_deliver_ns, "ns"},
      {"flow.credit_blocked_per_msg",
       p.per_msg(e.total.credit_blocked, b.total.credit_blocked), "1/msg"},
      {"flow.deferred_per_msg",
       p.per_msg(e.total.sends_deferred, b.total.sends_deferred), "1/msg"},
      {"flow.shed", static_cast<double>(end.total.sends_shed), "count"},
      {"flow.backlog_peak", static_cast<double>(end.backlog_peak), "msgs"},
      {"domains.forwards_per_msg",
       p.per_msg(e.total.messages_forwarded, b.total.messages_forwarded),
       "1/msg"},
      {"common.heap_allocs_per_msg",
       p.per_msg(e.pool.heap_allocations(), b.pool.heap_allocations()),
       "allocs/msg"},
      {"common.pool_hit_ratio",
       Ratio(static_cast<double>(e.pool.pool_hits - b.pool.pool_hits),
             static_cast<double>(e.pool.acquires - b.pool.acquires)),
       "ratio"},
      {"residual_us_per_msg", residual_us, "us/msg"},
      {"trace_overhead_pct", Ratio(plain_tput - traced_tput, plain_tput) * 100,
       "%"},
      {"latency_p99_us", p99_us, "us"},
  };
  return Finish(outcome, checks_ok, metrics);
}

int Run(const Options& options) {
  const Shape shape = MakeShape(options.kind);
  double disk_sync_us = 0;
  if (shape.durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    if (OnTmpfs(options.state_dir)) {
      std::printf("info warning: %s is tmpfs; fdatasync costs nothing there\n",
                  options.state_dir.c_str());
    }
    disk_sync_us = DiskSyncProbeUs(options.state_dir);
  }
  PrintFingerprint(options, shape, HostProbeSeconds(), disk_sync_us);
  return options.trace ? RunTraced(shape, options) : RunUntraced(shape, options);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload client_rtt|wide_domain|"
               "durable_fanin --seed N --seconds S --trace 0|1 "
               "[--state-dir DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Kind;
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "client_rtt") {
        options.kind = Kind::kClientRtt;
      } else if (value == "wide_domain") {
        options.kind = Kind::kWideDomain;
      } else if (value == "durable_fanin") {
        options.kind = Kind::kDurableFanin;
      } else {
        return perfbench::Usage();
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(options.seconds > 0)) {
    return perfbench::Usage();
  }
  return perfbench::Run(options);
}
