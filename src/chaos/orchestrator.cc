#include "chaos/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/log.h"
#include "mom/agent.h"
#include "workload/threaded_harness.h"

namespace cmom::chaos {

namespace {

// Mirrors examples/configs/overload.conf: two producer-edge domains
// funnel through the single router-server S3 into the consumer domain.
constexpr std::uint16_t kProducers[] = {0, 1, 2, 4, 5, 6};
constexpr std::uint16_t kRouter = 3;
constexpr std::uint16_t kConsumer = 7;
constexpr std::size_t kHighWatermark = 64;

domains::MomConfig OverloadConfig() {
  domains::MomConfig config;
  for (std::uint16_t s = 0; s < 8; ++s) config.servers.push_back(ServerId(s));
  config.domains.push_back(
      {DomainId(0), {ServerId(0), ServerId(1), ServerId(2), ServerId(3)}});
  config.domains.push_back(
      {DomainId(1), {ServerId(3), ServerId(4), ServerId(5), ServerId(6)}});
  config.domains.push_back({DomainId(2), {ServerId(3), ServerId(7)}});
  return config;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Delivery-latency samples, shared across consumer incarnations (the
// consumer server may crash and restart mid-soak; the recorder, like
// the store, survives).  A redelivered reaction whose first run did not
// commit records twice -- acceptable measurement noise, documented in
// EXPERIMENTS.md.
class LatencyRecorder {
 public:
  void Record(std::uint64_t ns) {
    std::lock_guard lock(mutex_);
    samples_.push_back(ns);
  }

  [[nodiscard]] std::vector<std::uint64_t> Snapshot() const {
    std::lock_guard lock(mutex_);
    return samples_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> samples_;
};

class ChaosConsumer final : public mom::Agent {
 public:
  ChaosConsumer(LatencyRecorder* recorder, std::atomic<std::uint64_t>* service)
      : recorder_(recorder), service_us_(service) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    if (message.payload.size() >= sizeof(std::uint64_t)) {
      std::uint64_t sent_ns = 0;
      std::memcpy(&sent_ns, message.payload.data(), sizeof(sent_ns));
      const std::uint64_t now = NowNs();
      if (now > sent_ns) recorder_->Record(now - sent_ns);
    }
    const std::uint64_t us = service_us_->load(std::memory_order_relaxed);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

 private:
  LatencyRecorder* recorder_;
  std::atomic<std::uint64_t>* service_us_;
};

double PercentileMs(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[index]) / 1e6;
}

}  // namespace

Result<SoakReport> RunChaosSoak(const ChaosSoakOptions& options) {
  SoakReport report;
  report.seed = options.seed;
  report.duration_ms = options.duration_ms;

  ScheduleOptions schedule_options;
  schedule_options.duration_ms = options.duration_ms;
  schedule_options.min_outage_ms = options.min_outage_ms;
  schedule_options.max_outage_ms = options.max_outage_ms;
  schedule_options.crash_count = options.crash_count;
  schedule_options.partition_count = options.partition_count;
  schedule_options.store_fault_count = options.store_fault_count;
  schedule_options.slow_consumer_count = options.slow_consumer_count;
  schedule_options.base_service_us = options.base_service_us;
  schedule_options.slow_service_us = options.slow_service_us;
  // Crash targets stay disjoint from store-fault targets (a restart
  // must never boot into an armed fault; see chaos/schedule.h).
  schedule_options.crashable = {ServerId(1), ServerId(5),
                                ServerId(kConsumer)};
  schedule_options.store_fault_targets = {ServerId(2), ServerId(kRouter)};
  // Cut the router away from one producer edge at a time: traffic from
  // the cut side stalls on retransmit timers until the heal.
  schedule_options.cuts.push_back(
      {{ServerId(kRouter)}, {ServerId(4), ServerId(5), ServerId(6)}});
  schedule_options.cuts.push_back(
      {{ServerId(0), ServerId(1)}, {ServerId(kRouter)}});
  const Schedule schedule = Schedule::Random(options.seed, schedule_options);

  workload::ThreadedHarnessOptions harness_options;
  // Short retransmit so healed partitions recover within the run.
  harness_options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  harness_options.fault.emplace();
  harness_options.fault->seed = options.seed + 1;
  harness_options.store_fault.emplace();
  harness_options.store_fault->seed = options.seed + 2;
  harness_options.flow.high_watermark = kHighWatermark;
  harness_options.flow.low_watermark = 16;
  harness_options.flow.initial_credit = 16;
  harness_options.flow.drr_quantum = 4;
  harness_options.flow.engine_admit_high = kHighWatermark;
  harness_options.flow.engine_admit_low = 16;
  harness_options.flow.out_admit_high = kHighWatermark;
  harness_options.flow.wait_queue_max = 64;

  std::atomic<std::uint64_t> service_us{options.base_service_us};
  LatencyRecorder recorder;

  workload::ThreadedHarness harness(OverloadConfig(),
                                    harness_options);
  CMOM_RETURN_IF_ERROR(
      harness.Init([&](ServerId id, mom::AgentServer& server) {
        if (id == ServerId(kConsumer)) {
          server.AttachAgent(
              1, std::make_unique<ChaosConsumer>(&recorder, &service_us));
        }
      }));
  CMOM_RETURN_IF_ERROR(harness.BootAll());

  // Server lifecycle (Crash/Restart rebinds the unique_ptr in the
  // harness) is exclusive against every concurrent reader: producers
  // sending, the sampler polling gauges.
  std::shared_mutex lifecycle_mutex;

  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> running{true};

  // Backlog sampler (peaks, against the credit-window bounds).
  std::atomic<std::uint64_t> consumer_peak{0};
  std::atomic<std::uint64_t> router_peak{0};
  std::thread sampler([&] {
    while (running.load(std::memory_order_relaxed)) {
      {
        std::shared_lock lock(lifecycle_mutex);
        if (mom::AgentServer* c = harness.ServerOf(ServerId(kConsumer))) {
          const auto cf = c->fence_status();
          const std::uint64_t backlog = cf.queue_in + cf.holdback + cf.inflight;
          if (backlog > consumer_peak.load()) consumer_peak.store(backlog);
        }
        if (mom::AgentServer* r = harness.ServerOf(ServerId(kRouter))) {
          const auto rf = r->fence_status();
          const auto rflow = r->flow_status();
          const std::uint64_t backlog = rf.queue_in + rf.holdback +
                                        rf.inflight + rf.queue_out +
                                        rflow.staged_forwards;
          if (backlog > router_peak.load()) router_peak.store(backlog);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Producers: offer continuously until the run ends; overdrive comes
  // back as typed kOverloaded sheds, outages as Unavailable/FailStop,
  // and the producer retries after a pause in both cases.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> sheds{0};
  std::vector<std::thread> producers;
  for (std::uint16_t p : kProducers) {
    producers.emplace_back([&, p] {
      while (running.load(std::memory_order_relaxed)) {
        const std::uint64_t sent_ns = NowNs();
        Bytes payload(sizeof(sent_ns));
        std::memcpy(payload.data(), &sent_ns, sizeof(sent_ns));
        Status status;
        {
          std::shared_lock lock(lifecycle_mutex);
          auto sent = harness.Send(ServerId(p), 2, ServerId(kConsumer), 1,
                                   "chaos", std::move(payload));
          status = sent.ok() ? Status::Ok() : sent.status();
        }
        if (status.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          if (options.producer_gap_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(options.producer_gap_us));
          }
        } else if (status.code() == StatusCode::kOverloaded) {
          sheds.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else {
          // Crashed, fail-stopped or partitioned-off server: back off
          // until the schedule brings it back.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  // Restarts a server that is down (crashed) or halted (fail-stop),
  // disarming its store faults first so Boot replays a clean store.
  auto revive = [&](ServerId id) {
    std::unique_lock lock(lifecycle_mutex);
    if (mom::FaultyStore* faulty = harness.faulty_store(id)) faulty->Disarm();
    mom::AgentServer* server = harness.ServerOf(id);
    if (server != nullptr) {
      if (server->health().ok()) return;  // running fine
      ++report.fail_stops;
      harness.Crash(id);
    }
    const Status status = harness.Restart(id);
    if (status.ok()) {
      ++report.restarts;
    } else {
      CMOM_LOG(kError) << "chaos: restart of " << to_string(id)
                       << " failed: " << status;
    }
  };

  // Fault driver: replay the schedule at its virtual timestamps.
  for (const FaultEvent& event : schedule.events()) {
    std::this_thread::sleep_until(start +
                                  std::chrono::milliseconds(event.at_ms));
    // One line per fault event keeps a CI soak log self-describing.
    std::fprintf(stderr, "chaos: t=%llums %s %s\n",
                 static_cast<unsigned long long>(event.at_ms),
                 to_string(event.kind),
                 event.partition_name.empty() ? to_string(event.target).c_str()
                                              : event.partition_name.c_str());
    switch (event.kind) {
      case FaultKind::kCrash: {
        std::unique_lock lock(lifecycle_mutex);
        if (harness.ServerOf(event.target) != nullptr) {
          harness.Crash(event.target);
          ++report.crashes;
        }
        break;
      }
      case FaultKind::kRestart:
        revive(event.target);
        break;
      case FaultKind::kPartition:
        harness.faulty_network()->Partition(event.partition_name,
                                            event.side_a, event.side_b);
        ++report.partitions;
        break;
      case FaultKind::kHeal:
        harness.faulty_network()->Heal(event.partition_name);
        ++report.heals;
        break;
      case FaultKind::kStoreFaultArm:
        harness.faulty_store(event.target)
            ->FailAfterCommits(event.fail_after_commits);
        ++report.store_faults_armed;
        break;
      case FaultKind::kStoreFaultDisarm:
        // The armed fault may or may not have fired (commit count is
        // traffic-dependent); revive() handles both.
        revive(event.target);
        break;
      case FaultKind::kSlowConsumer:
        service_us.store(event.service_us, std::memory_order_relaxed);
        if (event.service_us >= options.slow_service_us) {
          ++report.slow_consumer_phases;
        }
        break;
    }
  }
  std::this_thread::sleep_until(start +
                                std::chrono::milliseconds(options.duration_ms));
  running.store(false);
  for (auto& producer : producers) producer.join();

  // Final heal-everything phase: whatever the schedule left open is
  // closed here so the drain below can reach quiescence.
  harness.faulty_network()->HealAll();
  for (ServerId id : harness.KnownServers()) revive(id);

  harness.WaitQuiescent();
  sampler.join();

  harness.HaltAll();

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.messages_accepted = accepted.load();
  report.overload_sheds = sheds.load();
  report.frames_partitioned = harness.faulty_network()->stats().frames_partitioned;
  for (ServerId id : harness.KnownServers()) {
    if (mom::FaultyStore* faulty = harness.faulty_store(id)) {
      report.store_faults_injected += faulty->stats().faults_injected;
    }
  }

  std::vector<std::uint64_t> samples = recorder.Snapshot();
  std::sort(samples.begin(), samples.end());
  report.latency_samples = samples.size();
  report.latency_p50_ms = PercentileMs(samples, 0.50);
  report.latency_p99_ms = PercentileMs(samples, 0.99);
  report.latency_max_ms =
      samples.empty() ? 0 : static_cast<double>(samples.back()) / 1e6;

  report.peak_consumer_backlog = consumer_peak.load();
  report.peak_router_backlog = router_peak.load();
  // One credit window per uplink bounds what can pile on the router,
  // plus its own downlink window; the slack absorbs in-flight frames
  // the sampler cannot see atomically with the queues.
  report.consumer_backlog_bound = kHighWatermark + 128;
  report.router_backlog_bound =
      (std::size(kProducers) + 1) * kHighWatermark + 128;
  report.bounded_backlog =
      report.peak_consumer_backlog <= report.consumer_backlog_bound &&
      report.peak_router_backlog <= report.router_backlog_bound;

  const auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  const auto causal_report = checker.CheckCausalDelivery(trace);
  report.causal = causal_report.causal();
  if (!report.causal) {
    report.first_violation = causal_report.violations.front().description;
  }
  report.messages_sent = causal_report.messages_sent;
  report.messages_delivered = causal_report.messages_delivered;
  report.exactly_once = checker.CheckExactlyOnce(trace).ok();
  // Zero loss is judged on the durable ledger: every send that
  // committed (and therefore entered the trace) was delivered.
  report.zero_loss =
      report.exactly_once && report.messages_sent == report.messages_delivered;

  if (!options.report_path.empty()) {
    CMOM_RETURN_IF_ERROR(WriteSoakReport(options.report_path, report));
  }
  return {std::move(report)};
}

}  // namespace cmom::chaos
