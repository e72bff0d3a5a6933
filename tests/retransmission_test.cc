// QueueOUT retransmission: one runtime timer per server serves every
// emitted frame, and each unacknowledged entry is re-sent exactly at
// its emission time + retransmit_timeout_ns << min(attempts, 6).
#include <gtest/gtest.h>

#include <initializer_list>

#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "net/sim_network.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

// Forwards to a wrapped runtime and counts After calls.
class CountingRuntime final : public net::Runtime {
 public:
  explicit CountingRuntime(net::Runtime& inner) : inner_(inner) {}

  std::uint64_t NowNs() override { return inner_.NowNs(); }
  void After(std::uint64_t delay_ns, std::function<void()> fn) override {
    ++after_calls_;
    inner_.After(delay_ns, std::move(fn));
  }

  [[nodiscard]] std::uint64_t after_calls() const { return after_calls_; }

 private:
  net::Runtime& inner_;
  std::uint64_t after_calls_ = 0;
};

TEST(Retransmission, TimerCountDoesNotGrowWithMessageCount) {
  auto config = domains::topologies::Flat(2);
  auto deployment = domains::Deployment::Create(config).value();

  sim::Simulator simulator;
  net::SimRuntime sim_runtime(simulator);
  CountingRuntime runtime(sim_runtime);
  net::SimNetwork network(simulator, net::CostModel{});
  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store0;
  mom::InMemoryStore store1;

  mom::AgentServer server0(deployment, ServerId(0), endpoint0.get(), &runtime,
                           &store0);
  mom::AgentServer server1(deployment, ServerId(1), endpoint1.get(), &runtime,
                           &store1);
  auto agent = std::make_unique<workload::SinkAgent>();
  workload::SinkAgent* sink = agent.get();
  server1.AttachAgent(1, std::move(agent));
  ASSERT_TRUE(server0.Boot().ok());
  ASSERT_TRUE(server1.Boot().ok());

  // Ten bursts of 100, 100 ms apart: the run spans two retransmission
  // timeouts (500 ms) with frames in flight across both.
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(server0
                      .SendMessage(AgentId{ServerId(0), 1},
                                   AgentId{ServerId(1), 1}, "m")
                      .ok());
    }
    simulator.RunUntil(simulator.now() + 100 * sim::kMillisecond);
  }
  simulator.RunToCompletion();

  EXPECT_EQ(sink->received(), 1000u);
  EXPECT_EQ(server0.queue_out_size(), 0u);
  EXPECT_EQ(server0.stats().retransmissions, 0u);
  EXPECT_LE(runtime.after_calls(), 10u);
  server0.Shutdown();
  server1.Shutdown();
}

class BlackHoleRetransmission : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SimHarnessOptions options;
    options.simulate_processing_costs = false;
    options.fault_model.drop_probability = 1.0;  // black hole
    options.retransmit_timeout_ns = 10 * sim::kMillisecond;
    harness_ = std::make_unique<workload::SimHarness>(
        domains::topologies::Flat(2), options);
    ASSERT_TRUE(harness_->Init().ok());
    ASSERT_TRUE(harness_->BootAll().ok());
  }

  void Send() {
    ASSERT_TRUE(
        harness_->Send(ServerId(0), 1, ServerId(1), 1, "void").ok());
  }

  [[nodiscard]] std::uint64_t retransmissions() {
    return harness_->server(ServerId(0)).stats().retransmissions;
  }

  // Requires the sender's retransmission count to rise by exactly one
  // at each listed instant (ms) and at no other.
  void ExpectStepsAt(std::initializer_list<std::uint64_t> steps_ms) {
    std::uint64_t count = retransmissions();
    for (std::uint64_t ms : steps_ms) {
      harness_->RunUntil(ms * sim::kMillisecond - 1);
      EXPECT_EQ(retransmissions(), count) << "just before " << ms << " ms";
      harness_->RunUntil(ms * sim::kMillisecond);
      EXPECT_EQ(retransmissions(), ++count) << "at " << ms << " ms";
    }
  }

  std::unique_ptr<workload::SimHarness> harness_;
};

TEST_F(BlackHoleRetransmission, BackoffDoublesToSixtyFourTimesTheTimeout) {
  Send();  // emitted at t = 0
  // Gaps 10, 20, 40, ..., 640 ms, then held at 64x the 10 ms timeout.
  ExpectStepsAt({10, 30, 70, 150, 310, 630, 1270, 1910, 2550});
  EXPECT_EQ(harness_->server(ServerId(0)).queue_out_size(), 1u);
}

TEST_F(BlackHoleRetransmission, NewEmissionKeepsItsOwnScheduleDuringBackoff) {
  Send();  // m1 at t = 0
  ExpectStepsAt({10, 30, 70});
  // m1 is next due at 150 ms; m2, emitted at 75 ms, must not wait for
  // it: its own chain runs at 85, 105, 145, 225, 385 ms.
  harness_->RunUntil(75 * sim::kMillisecond);
  Send();
  ExpectStepsAt({85, 105, 145, 150, 225, 310, 385});
  EXPECT_EQ(harness_->server(ServerId(0)).queue_out_size(), 2u);
}

}  // namespace
}  // namespace cmom
