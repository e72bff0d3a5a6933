// Integration of the full MOM with the real on-disk FileStore: servers
// run over the simulated network but persist to actual WAL+snapshot
// files, crash (process state discarded), and recover from disk.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>

#include "causality/checker.h"
#include "clocks/causal_core.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/file_store.h"
#include "net/sim_network.h"
#include "workload/agents.h"

namespace cmom {
namespace {

namespace fs = std::filesystem;

// The matrix of `server`'s clock for deployment domain `index`, if the
// server is a member of that domain.
std::optional<clocks::MatrixClock> MatrixOf(const mom::AgentServer& server,
                                            std::size_t index) {
  auto core = server.CoreSnapshot(index);
  if (!core.has_value()) return std::nullopt;
  return core->matrix();
}

class FileStoreMomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cmom_mom_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FileStoreMomTest, DeliveryAndRecoveryFromRealFiles) {
  auto config = domains::topologies::Flat(2);
  auto deployment = domains::Deployment::Create(config).value();

  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  causality::TraceRecorder trace;

  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  auto store0 = mom::FileStore::Open(dir_ / "s0").value();
  auto store1 = mom::FileStore::Open(dir_ / "s1").value();

  mom::AgentServerOptions options;
  options.trace = &trace;
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;

  workload::EchoAgent* echo = nullptr;
  auto server0 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(0), endpoint0.get(), &runtime, store0.get(),
      options);
  auto server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, store1.get(),
      options);
  {
    auto agent = std::make_unique<workload::EchoAgent>();
    echo = agent.get();
    server1->AttachAgent(1, std::move(agent));
  }
  ASSERT_TRUE(server0->Boot().ok());
  ASSERT_TRUE(server1->Boot().ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server0
                    ->SendMessage(AgentId{ServerId(0), 7},
                                  AgentId{ServerId(1), 1}, workload::kPing)
                    .ok());
  }
  simulator.RunToCompletion();
  EXPECT_EQ(echo->pings_seen(), 5u);
  EXPECT_TRUE(fs::exists(dir_ / "s1" / "wal.log"));

  // Crash server 1 (drop the object AND the store handle), then
  // recover both from the files on disk.
  server1->Shutdown();
  server1.reset();
  store1.reset();

  // A message sent while S1 is down is retransmitted after recovery.
  ASSERT_TRUE(server0
                  ->SendMessage(AgentId{ServerId(0), 7},
                                AgentId{ServerId(1), 1}, workload::kPing)
                  .ok());
  simulator.RunUntil(simulator.now() + 50ull * 1000 * 1000);
  EXPECT_EQ(server0->queue_out_size(), 1u);

  store1 = mom::FileStore::Open(dir_ / "s1").value();
  server1 = std::make_unique<mom::AgentServer>(
      deployment, ServerId(1), endpoint1.get(), &runtime, store1.get(),
      options);
  {
    auto agent = std::make_unique<workload::EchoAgent>();
    echo = agent.get();
    server1->AttachAgent(1, std::move(agent));
  }
  ASSERT_TRUE(server1->Boot().ok());
  EXPECT_EQ(echo->pings_seen(), 5u);  // counter restored from disk

  simulator.RunToCompletion();
  EXPECT_EQ(echo->pings_seen(), 6u);
  EXPECT_EQ(server0->queue_out_size(), 0u);

  causality::CausalityChecker checker({ServerId(0), ServerId(1)});
  const auto snapshot = trace.Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(snapshot).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(snapshot).ok());
  server0->Shutdown();
  server1->Shutdown();
}

TEST_F(FileStoreMomTest, ClockStateSurvivesOnDisk) {
  auto config = domains::topologies::Flat(2);
  auto deployment = domains::Deployment::Create(config).value();

  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});

  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();

  std::uint64_t sends_before = 0;
  {
    auto store0 = mom::FileStore::Open(dir_ / "s0").value();
    auto store1 = mom::FileStore::Open(dir_ / "s1").value();
    mom::AgentServer server0(deployment, ServerId(0), endpoint0.get(),
                             &runtime, store0.get());
    mom::AgentServer server1(deployment, ServerId(1), endpoint1.get(),
                             &runtime, store1.get());
    ASSERT_TRUE(server0.Boot().ok());
    ASSERT_TRUE(server1.Boot().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(server0
                      .SendMessage(AgentId{ServerId(0), 1},
                                   AgentId{ServerId(1), 1}, "m")
                      .ok());
    }
    simulator.RunToCompletion();
    const auto clock = MatrixOf(server0, 0);
    ASSERT_TRUE(clock.has_value());
    sends_before = clock->at(DomainServerId(0), DomainServerId(1));
    EXPECT_EQ(sends_before, 3u);
    server0.Shutdown();
    server1.Shutdown();
  }
  // Reopen both from disk: the matrix clock continues where it was.
  auto store0 = mom::FileStore::Open(dir_ / "s0").value();
  auto store1 = mom::FileStore::Open(dir_ / "s1").value();
  mom::AgentServer server0(deployment, ServerId(0), endpoint0.get(),
                           &runtime, store0.get());
  mom::AgentServer server1(deployment, ServerId(1), endpoint1.get(),
                           &runtime, store1.get());
  ASSERT_TRUE(server0.Boot().ok());
  ASSERT_TRUE(server1.Boot().ok());
  const auto clock = MatrixOf(server0, 0);
  ASSERT_TRUE(clock.has_value());
  EXPECT_EQ(clock->at(DomainServerId(0), DomainServerId(1)), sends_before);
  ASSERT_TRUE(server0
                  .SendMessage(AgentId{ServerId(0), 1},
                               AgentId{ServerId(1), 1}, "m")
                  .ok());
  simulator.RunToCompletion();
  EXPECT_EQ(MatrixOf(server0, 0)->at(DomainServerId(0), DomainServerId(1)),
            sends_before + 1);
  server0.Shutdown();
  server1.Shutdown();
}

}  // namespace
}  // namespace cmom
