// Tests for the topic-based publish/subscribe layer: fan-out, durable
// subscriptions, per-topic total order, and global causal order across
// topics on a multi-domain bus.
#include "pubsub/topic.h"

#include <gtest/gtest.h>

#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom::pubsub {
namespace {

using workload::SimHarness;
using workload::SimHarnessOptions;

SimHarnessOptions FastOptions() {
  SimHarnessOptions options;
  options.simulate_processing_costs = false;
  return options;
}

// Records the events it receives, in order.
class RecordingSubscriber final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    auto event = DecodeEvent(message);
    if (event.ok()) events_.push_back(std::move(event).value());
  }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

constexpr std::uint32_t kTopicLocal = 10;
constexpr std::uint32_t kSubLocal = 11;
constexpr std::uint32_t kPubLocal = 12;

TEST(PubSub, PayloadCodecsRoundTrip) {
  const AgentId id{ServerId(3), 7};
  EXPECT_EQ(DecodeAgentIdPayload(EncodeAgentIdPayload(id)).value(), id);
}

TEST(PubSub, FanOutToAllSubscribers) {
  // Topic on S0 (backbone router); subscribers on S1, S4, S5 across
  // two leaf domains.
  auto config = domains::topologies::Bus(2, 3);
  SimHarness harness(config, FastOptions());
  std::vector<RecordingSubscriber*> subs;
  TopicAgent* topic = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      auto agent = std::make_unique<TopicAgent>();
                      topic = agent.get();
                      server.AttachAgent(kTopicLocal, std::move(agent));
                    }
                    if (id == ServerId(1) || id == ServerId(4) ||
                        id == ServerId(5)) {
                      auto agent = std::make_unique<RecordingSubscriber>();
                      subs.push_back(agent.get());
                      server.AttachAgent(kSubLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  const AgentId topic_id{ServerId(0), kTopicLocal};
  for (ServerId sub_server : {ServerId(1), ServerId(4), ServerId(5)}) {
    ASSERT_TRUE(Subscribe(harness.server(sub_server),
                          AgentId{sub_server, kSubLocal}, topic_id)
                    .ok());
  }
  harness.Run();
  ASSERT_NE(topic, nullptr);
  EXPECT_EQ(topic->subscribers().size(), 3u);

  ASSERT_TRUE(Publish(harness.server(ServerId(1)),
                      AgentId{ServerId(1), kPubLocal}, topic_id, "tick",
                      Bytes{42})
                  .ok());
  harness.Run();
  for (RecordingSubscriber* sub : subs) {
    ASSERT_EQ(sub->events().size(), 1u);
    EXPECT_EQ(sub->events()[0].name, "tick");
    EXPECT_EQ(sub->events()[0].body, Bytes{42});
    EXPECT_EQ(sub->events()[0].publisher,
              (AgentId{ServerId(1), kPubLocal}));
  }
}

TEST(PubSub, DuplicateSubscribeIsIdempotent) {
  SimHarness harness(domains::topologies::Flat(2), FastOptions());
  TopicAgent* topic = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      auto agent = std::make_unique<TopicAgent>();
                      topic = agent.get();
                      server.AttachAgent(kTopicLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  const AgentId topic_id{ServerId(0), kTopicLocal};
  const AgentId sub{ServerId(1), kSubLocal};
  ASSERT_TRUE(Subscribe(harness.server(ServerId(1)), sub, topic_id).ok());
  ASSERT_TRUE(Subscribe(harness.server(ServerId(1)), sub, topic_id).ok());
  harness.Run();
  EXPECT_EQ(topic->subscribers().size(), 1u);
}

TEST(PubSub, UnsubscribeStopsDelivery) {
  SimHarness harness(domains::topologies::Flat(2), FastOptions());
  TopicAgent* topic = nullptr;
  RecordingSubscriber* sub = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      auto agent = std::make_unique<TopicAgent>();
                      topic = agent.get();
                      server.AttachAgent(kTopicLocal, std::move(agent));
                    } else {
                      auto agent = std::make_unique<RecordingSubscriber>();
                      sub = agent.get();
                      server.AttachAgent(kSubLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  const AgentId topic_id{ServerId(0), kTopicLocal};
  const AgentId sub_id{ServerId(1), kSubLocal};
  ASSERT_TRUE(Subscribe(harness.server(ServerId(1)), sub_id, topic_id).ok());
  harness.Run();
  ASSERT_TRUE(Publish(harness.server(ServerId(0)),
                      AgentId{ServerId(0), kPubLocal}, topic_id, "one")
                  .ok());
  harness.Run();
  ASSERT_TRUE(
      Unsubscribe(harness.server(ServerId(1)), sub_id, topic_id).ok());
  harness.Run();
  ASSERT_TRUE(Publish(harness.server(ServerId(0)),
                      AgentId{ServerId(0), kPubLocal}, topic_id, "two")
                  .ok());
  harness.Run();
  ASSERT_EQ(sub->events().size(), 1u);
  EXPECT_EQ(sub->events()[0].name, "one");
  EXPECT_TRUE(topic->subscribers().empty());
}

TEST(PubSub, PerTopicTotalOrderAcrossPublishers) {
  // Two publishers race; every subscriber must see the same order.
  auto config = domains::topologies::Bus(2, 3);
  SimHarness harness(config, FastOptions());
  std::vector<RecordingSubscriber*> subs;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      server.AttachAgent(kTopicLocal,
                                         std::make_unique<TopicAgent>());
                    }
                    if (id == ServerId(2) || id == ServerId(5)) {
                      auto agent = std::make_unique<RecordingSubscriber>();
                      subs.push_back(agent.get());
                      server.AttachAgent(kSubLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  const AgentId topic_id{ServerId(0), kTopicLocal};
  for (ServerId sub_server : {ServerId(2), ServerId(5)}) {
    ASSERT_TRUE(Subscribe(harness.server(sub_server),
                          AgentId{sub_server, kSubLocal}, topic_id)
                    .ok());
  }
  harness.Run();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Publish(harness.server(ServerId(1)),
                        AgentId{ServerId(1), kPubLocal}, topic_id,
                        std::string("a").append(std::to_string(i)))
                    .ok());
    ASSERT_TRUE(Publish(harness.server(ServerId(4)),
                        AgentId{ServerId(4), kPubLocal}, topic_id,
                        std::string("b").append(std::to_string(i)))
                    .ok());
  }
  harness.Run();
  ASSERT_EQ(subs.size(), 2u);
  ASSERT_EQ(subs[0]->events().size(), 10u);
  ASSERT_EQ(subs[1]->events().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(subs[0]->events()[i].name, subs[1]->events()[i].name)
        << "diverged at " << i;
  }
}

// An agent that, on a "go" message, subscribes to a topic and then
// publishes from inside reactions -- the in-reaction helper variants.
class ReactivePublisher final : public mom::Agent {
 public:
  explicit ReactivePublisher(AgentId topic) : topic_(topic) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    if (message.subject == "go") {
      SubscribeFrom(ctx, topic_);
      PublishFrom(ctx, topic_, "from-reaction", Bytes{7});
      return;
    }
    auto event = DecodeEvent(message);
    if (event.ok()) ++events_;
  }
  [[nodiscard]] std::size_t events() const { return events_; }

 private:
  AgentId topic_;
  std::size_t events_ = 0;
};

TEST(PubSub, InReactionSubscribeAndPublish) {
  SimHarness harness(domains::topologies::Flat(2), FastOptions());
  ReactivePublisher* publisher = nullptr;
  const AgentId topic_id{ServerId(0), kTopicLocal};
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      server.AttachAgent(kTopicLocal,
                                         std::make_unique<TopicAgent>());
                    } else {
                      auto agent =
                          std::make_unique<ReactivePublisher>(topic_id);
                      publisher = agent.get();
                      server.AttachAgent(kSubLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  ASSERT_TRUE(harness.Send(ServerId(1), kSubLocal, ServerId(1), kSubLocal,
                           "go")
                  .ok());
  harness.Run();
  // The subscribe and the publish left the same reaction atomically and
  // in order, so the publisher received its own event.
  ASSERT_NE(publisher, nullptr);
  EXPECT_EQ(publisher->events(), 1u);
}

TEST(PubSub, SubscriberListSurvivesTopicCrash) {
  SimHarness harness(domains::topologies::Flat(2), FastOptions());
  RecordingSubscriber* sub = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      server.AttachAgent(kTopicLocal,
                                         std::make_unique<TopicAgent>());
                    } else {
                      auto agent = std::make_unique<RecordingSubscriber>();
                      sub = agent.get();
                      server.AttachAgent(kSubLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());
  const AgentId topic_id{ServerId(0), kTopicLocal};
  ASSERT_TRUE(Subscribe(harness.server(ServerId(1)),
                        AgentId{ServerId(1), kSubLocal}, topic_id)
                  .ok());
  harness.Run();

  harness.Crash(ServerId(0));
  ASSERT_TRUE(harness.Restart(ServerId(0)).ok());
  harness.Run();

  ASSERT_TRUE(Publish(harness.server(ServerId(0)),
                      AgentId{ServerId(0), kPubLocal}, topic_id,
                      "after-crash")
                  .ok());
  harness.Run();
  ASSERT_NE(sub, nullptr);
  ASSERT_EQ(sub->events().size(), 1u);
  EXPECT_EQ(sub->events()[0].name, "after-crash");
}

}  // namespace
}  // namespace cmom::pubsub
