#include "pubsub/queue.h"

#include <algorithm>

#include "common/log.h"
#include "pubsub/topic.h"  // shared agent-id payload codecs

namespace cmom::pubsub {

namespace {

// Task payload in flight to a consumer: name, body, producer -- the
// same wire shape topic.h uses for events.
Bytes EncodeTaskPayload(const std::string& name, const Bytes& body,
                        AgentId producer) {
  ByteWriter out;
  out.WriteString(name);
  out.WriteBytes(body);
  out.WriteU16(producer.server.value());
  out.WriteVarU32(producer.local);
  return std::move(out).Take();
}

}  // namespace

void QueueAgent::Dispatch(mom::ReactionContext& ctx,
                          const Bytes& task_payload) {
  const AgentId consumer = consumers_[next_consumer_ % consumers_.size()];
  next_consumer_ = (next_consumer_ + 1) % consumers_.size();
  ++dispatched_;
  ctx.Send(consumer, kQueueTask, task_payload);
}

void QueueAgent::React(mom::ReactionContext& ctx,
                       const mom::Message& message) {
  if (message.subject == kQueueListen) {
    auto consumer = DecodeAgentIdPayload(message.payload);
    if (!consumer.ok()) return;
    if (std::find(consumers_.begin(), consumers_.end(), consumer.value()) ==
        consumers_.end()) {
      consumers_.push_back(consumer.value());
      // A newly available consumer drains the buffered backlog.
      while (!buffered_.empty()) {
        Dispatch(ctx, buffered_.front());
        buffered_.pop_front();
      }
    }
    return;
  }
  if (message.subject == kQueueIgnore) {
    auto consumer = DecodeAgentIdPayload(message.payload);
    if (!consumer.ok()) return;
    const auto before = consumers_.size();
    consumers_.erase(std::remove(consumers_.begin(), consumers_.end(),
                                 consumer.value()),
                     consumers_.end());
    if (before != 0 && next_consumer_ >= consumers_.size()) {
      next_consumer_ = 0;
    }
    return;
  }
  if (message.subject == kQueuePut) {
    ByteReader in(message.payload);
    auto name = in.ReadString();
    auto body = in.ReadBytes();
    if (!name.ok() || !body.ok()) {
      CMOM_LOG(kWarning) << "bad queue.put payload at " << ctx.self();
      return;
    }
    const Bytes task =
        EncodeTaskPayload(name.value(), body.value(), message.from);
    if (consumers_.empty()) {
      if (max_depth_ != 0 && buffered_.size() >= max_depth_) {
        ++dead_lettered_;
        ctx.DeadLetter("queue depth limit", message);
        return;
      }
      buffered_.push_back(task);
    } else {
      Dispatch(ctx, task);
    }
    return;
  }
  CMOM_LOG(kWarning) << "queue " << ctx.self() << ": unknown subject '"
                     << message.subject << "'";
}

void QueueAgent::EncodeState(ByteWriter& out) const {
  out.WriteVarU64(consumers_.size());
  for (AgentId consumer : consumers_) {
    out.WriteU16(consumer.server.value());
    out.WriteVarU32(consumer.local);
  }
  out.WriteVarU64(buffered_.size());
  for (const Bytes& task : buffered_) out.WriteBytes(task);
  out.WriteVarU64(next_consumer_);
  out.WriteVarU64(dispatched_);
  out.WriteVarU64(dead_lettered_);
}

Status QueueAgent::DecodeState(ByteReader& in) {
  auto consumer_count = in.ReadVarU64();
  if (!consumer_count.ok()) return consumer_count.status();
  consumers_.clear();
  for (std::uint64_t i = 0; i < consumer_count.value(); ++i) {
    auto server = in.ReadU16();
    if (!server.ok()) return server.status();
    auto local = in.ReadVarU32();
    if (!local.ok()) return local.status();
    consumers_.push_back(AgentId{ServerId(server.value()), local.value()});
  }
  auto buffered_count = in.ReadVarU64();
  if (!buffered_count.ok()) return buffered_count.status();
  buffered_.clear();
  for (std::uint64_t i = 0; i < buffered_count.value(); ++i) {
    auto task = in.ReadBytes();
    if (!task.ok()) return task.status();
    buffered_.push_back(std::move(task).value());
  }
  auto next = in.ReadVarU64();
  if (!next.ok()) return next.status();
  next_consumer_ = static_cast<std::size_t>(next.value());
  auto dispatched = in.ReadVarU64();
  if (!dispatched.ok()) return dispatched.status();
  dispatched_ = dispatched.value();
  auto dead = in.ReadVarU64();
  if (!dead.ok()) return dead.status();
  dead_lettered_ = dead.value();
  return Status::Ok();
}

Result<MessageId> Put(mom::AgentServer& server, AgentId producer,
                      AgentId queue, std::string task_name, Bytes body) {
  return server.SendMessage(producer, queue, kQueuePut,
                            EncodePublishPayload(task_name, body));
}

Result<MessageId> Listen(mom::AgentServer& server, AgentId consumer,
                         AgentId queue) {
  return server.SendMessage(consumer, queue, kQueueListen,
                            EncodeAgentIdPayload(consumer));
}

Result<MessageId> Ignore(mom::AgentServer& server, AgentId consumer,
                         AgentId queue) {
  return server.SendMessage(consumer, queue, kQueueIgnore,
                            EncodeAgentIdPayload(consumer));
}

Result<Task> DecodeTask(const mom::Message& message) {
  if (message.subject != kQueueTask) {
    return Status::InvalidArgument("not a queue task");
  }
  ByteReader in(message.payload);
  auto name = in.ReadString();
  if (!name.ok()) return name.status();
  auto body = in.ReadBytes();
  if (!body.ok()) return body.status();
  auto server = in.ReadU16();
  if (!server.ok()) return server.status();
  auto local = in.ReadVarU32();
  if (!local.ok()) return local.status();
  Task task;
  task.name = std::move(name).value();
  task.body = std::move(body).value();
  task.producer = AgentId{ServerId(server.value()), local.value()};
  return task;
}

}  // namespace cmom::pubsub
