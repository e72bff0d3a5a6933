#include "mom/agent_server.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <utility>

#include "common/buffer_pool.h"
#include "common/log.h"
#include "flow/admission.h"
#include "flow/dead_letter.h"
#include "mom/store_schema.h"
#include "net/reactor.h"

namespace cmom::mom {

namespace {
// Most inbox frames one Channel work item processes (one commit, acks
// coalesced per peer), and most QueueIN messages one Engine work item
// reacts to (one commit).
constexpr std::size_t kChannelBatch = 16;
constexpr std::size_t kEngineBatch = 16;
}  // namespace

// Buffers the sends an agent makes during React; they are committed
// atomically with the reaction by the Engine.
class ReactionContextImpl final : public ReactionContext {
 public:
  ReactionContextImpl(AgentServer* server, net::Runtime* runtime, AgentId self,
                      std::vector<Message>* sends,
                      std::function<Message(AgentId, AgentId, std::string,
                                            Bytes)>
                          make_message,
                      std::function<void(std::string, const Message&)>
                          dead_letter)
      : server_(server),
        runtime_(runtime),
        self_(self),
        sends_(sends),
        make_message_(std::move(make_message)),
        dead_letter_(std::move(dead_letter)) {
    (void)server_;
  }

  [[nodiscard]] AgentId self() const override { return self_; }

  void Send(AgentId to, std::string subject, Bytes payload) override {
    sends_->push_back(
        make_message_(self_, to, std::move(subject), std::move(payload)));
  }

  [[nodiscard]] std::uint64_t NowNs() const override {
    return runtime_->NowNs();
  }

  void DeadLetter(std::string reason, const Message& original) override {
    dead_letter_(std::move(reason), original);
  }

 private:
  AgentServer* server_;
  net::Runtime* runtime_;
  AgentId self_;
  std::vector<Message>* sends_;
  std::function<Message(AgentId, AgentId, std::string, Bytes)> make_message_;
  std::function<void(std::string, const Message&)> dead_letter_;
};

AgentServer::AgentServer(const domains::Deployment& deployment, ServerId self,
                         net::Endpoint* endpoint, net::Runtime* runtime,
                         Store* store, AgentServerOptions options)
    : deployment_(&deployment),
      self_(self),
      endpoint_(endpoint),
      runtime_(runtime),
      store_(store),
      options_(options),
      forward_stage_(options.flow.drr_quantum) {
  assert(endpoint_->self() == self_);
}

AgentServer::~AgentServer() { Halt(); }

void AgentServer::Halt() {
  Shutdown();
  // Bar pending runtime callbacks (and wait out any mid-flight one,
  // including a retransmission currently handing frames to the
  // endpoint) before the members they reference go away.
  std::lock_guard hold(life_->mutex);
  life_->alive = false;
}

void AgentServer::Shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) return;  // a caller may destroy the endpoint after
    shutdown_ = true;       // an explicit Halt; don't touch it again
  }
  // Drop frames arriving after shutdown; the durable state in the
  // store is what the next Boot resumes from.  Timer callbacks keep
  // firing until destruction but become no-ops via the shutdown_ check
  // in Post.  The swap must happen OUTSIDE mutex_: it blocks until any
  // in-flight dispatch of the old handler has returned (that dispatch
  // may itself be waiting on mutex_ to observe shutdown_), and once it
  // comes back no transport thread can reach this object again --
  // which is what lets ~AgentServer free it mid-run (server crash).
  endpoint_->SetReceiveHandler([](ServerId, Bytes) {});
}

AgentId AgentServer::AttachAgent(std::uint32_t local_id,
                                 std::unique_ptr<Agent> agent) {
  std::lock_guard lock(mutex_);
  assert(!booted_ && "attach agents before Boot()");
  const AgentId id{self_, local_id};
  auto [it, inserted] = agents_.try_emplace(local_id, std::move(agent));
  (void)it;
  assert(inserted && "duplicate agent local id");
  return id;
}

Status AgentServer::Boot() {
  {
    std::unique_lock lock(mutex_);
    if (booted_) return Status::FailedPrecondition("already booted");

    // A store the control plane has stamped must agree with the epoch
    // we were constructed for: booting epoch-E clocks under an epoch-F
    // deployment would reinterpret matrix coordinates.  Checked before
    // recovery reads (or writes) anything.  Stores from before the
    // control plane (no record) pass vacuously.
    if (auto record = store_->Get(kEpochCurrentKey)) {
      ByteReader in(*record);
      auto stored = in.ReadVarU64();
      if (!stored.ok()) return stored.status();
      if (stored.value() != options_.epoch) {
        return Status::FailedPrecondition(
            "store is at epoch " + std::to_string(stored.value()) +
            " but server boots at epoch " + std::to_string(options_.epoch));
      }
    }

    // Build one DomainItem per domain membership (fresh clocks); the
    // recovery below overwrites them from the durable image if any.
    for (std::size_t index : deployment_->DomainIndicesOf(self_)) {
      const domains::ResolvedDomain& domain = deployment_->domain(index);
      auto local = domain.LocalId(self_);
      assert(local.has_value());
      items_.emplace_back(index, domain.id,
                          clocks::MatrixClockCore(
                              *local, domain.size(),
                              deployment_->config().stamp_mode));
    }

    CMOM_RETURN_IF_ERROR(RecoverLocked());

    // Seed the dead-letter sequence past every record already on disk
    // (dlq/ records are append-only and survive across boots).
    for (const std::string& key : store_->Keys(flow::kDeadLetterKeyPrefix)) {
      std::uint64_t seq = 0;
      if (flow::ParseDeadLetterKey(key, seq)) {
        next_dlq_seq_ = std::max(next_dlq_seq_, seq + 1);
      }
    }

    booted_ = true;
  }

  endpoint_->SetReceiveHandler(
      [this](ServerId from, Bytes frame) {
        HandleFrame(from, std::move(frame));
      });

  // Resume pending work: retransmit every unacknowledged entry and
  // continue draining QueueIN.
  Post([this]() -> std::size_t {
    for (OutEntry& entry : queue_out_) {
      EmitOutEntry(entry);
      // Each resume emission is a first emission under THIS
      // incarnation's numbering: the peer observed the new incarnation
      // and restarted its accepted count, so every frame it accepts
      // here must be matched by an admission on our side.  Skipping
      // this would leave `accepted` permanently ahead of `admitted` --
      // a window that never closes, which under sustained load turns
      // a restart into an unbounded flood past the peer's watermarks.
      if (options_.flow.enabled) SenderLink(entry.next_hop).Admit();
    }
    if (!queue_in_.empty()) engine_step_needed_ = true;
    // Forwards staged by the DRR scheduler before the crash resume
    // draining (their fwd/ records were recovered above).
    if (!forward_stage_.empty() && !forward_step_queued_) {
      forward_step_queued_ = true;
      work_queue_.push_back([this] { return ForwardStep(); });
    }
    return 0;
  });
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Work serialization
// ---------------------------------------------------------------------

void AgentServer::Post(Work work) {
  std::unique_lock lock(mutex_);
  if (shutdown_) return;
  work_queue_.push_back(std::move(work));
  PumpLocked();
}

// Runs queued work items.  Caller holds mutex_ via the member lock
// discipline: this function may temporarily release it to emit frames.
void AgentServer::PumpLocked() {
  if (work_running_) return;
  work_running_ = true;
  while (!work_queue_.empty()) {
    Work work = std::move(work_queue_.front());
    work_queue_.pop_front();
    txn_bytes_marker_ = 0;
    const std::size_t entries = work();

    if (options_.cost_model != nullptr &&
        (entries > 0 || txn_bytes_marker_ > 0)) {
      // Simulated processing time: outputs become visible after the
      // modeled cost; the server stays busy (work_running_) meanwhile.
      const std::uint64_t cost = options_.cost_model->ProcessingCost(
          entries, txn_bytes_marker_);
      runtime_->After(cost, [this, life = life_] {
        std::lock_guard hold(life->mutex);
        if (!life->alive) return;
        std::vector<std::pair<ServerId, Bytes>> frames;
        {
          std::lock_guard relock(mutex_);
          frames.swap(pending_frames_);
          if (engine_step_needed_ && !engine_step_queued_) {
            engine_step_queued_ = true;
            work_queue_.push_back([this] { return EngineStep(); });
          }
          engine_step_needed_ = false;
        }
        FlushFrames(std::move(frames));
        std::unique_lock relock(mutex_);
        work_running_ = false;
        PumpLocked();
      });
      return;  // resumed by the continuation above
    }

    // Inline mode (or zero-cost work): flush outputs now.
    std::vector<std::pair<ServerId, Bytes>> frames;
    frames.swap(pending_frames_);
    if (engine_step_needed_ && !engine_step_queued_) {
      engine_step_queued_ = true;
      work_queue_.push_back([this] { return EngineStep(); });
    }
    engine_step_needed_ = false;
    if (!frames.empty()) {
      mutex_.unlock();
      FlushFrames(std::move(frames));
      mutex_.lock();
    }
  }
  work_running_ = false;
}

// Hands staged frames to the transport.  A refusal (supervised outbox
// overflow, unreachable peer) is not an error for the protocol: the
// message stays in QueueOUT and its retransmission timer re-emits it
// with the original stamp, so delivery converges once the transport
// recovers.  Called without mutex_ held.
void AgentServer::FlushFrames(std::vector<std::pair<ServerId, Bytes>> frames) {
  for (auto& [to, bytes] : frames) {
    Status status = endpoint_->Send(to, std::move(bytes));
    if (!status.ok()) {
      {
        std::lock_guard lock(mutex_);
        ++stats_.transport_send_failures;
        if (status.code() == StatusCode::kOverloaded) {
          ++stats_.transport_overloads;
        }
      }
      CMOM_LOG(kWarning) << to_string(self_) << ": transport refused frame to "
                         << to_string(to) << " (" << status
                         << "); relying on retransmission";
    }
  }
}

// ---------------------------------------------------------------------
// Channel: receive path
// ---------------------------------------------------------------------

void AgentServer::HandleFrame(ServerId from, Bytes frame) {
  // Decode on the transport thread, before the server lock.  Frame
  // parsing (ids, stamp entries, payload copy) is the Channel's largest
  // per-frame constant factor; doing it here runs decodes from
  // different peers concurrently and keeps them off the engine's
  // serialized drain.  Per-peer FIFO is preserved because each peer's
  // frames arrive on one transport thread.
  DecodedFrame decoded;
  decoded.from = from;
  auto type = PeekFrameType(frame);
  if (!type.ok()) {
    CMOM_LOG(kWarning) << "bad frame from " << to_string(from) << ": "
                       << type.status();
    return;
  }
  decoded.type = type.value();
  if (decoded.type == FrameType::kAck) {
    auto ack = DeserializeAck(frame);
    if (!ack.ok()) {
      CMOM_LOG(kWarning) << "bad ack: " << ack.status();
      return;
    }
    decoded.ack = std::move(ack).value();
  } else {
    auto data = DataFrame::Deserialize(frame);
    if (!data.ok()) {
      CMOM_LOG(kWarning) << "bad data frame: " << data.status();
      return;
    }
    decoded.data = std::move(data).value();
  }
  // The wire buffer is dead after the decode; recycle it into this
  // transport thread's freelist, where the ack serializer draws from.
  BufferPool::Release(std::move(frame));
  std::unique_lock lock(mutex_);
  if (shutdown_ || !halt_status_.ok()) return;
  inbox_.push_back(std::move(decoded));
  if (inbox_drain_queued_) return;
  inbox_drain_queued_ = true;
  work_queue_.push_back([this] { return DrainInbox(); });
  // On a reactor thread the drain waits for the end of the epoll round,
  // so every frame the round brings joins one batch: one commit and one
  // ack frame per peer.  Everywhere else (simulated and in-process
  // transports) it runs now.
  const bool deferred = net::Reactor::DeferToRoundEnd([this, life = life_] {
    std::lock_guard hold(life->mutex);
    if (!life->alive) return;
    std::unique_lock relock(mutex_);
    if (!shutdown_) PumpLocked();
  });
  if (!deferred) PumpLocked();
}

// One Channel transaction: processes up to kChannelBatch inbox frames,
// commits everything they changed in one store transaction, then sends
// one coalesced ack frame per peer.  Under load the per-message commit
// (and ack frame) count drops toward 1/batch; when frames trickle in
// one at a time this degenerates to the classical one-commit-per-frame
// protocol.
std::size_t AgentServer::DrainInbox() {
  inbox_drain_queued_ = false;
  commit_needed_ = false;
  std::size_t entries = 0;
  std::size_t processed = 0;
  while (!inbox_.empty() && processed < kChannelBatch) {
    DecodedFrame frame = std::move(inbox_.front());
    inbox_.pop_front();
    ++processed;
    if (frame.type == FrameType::kAck) {
      entries += ProcessAck(frame.from, frame.ack);
    } else {
      entries += ProcessDataFrame(frame.from, std::move(frame.data));
    }
  }
  stats_.channel_batch_hist.Record(processed);
  if (commit_needed_) {
    // A failure here fail-stops the server; the guards below make the
    // ack flush and the requeue inert, so nothing un-durable leaves.
    (void)CommitLocked();
    commit_needed_ = false;
  }
  // Acks only leave after the batch is durable (commit-then-ack).
  if (options_.ack_coalesce_ns == 0) {
    FlushStagedAcks();
  } else {
    MaybeCoalesceAcksLocked();
  }
  if (!inbox_.empty() && !inbox_drain_queued_) {
    inbox_drain_queued_ = true;
    work_queue_.push_back([this] { return DrainInbox(); });
  }
  // Acks may have drained QueueOUT below the watermarks: re-open both
  // the admission valve and the credit windows we advertise upstream
  // (QueueOUT counts toward the receiver backlog, so on a router this
  // is the moment end-to-end backpressure releases).
  MaybeReplenishCredits();
  MaybeScheduleWaitDrainLocked();
  return entries;
}

std::size_t AgentServer::ProcessDataFrame(ServerId from, DataFrame frame) {
  ++stats_.frames_received;
  if (frame.epoch != options_.epoch) {
    // A straggler from across a reconfiguration cutover: its stamp is
    // in another epoch's coordinate system.  Dropped WITHOUT an ack, so
    // the sender -- once itself moved to our epoch, or recovered back
    // to its own -- retransmits under matching coordinates.
    ++stats_.epoch_fenced_frames;
    return 0;
  }
  DomainItem* item = FindItemByDomainId(frame.domain);
  if (item == nullptr) {
    CMOM_LOG(kError) << to_string(self_) << ": frame in foreign domain "
                     << to_string(frame.domain);
    return 0;
  }
  const domains::ResolvedDomain& domain =
      deployment_->domain(item->deployment_index);
  auto src_local = domain.LocalId(from);
  if (!src_local) {
    CMOM_LOG(kError) << to_string(self_) << ": sender " << to_string(from)
                     << " not in " << to_string(frame.domain);
    return 0;
  }
  const clocks::CheckResult verdict =
      item->core.CheckReceive(*src_local, frame.stamp);
  if (verdict == clocks::CheckResult::kMalformed) {
    // The stamp names a member outside the domain or lacks the sender's
    // own counter: a corrupt or hostile peer, not a retransmission to
    // re-acknowledge.  Dropped unread and without an ack, before it can
    // touch the flow-control session either.
    ++stats_.malformed_frames;
    return 0;
  }

  // Restart detection (src/flow): a higher sender incarnation means the
  // peer rebooted and counts its credit admissions from zero, so our
  // accepted/advertised numbering restarts with it.  Observed for every
  // frame -- duplicates included -- so the ack echo below always names
  // the incarnation the grant was computed against.
  if (options_.flow.enabled) {
    ReceiverLink(from).ObserveSession(frame.incarnation);
  }
  // A frame from a dead incarnation (reordered past the sender's
  // restart) must not count toward the CURRENT session's accepted
  // numbering: the restarted sender never admitted it, and counting it
  // would widen its window permanently.
  const bool counts_for_credit =
      options_.flow.enabled &&
      frame.incarnation == ReceiverLink(from).sender_session();

  const MessageId message_id = frame.message.id;
  std::size_t entries = 0;
  switch (verdict) {
    case clocks::CheckResult::kDeliver: {
      if (counts_for_credit) ReceiverLink(from).Accept();
      entries += frame.stamp.entries.size();
      item->core.OnDeliver(*src_local, frame.stamp);
      entries += CommitDelivery(*item, *src_local, std::move(frame));
      entries += DrainHoldback(*item);
      commit_needed_ = true;
      break;
    }
    case clocks::CheckResult::kHold: {
      // A retransmitted copy of an already-held frame must not be held
      // again: the earlier copy was acknowledged and persisted, so this
      // one is a plain duplicate.  The MessageId index makes the check
      // O(1) where scanning the hold-back queue would invite an O(H^2)
      // overload spiral on a congested router.
      if (item->held_ids.contains(message_id)) {
        ++stats_.duplicates_dropped;
        break;  // just re-acknowledge below
      }
      if (counts_for_credit) ReceiverLink(from).Accept();
      HeldFrame held{*src_local, std::move(frame)};
      PersistHeldFrame(*item, held, next_hold_seq_++);
      item->held_ids.insert(message_id);
      item->holdback.Push(std::move(held));
      stats_.holdback_peak =
          std::max<std::uint64_t>(stats_.holdback_peak, HoldbackSizeLocked());
      stats_.holdback_depth_hist.Record(item->holdback.size());
      commit_needed_ = true;
      break;
    }
    case clocks::CheckResult::kDuplicate: {
      ++stats_.duplicates_dropped;
      break;  // already durable; just re-acknowledge
    }
    case clocks::CheckResult::kMalformed:
      return 0;  // rejected above
  }
  if (options_.flow.enabled) {
    stats_.backlog_peak =
        std::max<std::uint64_t>(stats_.backlog_peak, ReceiverBacklogLocked());
  }
  StageAck(from, message_id);
  return entries;
}

std::size_t AgentServer::DrainHoldback(DomainItem& item) {
  std::size_t entries = 0;
  item.holdback.DrainDeliverable(
      [&](const HeldFrame& held) {
        return item.core.CheckReceive(held.src_local, held.frame.stamp);
      },
      [&](HeldFrame&& held) {
        const MessageId id = held.frame.message.id;
        item.held_ids.erase(id);
        EraseHeldFrame(item, id);
        entries += held.frame.stamp.entries.size();
        item.core.OnDeliver(held.src_local, held.frame.stamp);
        entries += CommitDelivery(item, held.src_local, std::move(held.frame));
      },
      [&](HeldFrame&& dropped) {
        const MessageId id = dropped.frame.message.id;
        item.held_ids.erase(id);
        EraseHeldFrame(item, id);
      });
  return entries;
}

std::size_t AgentServer::CommitDelivery(DomainItem& item,
                                        DomainServerId src_local,
                                        DataFrame&& frame) {
  (void)src_local;
  if (frame.message.dest_server() == self_) {
    EnqueueLocalDelivery(std::move(frame.message));
    return 0;
  }
  ++stats_.messages_forwarded;
  // Router fair scheduling: park the forward in the per-source-domain
  // DRR staging queue instead of stamping it inline, so one hot
  // upstream domain cannot monopolize the outgoing links.  Reordering
  // ACROSS source domains is causally safe -- two messages staged at
  // this router concurrently are causally concurrent (a successor
  // cannot arrive before its predecessor left) -- and FIFO per source
  // queue preserves order within each domain.  The fwd/ record rides
  // the delivery's own transaction, so a crash between delivery and
  // forward recovers the staged message instead of losing an acked
  // frame.
  if (options_.flow.enabled) {
    StageForward(item.id, std::move(frame.message));
    return 0;
  }
  return StampAndEnqueue(std::move(frame.message));
}

std::size_t AgentServer::ProcessAck(ServerId from, const AckFrame& ack) {
  for (const MessageId& id : ack.messages) {
    auto it = queue_out_index_.find(id);
    if (it == queue_out_index_.end()) continue;  // duplicate ack
    if (options_.flow.enabled) {
      // Resolves the entry's in-flight emission, or -- for a frame
      // retired before its first emission (e.g. an epoch straggler
      // acked by a recovered peer) -- removes it from the blocked
      // queue, where it would wedge CanAdmit at the queue head.
      auto link = sender_links_.find(it->second->next_hop);
      if (link != sender_links_.end()) link->second.Retire(id);
    }
    EraseOutEntry(*it->second);
    // The retired message's payload buffer feeds this drain thread's
    // freelist (acks, emitted frames and decoded payloads all draw
    // from it).
    BufferPool::Release(std::move(it->second->message.payload));
    queue_out_.erase(it->second);
    queue_out_index_.erase(it);
    commit_needed_ = true;
  }
  // A grant always rides with the session trio (FlushStagedAcks,
  // MaybeReplenishCredits).  One computed against a previous
  // incarnation of THIS server is numbered for a dead admission count
  // -- adopting it after a reboot would hand this link an effectively
  // unbounded window.  Dropped; retransmissions (or the credit probe)
  // solicit a fresh grant once the peer has seen a frame from this
  // incarnation.  The retirement loop above already resolved this ack's
  // own ids, so the link's in-flight count and the peer's accepted
  // count are aligned for the reconciliation.
  if (options_.flow.enabled && ack.has_credit && ack.has_session &&
      ack.echo == incarnation_ &&
      SenderLink(from).Reconcile(ack.session, ack.accepted, ack.credit)) {
    ReleaseBlocked(from, /*force=*/false);
  }
  return 0;
}

void AgentServer::StageAck(ServerId peer, MessageId id) {
  for (auto& [to, ids] : staged_acks_) {
    if (to == peer) {
      ids.push_back(id);
      return;
    }
  }
  staged_acks_.emplace_back(peer, std::vector<MessageId>{id});
}

void AgentServer::FlushStagedAcks() {
  for (auto& [peer, ids] : staged_acks_) {
    ++stats_.ack_frames_sent;
    stats_.acks_sent += ids.size();
    AckFrame ack(std::move(ids));
    if (options_.flow.enabled) {
      // Piggyback the current cumulative grant on every ack; the
      // receiver-side counters make this idempotent.
      flow::CreditReceiverLink& link = ReceiverLink(peer);
      ack.has_credit = true;
      ack.credit = link.ComputeGrant(ReceiverBacklogLocked(),
                                     options_.flow.high_watermark);
      ack.has_session = true;
      ack.session = incarnation_;
      ack.echo = link.sender_session();
      ack.accepted = link.accepted();
    }
    EmitFrame(peer, ack.Serialize());
  }
  staged_acks_.clear();
}

// ack_coalesce_ns > 0: staged acks from consecutive Channel batches are
// held up to one window and flushed by a timer, so a busy multiplexed
// link sees one AckFrame per peer per window instead of one per batch.
// The deliberate exception is backpressure: when the credit trailer the
// ack would carry could reopen a paused sender's window, holding it
// back would trade sender idle time for ack batching -- that flush
// happens immediately.  Acks are only durability receipts (the peer
// retransmits until one arrives), so delaying them is always safe.
void AgentServer::MaybeCoalesceAcksLocked() {
  if (staged_acks_.empty()) return;
  if (options_.flow.enabled) {
    const std::size_t backlog = ReceiverBacklogLocked();
    const std::size_t high = options_.flow.high_watermark;
    const std::uint64_t window =
        backlog >= high ? 0 : static_cast<std::uint64_t>(high - backlog);
    for (const auto& [peer, ids] : staged_acks_) {
      (void)ids;
      auto it = receiver_links_.find(peer);
      if (it == receiver_links_.end()) continue;
      const flow::CreditReceiverLink& link = it->second;
      // Mirrors ComputeGrant without advancing it: would the trailer
      // hand this (possibly window-starved) sender new credit?
      if (link.MaybePaused() &&
          link.accepted() + window > link.advertised()) {
        ++stats_.ack_flush_unblock;
        FlushStagedAcks();
        return;
      }
    }
  }
  if (ack_flush_armed_) return;
  ack_flush_armed_ = true;
  runtime_->After(options_.ack_coalesce_ns, [this, life = life_] {
    std::lock_guard hold(life->mutex);
    if (!life->alive) return;
    Post([this]() -> std::size_t {
      ack_flush_armed_ = false;
      if (!staged_acks_.empty()) {
        ++stats_.ack_flush_timer;
        FlushStagedAcks();
      }
      return 0;
    });
  });
}

// ---------------------------------------------------------------------
// Channel: send path
// ---------------------------------------------------------------------

Message AgentServer::MakeMessage(AgentId from, AgentId to, std::string subject,
                                 Bytes payload) {
  Message message;
  message.id = MessageId{self_, next_msg_seq_++};
  meta_dirty_ = true;
  message.from = from;
  message.to = to;
  message.subject = std::move(subject);
  message.payload = std::move(payload);
  return message;
}

Result<MessageId> AgentServer::SendMessage(AgentId from, AgentId to,
                                           std::string subject,
                                           Bytes payload) {
  Message message;
  {
    std::lock_guard lock(mutex_);
    if (!booted_) return Status::FailedPrecondition("server not booted");
    if (!halt_status_.ok()) return halt_status_;
    if (from.server != self_) {
      return Status::InvalidArgument("sender agent not on this server");
    }
    if (fence_active_) {
      // Rejected before id assignment or trace recording: a fenced send
      // never existed as far as exactly-once accounting is concerned.
      ++stats_.fenced_sends_rejected;
      return Status::Unavailable("sends fenced for reconfiguration");
    }
    // Engine admission (src/flow): control-class subjects are never
    // shed; data sends are parked on the bounded wait queue while the
    // engine or QueueOUT backlog is over the high threshold, and
    // rejected with kOverloaded once the wait queue is full.  Deferral
    // happens AFTER id assignment -- the send is accepted, only its
    // processing is delayed, so ids stay in call order and exactly-once
    // accounting sees one send.  A control send from an agent whose
    // earlier data sends sit on the wait queue defers BEHIND them
    // (exempt from the depth cap): stamping order carries causal order,
    // so admitting it would apply one producer's sends out of call
    // order (e.g. an unsubscribe overtaking its preceding publish).
    // Agent reaction sends never pass through here: they are part of an
    // atomic reaction and must not be shed.
    const flow::Priority priority = flow::ClassifyPriority(subject);
    bool sender_has_deferred = false;
    if (priority == flow::Priority::kControl && !wait_queue_.empty()) {
      for (const Message& waiting : wait_queue_) {
        if (waiting.from == from) {
          sender_has_deferred = true;
          break;
        }
      }
    }
    const flow::Admission decision = flow::AdmitSend(
        priority, queue_in_.size(), queue_out_.size(),
        wait_queue_.size(), !wait_queue_.empty(), sender_has_deferred,
        options_.flow);
    if (decision == flow::Admission::kReject) {
      ++stats_.sends_shed;
      return Status::Overloaded("send wait queue full");
    }
    message = MakeMessage(from, to, std::move(subject), std::move(payload));
    if (decision == flow::Admission::kDefer) {
      ++stats_.sends_deferred;
      const MessageId id = message.id;
      wait_queue_.push_back(std::move(message));
      stats_.wait_queue_peak =
          std::max<std::uint64_t>(stats_.wait_queue_peak, wait_queue_.size());
      return id;
    }
  }
  const MessageId id = message.id;
  Post([this, message = std::move(message)]() mutable -> std::size_t {
    return ApplySends({std::move(message)});
  });
  return id;
}

// Records, routes and stamps a batch of application sends (from the
// public API or an agent reaction), then commits.
std::size_t AgentServer::ApplySends(std::vector<Message> sends) {
  std::size_t entries = 0;
  // Local-origin sends may causally depend on ANY delivery this server
  // has seen -- including forwards still parked in the DRR stage (the
  // producer could have sent the staged message first, then the message
  // whose reaction triggered this send).  Stamp every staged forward
  // first so the outgoing stamp order stays causal; only pure
  // router-to-router traffic keeps the deferred fair schedule.
  if (!sends.empty()) entries += FlushForwardStageLocked();
  for (Message& message : sends) {
    ++stats_.messages_sent;
    ++originated_by_dest_[message.dest_server()];
    BufferTraceSend(message);
    if (message.dest_server() == self_) {
      EnqueueLocalDelivery(std::move(message));
    } else {
      entries += StampAndEnqueue(std::move(message));
    }
  }
  (void)CommitLocked();
  return entries;
}

std::size_t AgentServer::StampAndEnqueue(Message message) {
  const ServerId dest = message.dest_server();
  const ServerId hop = deployment_->routing().NextHop(self_, dest);
  auto link_index = deployment_->LinkDomainIndex(self_, hop);
  if (!link_index.ok()) {
    CMOM_LOG(kError) << "unroutable message " << message.id << ": "
                     << link_index.status();
    return 0;
  }
  DomainItem* item = nullptr;
  for (DomainItem& candidate : items_) {
    if (candidate.deployment_index == link_index.value()) {
      item = &candidate;
      break;
    }
  }
  assert(item != nullptr && "link domain not among this server's items");
  auto hop_local =
      deployment_->domain(link_index.value()).LocalId(hop);
  assert(hop_local.has_value());

  OutEntry entry;
  entry.message = std::move(message);
  entry.next_hop = hop;
  entry.domain = item->id;
  entry.stamp = item->core.PrepareSend(*hop_local);
  entry.stamp_size = entry.stamp.EncodedSize();
  entry.enqueue_seq = next_out_enqueue_seq_++;
  const std::size_t entries = entry.stamp.entries.size();
  stats_.stamp_bytes_sent += entry.stamp_size;
  stats_.stamp_bytes_hist.Record(entry.stamp_size);

  const MessageId id = entry.message.id;
  PersistOutEntry(entry);
  queue_out_.push_back(std::move(entry));
  queue_out_index_.emplace(id, std::prev(queue_out_.end()));

  // Credit gate (src/flow): only the FIRST emission consumes a credit.
  // A blocked message is already stamped and durable in QueueOUT -- the
  // pause is indistinguishable from a slow network, so causal order and
  // exactly-once are untouched.  Blocked frames stay FIFO per link
  // (CanAdmit refuses while older frames are blocked), and an epoch
  // fence bypasses the gate entirely so quiesce cannot deadlock behind
  // a window the draining peer will never replenish.
  if (options_.flow.enabled) {
    flow::CreditSenderLink& link = SenderLink(hop);
    if (!fence_active_) {
      if (!link.CanAdmit()) {
        link.Block(id);
        ++stats_.credit_blocked;
        ScheduleCreditProbe(hop);
        return entries;
      }
    }
    // Counted even on the fence bypass: the peer's accepted count does
    // not know WHY a frame was emitted, and every uncounted emission
    // widens the credit window permanently (accepted runs ahead of
    // admitted by one, forever).
    link.Admit();
  }
  EmitOutEntry(queue_out_.back());
  return entries;
}

void AgentServer::EmitFrame(ServerId to, Bytes bytes) {
  if (!halt_status_.ok()) return;  // fail-stop: nothing leaves
  pending_frames_.emplace_back(to, std::move(bytes));
}

void AgentServer::EmitOutEntry(OutEntry& entry) {
  const DataFrameView frame{entry.message, entry.domain, entry.stamp,
                            entry.stamp_size, options_.epoch,
                            incarnation_};
  EmitFrame(entry.next_hop, frame.Serialize());
  ScheduleRetransmit(entry);
}

void AgentServer::ScheduleRetransmit(OutEntry& entry) {
  const std::uint32_t level = std::min(entry.attempts, kMaxBackoffShift);
  entry.retransmit_at_ns =
      runtime_->NowNs() + (options_.retransmit_timeout_ns << level);
  // Drop the stale head first, so a FIFO whose entries are acknowledged
  // within one timeout stays as short as the in-flight window.
  std::deque<RetransmitRecord>& fifo = retransmit_fifos_[level];
  PopStaleRetransmitsLocked(fifo);
  fifo.push_back({entry.retransmit_at_ns, entry.message.id});
  ArmRetransmitTimerLocked();
}

void AgentServer::PopStaleRetransmitsLocked(
    std::deque<RetransmitRecord>& fifo) const {
  while (!fifo.empty()) {
    auto it = queue_out_index_.find(fifo.front().id);
    if (it != queue_out_index_.end() &&
        it->second->retransmit_at_ns == fifo.front().deadline_ns) {
      return;
    }
    fifo.pop_front();
  }
}

std::deque<AgentServer::RetransmitRecord>*
AgentServer::EarliestRetransmitLocked() {
  std::deque<RetransmitRecord>* earliest = nullptr;
  // Highest level first: on a deadline tie it was scheduled earliest.
  for (auto fifo = retransmit_fifos_.rbegin(); fifo != retransmit_fifos_.rend();
       ++fifo) {
    PopStaleRetransmitsLocked(*fifo);
    if (!fifo->empty() &&
        (earliest == nullptr ||
         fifo->front().deadline_ns < earliest->front().deadline_ns)) {
      earliest = &*fifo;
    }
  }
  return earliest;
}

void AgentServer::ArmRetransmitTimerLocked() {
  if (retransmit_timer_armed_) return;
  const std::deque<RetransmitRecord>* earliest = EarliestRetransmitLocked();
  if (earliest == nullptr) return;  // nothing emitted awaits an ack
  const std::uint64_t now = runtime_->NowNs();
  const std::uint64_t deadline = earliest->front().deadline_ns;
  // Sleep at most one base timeout: every record pushed while this
  // timer is pending is due at least that far from now, so the single
  // timer never fires late for a newer, earlier deadline.
  const std::uint64_t delay = std::min(
      deadline > now ? deadline - now : 0, options_.retransmit_timeout_ns);
  retransmit_timer_armed_ = true;
  runtime_->After(delay, [this, life = life_] {
    std::lock_guard hold(life->mutex);
    if (!life->alive) return;
    Post([this] { return RetransmitDue(); });
  });
}

std::size_t AgentServer::RetransmitDue() {
  // The timer stays marked pending while due entries are re-sent, so
  // their ScheduleRetransmit calls do not arm a second one.
  const std::uint64_t now = runtime_->NowNs();
  while (std::deque<RetransmitRecord>* fifo = EarliestRetransmitLocked()) {
    if (fifo->front().deadline_ns > now) break;
    OutEntry& entry = *queue_out_index_.at(fifo->front().id);
    fifo->pop_front();
    if (options_.max_retransmit_attempts != 0 &&
        entry.attempts >= options_.max_retransmit_attempts) {
      CMOM_LOG(kError) << "giving up on " << entry.message.id << " after "
                       << entry.attempts << " retransmissions";
      entry.retransmit_at_ns = kNoRetransmit;
      continue;
    }
    ++entry.attempts;
    ++stats_.retransmissions;
    EmitOutEntry(entry);
  }
  retransmit_timer_armed_ = false;
  ArmRetransmitTimerLocked();
  return 0;
}

// ---------------------------------------------------------------------
// Flow control (src/flow)
// ---------------------------------------------------------------------

flow::CreditSenderLink& AgentServer::SenderLink(ServerId peer) {
  auto it = sender_links_.find(peer);
  if (it == sender_links_.end()) {
    it = sender_links_
             .emplace(peer,
                      flow::CreditSenderLink(options_.flow.initial_credit))
             .first;
  }
  return it->second;
}

flow::CreditReceiverLink& AgentServer::ReceiverLink(ServerId peer) {
  auto it = receiver_links_.find(peer);
  if (it == receiver_links_.end()) {
    it = receiver_links_
             .emplace(peer,
                      flow::CreditReceiverLink(options_.flow.initial_credit))
             .first;
  }
  return it->second;
}

std::size_t AgentServer::ReleaseBlocked(ServerId peer, bool force) {
  auto it = sender_links_.find(peer);
  if (it == sender_links_.end()) return 0;
  flow::CreditSenderLink& link = it->second;
  std::size_t released = 0;
  MessageId id;
  while (force ? link.ForceRelease(id) : link.NextReleasable(id)) {
    auto qit = queue_out_index_.find(id);
    if (qit == queue_out_index_.end()) continue;  // retired before emission
    link.Admit();
    EmitOutEntry(*qit->second);
    ++released;
  }
  return released;
}

// Liveness under ack loss: a link whose frames were ALL blocked before
// first emission has no retransmission in flight toward the peer, so a
// lost replenish ack could pause it forever.  The probe force-emits the
// head blocked frame after a retransmit timeout; the peer's ack for it
// (even a duplicate-drop ack) carries a fresh cumulative grant.
void AgentServer::ScheduleCreditProbe(ServerId peer) {
  if (!credit_probe_armed_.insert(peer).second) return;
  runtime_->After(options_.retransmit_timeout_ns, [this, peer, life = life_] {
    std::lock_guard hold(life->mutex);
    if (!life->alive) return;
    Post([this, peer]() -> std::size_t {
      credit_probe_armed_.erase(peer);
      auto it = sender_links_.find(peer);
      if (it == sender_links_.end() || !it->second.paused()) return 0;
      ++stats_.credit_probes;
      MessageId id;
      while (it->second.ForceRelease(id)) {
        auto qit = queue_out_index_.find(id);
        if (qit == queue_out_index_.end()) continue;
        it->second.Admit();
        EmitOutEntry(*qit->second);
        break;  // one frame per probe: solicit, don't flood
      }
      if (it->second.paused()) ScheduleCreditProbe(peer);
      return 0;
    });
  });
}

std::size_t AgentServer::ReceiverBacklogLocked() const {
  // Everything this server still owes work for: undelivered input,
  // causally held frames, staged forwards -- and QueueOUT, so a router
  // whose DOWNSTREAM link is credit-blocked stops granting credit
  // upstream instead of absorbing the overload into its own outgoing
  // queue (end-to-end backpressure, not hop-local).
  return queue_in_.size() + HoldbackSizeLocked() + forward_stage_.size() +
         queue_out_.size();
}

void AgentServer::MaybeReplenishCredits() {
  if (!options_.flow.enabled) return;
  const std::size_t backlog = ReceiverBacklogLocked();
  if (backlog >= options_.flow.low_watermark) return;
  for (auto& [peer, link] : receiver_links_) {
    if (!link.MaybePaused()) continue;
    const std::uint64_t before = link.advertised();
    const std::uint64_t grant =
        link.ComputeGrant(backlog, options_.flow.high_watermark);
    if (grant == before) continue;  // nothing new to advertise
    ++stats_.credit_only_acks;
    AckFrame ack;
    ack.has_credit = true;
    ack.credit = grant;
    ack.has_session = true;
    ack.session = incarnation_;
    ack.echo = link.sender_session();
    ack.accepted = link.accepted();
    ++stats_.ack_frames_sent;
    EmitFrame(peer, ack.Serialize());
  }
}

void AgentServer::StageForward(DomainId source, Message message) {
  ForwardEntry entry{next_fwd_seq_++, std::move(message)};
  Bytes record(sizeof(std::uint16_t) + entry.message.EncodedSize());
  entry.message.EncodeTo(PutLittleEndian(record.data(), source.value()));
  StorePut(FwdKey(entry.seq), std::move(record));
  forward_stage_.Push(source, std::move(entry));
  stats_.staged_forward_peak = std::max<std::uint64_t>(
      stats_.staged_forward_peak, forward_stage_.size());
  if (!forward_step_queued_) {
    forward_step_queued_ = true;
    work_queue_.push_back([this] { return ForwardStep(); });
  }
}

// One forwarding transaction: pops up to kChannelBatch staged messages
// via deficit round robin, stamps each toward its next hop, deletes its
// fwd/ record, and commits the batch.
std::size_t AgentServer::ForwardStep() {
  forward_step_queued_ = false;
  if (forward_stage_.empty()) return 0;
  std::size_t entries = 0;
  forward_stage_.Drain(
      kChannelBatch,
      [&](DomainId source, ForwardEntry&& staged) {
        (void)source;
        StoreDelete(FwdKey(staged.seq));
        entries += StampAndEnqueue(std::move(staged.message));
        ++stats_.drr_forwarded;
      },
      &stats_.drr_rounds);
  (void)CommitLocked();
  if (!forward_stage_.empty() && !forward_step_queued_) {
    forward_step_queued_ = true;
    work_queue_.push_back([this] { return ForwardStep(); });
  }
  MaybeReplenishCredits();
  MaybeScheduleWaitDrainLocked();
  return entries;
}

std::size_t AgentServer::FlushForwardStageLocked() {
  if (forward_stage_.empty()) return 0;
  std::size_t entries = 0;
  forward_stage_.Drain(
      forward_stage_.size(),
      [&](DomainId source, ForwardEntry&& staged) {
        (void)source;
        StoreDelete(FwdKey(staged.seq));
        entries += StampAndEnqueue(std::move(staged.message));
        ++stats_.drr_forwarded;
      },
      &stats_.drr_rounds);
  return entries;
}

void AgentServer::MaybeScheduleWaitDrainLocked() {
  if (wait_queue_.empty() || wait_drain_queued_) return;
  // A fence flushes the wait queue unconditionally: the deferred sends
  // were accepted before the fence and must drain for quiesce.
  if (!fence_active_ &&
      !flow::ShouldDrainWaitQueue(queue_in_.size(), queue_out_.size(),
                                  options_.flow)) {
    return;
  }
  wait_drain_queued_ = true;
  work_queue_.push_back([this] { return DrainWaitQueue(); });
}

// Releases deferred sends in FIFO order, one kEngineBatch per work item
// (re-checking the threshold between batches so a refilling backlog
// pauses the drain again).
std::size_t AgentServer::DrainWaitQueue() {
  wait_drain_queued_ = false;
  if (wait_queue_.empty()) return 0;
  if (!fence_active_ &&
      !flow::ShouldDrainWaitQueue(queue_in_.size(), queue_out_.size(),
                                  options_.flow)) {
    return 0;
  }
  std::vector<Message> sends;
  while (!wait_queue_.empty() && sends.size() < kEngineBatch) {
    sends.push_back(std::move(wait_queue_.front()));
    wait_queue_.pop_front();
  }
  const std::size_t entries = ApplySends(std::move(sends));
  MaybeScheduleWaitDrainLocked();
  return entries;
}

void AgentServer::RecordDeadLetter(std::string reason,
                                   const Message& original) {
  flow::DeadLetterRecord record;
  record.reason = std::move(reason);
  record.id = original.id;
  record.from = original.from;
  record.to = original.to;
  record.subject = original.subject;
  record.payload = original.payload;
  StorePut(flow::DeadLetterKey(next_dlq_seq_++), record.Serialize());
  ++stats_.dead_letters;
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

// One Engine transaction: reacts to up to kEngineBatch QueueIN
// messages, persists each touched agent image once, and commits the
// whole batch -- QueueIN deletions, agent state and all the stamped
// sends the reactions produced -- atomically.
std::size_t AgentServer::EngineStep() {
  engine_step_queued_ = false;
  if (queue_in_.empty()) return 0;

  std::vector<Message> sends;
  std::vector<std::uint32_t> reacted;  // agents to persist, insert order
  std::size_t batch = 0;
  while (!queue_in_.empty() && batch < kEngineBatch) {
    InEntry entry = std::move(queue_in_.front());
    queue_in_.pop_front();
    EraseInEntry(entry);
    ++batch;

    auto agent_it = agents_.find(entry.message.to.local);
    if (agent_it == agents_.end()) {
      CMOM_LOG(kWarning) << to_string(self_) << ": no agent "
                         << entry.message.to << " for message "
                         << entry.message.id << "; dropped";
      BufferPool::Release(std::move(entry.message.payload));
      continue;
    }
    ReactionContextImpl ctx(
        this, runtime_, entry.message.to, &sends,
        [this](AgentId from, AgentId to, std::string subject, Bytes payload) {
          return MakeMessage(from, to, std::move(subject),
                             std::move(payload));
        },
        [this](std::string reason, const Message& original) {
          RecordDeadLetter(std::move(reason), original);
        });
    agent_it->second->React(ctx, entry.message);
    // The consumed payload funds the batch's own stamp/frame encodes.
    BufferPool::Release(std::move(entry.message.payload));
    if (std::find(reacted.begin(), reacted.end(), entry.message.to.local) ==
        reacted.end()) {
      reacted.push_back(entry.message.to.local);
    }
  }
  // An agent that reacted several times in this batch is persisted
  // once, with its final state -- the batch is one transaction.
  for (std::uint32_t local_id : reacted) PersistAgent(local_id);
  stats_.engine_batch_hist.Record(batch);

  // ApplySends commits the whole batch: QueueIN deletions, new
  // QueueOUT state, clocks and the agent images staged above.
  const std::size_t entries = ApplySends(std::move(sends));
  if (!queue_in_.empty()) engine_step_needed_ = true;
  // Reactions drained backlog: maybe re-open the intake valves.
  MaybeReplenishCredits();
  MaybeScheduleWaitDrainLocked();
  return entries;
}

// Routes a locally addressed message into the engine.  Caller holds
// mutex_ inside a work item, whose commit makes the qin/ entry durable.
void AgentServer::EnqueueLocalDelivery(Message message) {
  BufferTraceDeliver(message);
  ++stats_.messages_delivered;
  InEntry entry{next_in_seq_++, std::move(message)};
  PersistInEntry(entry);
  queue_in_.push_back(std::move(entry));
  engine_step_needed_ = true;
}

// ---------------------------------------------------------------------
// Persistence and recovery
// ---------------------------------------------------------------------

void AgentServer::StorePut(std::string_view key, Bytes value) {
  if (!halt_status_.ok()) return;  // fail-stop: the store is frozen
  store_->Put(key, std::move(value));
  ++txn_ops_staged_;
}

void AgentServer::StoreDelete(std::string_view key) {
  if (!halt_status_.ok()) return;  // fail-stop: the store is frozen
  store_->Delete(key);
  ++txn_ops_staged_;
}

void AgentServer::PersistMeta() {
  if (!meta_dirty_) return;
  ByteWriter out;
  out.WriteVarU64(next_msg_seq_);
  out.WriteVarU64(incarnation_);  // boot counter (flow restart detection)
  StorePut(kMetaKey, std::move(out).Take());
  meta_dirty_ = false;
}

void AgentServer::PersistClocks(bool force) {
  for (DomainItem& item : items_) {
    if (!force && item.persisted_clock_version == item.core.version()) {
      continue;
    }
    ByteWriter out;
    item.core.EncodeState(out);
    StorePut(ClockKey(item.deployment_index), std::move(out).Take());
    item.persisted_clock_version = item.core.version();
  }
}

void AgentServer::PersistAgent(std::uint32_t local_id) {
  auto it = agents_.find(local_id);
  if (it == agents_.end()) return;
  ByteWriter out;
  it->second->EncodeState(out);
  StorePut(AgentKey(local_id), std::move(out).Take());
}

void AgentServer::PersistOutEntry(const OutEntry& entry) {
  Bytes record(VarU64Size(entry.enqueue_seq) + entry.message.EncodedSize() +
               2 * sizeof(std::uint16_t) + entry.stamp_size);
  std::uint8_t* p = PutVarU64(record.data(), entry.enqueue_seq);
  p = entry.message.EncodeTo(p);
  p = PutLittleEndian(p, entry.next_hop.value());
  p = PutLittleEndian(p, entry.domain.value());
  p = entry.stamp.EncodeTo(p);
  assert(p == record.data() + record.size());
  StorePut(OutKey(entry.message.id), std::move(record));
}

void AgentServer::EraseOutEntry(const OutEntry& entry) {
  StoreDelete(OutKey(entry.message.id));
}

void AgentServer::PersistInEntry(const InEntry& entry) {
  ByteWriter out;
  entry.message.Encode(out);
  StorePut(InKey(entry.seq), std::move(out).Take());
}

void AgentServer::EraseInEntry(const InEntry& entry) {
  StoreDelete(InKey(entry.seq));
}

void AgentServer::PersistHeldFrame(const DomainItem& item,
                                   const HeldFrame& held,
                                   std::uint64_t arrival_seq) {
  const DataFrameView frame = held.frame.view();
  const std::size_t frame_size = frame.SerializedSize();
  Bytes record(VarU64Size(arrival_seq) + sizeof(std::uint16_t) +
               LengthPrefixedSize(frame_size));
  std::uint8_t* p = PutVarU64(record.data(), arrival_seq);
  p = PutLittleEndian(p, held.src_local.value());
  p = frame.SerializeInto(PutVarU64(p, frame_size));
  assert(p == record.data() + record.size());
  StorePut(HoldKey(item.deployment_index, held.frame.message.id),
           std::move(record));
}

void AgentServer::EraseHeldFrame(const DomainItem& item, MessageId id) {
  StoreDelete(HoldKey(item.deployment_index, id));
}

// One transaction: only the delta -- dirty domain clocks, the bumped
// meta counter, and whatever per-entry queue keys the transaction
// staged on its way here -- so commit bytes stay O(1) in the backlog.
Status AgentServer::CommitLocked() {
  if (!halt_status_.ok()) return halt_status_;
  PersistMeta();
  PersistClocks(/*force=*/false);
  if (txn_ops_staged_ == 0) {  // nothing changed durable state
    FlushTraceLocked();
    return Status::Ok();
  }
  Status status = store_->Commit();
  if (!status.ok()) {
    // The historical path logged and continued, leaving in-memory state
    // the store never saw -- a restart would then silently rewind the
    // clocks and queues, voiding exactly-once.  Fail-stop instead.
    FailStopLocked(status);
    return halt_status_;
  }
  txn_ops_staged_ = 0;
  txn_bytes_marker_ += store_->last_commit_bytes();
  ++stats_.commits;
  stats_.commit_bytes += store_->last_commit_bytes();
  stats_.commit_bytes_hist.Record(store_->last_commit_bytes());
  FlushTraceLocked();
  return Status::Ok();
}

void AgentServer::FailStopLocked(const Status& cause) {
  if (!halt_status_.ok()) return;  // already halted
  halt_status_ = Status::FailStop(to_string(self_) + " halted on store error: " +
                                  cause.to_string());
  CMOM_LOG(kError) << to_string(self_) << ": FAIL-STOP: " << cause
                   << "; durable state frozen at last successful commit";
  // The failed transaction never became durable.  Roll its staged ops
  // out of the store (so a restart over the same store object sees
  // exactly the committed image) and discard every output that would
  // advertise the un-durable state: a data frame would let the peer
  // deliver a message a restart un-sends, and an ack would let the
  // sender retire a message this server will no longer remember.
  store_->Rollback();
  txn_ops_staged_ = 0;
  pending_trace_.clear();
  pending_frames_.clear();
  staged_acks_.clear();
  inbox_.clear();
  engine_step_needed_ = false;
  // work_queue_ is intentionally NOT cleared: queued items run inertly
  // through the halt guards, so an ApplyControlRecord waiting on its
  // promise resolves (with the halt status) instead of deadlocking.
}

Status AgentServer::health() const {
  std::lock_guard lock(mutex_);
  return halt_status_;
}

void AgentServer::BufferTraceSend(const Message& message) {
  if (options_.trace == nullptr || !halt_status_.ok()) return;
  pending_trace_.push_back(causality::TraceEvent{
      causality::EventKind::kSend, message.id, self_, message.dest_server(),
      message.from, message.to});
}

void AgentServer::BufferTraceDeliver(const Message& message) {
  if (options_.trace == nullptr || !halt_status_.ok()) return;
  pending_trace_.push_back(causality::TraceEvent{
      causality::EventKind::kDeliver, message.id, self_, self_, message.from,
      message.to});
}

void AgentServer::FlushTraceLocked() {
  if (pending_trace_.empty()) return;
  for (const causality::TraceEvent& event : pending_trace_) {
    if (event.kind == causality::EventKind::kSend) {
      options_.trace->RecordSend(event.message, event.process,
                                 event.destination, event.src_agent,
                                 event.dst_agent);
    } else {
      options_.trace->RecordDeliver(event.message, event.process,
                                    event.destination, event.src_agent,
                                    event.dst_agent);
    }
  }
  pending_trace_.clear();
}

Status AgentServer::RecoverLocked() {
  auto meta = store_->Get(kMetaKey);
  if (!meta.has_value()) {
    // Fresh server: write the initial durable image.
    incarnation_ = 1;
    meta_dirty_ = true;
    PersistClocks(/*force=*/true);
    return CommitLocked();
  }
  {
    ByteReader in(*meta);
    auto seq = in.ReadVarU64();
    if (!seq.ok()) return seq.status();
    auto boots = in.ReadVarU64();
    if (!boots.ok()) return boots.status();
    if (!in.exhausted()) return Status::DataLoss("trailing bytes in meta");
    next_msg_seq_ = seq.value();
    // Bumping the boot counter -- and committing the bump below, before
    // any frame leaves -- is what lets peers distinguish this
    // incarnation's credit numbering from the previous life's
    // (src/flow/credits.h).
    incarnation_ = boots.value() + 1;
    meta_dirty_ = true;
  }

  CMOM_RETURN_IF_ERROR(RecoverEntriesLocked());

  for (auto& [local_id, agent] : agents_) {
    if (auto blob = store_->Get(AgentKey(local_id))) {
      ByteReader in(*blob);
      CMOM_RETURN_IF_ERROR(agent->DecodeState(in));
    }
  }
  // Make the incarnation bump durable before Boot emits any frame.
  return CommitLocked();
}

Status AgentServer::RecoverEntriesLocked() {
  for (const std::string& key : store_->Keys(kClockKeyPrefix)) {
    auto index = ParseHexSuffix(key, kClockKeyPrefix);
    if (!index.ok()) return index.status();
    auto blob = store_->Get(key);
    if (!blob) continue;
    auto core = clocks::MatrixClockCore::Decode(*blob);
    if (!core.ok()) return core.status();
    bool found = false;
    for (DomainItem& item : items_) {
      if (item.deployment_index == index.value()) {
        // The image must be this server's clock of this domain: a
        // foreign self id or size would index past the matrix on the
        // next send.
        if (core.value().self() != item.core.self() ||
            core.value().domain_size() != item.core.domain_size()) {
          return Status::DataLoss("clock image does not fit " +
                                  to_string(item.id));
        }
        item.core = std::move(core).value();
        item.persisted_clock_version = item.core.version();
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::DataLoss("recovered clock for unknown domain index");
    }
  }

  // QueueOUT keys sort by message id; the persisted enqueue ticket
  // restores the original FIFO order (and seeds the ticket counter).
  std::vector<OutEntry> out_entries;
  for (const std::string& key : store_->Keys(kQueueOutKeyPrefix)) {
    auto blob = store_->Get(key);
    if (!blob) continue;
    ByteReader in(*blob);
    OutEntry entry;
    auto seq = in.ReadVarU64();
    if (!seq.ok()) return seq.status();
    entry.enqueue_seq = seq.value();
    auto message = Message::Decode(in);
    if (!message.ok()) return message.status();
    entry.message = std::move(message).value();
    auto hop = in.ReadU16();
    if (!hop.ok()) return hop.status();
    entry.next_hop = ServerId(hop.value());
    auto domain = in.ReadU16();
    if (!domain.ok()) return domain.status();
    entry.domain = DomainId(domain.value());
    auto stamp = clocks::Stamp::Decode(in);
    if (!stamp.ok()) return stamp.status();
    entry.stamp = std::move(stamp).value();
    entry.stamp_size = entry.stamp.EncodedSize();
    out_entries.push_back(std::move(entry));
  }
  std::sort(out_entries.begin(), out_entries.end(),
            [](const OutEntry& a, const OutEntry& b) {
              return a.enqueue_seq < b.enqueue_seq;
            });
  for (OutEntry& entry : out_entries) {
    next_out_enqueue_seq_ =
        std::max(next_out_enqueue_seq_, entry.enqueue_seq + 1);
    const MessageId id = entry.message.id;
    queue_out_.push_back(std::move(entry));
    queue_out_index_.emplace(id, std::prev(queue_out_.end()));
  }

  // QueueIN keys are zero-padded sequence numbers: sorted key order IS
  // arrival order.
  for (const std::string& key : store_->Keys(kQueueInKeyPrefix)) {
    auto seq = ParseHexSuffix(key, kQueueInKeyPrefix);
    if (!seq.ok()) return seq.status();
    auto blob = store_->Get(key);
    if (!blob) continue;
    ByteReader in(*blob);
    auto message = Message::Decode(in);
    if (!message.ok()) return message.status();
    queue_in_.push_back(InEntry{seq.value(), std::move(message).value()});
    next_in_seq_ = std::max(next_in_seq_, seq.value() + 1);
  }

  // DRR staging keys are zero-padded sequence numbers like qin/: sorted
  // key order restores staging order, FIFO per source domain.
  for (const std::string& key : store_->Keys(kFwdKeyPrefix)) {
    auto seq = ParseHexSuffix(key, kFwdKeyPrefix);
    if (!seq.ok()) return seq.status();
    auto blob = store_->Get(key);
    if (!blob) continue;
    ByteReader in(*blob);
    auto source = in.ReadU16();
    if (!source.ok()) return source.status();
    auto message = Message::Decode(in);
    if (!message.ok()) return message.status();
    forward_stage_.Push(DomainId(source.value()),
                        ForwardEntry{seq.value(), std::move(message).value()});
    next_fwd_seq_ = std::max(next_fwd_seq_, seq.value() + 1);
  }

  // Held frames carry their arrival ticket; re-push per domain in
  // arrival order so repeated drains stay deterministic.
  struct RecoveredHold {
    std::uint64_t arrival_seq;
    DomainItem* item;
    HeldFrame held;
  };
  std::vector<RecoveredHold> holds;
  for (const std::string& key : store_->Keys(kHoldKeyPrefix)) {
    const std::size_t slash = key.find('/', kHoldKeyPrefix.size());
    if (slash == std::string::npos) {
      return Status::DataLoss("malformed hold-back key");
    }
    auto index =
        ParseHexSuffix(key.substr(0, slash), kHoldKeyPrefix);
    if (!index.ok()) return index.status();
    auto blob = store_->Get(key);
    if (!blob) continue;
    ByteReader in(*blob);
    auto seq = in.ReadVarU64();
    if (!seq.ok()) return seq.status();
    auto src = in.ReadU16();
    if (!src.ok()) return src.status();
    auto frame_bytes = in.ReadBytes();
    if (!frame_bytes.ok()) return frame_bytes.status();
    auto frame = DataFrame::Deserialize(frame_bytes.value());
    if (!frame.ok()) return frame.status();
    DomainItem* owner = nullptr;
    for (DomainItem& item : items_) {
      if (item.deployment_index == index.value()) {
        owner = &item;
        break;
      }
    }
    if (owner == nullptr) {
      return Status::DataLoss("held frame for unknown domain");
    }
    // The wire check, repeated on the way back in: a held frame whose
    // stamp the clock cannot read is a corrupt store, not a frame to
    // drop quietly.
    if (owner->core.CheckReceive(DomainServerId(src.value()),
                                 frame.value().stamp) ==
        clocks::CheckResult::kMalformed) {
      return Status::DataLoss("held frame with a malformed stamp");
    }
    holds.push_back(RecoveredHold{seq.value(), owner,
                                  HeldFrame{DomainServerId(src.value()),
                                            std::move(frame).value()}});
  }
  std::sort(holds.begin(), holds.end(),
            [](const RecoveredHold& a, const RecoveredHold& b) {
              return a.arrival_seq < b.arrival_seq;
            });
  for (RecoveredHold& hold : holds) {
    next_hold_seq_ = std::max(next_hold_seq_, hold.arrival_seq + 1);
    hold.item->held_ids.insert(hold.held.frame.message.id);
    hold.item->holdback.Push(std::move(hold.held));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

ServerStats AgentServer::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t AgentServer::holdback_size() const {
  std::lock_guard lock(mutex_);
  return HoldbackSizeLocked();
}

std::size_t AgentServer::HoldbackSizeLocked() const {
  std::size_t total = 0;
  for (const DomainItem& item : items_) total += item.holdback.size();
  return total;
}

std::size_t AgentServer::queue_out_size() const {
  std::lock_guard lock(mutex_);
  return queue_out_.size();
}

bool AgentServer::Idle() const {
  std::lock_guard lock(mutex_);
  return work_queue_.empty() && !work_running_ && inbox_.empty() &&
         queue_in_.empty() && queue_out_.empty() && forward_stage_.empty() &&
         wait_queue_.empty();
}

void AgentServer::BeginFence() {
  {
    std::lock_guard lock(mutex_);
    fence_active_ = true;
  }
  // Credits must never deadlock a quiesce: force-emit every blocked
  // frame (their retransmission loops take over) and flush the
  // admission wait queue, so the drain the coordinator waits for can
  // complete even against a peer that stopped granting.
  Post([this]() -> std::size_t {
    for (auto& [peer, link] : sender_links_) {
      (void)link;
      ReleaseBlocked(peer, /*force=*/true);
    }
    MaybeScheduleWaitDrainLocked();
    return 0;
  });
}

void AgentServer::LiftFence() {
  std::lock_guard lock(mutex_);
  fence_active_ = false;
}

AgentServer::FenceStatus AgentServer::fence_status() const {
  std::lock_guard lock(mutex_);
  FenceStatus status;
  status.active = fence_active_;
  status.queue_out = queue_out_.size();
  status.queue_in = queue_in_.size();
  status.holdback = HoldbackSizeLocked();
  status.inflight = work_queue_.size() + inbox_.size() +
                    (work_running_ ? 1 : 0) + forward_stage_.size() +
                    wait_queue_.size();
  status.drained = fence_active_ && status.queue_out == 0 &&
                   status.queue_in == 0 && status.holdback == 0 &&
                   status.inflight == 0;
  return status;
}

AgentServer::FlowStatus AgentServer::flow_status() const {
  std::lock_guard lock(mutex_);
  FlowStatus status;
  for (const auto& [peer, link] : sender_links_) {
    (void)peer;
    if (link.paused()) ++status.paused_links;
    status.blocked_messages += link.blocked_count();
    status.credits_outstanding += link.outstanding();
  }
  status.staged_forwards = forward_stage_.size();
  status.wait_queue = wait_queue_.size();
  status.dead_letters = stats_.dead_letters;
  return status;
}

std::vector<std::pair<ServerId, std::uint64_t>>
AgentServer::OriginatedByDestination() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<ServerId, std::uint64_t>> out(
      originated_by_dest_.begin(), originated_by_dest_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.value() < b.first.value();
  });
  return out;
}

Status AgentServer::ApplyControlRecord(std::string_view key,
                                       std::optional<Bytes> value) {
  auto done = std::make_shared<std::promise<Status>>();
  auto committed = done->get_future();
  {
    std::unique_lock lock(mutex_);
    if (!booted_ || shutdown_) {
      return Status::FailedPrecondition(to_string(self_) +
                                        " is not running");
    }
    if (!halt_status_.ok()) return halt_status_;
    work_queue_.push_back([this, key = std::string(key),
                           value = std::move(value), done]() mutable {
      if (value.has_value()) {
        StorePut(key, std::move(*value));
      } else {
        StoreDelete(key);
      }
      // The commit status travels back to the blocked caller: a
      // fail-stop here surfaces as kFailStop at the control plane
      // instead of a record that silently never became durable.
      done->set_value(CommitLocked());
      return std::size_t{0};
    });
    PumpLocked();
  }
  return committed.get();
}

std::optional<Bytes> AgentServer::ReadControlRecord(std::string_view key) {
  auto done = std::make_shared<std::promise<std::optional<Bytes>>>();
  auto read = done->get_future();
  {
    std::unique_lock lock(mutex_);
    // No pipeline runs, so no transaction can be half-staged.
    if (!booted_ || shutdown_) return store_->Get(key);
    work_queue_.push_back([this, key = std::string(key), done] {
      // Every work item commits (or rolls back) what it staged before
      // the next one starts, so only committed records are visible.
      done->set_value(store_->Get(key));
      return std::size_t{0};
    });
    PumpLocked();
  }
  return read.get();
}

std::optional<clocks::MatrixClockCore> AgentServer::CoreSnapshot(
    std::size_t deployment_domain_index) const {
  std::lock_guard lock(mutex_);
  for (const DomainItem& item : items_) {
    if (item.deployment_index != deployment_domain_index) continue;
    ByteWriter out;
    item.core.EncodeState(out);
    auto core = clocks::MatrixClockCore::Decode(out.buffer());
    assert(core.ok());
    return std::move(core).value();
  }
  return std::nullopt;
}

Bytes AgentServer::DebugImage() const {
  std::lock_guard lock(mutex_);
  ByteWriter out;
  out.WriteVarU64(next_msg_seq_);
  out.WriteVarU64(items_.size());
  for (const DomainItem& item : items_) {
    out.WriteVarU64(item.deployment_index);
    item.core.EncodeState(out);
  }
  out.WriteVarU64(queue_out_.size());
  for (const OutEntry& entry : queue_out_) {
    entry.message.Encode(out);
    out.WriteU16(entry.next_hop.value());
    out.WriteU16(entry.domain.value());
    entry.stamp.Encode(out);
  }
  out.WriteVarU64(queue_in_.size());
  for (const InEntry& entry : queue_in_) entry.message.Encode(out);
  std::size_t held = 0;
  for (const DomainItem& item : items_) held += item.holdback.size();
  out.WriteVarU64(held);
  for (const DomainItem& item : items_) {
    for (const HeldFrame& frame : item.holdback.pending()) {
      out.WriteVarU64(item.deployment_index);
      out.WriteU16(frame.src_local.value());
      out.WriteBytes(frame.frame.Serialize());
    }
  }
  return std::move(out).Take();
}

AgentServer::DomainItem* AgentServer::FindItemByDomainId(DomainId id) {
  for (DomainItem& item : items_) {
    if (item.id == id) return &item;
  }
  return nullptr;
}

}  // namespace cmom::mom
