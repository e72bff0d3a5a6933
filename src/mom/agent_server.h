// Agent server: Engine + Channel (Sections 3 and 5).
//
// One AgentServer hosts agents (the Engine side) and moves messages
// (the Channel side).  The Channel owns one DomainItem per domain the
// server belongs to -- a causal router-server has several -- each with
// its own matrix clock and hold-back queue, plus the QueueOUT of
// stamped messages awaiting acknowledgment.  The Engine owns QueueIN
// and runs agent reactions.
//
// Every protocol step is a transaction against the server's Store:
//
//   send      : assign id, stamp with the link domain's clock, append
//               to QueueOUT, commit, then emit the frame
//   receive   : check the stamp against the domain's clock;
//               deliver -> merge clock, push QueueIN (final dest) or
//                          stamp for the next hop and append QueueOUT
//                          (router), commit, then ACK
//               hold    -> persist in the hold-back queue, commit, ACK
//               dup     -> just ACK
//   reaction  : pop QueueIN, run Agent::React, persist agent state and
//               the stamped sends it produced, commit, emit frames
//
// Batching: incoming frames land in an inbox and are drained up to 16
// per work item, committing the whole batch in ONE store transaction
// and coalescing the acks into one frame per peer.  A batch forms per
// reactor round: a reactor thread that queues the drain runs it only
// after every socket event of its epoll_wait was dispatched
// (net::Reactor::DeferToRoundEnd), so every frame the round read joins
// it, with no knob and no timer.  Likewise the Engine drains up to 16
// QueueIN messages per work item and commits all their reactions
// together.  Batches are still atomic, so exactly-once causal delivery
// is unaffected; the commit (and ack) count per message is 1/batch,
// and a bus whose frames trickle in one per round degenerates to the
// classical one commit per frame.
//
// Persistence is incremental (mom/store_schema.h): QueueOUT, QueueIN,
// the hold-back queues and the router's staged forwards live under
// per-entry store keys written and deleted individually, and each
// domain's clock image is rewritten only when its version advanced --
// so commit bytes per message are O(1) in the backlog instead of
// O(backlog), the disk-layer analogue of the Appendix A delta stamps.
//
// Unacknowledged QueueOUT entries are retransmitted with their original
// stamp; the receiver's clock check recognizes and drops duplicates, so
// the bus delivers exactly once across frame loss and server crashes.
// Each emitted entry carries its next retransmission deadline, and the
// server keeps one runtime timer for all of them (see
// ScheduleRetransmit), not one per emitted frame.
//
// Processing-cost simulation: with a CostModel configured (simulated
// runs), each transaction charges
//     per_hop_fixed + clock_entries * per_clock_entry
//                   + committed_bytes * per_disk_byte + disk_sync
// of simulated time before its outputs (frames, next transaction)
// become visible, and transactions of one server serialize -- modelling
// the single-threaded Java server of the paper.  Without a CostModel,
// work runs inline at wall-clock speed.
//
// One engine (Section 5): every work item -- Channel drain, Engine
// step, forward step, timer expiry, control record -- runs under the
// server lock, one at a time, on the thread that found the work queue
// idle when it posted (a transport thread, the timer thread or a
// SendMessage caller).  A reactor thread that queued a Channel drain
// runs the queue at the end of its epoll round instead, before the
// round's posted tasks flush the frames it emitted; simulated and
// in-process transports run it at once.  Only frame decode
// (HandleFrame, on the transport thread) and handing committed frames
// to the transport run outside the lock.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "causality/trace.h"
#include "clocks/causal_core.h"
#include "clocks/holdback.h"
#include "common/histogram.h"
#include "common/ids.h"
#include "common/status.h"
#include "domains/deployment.h"
#include "flow/credits.h"
#include "flow/drr.h"
#include "mom/agent.h"
#include "mom/message.h"
#include "mom/store.h"
#include "net/cost_model.h"
#include "net/runtime.h"
#include "net/transport.h"

namespace cmom::mom {

struct AgentServerOptions {
  // Non-null enables simulated processing costs (see header comment).
  const net::CostModel* cost_model = nullptr;
  // Non-null records application-level send/deliver events.
  causality::TraceRecorder* trace = nullptr;
  // Delay before an unacknowledged QueueOUT entry is resent.
  std::uint64_t retransmit_timeout_ns = 500ull * 1000 * 1000;
  // Safety valve for runaway retransmission (0 = unlimited).
  std::uint32_t max_retransmit_attempts = 0;
  // Config epoch this server runs under (src/control reconfiguration).
  // Stamped into every outgoing DataFrame; frames from a different
  // epoch are dropped unacknowledged.  Boot cross-checks the value
  // against the store's "epoch/current" record when one exists.
  std::uint64_t epoch = 0;
  // Adaptive ack/credit coalescing window.  0 (the default) flushes the
  // staged acks after every Channel batch -- the historical behavior.
  // >0 holds them up to this long so consecutive batches collapse into
  // one AckFrame per peer per window; a grant that would unblock a
  // credit-paused sender still flushes immediately (the ack carries the
  // cumulative credit trailer that reopens the window), so coalescing
  // trades ack-frame count for latency only where nobody is waiting.
  std::uint64_t ack_coalesce_ns = 0;
  // End-to-end flow control and overload protection (src/flow): credit
  // windows on server-to-server links, deficit-round-robin forwarding
  // on routers, and engine admission control for local sends.  Enabled by default with
  // watermarks generous enough to be invisible under nominal load;
  // flow.enabled = false reproduces the historical unbounded behavior.
  flow::FlowOptions flow;
};

// The power-of-two-bucketed histogram lives in common/histogram.h;
// re-exported here because the stats plumbing and tests name it
// mom::LogHistogram.
using ::cmom::LogHistogram;

struct ServerStats {
  std::uint64_t messages_sent = 0;        // application sends originated
  std::uint64_t messages_delivered = 0;   // delivered to local agents
  std::uint64_t messages_forwarded = 0;   // routed onward (router role)
  std::uint64_t frames_received = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t holdback_peak = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t stamp_bytes_sent = 0;     // wire cost of causal stamps
  std::uint64_t commits = 0;
  std::uint64_t commit_bytes = 0;         // store bytes over all commits
  std::uint64_t ack_frames_sent = 0;      // after coalescing
  std::uint64_t acks_sent = 0;            // message ids acknowledged
  // Adaptive ack coalescing (ack_coalesce_ns > 0): flushes forced by
  // the window timer vs flushed early because the credit grant could
  // unblock a paused sender.
  std::uint64_t ack_flush_timer = 0;
  std::uint64_t ack_flush_unblock = 0;
  // Frames the transport refused (e.g. supervised outbox overflow);
  // each is covered by a later QueueOUT retransmission.
  std::uint64_t transport_send_failures = 0;
  // Data frames dropped (unacked) because their epoch differed from
  // this server's -- stragglers around a reconfiguration cutover.
  std::uint64_t epoch_fenced_frames = 0;
  // Data frames dropped (unacked) because their stamp named a member
  // outside the domain or lacked the sender's own send counter
  // (CheckResult::kMalformed): a corrupt or hostile peer.
  std::uint64_t malformed_frames = 0;
  // SendMessage calls rejected while an epoch fence was up.
  std::uint64_t fenced_sends_rejected = 0;
  // --- flow control (src/flow) ---------------------------------------
  // First emissions delayed because the link's credit window was
  // exhausted (each later released; never dropped).
  std::uint64_t credit_blocked = 0;
  // Replenish AckFrames carrying a grant but no message ids.
  std::uint64_t credit_only_acks = 0;
  // Liveness probes that force-emitted a blocked frame to solicit a
  // fresh grant from a silent peer.
  std::uint64_t credit_probes = 0;
  // High-water of the receiver backlog (see ReceiverBacklogLocked)
  // observed while accepting remote frames.  Effective credit pacing
  // bounds it near high_watermark + in-flight slack; a runaway value
  // means a peer's window escaped the grant discipline.
  std::uint64_t backlog_peak = 0;
  // Deficit-round-robin forwarding: rounds walked and messages moved
  // through the per-domain staging queues (router role only).
  std::uint64_t drr_rounds = 0;
  std::uint64_t drr_forwarded = 0;
  std::uint64_t staged_forward_peak = 0;
  // Engine admission: local sends parked on the bounded wait queue,
  // and sends rejected with kOverloaded once it was full.
  std::uint64_t sends_deferred = 0;
  std::uint64_t sends_shed = 0;
  std::uint64_t wait_queue_peak = 0;
  // Messages retired to persistent dlq/ records (slow consumers).
  std::uint64_t dead_letters = 0;
  // Subset of transport_send_failures with a kOverloaded status (peer
  // alive but shedding; distinct from disconnects).
  std::uint64_t transport_overloads = 0;
  LogHistogram commit_bytes_hist;   // bytes per store commit
  LogHistogram engine_batch_hist;   // reactions per Engine work item
  LogHistogram channel_batch_hist;  // frames per Channel work item
  // Causal-core wire cost: encoded stamp bytes per outgoing message and
  // hold-back queue depth observed when a frame was parked.
  LogHistogram stamp_bytes_hist;
  LogHistogram holdback_depth_hist;
};

class AgentServer {
 public:
  // `deployment`, `endpoint`, `runtime` and `store` must outlive the
  // server.  `self` must be one of the deployment's servers and match
  // the endpoint's identity.
  AgentServer(const domains::Deployment& deployment, ServerId self,
              net::Endpoint* endpoint, net::Runtime* runtime, Store* store,
              AgentServerOptions options = {});
  ~AgentServer();

  AgentServer(const AgentServer&) = delete;
  AgentServer& operator=(const AgentServer&) = delete;

  // Registers an agent under a server-local id.  Must happen before
  // Boot(); the same ids must be attached again when rebooting after a
  // crash so persistent state can be restored.
  AgentId AttachAgent(std::uint32_t local_id, std::unique_ptr<Agent> agent);

  // Recovers durable state from the store (first boot initializes it),
  // installs the receive handler and resumes pending work
  // (retransmissions, queued reactions).
  [[nodiscard]] Status Boot();

  // Stops accepting frames and timers.  Pending durable state remains
  // in the store for the next Boot.
  void Shutdown();

  // Crash-test teardown barrier: Shutdown() plus waiting out (and
  // permanently barring) every pending runtime callback.  After Halt
  // returns the server never touches its endpoint again, so a chaos
  // test may destroy the endpoint before the server object --
  // simulating a whole-process kill one subsystem at a time.
  void Halt();

  // Application-level send on behalf of a local agent.  Thread-safe.
  // `from.server` must be this server.
  Result<MessageId> SendMessage(AgentId from, AgentId to, std::string subject,
                                Bytes payload = {});

  [[nodiscard]] ServerId self() const { return self_; }
  [[nodiscard]] std::uint64_t epoch() const { return options_.epoch; }
  [[nodiscard]] ServerStats stats() const;

  // OK while the server is live; the kFailStop status after a durable
  // write or commit failure halted it.  A halted server rejects
  // SendMessage and control records with that same status, commits
  // nothing, emits no frames and drops incoming ones -- the store holds
  // exactly the last successful commit, which is what a restart (a new
  // AgentServer over the same store) recovers.
  [[nodiscard]] Status health() const;

  // --- epoch fence (quiesce phase of a reconfiguration) ---------------
  // While the fence is up, SendMessage returns Unavailable; everything
  // already accepted keeps flowing (routing, retransmission, reactions)
  // so the server drains toward the quiesced state the cutover needs.
  // Snapshot of the drain progress; `drained` means no local work is
  // pending anywhere -- but only the coordinator, seeing every server
  // drained *simultaneously*, may conclude the cluster is quiesced
  // (a peer could still hold an unacked frame addressed to us).
  struct FenceStatus {
    bool active = false;
    bool drained = false;
    std::size_t queue_out = 0;
    std::size_t queue_in = 0;
    std::size_t holdback = 0;
    // Queued or running work items, inbox frames, staged forwards and
    // deferred sends.
    std::size_t inflight = 0;
  };
  void BeginFence();
  void LiftFence();
  [[nodiscard]] FenceStatus fence_status() const;

  // Snapshot of the flow-control state (src/flow): per-link credit
  // gauges plus the staging/wait queue depths.  Tests, momtool and the
  // flow bench read this to assert backlogs stay under the watermarks.
  struct FlowStatus {
    std::size_t paused_links = 0;        // links with blocked frames
    std::size_t blocked_messages = 0;    // frames awaiting first emission
    std::uint64_t credits_outstanding = 0;  // unused window over all links
    std::size_t staged_forwards = 0;     // DRR staging queue depth
    std::size_t wait_queue = 0;          // admission wait queue depth
    std::uint64_t dead_letters = 0;
  };
  [[nodiscard]] FlowStatus flow_status() const;

  // Cumulative application sends originated on this server, keyed by
  // destination server.  The autopilot observer differences consecutive
  // snapshots per observation window to rebuild a live
  // origin->destination TrafficProfile without touching the hot path.
  [[nodiscard]] std::vector<std::pair<ServerId, std::uint64_t>>
  OriginatedByDestination() const;

  // Durably applies one control-plane record write (delete when `value`
  // is nullopt) through the server's own transaction pipeline, so it
  // serializes with protocol commits -- an outside Commit on a live
  // server's store would flush whatever transaction is half-staged.
  // Blocks until the record committed; wall-clock runtimes only (under
  // a simulated CostModel the charge continuation would deadlock the
  // caller).
  [[nodiscard]] Status ApplyControlRecord(std::string_view key,
                                          std::optional<Bytes> value);
  // The read twin: the committed value of `key` (nullopt when absent),
  // read by a work item ordered after every transaction queued before
  // it, so the caller never sees another transaction's staged writes
  // and never races the commit path.  Same runtime caveat as above.
  [[nodiscard]] std::optional<Bytes> ReadControlRecord(std::string_view key);

  // Number of held-back (causally premature) messages over all domains.
  [[nodiscard]] std::size_t holdback_size() const;
  // Unacknowledged outgoing messages.
  [[nodiscard]] std::size_t queue_out_size() const;
  // True when no transaction is running or queued.
  [[nodiscard]] bool Idle() const;

  // A copy of the causal core of deployment domain `index`, decoded
  // from its current image (tests / introspection; safe while the
  // server runs).  Empty when this server is not a member of it.
  [[nodiscard]] std::optional<clocks::MatrixClockCore> CoreSnapshot(
      std::size_t deployment_domain_index) const;

  // Canonical serialization of the volatile channel + engine image
  // (next message seq, clocks, QueueOUT, QueueIN, hold-back queues, in
  // order).  Test hook: two servers that must be in equivalent states
  // -- e.g. one before a crash and the one recovered from its store --
  // must produce identical bytes.  bench/commit_path prices a
  // whole-image rewrite per commit from its size.
  [[nodiscard]] Bytes DebugImage() const;

 private:
  struct HeldFrame {
    DomainServerId src_local;
    DataFrame frame;
  };

  struct DomainItem {
    DomainItem(std::size_t index, DomainId domain,
               clocks::MatrixClockCore clock)
        : deployment_index(index), id(domain), core(std::move(clock)) {}

    std::size_t deployment_index = 0;
    DomainId id;
    // This server's matrix clock for the domain (clocks/causal_core.h).
    clocks::MatrixClockCore core;
    clocks::HoldbackQueue<HeldFrame> holdback;
    // MessageId index over `holdback` (O(1) duplicate-held check and
    // per-entry key deletion); always in sync with the queue.
    std::unordered_set<MessageId> held_ids;
    // core.version() at the last durable write; the core image is
    // re-persisted only when the live version differs.
    std::uint64_t persisted_clock_version = 0;
  };

  static constexpr std::uint64_t kNoRetransmit = ~std::uint64_t{0};

  struct OutEntry {
    Message message;
    ServerId next_hop;
    DomainId domain;
    clocks::Stamp stamp;
    // stamp.EncodedSize(), sized once when stamped (or recovered) and
    // reused by the stats, the qout/ record and every emission.
    std::size_t stamp_size = 0;
    std::uint32_t attempts = 0;
    // Runtime time of the next retransmission; kNoRetransmit before the
    // first emission (credit-blocked) and after the chain gave up.
    // Volatile: the Boot resume pass schedules every recovered entry.
    std::uint64_t retransmit_at_ns = kNoRetransmit;
    // Monotonic enqueue ticket; persisted so recovery rebuilds QueueOUT
    // in original order even though store keys sort by message id.
    std::uint64_t enqueue_seq = 0;
  };

  // One scheduled retransmission of QueueOUT entry `id`.  Records are
  // never erased in place: a record is live iff `id` is still in
  // queue_out_index_ and the entry still carries `deadline_ns`; a stale
  // one (acknowledged, rescheduled or given up) is popped when it
  // reaches the front of its FIFO.
  struct RetransmitRecord {
    std::uint64_t deadline_ns = 0;
    MessageId id;
  };
  // Backoff doubles per attempt up to timeout << kMaxBackoffShift.
  static constexpr std::uint32_t kMaxBackoffShift = 6;

  struct InEntry {
    std::uint64_t seq = 0;  // key suffix of the qin/ store entry
    Message message;
  };

  // A unit of transactional work.  Returns the number of clock entries
  // it touched; outputs are collected in pending_frames_ /
  // engine_step_needed_ and released once the simulated cost elapsed.
  using Work = std::function<std::size_t()>;

  // --- work serialization -------------------------------------------
  void Post(Work work);
  void PumpLocked();

  // --- channel -------------------------------------------------------
  // Decodes `frame` into the inbox and queues the drain: at the end of
  // the reactor round on a reactor thread, inline everywhere else.
  void HandleFrame(ServerId from, Bytes frame);
  // Processes up to kChannelBatch inbox frames in one transaction.
  std::size_t DrainInbox();
  std::size_t ProcessDataFrame(ServerId from, DataFrame frame);
  std::size_t ProcessAck(ServerId from, const AckFrame& ack);
  // Delivers a checked frame: local QueueIN or forward.  Returns clock
  // entries touched.
  std::size_t CommitDelivery(DomainItem& item, DomainServerId src_local,
                             DataFrame&& frame);
  // Re-examines the hold-back queue after a clock change; returns the
  // clock entries touched by the deliveries it unblocked.
  std::size_t DrainHoldback(DomainItem& item);
  // Stamps `message` toward its next hop, persists and appends it to
  // QueueOUT, and emits its data frame unless the link's credit window
  // blocks it.  Returns clock entries touched.
  std::size_t StampAndEnqueue(Message message);
  void EmitFrame(ServerId to, Bytes bytes);
  // Records an accepted message for the end-of-batch coalesced ack.
  void StageAck(ServerId peer, MessageId id);
  // Turns staged acks into one AckFrame per peer (after the commit).
  void FlushStagedAcks();
  // ack_coalesce_ns > 0 path: flushes immediately when a grant would
  // unblock a paused sender, else arms the window timer.
  void MaybeCoalesceAcksLocked();
  void FlushFrames(std::vector<std::pair<ServerId, Bytes>> frames);
  // Emits `entry`'s data frame (original stamp) and schedules its next
  // retransmission.  Caller holds mutex_ inside a work item.
  void EmitOutEntry(OutEntry& entry);
  // Sets the just-emitted `entry`'s next retransmission deadline and
  // records it in the deadline queue.  The delay grows exponentially
  // with the attempts already made (capped at 64x the base timeout) so
  // a backlogged peer is probed, not bombarded.  Caller holds mutex_.
  void ScheduleRetransmit(OutEntry& entry);
  // Pops records off `fifo`'s front until its head is live.
  void PopStaleRetransmitsLocked(std::deque<RetransmitRecord>& fifo) const;
  // Pops stale records off the FIFO fronts; returns the FIFO whose
  // front is the earliest live record, or nullptr when none is live.
  std::deque<RetransmitRecord>* EarliestRetransmitLocked();
  // Arms the server's one retransmission timer unless it is already
  // pending or no record is live.  Caller holds mutex_.
  void ArmRetransmitTimerLocked();
  // The timer's work item: re-sends every live entry whose deadline
  // has passed, then re-arms.
  std::size_t RetransmitDue();

  // --- flow control (src/flow) ----------------------------------------
  // Per-peer credit bookkeeping, created on first use.
  [[nodiscard]] flow::CreditSenderLink& SenderLink(ServerId peer);
  [[nodiscard]] flow::CreditReceiverLink& ReceiverLink(ServerId peer);
  // Emits blocked frames toward `peer` while the window has headroom
  // (or unconditionally when `force`: fence bypass).  Caller holds
  // mutex_ inside a work item.  Returns frames released.
  std::size_t ReleaseBlocked(ServerId peer, bool force);
  // Arms the per-peer liveness probe: if the link toward `peer` is
  // still paused when it fires, one blocked frame is force-emitted so
  // the peer's ack (with a fresh cumulative grant) can reopen a window
  // whose replenish ack was lost.  At most one armed per peer.
  void ScheduleCreditProbe(ServerId peer);
  // Backlog the receiver advertises against: everything accepted but
  // not yet reacted to or forwarded on (QueueIN + held frames + DRR
  // staging + QueueOUT).
  [[nodiscard]] std::size_t ReceiverBacklogLocked() const;
  // Pushes credit-only acks to paused peers once the backlog has
  // drained below the low watermark.  Caller holds mutex_ inside a
  // work item.
  void MaybeReplenishCredits();
  // Router fair scheduling: parks a forwarded message in the per-source
  // DRR staging queue, persisted under its fwd/ key in the SAME
  // transaction as the delivery that produced it.
  void StageForward(DomainId source, Message message);
  // Work item draining the DRR staging queue: stamps each released
  // message toward its next hop and deletes its fwd/ key, one commit
  // per batch.
  std::size_t ForwardStep();
  // Stamps EVERY staged forward immediately (no batching): the causal
  // barrier local-origin sends need before they may be stamped.
  std::size_t FlushForwardStageLocked();
  // Engine admission: queues a wait-queue drain work item when backlog
  // has fallen below the low threshold.  Caller holds mutex_.
  void MaybeScheduleWaitDrainLocked();
  std::size_t DrainWaitQueue();
  // Persists one dead-letter record (staged into the current
  // transaction).  Caller holds mutex_ inside a work item.
  void RecordDeadLetter(std::string reason, const Message& original);

  // --- engine ----------------------------------------------------------
  std::size_t EngineStep();
  std::size_t ApplySends(std::vector<Message> sends);

  // holdback_size() without taking mutex_ (receive-path internal use).
  [[nodiscard]] std::size_t HoldbackSizeLocked() const;
  // Routes a locally addressed message into the engine: persists its
  // qin/ entry and appends it to QueueIN.  Shared by Channel delivery
  // and local sends.
  void EnqueueLocalDelivery(Message message);

  // --- persistence (mom/store_schema.h) --------------------------------
  // Staging wrappers: route every store mutation through these so
  // CommitLocked knows whether the transaction touched anything.
  void StorePut(std::string_view key, Bytes value);
  void StoreDelete(std::string_view key);
  void PersistMeta();
  void PersistClocks(bool force);
  void PersistAgent(std::uint32_t local_id);
  // Per-entry queue writes.
  void PersistOutEntry(const OutEntry& entry);
  void EraseOutEntry(const OutEntry& entry);
  void PersistInEntry(const InEntry& entry);
  void EraseInEntry(const InEntry& entry);
  void PersistHeldFrame(const DomainItem& item, const HeldFrame& held,
                        std::uint64_t arrival_seq);
  void EraseHeldFrame(const DomainItem& item, MessageId id);
  [[nodiscard]] Status RecoverLocked();
  // Rebuilds clocks, QueueOUT, QueueIN, the DRR stage and the hold-back
  // queues from their per-entry records.
  [[nodiscard]] Status RecoverEntriesLocked();
  // Commits the staged transaction.  On a store failure the server
  // FAIL-STOPS (FailStopLocked) and the halt status is returned; the
  // in-memory state that was never persisted must not keep running, or
  // exactly-once and causal recovery silently break.  Work items may
  // ignore the result -- the halt guards make every later step inert --
  // but Boot/recovery paths must propagate it.
  [[nodiscard]] Status CommitLocked();
  // Halts the server after a durable-write failure: records the typed
  // halt status, rolls the store back to its last committed image and
  // discards every staged output (frames, acks, trace events) so
  // nothing advertising un-durable state can leave.  Queued work items
  // still run -- inert through the guards -- so a blocked
  // ApplyControlRecord caller always resolves.  Caller holds mutex_.
  void FailStopLocked(const Status& cause);

  // --- trace buffering (commit-then-record) ---------------------------
  // Send/deliver events are buffered per transaction and recorded only
  // after the commit that makes them durable succeeded; a failed commit
  // discards them.  Otherwise the oracle would count a send the crash
  // (or fail-stop) un-happened, reporting phantom losses.
  void BufferTraceSend(const Message& message);
  void BufferTraceDeliver(const Message& message);
  void FlushTraceLocked();

  // --- helpers ---------------------------------------------------------
  [[nodiscard]] DomainItem* FindItemByDomainId(DomainId id);
  [[nodiscard]] Message MakeMessage(AgentId from, AgentId to,
                                    std::string subject, Bytes payload);

  // Deferred runtime callbacks (retransmit timers, simulated-cost
  // continuations) capture this token; each callback holds the token's
  // mutex for its whole body and bails out when `alive` is false.  The
  // destructor sets `alive` under the same mutex, which both bars
  // future callbacks and waits out any callback currently mid-flight --
  // so chaos tests may destroy a server at any moment, even with
  // timers pending on a threaded runtime.
  struct LifeToken {
    std::mutex mutex;
    bool alive = true;
  };
  std::shared_ptr<LifeToken> life_ = std::make_shared<LifeToken>();

  const domains::Deployment* deployment_;
  ServerId self_;
  net::Endpoint* endpoint_;
  net::Runtime* runtime_;
  Store* store_;
  AgentServerOptions options_;

  mutable std::mutex mutex_;
  bool booted_ = false;
  bool shutdown_ = false;
  // Non-OK once FailStopLocked ran (kFailStop wrapping the store
  // failure).  Deliberately distinct from shutdown_: Shutdown() must
  // still run its receive-handler swap on a halted server, and a halted
  // server still drains its work queue (inertly) for blocked callers.
  Status halt_status_;
  bool fence_active_ = false;
  bool work_running_ = false;
  std::deque<Work> work_queue_;
  std::vector<std::pair<ServerId, Bytes>> pending_frames_;
  bool engine_step_needed_ = false;
  bool engine_step_queued_ = false;

  // Decoded frames awaiting the batched Channel drain.  Frames are
  // parsed on the transport thread that delivered them (HandleFrame),
  // before the server lock: decode is the Channel's largest per-frame
  // constant factor and runs concurrently across peers this way, while
  // the drain under mutex_ only touches already-decoded structs.
  struct DecodedFrame {
    ServerId from;
    FrameType type = FrameType::kData;
    DataFrame data;  // valid iff type == kData
    AckFrame ack;    // valid iff type == kAck
  };
  std::deque<DecodedFrame> inbox_;
  bool inbox_drain_queued_ = false;
  // (peer, accepted ids) staged during the current drain, coalesced
  // into one ack frame per peer after the batch commit.  With
  // ack_coalesce_ns > 0 they may survive several drains until the
  // window timer (or an unblocking grant) flushes them.
  std::vector<std::pair<ServerId, std::vector<MessageId>>> staged_acks_;
  // True while an ack-coalescing window timer is in flight.
  bool ack_flush_armed_ = false;
  // Set by frame processing that changed durable state; tells the
  // batched drain whether the end-of-batch commit is needed at all
  // (a batch of pure duplicates or bad frames commits nothing).
  bool commit_needed_ = false;
  // Trace events of the transaction in flight, recorded on commit
  // success and discarded on fail-stop (see BufferTraceSend).
  std::vector<causality::TraceEvent> pending_trace_;

  std::vector<DomainItem> items_;
  // QueueOUT: FIFO list plus MessageId index for O(1) ack/retransmit
  // lookup (a deque would invalidate iterators on erase).
  std::list<OutEntry> queue_out_;
  std::unordered_map<MessageId, std::list<OutEntry>::iterator>
      queue_out_index_;
  // Retransmission deadline queue: one FIFO per backoff level.  Every
  // record in FIFO k was pushed `retransmit_timeout_ns << k` before its
  // deadline and runtime time is monotonic, so each FIFO is already in
  // deadline order and the earliest deadline is the least front.
  std::array<std::deque<RetransmitRecord>, kMaxBackoffShift + 1>
      retransmit_fifos_;
  // True from arming the retransmission timer until its work item has
  // re-armed it (or found no live record).  Guarded by mutex_.
  bool retransmit_timer_armed_ = false;
  std::deque<InEntry> queue_in_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Agent>> agents_;
  std::uint64_t next_msg_seq_ = 1;
  // Durable boot counter (part of the meta record), bumped and
  // committed by every Boot.  Tags outgoing data frames and ack credit
  // trailers so peers can tell a restarted incarnation of this server
  // from its previous life and renegotiate per-link credit state
  // (src/flow/credits.h).  Monotone >= 1 on a booted server.
  std::uint64_t incarnation_ = 0;
  bool meta_dirty_ = false;
  // Key-suffix / ordering counters for the per-entry schema (volatile;
  // re-derived from the recovered entries on Boot).
  std::uint64_t next_out_enqueue_seq_ = 1;
  std::uint64_t next_in_seq_ = 1;
  std::uint64_t next_hold_seq_ = 1;
  // Store operations staged since the last commit; a transaction that
  // staged nothing skips the (otherwise empty) store commit entirely.
  std::uint64_t txn_ops_staged_ = 0;
  // Bytes committed by the currently running work item (feeds the
  // simulated disk-cost charge).
  std::uint64_t txn_bytes_marker_ = 0;

  // --- flow control state (guarded by mutex_) -------------------------
  std::unordered_map<ServerId, flow::CreditSenderLink> sender_links_;
  std::unordered_map<ServerId, flow::CreditReceiverLink> receiver_links_;
  // Peers with a liveness probe timer in flight.
  std::unordered_set<ServerId> credit_probe_armed_;
  // One forward staged by the DRR scheduler; `seq` is its fwd/ key
  // suffix (and recovery order).
  struct ForwardEntry {
    std::uint64_t seq = 0;
    Message message;
  };
  flow::DrrScheduler<ForwardEntry> forward_stage_;
  bool forward_step_queued_ = false;
  std::uint64_t next_fwd_seq_ = 1;
  // Deferred local sends (ids already assigned; released in order).
  std::deque<Message> wait_queue_;
  bool wait_drain_queued_ = false;
  // Next dlq/ key suffix; seeded from the store at Boot.
  std::uint64_t next_dlq_seq_ = 1;

  ServerStats stats_;
  // Cumulative per-destination origination counters (guarded by
  // mutex_, maintained alongside stats_.messages_sent).
  std::unordered_map<ServerId, std::uint64_t> originated_by_dest_;
};

}  // namespace cmom::mom
