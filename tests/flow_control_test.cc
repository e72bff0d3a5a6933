// Tests for the flow-control subsystem (src/flow): credit window
// bookkeeping, deficit-round-robin fairness, engine admission control,
// dead-letter records, the AckFrame credit trailer, and the end-to-end
// behavior of a credit-gated bus under tiny watermarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "flow/admission.h"
#include "flow/credits.h"
#include "flow/dead_letter.h"
#include "flow/drr.h"
#include "mom/agent_server.h"
#include "mom/message.h"
#include "mom/store.h"
#include "net/sim_network.h"
#include "pubsub/queue.h"
#include "sim/simulator.h"
#include "workload/agents.h"
#include "workload/threaded_harness.h"

namespace cmom {
namespace {

using flow::Admission;
using flow::CreditReceiverLink;
using flow::CreditSenderLink;
using flow::FlowOptions;
using flow::Priority;

// ---------------------------------------------------------------------
// Credit links
// ---------------------------------------------------------------------

TEST(Credits, SenderAdmitsUntilInitialWindowExhausts) {
  CreditSenderLink link(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(link.CanAdmit());
    link.Admit();
  }
  EXPECT_FALSE(link.CanAdmit());
  EXPECT_EQ(link.admitted(), 3u);
  EXPECT_EQ(link.outstanding(), 0u);
  // Nothing blocked yet, so the link is not "paused" (paused means
  // frames are waiting on credit, not merely that the window is full).
  EXPECT_FALSE(link.paused());
  link.Block(MessageId{ServerId(1), 7});
  EXPECT_TRUE(link.paused());
}

TEST(Credits, GrantsAreMonotoneAndIdempotent) {
  CreditSenderLink link(2);
  link.Admit();
  link.Admit();
  link.Block(MessageId{ServerId(1), 1});

  // A stale (smaller or equal) grant neither shrinks the window nor
  // reports new headroom -- reordered and duplicated acks are no-ops.
  EXPECT_FALSE(link.Grant(1));
  EXPECT_FALSE(link.Grant(2));
  EXPECT_EQ(link.limit(), 2u);
  EXPECT_TRUE(link.paused());

  // A larger grant opens headroom for the blocked frame.
  EXPECT_TRUE(link.Grant(5));
  EXPECT_EQ(link.limit(), 5u);
  MessageId out;
  ASSERT_TRUE(link.NextReleasable(out));
  EXPECT_EQ(out, (MessageId{ServerId(1), 1}));
  link.Admit();
  EXPECT_FALSE(link.NextReleasable(out));  // blocked queue drained
  // Re-applying the same grant is harmless.
  EXPECT_FALSE(link.Grant(5));
}

TEST(Credits, BlockedFramesReleaseInFifoOrder) {
  CreditSenderLink link(0);
  link.Block(MessageId{ServerId(2), 1});
  link.Block(MessageId{ServerId(2), 2});
  link.Block(MessageId{ServerId(2), 3});
  EXPECT_EQ(link.blocked_count(), 3u);
  EXPECT_TRUE(link.Grant(2));
  MessageId out;
  ASSERT_TRUE(link.NextReleasable(out));
  EXPECT_EQ(out.seq, 1u);
  link.Admit();
  ASSERT_TRUE(link.NextReleasable(out));
  EXPECT_EQ(out.seq, 2u);
  link.Admit();
  // Window exhausted again: the third frame stays blocked.
  EXPECT_FALSE(link.NextReleasable(out));
  EXPECT_EQ(link.blocked_count(), 1u);
}

TEST(Credits, ForceReleaseBypassesTheWindow) {
  // Fences and the liveness probe emit blocked frames regardless of
  // credit, so a stalled peer can never wedge a reconfiguration.
  CreditSenderLink link(0);
  link.Block(MessageId{ServerId(3), 1});
  link.Block(MessageId{ServerId(3), 2});
  MessageId out;
  ASSERT_TRUE(link.ForceRelease(out));
  EXPECT_EQ(out.seq, 1u);
  ASSERT_TRUE(link.ForceRelease(out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_FALSE(link.ForceRelease(out));
}

TEST(Credits, RetireDropsARetiredBlockedFrame) {
  CreditSenderLink link(0);
  link.Block(MessageId{ServerId(4), 1});
  link.Block(MessageId{ServerId(4), 2});
  link.Retire(MessageId{ServerId(4), 1});
  EXPECT_EQ(link.blocked_count(), 1u);
  MessageId out;
  ASSERT_TRUE(link.ForceRelease(out));
  EXPECT_EQ(out.seq, 2u);
}

TEST(Credits, RetireResolvesAnInFlightEmission) {
  CreditSenderLink link(/*initial_credit=*/8);
  link.Admit();
  link.Admit();
  EXPECT_EQ(link.inflight(), 2u);
  link.Retire(MessageId{ServerId(4), 1});
  EXPECT_EQ(link.inflight(), 1u);
  // A blocked (never emitted) entry retires from the queue instead.
  link.Block(MessageId{ServerId(4), 7});
  link.Retire(MessageId{ServerId(4), 7});
  EXPECT_EQ(link.inflight(), 1u);
  EXPECT_EQ(link.blocked_count(), 0u);
}

TEST(Credits, ReconcileFirstContactAdoptsAbsolutely) {
  // First ack from a peer this boot (peer_session 0 -> S): the grant
  // replaces the assumed initial credit outright, and the admission
  // count is rebuilt from the receiver's authoritative accepted count
  // plus our in-flight emissions.
  CreditSenderLink link(/*initial_credit=*/4);
  for (int i = 0; i < 3; ++i) link.Admit();  // emitted on initial credit
  // Peer has accepted 1 of the 3; the ack retiring it ran first.
  link.Retire(MessageId{ServerId(1), 1});
  EXPECT_FALSE(link.Reconcile(/*session=*/7, /*accepted=*/1, /*granted=*/2));
  EXPECT_EQ(link.peer_session(), 7u);
  EXPECT_EQ(link.limit(), 2u);  // absolute adopt, below initial credit
  EXPECT_EQ(link.admitted(), 3u);  // 1 accepted + 2 in flight
  EXPECT_FALSE(link.CanAdmit());   // 3 admitted >= limit 2: backpressure
  // Same session afterwards: a stale (reordered) accepted count only
  // takes the monotone grant.
  EXPECT_FALSE(link.Reconcile(7, 0, 1));
  EXPECT_EQ(link.limit(), 2u);
  EXPECT_EQ(link.admitted(), 3u);
  link.Block(MessageId{ServerId(1), 9});
  EXPECT_TRUE(link.Reconcile(7, 1, 5));
  EXPECT_EQ(link.limit(), 5u);
}

TEST(Credits, ReconcileRepairsRunawayAfterReceiverRestart) {
  // The receiver restarted: its accepted numbering starts over, and it
  // re-counts retransmitted in-flight entries its new numbering never
  // saw.  Dead-reckoning admitted through the restart (keeping it, or
  // zeroing it) leaves the two counters permanently offset; rebuilding
  // it as accepted + inflight re-pairs them exactly.
  CreditSenderLink link(/*initial_credit=*/4);
  ASSERT_FALSE(link.Reconcile(/*session=*/3, /*accepted=*/0,
                              /*granted=*/1000));
  for (int i = 0; i < 900; ++i) link.Admit();
  for (std::uint64_t s = 1; s <= 890; ++s) {
    link.Retire(MessageId{ServerId(2), s});  // 890 acked, 10 in flight
  }
  link.Block(MessageId{ServerId(2), 1000});

  // New incarnation: it has re-accepted 4 of our 10 retransmitted
  // in-flight entries so far and grants a small cumulative window.
  EXPECT_TRUE(link.Reconcile(/*session=*/4, /*accepted=*/4, /*granted=*/20));
  EXPECT_EQ(link.peer_session(), 4u);
  EXPECT_EQ(link.limit(), 20u);
  EXPECT_EQ(link.admitted(), 14u);  // 4 accepted + 10 in flight
  MessageId out;
  EXPECT_TRUE(link.NextReleasable(out));  // link is live again

  // A reordered straggler grant from the dead incarnation is ignored:
  // incarnations are monotone, so it can never roll the link back.
  EXPECT_FALSE(link.Reconcile(/*session=*/3, /*accepted=*/900,
                              /*granted=*/2000));
  EXPECT_EQ(link.peer_session(), 4u);
  EXPECT_EQ(link.limit(), 20u);
}

TEST(Credits, ReconcileHealsWedgeAfterOwnRestartDuplicates) {
  // A restarted SENDER re-emits its recovered QueueOUT (all counted as
  // in-flight admissions), but the surviving receiver holds most of
  // them durably and never re-accepts the duplicates.  As the
  // duplicate re-acks retire the entries, reconciliation shrinks
  // admitted back toward accepted and the window reopens -- no
  // permanent wedge.
  CreditSenderLink link(/*initial_credit=*/16);
  for (int i = 0; i < 100; ++i) link.Admit();  // boot resume re-emissions
  EXPECT_EQ(link.inflight(), 100u);

  // Receiver re-accepted only 5 (the rest were durable duplicates);
  // window is 32.  Before any retirements the link is conservatively
  // paused...
  EXPECT_FALSE(link.Reconcile(/*session=*/9, /*accepted=*/5,
                              /*granted=*/37));
  EXPECT_EQ(link.admitted(), 105u);
  EXPECT_FALSE(link.CanAdmit());

  // ...but the duplicate re-acks retire the in-flight entries, and the
  // next reconciliation converges admitted to accepted: full headroom.
  for (std::uint64_t s = 1; s <= 100; ++s) {
    link.Retire(MessageId{ServerId(5), s});
  }
  EXPECT_FALSE(link.Reconcile(/*session=*/9, /*accepted=*/5,
                              /*granted=*/37));
  EXPECT_EQ(link.admitted(), 5u);
  EXPECT_TRUE(link.CanAdmit());
}

TEST(Credits, RetireIsO1ForNeverBlockedIds) {
  // Every ack retirement calls Retire; ids that were never blocked (the
  // overwhelmingly common case) must not scan the blocked queue.  The
  // membership index keeps the queue and set in sync across every
  // release path.
  CreditSenderLink link(0);
  link.Block(MessageId{ServerId(4), 1});
  link.Block(MessageId{ServerId(4), 2});
  link.Retire(MessageId{ServerId(4), 99});  // never blocked: no-op
  EXPECT_EQ(link.blocked_count(), 2u);
  MessageId out;
  ASSERT_TRUE(link.ForceRelease(out));
  link.Retire(out);  // already released: resolves the emission
  EXPECT_EQ(link.blocked_count(), 1u);
  link.Retire(MessageId{ServerId(4), 2});
  EXPECT_EQ(link.blocked_count(), 0u);
}

TEST(Credits, ReceiverObserveSessionRestartsCountingOnSenderReboot) {
  CreditReceiverLink link(/*initial_credit=*/4);
  link.ObserveSession(5);
  EXPECT_EQ(link.sender_session(), 5u);
  // First observation keeps the initial advertisement assumption.
  EXPECT_EQ(link.advertised(), 4u);
  for (int i = 0; i < 10; ++i) link.Accept();
  EXPECT_EQ(link.ComputeGrant(/*backlog=*/0, /*high_watermark=*/8), 18u);

  // Stragglers from the dead incarnation are no-ops.
  link.ObserveSession(4);
  EXPECT_EQ(link.sender_session(), 5u);
  EXPECT_EQ(link.accepted(), 10u);

  // The sender rebooted: it admits from zero, so accepted and the
  // advertisement monotonicity start over -- the next grant is window-
  // sized instead of being pinned at the old cumulative high-water.
  link.ObserveSession(6);
  EXPECT_EQ(link.sender_session(), 6u);
  EXPECT_EQ(link.accepted(), 0u);
  EXPECT_EQ(link.ComputeGrant(/*backlog=*/0, /*high_watermark=*/8), 8u);
}

TEST(Credits, ReceiverGrantTracksBacklogAndStaysMonotone) {
  CreditReceiverLink link(4);
  EXPECT_EQ(link.advertised(), 4u);

  // Empty backlog: full window on top of what was accepted.
  for (int i = 0; i < 3; ++i) link.Accept();
  EXPECT_EQ(link.ComputeGrant(/*backlog=*/0, /*high_watermark=*/8), 11u);

  // Backlog at the high watermark: zero window.  The grant must not
  // regress below the previous advertisement even though the window
  // collapsed -- cumulative grants never shrink.
  EXPECT_EQ(link.ComputeGrant(/*backlog=*/8, /*high_watermark=*/8), 11u);
  EXPECT_EQ(link.advertised(), 11u);

  // Once accepted catches up with the advertisement the sender may be
  // out of headroom -- that is when a credit-only refresh is worth it.
  EXPECT_FALSE(link.MaybePaused());
  for (int i = 0; i < 8; ++i) link.Accept();
  EXPECT_EQ(link.accepted(), 11u);
  EXPECT_TRUE(link.MaybePaused());
  EXPECT_EQ(link.ComputeGrant(/*backlog=*/2, /*high_watermark=*/8), 17u);
  EXPECT_FALSE(link.MaybePaused());
}

// ---------------------------------------------------------------------
// Deficit round robin
// ---------------------------------------------------------------------

TEST(Drr, FairShareAcrossAHotAndAQuietDomain) {
  flow::DrrScheduler<int> drr(/*quantum=*/2);
  for (int i = 0; i < 20; ++i) drr.Push(DomainId(0), i);  // hot
  for (int i = 100; i < 104; ++i) drr.Push(DomainId(1), i);  // quiet
  ASSERT_EQ(drr.size(), 24u);
  EXPECT_EQ(drr.queue_count(), 2u);

  // One round of budget 8: each domain gets its quantum per round, so
  // the quiet domain is served in the same rounds as the hot one
  // instead of waiting behind its 20-message burst.
  std::vector<std::pair<DomainId, int>> popped;
  std::uint64_t rounds = 0;
  const std::size_t n = drr.Drain(
      8, [&](DomainId d, int v) { popped.emplace_back(d, v); }, &rounds);
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(rounds, 2u);
  std::size_t quiet = 0;
  for (const auto& [d, v] : popped) {
    if (d == DomainId(1)) ++quiet;
  }
  EXPECT_EQ(quiet, 4u);  // the quiet domain fully drained in 2 rounds
}

TEST(Drr, PerDomainFifoOrderIsPreserved) {
  flow::DrrScheduler<int> drr(/*quantum=*/3);
  for (int i = 0; i < 9; ++i) drr.Push(DomainId(i % 3), i);
  std::map<std::uint16_t, std::vector<int>> by_domain;
  drr.Drain(100, [&](DomainId d, int v) { by_domain[d.value()].push_back(v); });
  for (const auto& [d, values] : by_domain) {
    ASSERT_EQ(values.size(), 3u);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()))
        << "domain " << d << " reordered its own items";
  }
  EXPECT_TRUE(drr.empty());
}

TEST(Drr, EmptyQueueDoesNotBankDeficitForLaterBursts) {
  flow::DrrScheduler<int> drr(/*quantum=*/1);
  drr.Push(DomainId(0), 0);
  drr.Drain(10, [](DomainId, int) {});
  // Domain 1 idles through many rounds of domain-0 traffic...
  for (int i = 0; i < 50; ++i) {
    drr.Push(DomainId(0), i);
    drr.Drain(10, [](DomainId, int) {});
  }
  // ...then bursts.  With a banked deficit it could now forward its
  // whole burst in one round; the reset caps it at the quantum.
  for (int i = 0; i < 10; ++i) drr.Push(DomainId(1), i);
  for (int i = 0; i < 10; ++i) drr.Push(DomainId(0), 100 + i);
  std::vector<DomainId> order;
  drr.Drain(4, [&](DomainId d, int) { order.push_back(d); });
  ASSERT_EQ(order.size(), 4u);
  // Two rounds of budget 2: strict alternation, no banked burst.
  std::size_t from_d1 = 0;
  for (DomainId d : order) {
    if (d == DomainId(1)) ++from_d1;
  }
  EXPECT_EQ(from_d1, 2u);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Admission, ControlSubjectsAlwaysAdmit) {
  EXPECT_EQ(flow::ClassifyPriority("queue.listen"), Priority::kControl);
  EXPECT_EQ(flow::ClassifyPriority("queue.ignore"), Priority::kControl);
  EXPECT_EQ(flow::ClassifyPriority("topic.subscribe"), Priority::kControl);
  EXPECT_EQ(flow::ClassifyPriority("topic.unsubscribe"), Priority::kControl);
  EXPECT_EQ(flow::ClassifyPriority("control.anything"), Priority::kControl);
  EXPECT_EQ(flow::ClassifyPriority("queue.put"), Priority::kData);
  EXPECT_EQ(flow::ClassifyPriority("topic.publish"), Priority::kData);
  EXPECT_EQ(flow::ClassifyPriority("chat"), Priority::kData);

  FlowOptions options;
  options.engine_admit_high = 4;
  options.out_admit_high = 4;
  options.wait_queue_max = 2;
  // Control is admitted even over every threshold with a full wait
  // queue: quiesce must be able to drain a saturated server.
  EXPECT_EQ(flow::AdmitSend(Priority::kControl, 100, 100, 2, true,
                            /*sender_has_deferred=*/false, options),
            Admission::kAdmit);
}

TEST(Admission, ControlDefersBehindTheSameAgentsParkedSends) {
  FlowOptions options;
  options.engine_admit_high = 4;
  options.out_admit_high = 4;
  options.wait_queue_max = 2;
  // Per-sender FIFO: a control send from an agent whose earlier data
  // sends are already parked must queue behind them -- admitting it
  // would process one producer's sends out of call order.  It defers
  // even with the wait queue at (or over) its cap: control is delayed,
  // never shed.
  EXPECT_EQ(flow::AdmitSend(Priority::kControl, 0, 0, 1, true,
                            /*sender_has_deferred=*/true, options),
            Admission::kDefer);
  EXPECT_EQ(flow::AdmitSend(Priority::kControl, 100, 100, 2, true,
                            /*sender_has_deferred=*/true, options),
            Admission::kDefer);
}

TEST(Admission, DataDefersOverHighAndLatchesUntilWaitQueueDrains) {
  FlowOptions options;
  options.engine_admit_high = 4;
  options.engine_admit_low = 2;
  options.out_admit_high = 8;
  options.wait_queue_max = 3;

  // Under both thresholds, not deferring: admit.
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 3, 0, 0, false, false, options),
            Admission::kAdmit);
  // Engine backlog at high: defer.
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 4, 0, 0, false, false, options),
            Admission::kDefer);
  // QueueOUT backlog alone is enough (end-to-end backpressure from a
  // credit-paused link).
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 0, 8, 0, false, false, options),
            Admission::kDefer);
  // Hysteresis: while earlier sends still wait, new data sends keep
  // deferring even with the backlog back under the threshold --
  // admitting them would jump the FIFO.
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 0, 0, 1, true, false, options),
            Admission::kDefer);
  // Wait queue full: reject (kOverloaded to the caller).
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 4, 0, 3, true, false, options),
            Admission::kReject);

  // Wait-queue release needs the engine under the LOW threshold.
  EXPECT_FALSE(flow::ShouldDrainWaitQueue(3, 0, options));
  EXPECT_TRUE(flow::ShouldDrainWaitQueue(2, 0, options));
  EXPECT_FALSE(flow::ShouldDrainWaitQueue(2, 8, options));
}

TEST(Admission, DisabledFlowAdmitsEverything) {
  FlowOptions options;
  options.enabled = false;
  options.engine_admit_high = 1;
  options.out_admit_high = 1;
  options.wait_queue_max = 0;
  EXPECT_EQ(flow::AdmitSend(Priority::kData, 1000, 1000, 1000, true, false, options),
            Admission::kAdmit);
}

// ---------------------------------------------------------------------
// Dead-letter records
// ---------------------------------------------------------------------

TEST(DeadLetter, KeyRoundTripsAndSortsInSequenceOrder) {
  const std::string a = flow::DeadLetterKey(9);
  const std::string b = flow::DeadLetterKey(10);
  const std::string c = flow::DeadLetterKey(0x1234567890abcdefull);
  EXPECT_LT(a, b);  // fixed-width hex: lexicographic == numeric
  EXPECT_LT(b, c);
  std::uint64_t seq = 0;
  ASSERT_TRUE(flow::ParseDeadLetterKey(a, seq));
  EXPECT_EQ(seq, 9u);
  ASSERT_TRUE(flow::ParseDeadLetterKey(c, seq));
  EXPECT_EQ(seq, 0x1234567890abcdefull);
  EXPECT_FALSE(flow::ParseDeadLetterKey("dlq/", seq));
  EXPECT_FALSE(flow::ParseDeadLetterKey("dlq/zz", seq));
  EXPECT_FALSE(flow::ParseDeadLetterKey("qin/0000000000000001", seq));
}

TEST(DeadLetter, RecordRoundTripsAndRejectsTruncation) {
  flow::DeadLetterRecord record;
  record.reason = "queue depth limit at a0.10";
  record.id = MessageId{ServerId(2), 77};
  record.from = AgentId{ServerId(2), 12};
  record.to = AgentId{ServerId(0), 10};
  record.subject = "queue.put";
  record.payload = Bytes{1, 2, 3, 4};

  const Bytes bytes = record.Serialize();
  auto decoded = flow::DeadLetterRecord::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), record);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto truncated = flow::DeadLetterRecord::Deserialize(
        std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_FALSE(truncated.ok()) << "decoded from " << cut << " bytes";
  }
}

// ---------------------------------------------------------------------
// AckFrame credit trailer
// ---------------------------------------------------------------------

TEST(AckFrameCredit, CreditRoundTripsOnTheWire) {
  mom::AckFrame ack;
  ack.messages = {MessageId{ServerId(1), 3}, MessageId{ServerId(2), 9}};
  ack.has_credit = true;
  ack.credit = 300;  // multi-byte varint
  auto decoded = mom::DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().messages, ack.messages);
  EXPECT_TRUE(decoded.value().has_credit);
  EXPECT_EQ(decoded.value().credit, 300u);
}

TEST(AckFrameCredit, CreditOnlyAckCarriesNoIds) {
  mom::AckFrame ack;
  ack.has_credit = true;
  ack.credit = 42;
  auto decoded = mom::DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().messages.empty());
  EXPECT_EQ(decoded.value().credit, 42u);
}

TEST(AckFrameCredit, FrameWithoutFlagsByteIsRejected) {
  // Every encoder writes the flags byte after the ids; a frame that
  // ends at the ids is truncated, not "an ack without credit".
  mom::AckFrame ack(MessageId{ServerId(5), 1});
  Bytes truncated = ack.Serialize();
  ASSERT_EQ(truncated.back(), 0);  // flags byte: no credit
  truncated.pop_back();
  EXPECT_FALSE(mom::DeserializeAck(truncated).ok());
}

TEST(AckFrameCredit, TruncatedCreditVarintIsDataLoss) {
  mom::AckFrame ack;
  ack.has_credit = true;
  ack.credit = 1u << 20;  // 3-byte varint
  Bytes bytes = ack.Serialize();
  bytes.pop_back();
  EXPECT_FALSE(mom::DeserializeAck(bytes).ok());
}

TEST(AckFrameCredit, SessionAndEchoRoundTripOnTheWire) {
  mom::AckFrame ack(MessageId{ServerId(3), 8});
  ack.has_credit = true;
  ack.credit = 17;
  ack.has_session = true;
  ack.session = 5;
  ack.echo = 300;       // multi-byte varint
  ack.accepted = 4096;  // receiver's authoritative accepted count
  auto decoded = mom::DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().has_session);
  EXPECT_EQ(decoded.value().session, 5u);
  EXPECT_EQ(decoded.value().echo, 300u);
  EXPECT_EQ(decoded.value().accepted, 4096u);
  EXPECT_TRUE(decoded.value().has_credit);
  EXPECT_EQ(decoded.value().credit, 17u);
}

TEST(AckFrameCredit, SessionWithoutCreditRoundTrips) {
  // The flag bits are independent: a session-stamped ack need not carry
  // a grant (pure retirement ack from a flow-enabled server).
  mom::AckFrame ack(MessageId{ServerId(3), 8});
  ack.has_session = true;
  ack.session = 2;
  ack.echo = 0;  // sender incarnation not yet observed
  auto decoded = mom::DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().has_credit);
  EXPECT_TRUE(decoded.value().has_session);
  EXPECT_EQ(decoded.value().session, 2u);
  EXPECT_EQ(decoded.value().echo, 0u);
}

TEST(AckFrameCredit, TruncatedSessionTrailerIsDataLoss) {
  mom::AckFrame ack;
  ack.has_credit = true;
  ack.credit = 9;
  ack.has_session = true;
  ack.session = 1u << 20;  // 3-byte varint
  ack.echo = 1u << 20;
  const Bytes bytes = ack.Serialize();
  // Every cut that removes part of the credit/session trailer must
  // fail loudly rather than decode a garbage window.
  const Bytes base = mom::AckFrame{}.Serialize();
  for (std::size_t cut = base.size(); cut < bytes.size(); ++cut) {
    auto truncated = mom::DeserializeAck(
        std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_FALSE(truncated.ok()) << "decoded from " << cut << " bytes";
  }
}

// ---------------------------------------------------------------------
// Bounded pubsub queue -> persistent dead letters
// ---------------------------------------------------------------------

constexpr std::uint32_t kQueueLocal = 10;
constexpr std::uint32_t kWorkerLocal = 11;
constexpr std::uint32_t kProducerLocal = 12;

TEST(FlowEndToEnd, BoundedQueueOverflowsToPersistentDeadLetters) {
  workload::ThreadedHarness harness(domains::topologies::Flat(2));
  pubsub::QueueAgent* queue = nullptr;
  workload::SinkAgent* worker = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      auto agent =
                          std::make_unique<pubsub::QueueAgent>(/*max_depth=*/2);
                      queue = agent.get();
                      server.AttachAgent(kQueueLocal, std::move(agent));
                    }
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<workload::SinkAgent>();
                      worker = agent.get();
                      server.AttachAgent(kWorkerLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  const AgentId queue_id{ServerId(0), kQueueLocal};
  // No consumer listening: the first two puts buffer, the rest dead-
  // letter.  Every put is still accepted by the bus (exactly-once
  // delivery to the queue agent); shedding is the agent's decision.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pubsub::Put(harness.server(ServerId(1)),
                            AgentId{ServerId(1), kProducerLocal}, queue_id,
                            "task" + std::to_string(i))
                    .ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->buffered(), 2u);
  EXPECT_EQ(queue->dead_lettered(), 3u);
  EXPECT_EQ(harness.server(ServerId(0)).stats().dead_letters, 3u);
  EXPECT_EQ(harness.server(ServerId(0)).flow_status().dead_letters, 3u);

  // The records are durable, sequenced, and carry the shed message.
  mom::Store* store = harness.StoreOf(ServerId(0));
  ASSERT_NE(store, nullptr);
  const auto keys = store->Keys(flow::kDeadLetterKeyPrefix);
  ASSERT_EQ(keys.size(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::uint64_t seq = 0;
    ASSERT_TRUE(flow::ParseDeadLetterKey(keys[i], seq));
    EXPECT_EQ(seq, i + 1);  // dlq/ sequence starts at 1
    auto bytes = store->Get(keys[i]);
    ASSERT_TRUE(bytes.has_value());
    auto record = flow::DeadLetterRecord::Deserialize(*bytes);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().subject, pubsub::kQueuePut);
    EXPECT_FALSE(record.value().reason.empty());
    EXPECT_EQ(record.value().to, queue_id);
  }
}

TEST(FlowEndToEnd, DeadLetterCountSurvivesCrashAndSequenceContinues) {
  workload::ThreadedHarness harness(domains::topologies::Flat(2));
  pubsub::QueueAgent* queue = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(0)) {
                      auto agent =
                          std::make_unique<pubsub::QueueAgent>(/*max_depth=*/1);
                      queue = agent.get();
                      server.AttachAgent(kQueueLocal, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  const AgentId queue_id{ServerId(0), kQueueLocal};
  auto put = [&](const std::string& name) {
    ASSERT_TRUE(pubsub::Put(harness.server(ServerId(1)),
                            AgentId{ServerId(1), kProducerLocal}, queue_id,
                            name)
                    .ok());
  };
  put("a");
  put("b");  // sheds: depth limit 1
  harness.WaitQuiescent();
  EXPECT_EQ(queue->dead_lettered(), 1u);

  harness.Crash(ServerId(0));
  ASSERT_TRUE(harness.Restart(ServerId(0)).ok());
  harness.WaitQuiescent();
  // The counter is part of the queue agent's durable image...
  EXPECT_EQ(queue->dead_lettered(), 1u);

  put("c");  // sheds again after recovery
  harness.WaitQuiescent();
  harness.HaltAll();
  EXPECT_EQ(queue->dead_lettered(), 2u);
  // ...and the dlq/ sequence resumed past the pre-crash record instead
  // of overwriting it.
  const auto keys = harness.StoreOf(ServerId(0))->Keys(flow::kDeadLetterKeyPrefix);
  EXPECT_EQ(keys.size(), 2u);
}

// ---------------------------------------------------------------------
// End-to-end credit gating under tiny watermarks
// ---------------------------------------------------------------------

// Burns a fixed wall-clock service time per message so the receiver's
// backlog actually builds and the credit window engages.
class SlowSink final : public mom::Agent {
 public:
  explicit SlowSink(std::uint64_t service_us) : service_us_(service_us) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    (void)message;
    std::this_thread::sleep_for(std::chrono::microseconds(service_us_));
    seen_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t seen() const {
    return seen_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t service_us_;
  std::atomic<std::uint64_t> seen_{0};
};

FlowOptions TinyWatermarks() {
  FlowOptions flow;
  flow.high_watermark = 8;
  flow.low_watermark = 2;
  flow.initial_credit = 4;
  flow.drr_quantum = 2;
  flow.engine_admit_high = 64;
  flow.engine_admit_low = 16;
  flow.out_admit_high = 128;
  flow.wait_queue_max = 4096;
  return flow;
}

TEST(FlowEndToEnd, CreditsGateAdmissionWithoutLosingOrReordering) {
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  SlowSink* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<SlowSink>(500);
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  constexpr int kMessages = 120;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(
        harness.Send(ServerId(0), 2, ServerId(1), 1, "burst").ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  // The burst (120) dwarfs the initial credit (4) against a 500us/msg
  // consumer, so the sender must have paused at least once...
  const auto stats = harness.server(ServerId(0)).stats();
  EXPECT_GT(stats.credit_blocked, 0u);
  // ...yet nothing is lost, duplicated or reordered.
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->seen(), static_cast<std::uint64_t>(kMessages));
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());

  // At quiescence every gauge returns to zero: no frame stuck behind a
  // window, no credit leak.
  for (ServerId id : {ServerId(0), ServerId(1)}) {
    const auto flow = harness.server(id).flow_status();
    EXPECT_EQ(flow.paused_links, 0u) << "server " << id;
    EXPECT_EQ(flow.blocked_messages, 0u) << "server " << id;
    EXPECT_EQ(flow.staged_forwards, 0u) << "server " << id;
    EXPECT_EQ(flow.wait_queue, 0u) << "server " << id;
  }
}

TEST(FlowEndToEnd, AdmissionDefersLocalSendsAndDeliversThemAll) {
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  // Aggressive: QueueOUT over 8 entries parks new data sends on the
  // wait queue, which releases as the credit-gated link drains.
  options.flow.out_admit_high = 8;
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  SlowSink* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<SlowSink>(300);
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  constexpr int kMessages = 150;
  int accepted = 0;
  for (int i = 0; i < kMessages; ++i) {
    auto sent = harness.Send(ServerId(0), 2, ServerId(1), 1, "pressed");
    if (sent.ok()) {
      ++accepted;
    } else {
      // The bounded wait queue may shed under this much overdrive; a
      // shed is a clean typed refusal, not a failure.
      EXPECT_EQ(sent.status().code(), StatusCode::kOverloaded);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  const auto stats = harness.server(ServerId(0)).stats();
  EXPECT_GT(stats.sends_deferred, 0u);
  EXPECT_EQ(stats.sends_shed,
            static_cast<std::uint64_t>(kMessages - accepted));
  // Every ACCEPTED send is delivered exactly once; sheds were refused
  // up front, so nothing silently vanished in between.
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->seen(), static_cast<std::uint64_t>(accepted));
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
}

TEST(FlowEndToEnd, FenceDrainsThroughAPausedCreditWindow) {
  // A reconfiguration fence must never deadlock behind flow control:
  // quiesce force-releases blocked frames, so a saturated, credit-
  // paused sender still drains.
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  SlowSink* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<SlowSink>(500);
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  constexpr int kMessages = 60;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "pre-fence").ok());
  }
  // Fence immediately, while most of the burst is still credit-blocked
  // in the sender's QueueOUT (initial credit 4 against a slow sink).
  harness.server(ServerId(0)).BeginFence();
  bool drained = false;
  for (int i = 0; i < 10000; ++i) {
    if (harness.server(ServerId(0)).fence_status().drained) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained) << "fence wedged behind a credit window";
  harness.server(ServerId(0)).LiftFence();
  harness.WaitQuiescent();
  harness.HaltAll();

  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->seen(), static_cast<std::uint64_t>(kMessages));
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
}

// ---------------------------------------------------------------------
// Restart renegotiation (incarnation/session protocol)
// ---------------------------------------------------------------------

TEST(FlowEndToEnd, ReceiverRestartRenegotiatesTheCreditWindow) {
  // A restarted receiver counts accepted frames from zero, so its
  // cumulative grants drop far below the surviving sender's limit.
  // Without session renegotiation the link wedges: every grant is below
  // the old high-water, and only the liveness probe moves one frame per
  // retransmit timeout.  With it, the first ack from the new
  // incarnation rebases the window and traffic flows normally -- which
  // the probe counter makes observable (a wedge needs roughly one
  // probe per message; a renegotiated link needs almost none).
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  SlowSink* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<SlowSink>(300);
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  // Drive the receiver's cumulative numbering well past the initial
  // credit, then take it down.
  constexpr int kPreCrash = 40;
  for (int i = 0; i < kPreCrash; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "pre").ok());
  }
  harness.WaitQuiescent();
  harness.Crash(ServerId(1));
  ASSERT_TRUE(harness.Restart(ServerId(1)).ok());  // re-attaches a fresh sink

  constexpr int kPostCrash = 40;
  for (int i = 0; i < kPostCrash; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "post").ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  // The post-restart burst arrived in full at the new agent instance...
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->seen(), static_cast<std::uint64_t>(kPostCrash));
  // ...exactly once and causally across the whole trace...
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  // ...and it flowed through a renegotiated window, not a probe crawl.
  EXPECT_LT(harness.server(ServerId(0)).stats().credit_probes, 10u);
  for (ServerId id : {ServerId(0), ServerId(1)}) {
    const auto flow = harness.server(id).flow_status();
    EXPECT_EQ(flow.paused_links, 0u) << "server " << id;
    EXPECT_EQ(flow.blocked_messages, 0u) << "server " << id;
  }
}

TEST(FlowEndToEnd, SenderRestartDoesNotInheritTheDeadWindow) {
  // The inverse failure: a restarted sender counts admissions from zero
  // while the receiver's cumulative grant already stands at the
  // pre-crash total -- taken at face value that grant is an effectively
  // unbounded window, defeating flow control entirely.  The receiver
  // must instead restart its accepted count when it observes the new
  // sender incarnation, so the rebooted sender is paced by a fresh
  // window-sized grant (observable as credit blocking on a burst that
  // fits comfortably inside the stale grant).
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  SlowSink* sink = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<SlowSink>(300);
                      sink = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  // Push the receiver's cumulative grant to ~60 + window.
  constexpr int kPreCrash = 60;
  for (int i = 0; i < kPreCrash; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "pre").ok());
  }
  harness.WaitQuiescent();
  harness.Crash(ServerId(0));
  ASSERT_TRUE(harness.Restart(ServerId(0)).ok());

  // 40 messages sit far inside the stale cumulative grant (~68) but far
  // outside a fresh window (high_watermark 8): a correctly re-paced
  // sender must block at least once against the slow sink.
  constexpr int kPostCrash = 40;
  for (int i = 0; i < kPostCrash; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "post").ok());
  }
  harness.WaitQuiescent();
  harness.HaltAll();

  // Stats reset with the restart, so this counts post-restart blocking
  // only: zero here would mean the dead incarnation's grant was honored.
  EXPECT_GT(harness.server(ServerId(0)).stats().credit_blocked, 0u);
  // The sharper signal is on the receiver: honoring the stale ~68-frame
  // grant would let the whole post-restart burst land at once, spiking
  // the backlog high-water far past the 8-frame watermark.  A re-paced
  // sender keeps it near the watermark (plus coalescing slack).
  EXPECT_LT(harness.server(ServerId(1)).stats().backlog_peak, 24u);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->seen(),
            static_cast<std::uint64_t>(kPreCrash + kPostCrash));
  auto checker = harness.MakeChecker();
  const auto trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
}

// Records the arrival order of subjects at one agent.
class OrderRecorder final : public mom::Agent {
 public:
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    (void)ctx;
    const std::lock_guard<std::mutex> lock(mutex_);
    subjects_.push_back(message.subject);
  }

  [[nodiscard]] std::vector<std::string> subjects() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return subjects_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> subjects_;
};

TEST(FlowEndToEnd, ControlSendQueuesBehindTheSameAgentsParkedDataSends) {
  // Control-class subjects skip overload shedding, but they must not
  // skip the same agent's parked data sends: a producer that publishes
  // then unsubscribes expects those to apply in call order even when
  // the publishes are sitting on the wait queue.  The control send
  // queues behind them, so the recorder sees it last.
  workload::ThreadedHarnessOptions options;
  options.flow = TinyWatermarks();
  // Any QueueOUT backlog parks further data sends on the wait queue,
  // so the burst below reliably has parked sends when the control
  // subject arrives.
  options.flow.out_admit_high = 1;
  options.retransmit_timeout_ns = 100ull * 1000 * 1000;
  workload::ThreadedHarness harness(domains::topologies::Flat(2), options);
  OrderRecorder* recorder = nullptr;
  ASSERT_TRUE(harness
                  .Init([&](ServerId id, mom::AgentServer& server) {
                    if (id == ServerId(1)) {
                      auto agent = std::make_unique<OrderRecorder>();
                      recorder = agent.get();
                      server.AttachAgent(1, std::move(agent));
                    }
                  })
                  .ok());
  ASSERT_TRUE(harness.BootAll().ok());

  constexpr int kData = 20;
  for (int i = 0; i < kData; ++i) {
    ASSERT_TRUE(harness.Send(ServerId(0), 2, ServerId(1), 1, "queue.put").ok());
  }
  // Control-class subject from the SAME producer agent, issued while
  // its data sends are still parked.
  ASSERT_TRUE(
      harness.Send(ServerId(0), 2, ServerId(1), 1, "topic.unsubscribe").ok());
  harness.WaitQuiescent();
  harness.HaltAll();

  ASSERT_NE(recorder, nullptr);
  const auto subjects = recorder->subjects();
  ASSERT_EQ(subjects.size(), static_cast<std::size_t>(kData) + 1);
  // Call order survived overload: every data send first, control last.
  EXPECT_EQ(subjects.back(), "topic.unsubscribe");
  for (int i = 0; i < kData; ++i) EXPECT_EQ(subjects[i], "queue.put");
}

// ---------------------------------------------------------------------
// Credit-only acks carry the receiver's accepted count
// ---------------------------------------------------------------------

// Endpoint decorator that watches one peer: counts the distinct data
// frames received from it and records every id-less ack sent to it,
// paired with that count at the moment of sending.
class PeerWatchEndpoint final : public net::Endpoint {
 public:
  struct CreditOnlyAck {
    mom::AckFrame ack;
    std::uint64_t frames_received = 0;
  };

  PeerWatchEndpoint(std::unique_ptr<net::Endpoint> inner, ServerId peer)
      : inner_(std::move(inner)), peer_(peer) {}

  [[nodiscard]] ServerId self() const override { return inner_->self(); }

  Status Send(ServerId to, Bytes frame) override {
    if (to == peer_ && mom::PeekFrameType(frame).value() == mom::FrameType::kAck) {
      mom::AckFrame ack = mom::DeserializeAck(frame).value();
      if (ack.messages.empty()) {
        credit_only_.push_back(CreditOnlyAck{ack, received_.size()});
      }
    }
    return inner_->Send(to, std::move(frame));
  }

  void SetReceiveHandler(net::ReceiveHandler handler) override {
    inner_->SetReceiveHandler(
        [this, handler = std::move(handler)](ServerId from, Bytes frame) {
          if (from == peer_ && mom::PeekFrameType(frame).value() ==
                                   mom::FrameType::kData) {
            received_.insert(mom::DataFrame::Deserialize(frame).value().message.id);
          }
          handler(from, std::move(frame));
        });
  }

  [[nodiscard]] const std::vector<CreditOnlyAck>& credit_only() const {
    return credit_only_;
  }

 private:
  std::unique_ptr<net::Endpoint> inner_;
  ServerId peer_;
  std::unordered_set<MessageId> received_;
  std::vector<CreditOnlyAck> credit_only_;
};

// Forwards every message it receives to `target`.
class RelayAgent final : public mom::Agent {
 public:
  explicit RelayAgent(AgentId target) : target_(target) {}
  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    ctx.Send(target_, "relayed", message.payload);
  }

 private:
  AgentId target_;
};

TEST(FlowEndToEnd, CreditOnlyAcksCarryTheAcceptedCount) {
  // S0 floods S1, whose agent relays everything to S2 over a slow link.
  // S1's QueueOUT toward S2 fills its backlog to the high watermark, so
  // its grants to S0 stop growing and S0 pauses; once S2's acks drain
  // that QueueOUT below the low watermark, S1 re-opens the window with
  // credit-only acks.  Each must carry the number of frames S1 has
  // accepted from S0, the count S0 reconciles its admissions against.
  const domains::Deployment deployment =
      domains::Deployment::Create(domains::topologies::Flat(3)).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  network.SetLinkLatency(ServerId(1), ServerId(2), 500 * sim::kMillisecond);

  mom::AgentServerOptions options;
  options.retransmit_timeout_ns = 10 * sim::kSecond;
  options.flow.high_watermark = 8;
  options.flow.low_watermark = 4;
  options.flow.initial_credit = 4;

  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto watch = std::make_unique<PeerWatchEndpoint>(
      network.CreateEndpoint(ServerId(1)).value(), ServerId(0));
  PeerWatchEndpoint* watched = watch.get();
  std::unique_ptr<net::Endpoint> endpoint1 = std::move(watch);
  auto endpoint2 = network.CreateEndpoint(ServerId(2)).value();
  mom::InMemoryStore store0;
  mom::InMemoryStore store1;
  mom::InMemoryStore store2;
  mom::AgentServer server0(deployment, ServerId(0), endpoint0.get(), &runtime,
                           &store0, options);
  mom::AgentServer server1(deployment, ServerId(1), endpoint1.get(), &runtime,
                           &store1, options);
  mom::AgentServer server2(deployment, ServerId(2), endpoint2.get(), &runtime,
                           &store2, options);
  server1.AttachAgent(1, std::make_unique<RelayAgent>(AgentId{ServerId(2), 1}));
  auto sink = std::make_unique<workload::SinkAgent>();
  workload::SinkAgent* sink_ptr = sink.get();
  server2.AttachAgent(1, std::move(sink));
  ASSERT_TRUE(server0.Boot().ok());
  ASSERT_TRUE(server1.Boot().ok());
  ASSERT_TRUE(server2.Boot().ok());

  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(server0
                    .SendMessage(AgentId{ServerId(0), 1},
                                 AgentId{ServerId(1), 1}, "flood")
                    .ok());
  }
  simulator.RunToCompletion();

  EXPECT_EQ(sink_ptr->received(), static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(server0.stats().credit_blocked, 0u);
  ASSERT_GT(server1.stats().credit_only_acks, 0u);
  ASSERT_FALSE(watched->credit_only().empty());
  for (const PeerWatchEndpoint::CreditOnlyAck& sent : watched->credit_only()) {
    EXPECT_TRUE(sent.ack.has_credit);
    EXPECT_TRUE(sent.ack.has_session);
    EXPECT_GT(sent.frames_received, 0u);
    EXPECT_EQ(sent.ack.accepted, sent.frames_received);
  }
  server0.Shutdown();
  server1.Shutdown();
  server2.Shutdown();
}

}  // namespace
}  // namespace cmom
