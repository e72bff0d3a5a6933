// Application messages and wire frames.
//
// A Message is what agents exchange (the event of the event/reaction
// pattern): addressed agent-to-agent, identified by the sending server
// and a per-sender sequence number, carrying an opaque payload plus a
// subject string for dispatching inside the reacting agent.
//
// On the wire, each server-to-server hop wraps the message in a
// DataFrame that adds the hop's domain and the causal stamp of that
// domain's matrix clock (the piggybacking of Section 5).  The receiving
// Channel acknowledges data frames with AckFrames carrying the message
// ids, which release the sender's QueueOUT entries; acks accepted in
// one batch are coalesced into a single frame per peer.
#pragma once

#include <string>
#include <vector>

#include "clocks/stamp.h"
#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::mom {

struct Message {
  MessageId id;
  AgentId from;
  AgentId to;
  std::string subject;
  Bytes payload;

  [[nodiscard]] ServerId dest_server() const { return to.server; }

  friend bool operator==(const Message&, const Message&) = default;

  // Exact encoded length, computed without encoding.
  [[nodiscard]] std::size_t EncodedSize() const;
  // Writes the encoding at `p`, which must have EncodedSize() bytes of
  // room, and returns the byte after it.
  std::uint8_t* EncodeTo(std::uint8_t* p) const;
  void Encode(ByteWriter& out) const { EncodeTo(out.Extend(EncodedSize())); }
  [[nodiscard]] static Result<Message> Decode(ByteReader& in);
};

enum class FrameType : std::uint8_t { kData = 1, kAck = 2 };

// A data frame's fields, borrowed.  It is the one data-frame encoder:
// DataFrame serializes through its view, and a sender frames a QueueOUT
// entry in place, without copying its message and stamp into a
// DataFrame first.  Every frame is encoded once, into a buffer of its
// exact size.
struct DataFrameView {
  const Message& message;
  DomainId domain;
  const clocks::Stamp& stamp;
  // stamp.EncodedSize(), which walks every entry: a sender sizes a
  // stamp once, when it stamps, and frames each emission with that.
  // No default, so -Wextra flags a view built without it.
  std::size_t stamp_size;
  std::uint64_t epoch = 0;
  std::uint64_t incarnation = 0;

  // Exact frame length, computed without encoding.
  [[nodiscard]] std::size_t SerializedSize() const;
  // Writes the frame at `p`, which must have SerializedSize() bytes of
  // room, and returns the byte after it.
  std::uint8_t* SerializeInto(std::uint8_t* p) const;
  // The frame in a buffer from the calling thread's BufferPool; the
  // receiving decode releases it.
  [[nodiscard]] Bytes Serialize() const;
};

struct DataFrame {
  Message message;
  DomainId domain;      // domain whose matrix clock stamped this hop
  clocks::Stamp stamp;  // matrix entries (full or Appendix-A delta)
  // Config epoch the sender stamped under.  A receiver at a different
  // epoch drops the frame without acking: its clocks no longer share
  // the frame's coordinate system, so the stamp is meaningless to it.
  // The sender (re-fenced to the same epoch, or crashed back to it)
  // retransmits under matching coordinates.
  std::uint64_t epoch = 0;
  // Sender boot incarnation (durable, monotone boot counter; >= 1 on
  // every live server).  Flow control uses it to detect a restarted
  // sender whose credit admission count started over
  // (CreditReceiverLink::ObserveSession).  Always encoded, as a varint
  // after the stamp; it ends the frame.
  std::uint64_t incarnation = 0;

  friend bool operator==(const DataFrame&, const DataFrame&) = default;

  [[nodiscard]] DataFrameView view() const {
    return {message, domain, stamp, stamp.EncodedSize(), epoch, incarnation};
  }
  [[nodiscard]] Bytes Serialize() const { return view().Serialize(); }
  [[nodiscard]] std::size_t SerializedSize() const {
    return view().SerializedSize();
  }
  [[nodiscard]] static Result<DataFrame> Deserialize(
      std::span<const std::uint8_t> bytes);
};

struct AckFrame {
  // Every message accepted (delivered, held or recognized as duplicate)
  // from one peer in one receive batch.  May be empty for a credit-only
  // ack (a flow-control replenish carrying no acknowledgements).
  std::vector<MessageId> messages;

  // Piggybacked flow-control grant: the CUMULATIVE number of frames the
  // acking server is willing to have admitted on the (peer -> self)
  // link (src/flow/credits.h).  Cumulative and monotone, so a lost or
  // reordered ack never shrinks the sender's window.  A flags byte
  // after the ids (always present) says which trailers follow.
  bool has_credit = false;
  std::uint64_t credit = 0;

  // Restart-renegotiation trio riding with the grant (flags bit 1):
  // `session` is the acking server's own boot incarnation -- a change
  // tells the sender the grant numbering restarted -- `echo` is the
  // sender incarnation the receiver computed the grant against, so a
  // freshly rebooted sender can discard grants still numbered for its
  // previous life, and `accepted` is the receiver's authoritative
  // accepted count for this session, against which the sender
  // reconciles its admission count
  // (CreditSenderLink::Reconcile).  Reconciliation -- rather than dead
  // reckoning -- is what keeps the two counters paired across crash/
  // restart on EITHER end: a restarted sender's recovery emissions and
  // a restarted receiver's re-counted retransmissions both desync a
  // local count, permanently widening (runaway backlog) or narrowing
  // (wedged link) the window.
  bool has_session = false;
  std::uint64_t session = 0;
  std::uint64_t echo = 0;
  std::uint64_t accepted = 0;

  AckFrame() = default;
  explicit AckFrame(MessageId id) : messages{id} {}
  explicit AckFrame(std::vector<MessageId> ids) : messages(std::move(ids)) {}

  friend bool operator==(const AckFrame&, const AckFrame&) = default;

  [[nodiscard]] Bytes Serialize() const;
};

// Frame type discriminator, without decoding the body.
[[nodiscard]] Result<FrameType> PeekFrameType(
    std::span<const std::uint8_t> bytes);

// Decodes the ack body (after the type byte).
[[nodiscard]] Result<AckFrame> DeserializeAck(
    std::span<const std::uint8_t> bytes);

}  // namespace cmom::mom
