// Engine admission control with two priority classes.
//
// Credits bound what a *link* accepts; admission control bounds what
// the *local engine* accepts from its own agents.  Without it, a
// producer agent colocated with a congested server keeps stuffing
// QueueOUT (local sends never cross a credit-gated link before they are
// durable), so the server's own clients can OOM it from the inside.
//
// Two classes:
//   kControl  -- fence/epoch traffic and pubsub control subjects
//                (subscribe, listen, ignore).  Never shed: quiesce must
//                be able to drain a saturated server, and dropping a
//                subscription request wedges the application forever.
//                Admitted immediately UNLESS the same agent already has
//                data sends parked on the wait queue -- then the
//                control send queues behind them (exempt from the depth
//                cap), because admitting it would process one
//                producer's sends out of call order (e.g. an
//                unsubscribe overtaking the publish that preceded it).
//   kData     -- everything else.  Deferred to a bounded wait queue
//                when the engine or QueueOUT backlog crosses the high
//                threshold, re-admitted in FIFO order once it falls
//                back to the low threshold, rejected with kOverloaded
//                once the wait queue itself is full.
#pragma once

#include <cstddef>
#include <string_view>

#include "flow/credits.h"

namespace cmom::flow {

enum class Priority { kControl, kData };

enum class Admission {
  kAdmit,   // process now
  kDefer,   // park on the bounded wait queue
  kReject,  // wait queue full: fail the send with kOverloaded
};

// Subject-based priority classification.  Control-class subjects are
// the pubsub/queue management verbs; fences and epoch records never
// reach this path (they ride ApplyControlRecord / BeginFence), but
// their application-visible companions do.
[[nodiscard]] Priority ClassifyPriority(std::string_view subject);

// Pure decision function over the server's current backlog gauges.
// `engine_backlog` is the QueueIN depth: messages delivered to local
// agents and not yet reacted to.  `deferring` latches hysteresis:
// once sends are being deferred, new data sends keep deferring
// (preserving FIFO among data sends) until the wait queue has fully
// drained.  `sender_has_deferred` reports
// whether the sending agent already has sends parked on the wait
// queue; a control send then defers behind them (never rejects) so
// per-sender processing order survives overload.
[[nodiscard]] Admission AdmitSend(Priority priority, std::size_t engine_backlog,
                                  std::size_t out_backlog,
                                  std::size_t wait_queue_depth, bool deferring,
                                  bool sender_has_deferred,
                                  const FlowOptions& options);

// True once backlog has drained enough to start releasing the wait
// queue (low-threshold hysteresis so release doesn't flap).
[[nodiscard]] bool ShouldDrainWaitQueue(std::size_t engine_backlog,
                                        std::size_t out_backlog,
                                        const FlowOptions& options);

}  // namespace cmom::flow
