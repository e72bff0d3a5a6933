// Hold-back queue for causally premature messages.
//
// Messages whose delivery condition is not yet satisfied wait here.
// Whenever a delivery commits (which can only *enable* held messages,
// never disable them), DrainDeliverable re-examines the queue until a
// fixed point.  The queue preserves arrival order between repeated
// scans so equally-ready messages deliver in arrival order, keeping
// runs deterministic.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "clocks/stamp.h"

namespace cmom::clocks {

// M is the queued message type.  Checker: (const M&) -> CheckResult.
// Deliverer: (M&&) -> void, invoked exactly once per delivered message.
template <typename M>
class HoldbackQueue {
 public:
  void Push(M message) { pending_.push_back(std::move(message)); }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }

  // Repeatedly scans the queue, delivering every message whose check
  // passes, until a whole pass makes no progress.  Duplicates are
  // dropped, passing through `drop` so an owner keeping an external
  // index (or a per-entry durable image) of the queue can stay in sync.
  // Returns the number of messages delivered.
  template <typename Checker, typename Deliverer, typename Dropper>
  std::size_t DrainDeliverable(Checker&& check, Deliverer&& deliver,
                               Dropper&& drop) {
    std::size_t delivered = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = pending_.begin(); it != pending_.end();) {
        switch (check(*it)) {
          case CheckResult::kDeliver: {
            M message = std::move(*it);
            it = pending_.erase(it);
            deliver(std::move(message));
            ++delivered;
            progressed = true;
            break;
          }
          case CheckResult::kDuplicate: {
            M message = std::move(*it);
            it = pending_.erase(it);
            drop(std::move(message));
            progressed = true;
            break;
          }
          case CheckResult::kHold:
            ++it;
            break;
        }
      }
    }
    return delivered;
  }

  template <typename Checker, typename Deliverer>
  std::size_t DrainDeliverable(Checker&& check, Deliverer&& deliver) {
    return DrainDeliverable(std::forward<Checker>(check),
                            std::forward<Deliverer>(deliver), [](M&&) {});
  }

  // Access for persistence: the queue is part of the channel's durable
  // state (messages received but not yet deliverable must survive a
  // crash, otherwise the FIFO gap they fill would be lost).
  [[nodiscard]] const std::deque<M>& pending() const { return pending_; }
  void Restore(std::deque<M> pending) { pending_ = std::move(pending); }

 private:
  std::deque<M> pending_;
};

}  // namespace cmom::clocks
