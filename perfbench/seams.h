// Wrappers the benchmark puts into the seams AgentServer accepts.
//
// CountingEndpoint is present in every run: it counts the frames and
// bytes each server hands to Endpoint::Send (the wire_bytes_per_msg
// metric) and never reads a clock.  Its span around Send and around the
// receive handler, TimedRuntime and TimedStore time their calls only
// while tracing is on (trace.h); otherwise each forwards after one
// atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "mom/file_store.h"
#include "mom/store.h"
#include "net/runtime.h"
#include "net/transport.h"
#include "trace.h"

namespace perfbench {

// A data frame as it crossed the transport boundary in the traced run.
struct CapturedFrame {
  cmom::ServerId from;
  cmom::ServerId to;
  cmom::Bytes bytes;
};

// Keeps copies of the first `capacity` data frames offered to it.
class FrameCapture {
 public:
  explicit FrameCapture(std::size_t capacity) : capacity_(capacity) {}

  void Offer(cmom::ServerId from, cmom::ServerId to,
             std::span<const std::uint8_t> frame) {
    if (full_.load(std::memory_order_relaxed) || frame.empty() ||
        frame[0] != 1) {
      return;
    }
    std::lock_guard lock(mutex_);
    if (frames_.size() >= capacity_) {
      full_.store(true, std::memory_order_relaxed);
      return;
    }
    frames_.push_back(
        CapturedFrame{from, to, cmom::Bytes(frame.begin(), frame.end())});
  }

  [[nodiscard]] std::vector<CapturedFrame> Take() {
    std::lock_guard lock(mutex_);
    return std::move(frames_);
  }

 private:
  const std::size_t capacity_;
  std::atomic<bool> full_{false};
  std::mutex mutex_;
  std::vector<CapturedFrame> frames_;
};

class CountingEndpoint final : public cmom::net::Endpoint {
 public:
  CountingEndpoint(std::unique_ptr<cmom::net::Endpoint> inner,
                   FrameCapture* capture)
      : inner_(std::move(inner)), capture_(capture) {}

  [[nodiscard]] cmom::ServerId self() const override { return inner_->self(); }

  cmom::Status Send(cmom::ServerId to, cmom::Bytes frame) override {
    frames_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    if (!TracingOn()) return inner_->Send(to, std::move(frame));
    if (capture_ != nullptr) capture_->Offer(inner_->self(), to, frame);
    Span span(Layer::kNetSend, RequestOfFrame(frame));
    return inner_->Send(to, std::move(frame));
  }

  void SetReceiveHandler(cmom::net::ReceiveHandler handler) override {
    inner_->SetReceiveHandler(
        [handler = std::move(handler)](cmom::ServerId from, cmom::Bytes frame) {
          if (!TracingOn()) {
            handler(from, std::move(frame));
            return;
          }
          Span span(Layer::kChannel, RequestOfFrame(frame));
          handler(from, std::move(frame));
        });
  }

  void Disconnect(cmom::ServerId peer) override { inner_->Disconnect(peer); }

  [[nodiscard]] cmom::net::TransportStats stats() const override {
    return inner_->stats();
  }

  [[nodiscard]] std::uint64_t frames() const {
    return frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<cmom::net::Endpoint> inner_;
  FrameCapture* capture_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

class TimedRuntime final : public cmom::net::Runtime {
 public:
  explicit TimedRuntime(cmom::net::Runtime& inner) : inner_(inner) {}

  std::uint64_t NowNs() override { return inner_.NowNs(); }

  void After(std::uint64_t delay_ns, std::function<void()> fn) override {
    if (!TracingOn()) {
      inner_.After(delay_ns, std::move(fn));
      return;
    }
    scheduled_.fetch_add(1, std::memory_order_relaxed);
    inner_.After(delay_ns, [fn = std::move(fn)] {
      if (!TracingOn()) {
        fn();
        return;
      }
      Span span(Layer::kTimer);
      fn();
    });
  }

  [[nodiscard]] std::unique_ptr<cmom::net::Executor> MakeExecutor(
      std::size_t lanes) override {
    return inner_.MakeExecutor(lanes);
  }

  // After() calls made while tracing was on.
  [[nodiscard]] std::uint64_t scheduled() const {
    return scheduled_.load(std::memory_order_relaxed);
  }

 private:
  cmom::net::Runtime& inner_;
  std::atomic<std::uint64_t> scheduled_{0};
};

class TimedStore final : public cmom::mom::Store {
 public:
  // `file` is the FileStore behind `inner`, if it is one.
  TimedStore(std::unique_ptr<cmom::mom::Store> inner,
             cmom::mom::FileStore* file)
      : inner_(std::move(inner)), file_(file) {}

  void Put(std::string_view key, cmom::Bytes value) override {
    if (!TracingOn()) {
      inner_->Put(key, std::move(value));
      return;
    }
    Span span(Layer::kStoreStage);
    inner_->Put(key, std::move(value));
  }

  void Delete(std::string_view key) override {
    if (!TracingOn()) {
      inner_->Delete(key);
      return;
    }
    Span span(Layer::kStoreStage);
    inner_->Delete(key);
  }

  [[nodiscard]] std::optional<cmom::Bytes> Get(std::string_view key) override {
    return inner_->Get(key);
  }
  [[nodiscard]] std::vector<std::string> Keys(
      std::string_view prefix) override {
    return inner_->Keys(prefix);
  }

  cmom::Status Commit() override {
    if (!TracingOn()) return inner_->Commit();
    const std::uint64_t syncs_before = file_ != nullptr ? file_->sync_calls() : 0;
    cmom::Status status;
    {
      Span span(Layer::kStoreCommit, 0, /*blocks=*/file_ != nullptr);
      status = inner_->Commit();
    }
    if (file_ != nullptr && file_->sync_calls() != syncs_before) {
      // The device wait inside this commit, estimated from the store's
      // own smoothed fdatasync latency: it is off-CPU time the residual
      // must not subtract.
      sync_wait_ns_.fetch_add(
          (file_->sync_calls() - syncs_before) * file_->sync_latency_ns(),
          std::memory_order_relaxed);
    }
    return status;
  }

  void Rollback() override { inner_->Rollback(); }
  cmom::Status Checkpoint() override { return inner_->Checkpoint(); }
  [[nodiscard]] std::uint64_t last_commit_bytes() const override {
    return inner_->last_commit_bytes();
  }
  [[nodiscard]] std::uint64_t total_bytes_written() const override {
    return inner_->total_bytes_written();
  }
  [[nodiscard]] std::uint64_t sync_latency_ns() const override {
    return inner_->sync_latency_ns();
  }

  // Estimated fdatasync wait inside traced commits.
  [[nodiscard]] std::uint64_t sync_wait_ns() const {
    return sync_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<cmom::mom::Store> inner_;
  cmom::mom::FileStore* file_;
  std::atomic<std::uint64_t> sync_wait_ns_{0};
};

}  // namespace perfbench
