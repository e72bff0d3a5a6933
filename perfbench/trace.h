// Layer spans for the traced benchmark run.
//
// A Span times one call into a layer, made through one of the seams the
// benchmark wraps (see seams.h) or from the benchmark's own agents and
// client handler.  Spans nest through a per-thread stack: a commit or
// a send made inside the receive handler is that handler's child, and
// a layer's self time is its span's duration minus the part its
// children cover.  Self time is kept twice: wall clock, and on-CPU
// time, which leaves out the time a span spent blocked on a lock
// another thread holds or on the device.  The thread CPU clock costs a
// system call, so only root spans (entered from the transport, the
// timer or the client pool, where lock waits happen) and spans that
// ask for it (FileStore commits, which wait on fdatasync) read it;
// any other span counts its wall time as CPU time.  Both are corrected
// for the cost of the clock reads themselves.  Each span carries the
// request id of the benchmark payload it handled (or inherits its
// parent's).
//
// Spans are recorded only while tracing is on (SetTracing), so the
// untraced runs pay one atomic load per wrapped call.  Every
// thread keeps its own totals and a bounded list of span records;
// CollectTotals and WriteSpans read them after those threads have been
// joined.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace perfbench {

enum class Layer : std::uint8_t {
  kNetSend,        // Endpoint::Send
  kChannel,        // the receive handler the server installs
  kTimer,          // a Runtime::After callback
  kStoreCommit,    // Store::Commit
  kStoreStage,     // Store::Put and Store::Delete
  kReact,          // React of the benchmark's agents
  kClientSend,     // GatewayClientPool::Send
  kClientDeliver,  // the client pool's delivery handler
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] std::string_view LayerName(Layer layer);

[[nodiscard]] bool TracingOn();
// Measures the clock-read costs the spans subtract; call before the
// first SetTracing(true).
void CalibrateClocks();
void SetTracing(bool on);

[[nodiscard]] std::uint64_t NowNs();

class Span {
 public:
  // `request` 0 inherits the enclosing span's request id; `blocks`
  // marks a call that may wait off-CPU (see the header comment).
  explicit Span(Layer layer, std::uint64_t request = 0, bool blocks = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> self_ns{};      // wall clock
  std::array<std::uint64_t, kLayerCount> self_cpu_ns{};  // thread CPU
  std::array<std::uint64_t, kLayerCount> calls{};

  [[nodiscard]] std::uint64_t self(Layer layer) const {
    return self_ns[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t self_cpu(Layer layer) const {
    return self_cpu_ns[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t count(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
};

// Sums over every thread that recorded a span.  Only valid once those
// threads are joined (or provably idle).
[[nodiscard]] LayerTotals CollectTotals();

// Writes the kept span records as CSV (thread, index, parent, layer,
// request, start_ns, end_ns).  Same validity rule as CollectTotals.
// Returns the number of records written, or -1 when the file cannot be
// written.
long WriteSpans(const std::string& path);

// The request id every benchmark payload starts with (0 when shorter).
[[nodiscard]] std::uint64_t RequestOfPayload(const std::uint8_t* data,
                                             std::size_t size);
// The same id read out of a serialized data frame without decoding it;
// 0 for ack frames and anything malformed.
[[nodiscard]] std::uint64_t RequestOfFrame(std::span<const std::uint8_t> frame);

}  // namespace perfbench
