#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint32_t kNoSpan = ~0u;
// Records kept per thread; later spans still count toward the totals.
constexpr std::size_t kKeptSpansPerThread = 1u << 16;

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = kNoSpan;
  Layer layer = Layer::kCount;
};

struct OpenSpan {
  std::uint64_t start_ns;
  std::uint64_t start_cpu_ns;  // 0 when this span does not read the CPU clock
  // Children's measured durations plus their clock reads: what the
  // children cost inside this span.
  std::uint64_t child_ns;
  std::uint64_t child_cpu_ns;
  std::uint64_t request;
  std::uint32_t record;
  Layer layer;
};

struct ThreadState {
  std::size_t thread_index = 0;
  std::vector<OpenSpan> stack;
  std::vector<SpanRecord> records;
  LayerTotals totals;
};

std::atomic<bool> g_tracing{false};
// One clock read's share of a measured duration (see CalibrateClocks).
std::uint64_t g_wall_read_ns = 0;
std::uint64_t g_cpu_read_ns = 0;

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Median gap between consecutive reads of a clock: what one read adds
// to any interval it sits in.
template <typename Clock>
std::uint64_t ReadCost(Clock clock) {
  std::vector<std::uint64_t> gaps;
  for (int i = 0; i < 2001; ++i) {
    const std::uint64_t a = clock();
    const std::uint64_t b = clock();
    gaps.push_back(b - a);
  }
  std::nth_element(gaps.begin(), gaps.begin() + 1000, gaps.end());
  return gaps[1000];
}

// `measured` less `subtract`, never below zero.
std::uint64_t Less(std::uint64_t measured, std::uint64_t subtract) {
  return measured - std::min(measured, subtract);
}

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadState>> g_registry;

ThreadState& ThisThread() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    owned->stack.reserve(16);
    std::lock_guard lock(g_registry_mutex);
    owned->thread_index = g_registry.size();
    state = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *state;
}

// Skips one varint; false when the buffer ends inside it.
bool SkipVarint(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= bytes.size()) return false;
    if ((bytes[pos++] & 0x80) == 0) return true;
  }
  return false;
}

bool ReadVarint(std::span<const std::uint8_t> bytes, std::size_t& pos,
                std::uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= bytes.size()) return false;
    const std::uint8_t byte = bytes[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

}  // namespace

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNetSend: return "net.send";
    case Layer::kChannel: return "mom.channel";
    case Layer::kTimer: return "net.timer";
    case Layer::kStoreCommit: return "mom.store.commit";
    case Layer::kStoreStage: return "mom.store.stage";
    case Layer::kReact: return "mom.engine.react";
    case Layer::kClientSend: return "mom.gateway.client_send";
    case Layer::kClientDeliver: return "mom.gateway.client_deliver";
    case Layer::kCount: break;
  }
  return "?";
}

// Acquire/release: a thread that sees tracing on also sees the clock
// calibration written before SetTracing(true).
bool TracingOn() { return g_tracing.load(std::memory_order_acquire); }

void CalibrateClocks() {
  g_wall_read_ns = ReadCost(NowNs);
  g_cpu_read_ns = ReadCost(ThreadCpuNs);
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(Layer layer, std::uint64_t request, bool blocks)
    : active_(TracingOn()) {
  if (!active_) return;
  ThreadState& state = ThisThread();
  if (request == 0 && !state.stack.empty()) {
    request = state.stack.back().request;
  }
  std::uint32_t record = kNoSpan;
  if (state.records.size() < kKeptSpansPerThread) {
    record = static_cast<std::uint32_t>(state.records.size());
    state.records.emplace_back();
  }
  const std::uint64_t cpu =
      blocks || state.stack.empty() ? std::max<std::uint64_t>(ThreadCpuNs(), 1)
                                    : 0;
  state.stack.push_back(OpenSpan{NowNs(), cpu, 0, 0, request, record, layer});
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = NowNs();
  ThreadState& state = ThisThread();
  const OpenSpan open = state.stack.back();
  state.stack.pop_back();
  const bool has_cpu = open.start_cpu_ns != 0;
  const std::uint64_t end_cpu = has_cpu ? ThreadCpuNs() : 0;
  const std::uint64_t duration = end - open.start_ns;
  // Reads run CPU, wall ... wall, CPU.  A measured wall interval holds
  // one wall read, a measured CPU interval one CPU read and both wall
  // reads; everything a child read sits inside its parent's intervals.
  const std::uint64_t w = g_wall_read_ns;
  const std::uint64_t c = has_cpu ? g_cpu_read_ns : 0;
  const std::uint64_t self_wall = Less(duration, open.child_ns + w);
  const std::uint64_t cpu =
      has_cpu ? Less(end_cpu - open.start_cpu_ns, c + 2 * w) : Less(duration, w);
  const auto layer = static_cast<std::size_t>(open.layer);
  state.totals.self_ns[layer] += self_wall;
  state.totals.self_cpu_ns[layer] += Less(cpu, open.child_cpu_ns);
  ++state.totals.calls[layer];
  std::uint32_t parent = kNoSpan;
  if (!state.stack.empty()) {
    state.stack.back().child_ns += duration + 2 * c + w;
    state.stack.back().child_cpu_ns += cpu + 2 * c + 2 * w;
    parent = state.stack.back().record;
  }
  if (open.record != kNoSpan) {
    state.records[open.record] =
        SpanRecord{open.start_ns, end, open.request, parent, open.layer};
  }
}

LayerTotals CollectTotals() {
  std::lock_guard lock(g_registry_mutex);
  LayerTotals out;
  for (const auto& state : g_registry) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      out.self_ns[i] += state->totals.self_ns[i];
      out.self_cpu_ns[i] += state->totals.self_cpu_ns[i];
      out.calls[i] += state->totals.calls[i];
    }
  }
  return out;
}

long WriteSpans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return -1;
  std::fprintf(out, "thread,index,parent,layer,request,start_ns,end_ns\n");
  long written = 0;
  std::lock_guard lock(g_registry_mutex);
  for (const auto& state : g_registry) {
    for (std::size_t i = 0; i < state->records.size(); ++i) {
      const SpanRecord& r = state->records[i];
      if (r.layer == Layer::kCount) continue;  // still open at the end
      std::fprintf(out, "%zu,%zu,%ld,%.*s,%llu,%llu,%llu\n",
                   state->thread_index, i,
                   r.parent == kNoSpan ? -1L : static_cast<long>(r.parent),
                   static_cast<int>(LayerName(r.layer).size()),
                   LayerName(r.layer).data(),
                   static_cast<unsigned long long>(r.request),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
      ++written;
    }
  }
  return std::fclose(out) == 0 ? written : -1;
}

std::uint64_t RequestOfPayload(const std::uint8_t* data, std::size_t size) {
  if (size < sizeof(std::uint64_t)) return 0;
  std::uint64_t request = 0;
  std::memcpy(&request, data, sizeof(request));
  return request;
}

std::uint64_t RequestOfFrame(std::span<const std::uint8_t> frame) {
  // [u8 type=1][u16 origin][var seq][u16][var from.local][u16]
  // [var to.local][var subject_len][subject][var payload_len][payload]
  if (frame.empty() || frame[0] != 1) return 0;
  std::size_t pos = 1 + 2;
  std::uint64_t subject_len = 0;
  std::uint64_t payload_len = 0;
  if (!SkipVarint(frame, pos)) return 0;
  pos += 2;
  if (!SkipVarint(frame, pos)) return 0;
  pos += 2;
  if (!SkipVarint(frame, pos) || !ReadVarint(frame, pos, subject_len) ||
      subject_len > frame.size() - std::min(pos, frame.size())) {
    return 0;
  }
  pos += subject_len;
  if (!ReadVarint(frame, pos, payload_len) ||
      payload_len > frame.size() - std::min(pos, frame.size())) {
    return 0;
  }
  return RequestOfPayload(frame.data() + pos, payload_len);
}

}  // namespace perfbench
