#include "ladder.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "clocks/causal_core.h"
#include "common/buffer_pool.h"
#include "mom/message.h"

namespace perfbench {
namespace {

using cmom::mom::DataFrame;

constexpr int kPasses = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

// Cost of the NowNs() pair that brackets each timed replay call.
double ClockReadNs() {
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) {
    const std::uint64_t a = NowNs();
    const std::uint64_t b = NowNs();
    samples.push_back(static_cast<double>(b - a));
  }
  return Median(std::move(samples));
}

struct Hop {
  std::size_t domain_index;
  cmom::ServerId from;
  cmom::ServerId to;
  cmom::DomainServerId src_local;
  cmom::DomainServerId dst_local;
};

}  // namespace

LadderResult RunLadder(const std::vector<CapturedFrame>& frames,
                       const cmom::domains::Deployment& deployment) {
  LadderResult result;
  result.frames = frames.size();
  if (frames.empty()) return result;

  // Codec: decode every frame, then encode every decoded frame, timing
  // each whole pass; the median pass is reported.
  std::vector<double> decode_ns;
  std::vector<double> encode_ns;
  std::vector<DataFrame> decoded;
  std::vector<std::size_t> origin;  // index into `frames` per decoded frame
  decoded.reserve(frames.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    decoded.clear();
    origin.clear();
    std::size_t bad = 0;
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto type = cmom::mom::PeekFrameType(frames[i].bytes);
      auto data = DataFrame::Deserialize(frames[i].bytes);
      if (!type.ok() || !data.ok()) {
        ++bad;
        continue;
      }
      decoded.push_back(std::move(data).value());
      origin.push_back(i);
    }
    const std::uint64_t t1 = NowNs();
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      cmom::Bytes bytes = decoded[i].Serialize();
      if (pass == 0 && bytes != frames[origin[i]].bytes) ++mismatched;
      cmom::BufferPool::Release(std::move(bytes));
    }
    const std::uint64_t t2 = NowNs();
    if (pass == 0) result.anomalies += bad + mismatched;
    decode_ns.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(frames.size()));
    encode_ns.push_back(static_cast<double>(t2 - t1) /
                        static_cast<double>(std::max<std::size_t>(decoded.size(), 1)));
  }
  result.decode_ns_per_frame = Median(decode_ns);
  result.encode_ns_per_frame = Median(encode_ns);

  // Clocks: resolve each frame's hop once, then replay the sequence
  // through fresh cores per pass.  Every message is delivered right
  // after it is stamped, so each check must find it deliverable.
  std::vector<Hop> hops;
  hops.reserve(decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const CapturedFrame& frame = frames[origin[i]];
    std::optional<Hop> hop;
    for (std::size_t d = 0; d < deployment.domains().size(); ++d) {
      const auto& domain = deployment.domain(d);
      if (domain.id != decoded[i].domain) continue;
      auto src = domain.LocalId(frame.from);
      auto dst = domain.LocalId(frame.to);
      if (src && dst) hop = Hop{d, frame.from, frame.to, *src, *dst};
    }
    if (hop) {
      hops.push_back(*hop);
    } else {
      ++result.anomalies;
    }
  }
  if (hops.empty()) return result;

  const auto& config = deployment.config();
  const double clock_read = ClockReadNs();
  std::vector<double> prepare_ns;
  std::vector<double> check_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::map<std::pair<std::uint16_t, std::size_t>,
             std::unique_ptr<cmom::clocks::CausalCore>>
        cores;
    auto core_of = [&](cmom::ServerId server, std::size_t domain_index,
                       cmom::DomainServerId local) -> cmom::clocks::CausalCore& {
      auto& slot = cores[{server.value(), domain_index}];
      if (slot == nullptr) {
        const auto& domain = deployment.domain(domain_index);
        slot = cmom::clocks::MakeCausalCore(config.CoreFor(domain.id), local,
                                            domain.size(), config.stamp_mode);
      }
      return *slot;
    };
    std::uint64_t prepare_total = 0;
    std::uint64_t check_total = 0;
    std::size_t not_deliverable = 0;
    for (const Hop& hop : hops) {
      cmom::clocks::CausalCore& sender =
          core_of(hop.from, hop.domain_index, hop.src_local);
      cmom::clocks::CausalCore& receiver =
          core_of(hop.to, hop.domain_index, hop.dst_local);
      const std::uint64_t t0 = NowNs();
      cmom::clocks::Stamp stamp = sender.PrepareSend(hop.dst_local);
      const std::uint64_t t1 = NowNs();
      const auto verdict = receiver.CheckReceive(hop.src_local, stamp);
      if (verdict == cmom::clocks::CheckResult::kDeliver) {
        receiver.OnDeliver(hop.src_local, stamp);
      } else {
        ++not_deliverable;
      }
      const std::uint64_t t2 = NowNs();
      prepare_total += t1 - t0;
      check_total += t2 - t1;
    }
    if (pass == 0) result.anomalies += not_deliverable;
    const double n = static_cast<double>(hops.size());
    prepare_ns.push_back(
        std::max(0.0, static_cast<double>(prepare_total) / n - clock_read));
    check_ns.push_back(
        std::max(0.0, static_cast<double>(check_total) / n - clock_read));
  }
  result.prepare_send_ns = Median(prepare_ns);
  result.check_deliver_ns = Median(check_ns);
  return result;
}

}  // namespace perfbench
