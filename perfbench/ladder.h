// Ladder for the layers no seam wrapper reaches: the frame codec and
// the causal cores run inside the server's receive handler and work
// items, so the traced run replays the data frames it captured at the
// transport boundary through them afterwards, on each workload's own
// traffic.
#pragma once

#include <cstddef>
#include <vector>

#include "domains/deployment.h"
#include "seams.h"

namespace perfbench {

struct LadderResult {
  std::size_t frames = 0;
  // PeekFrameType + DataFrame::Deserialize, and DataFrame::Serialize.
  double decode_ns_per_frame = 0;
  double encode_ns_per_frame = 0;
  // Fresh clocks::MakeCausalCore instances replaying the captured
  // send/receive sequence: sender PrepareSend, receiver CheckReceive +
  // OnDeliver.
  double prepare_send_ns = 0;
  double check_deliver_ns = 0;
  // Frames that did not decode, re-encoded to different bytes, or were
  // not deliverable on replay.  A healthy run reports 0.
  std::size_t anomalies = 0;
};

[[nodiscard]] LadderResult RunLadder(const std::vector<CapturedFrame>& frames,
                                     const cmom::domains::Deployment& deployment);

}  // namespace perfbench
