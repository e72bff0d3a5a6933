// Micro-benchmarks (google-benchmark) for the clock machinery: the raw
// CPU cost of stamping, checking and merging matrix clocks at domain
// sizes from 4 to 256, plus stamp codec cost in both modes.  These are
// the per-entry costs the simulation's CostModel abstracts; the O(n^2)
// growth of the full-matrix columns is the paper's Section 3 problem
// statement, measured directly.
#include <benchmark/benchmark.h>

#include "clocks/causal_core.h"
#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "common/rng.h"

namespace {

using cmom::DomainServerId;
using cmom::Rng;
using cmom::clocks::MatrixClock;
using cmom::clocks::MatrixClockCore;
using cmom::clocks::Stamp;
using cmom::clocks::StampMode;

MatrixClock RandomMatrix(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  MatrixClock matrix(size);
  for (std::uint16_t i = 0; i < size; ++i) {
    for (std::uint16_t j = 0; j < size; ++j) {
      matrix.set(DomainServerId(i), DomainServerId(j), rng.NextBelow(1000));
    }
  }
  return matrix;
}

void BM_MatrixMerge(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  MatrixClock a = RandomMatrix(size, 1);
  const MatrixClock b = RandomMatrix(size, 2);
  for (auto _ : state) {
    a.MergeFrom(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_MatrixMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_PrepareSendFullMatrix(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  MatrixClockCore clock(DomainServerId(0), size, StampMode::kFullMatrix);
  std::uint16_t dest = 1;
  for (auto _ : state) {
    Stamp stamp = clock.PrepareSend(DomainServerId(dest));
    benchmark::DoNotOptimize(stamp);
    dest = static_cast<std::uint16_t>(1 + (dest % (size - 1)));
  }
}
BENCHMARK(BM_PrepareSendFullMatrix)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_PrepareSendUpdates(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  MatrixClockCore clock(DomainServerId(0), size, StampMode::kUpdates);
  std::uint16_t dest = 1;
  for (auto _ : state) {
    Stamp stamp = clock.PrepareSend(DomainServerId(dest));
    benchmark::DoNotOptimize(stamp);
    dest = static_cast<std::uint16_t>(1 + (dest % (size - 1)));
  }
}
BENCHMARK(BM_PrepareSendUpdates)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_CheckAndCommit(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  // Sender 1 streams to receiver 0; the receiver checks and merges.
  MatrixClockCore sender(DomainServerId(1), size, StampMode::kFullMatrix);
  MatrixClockCore receiver(DomainServerId(0), size, StampMode::kFullMatrix);
  for (auto _ : state) {
    Stamp stamp = sender.PrepareSend(DomainServerId(0));
    auto check = receiver.CheckReceive(DomainServerId(1), stamp);
    benchmark::DoNotOptimize(check);
    receiver.OnDeliver(DomainServerId(1), stamp);
  }
}
BENCHMARK(BM_CheckAndCommit)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_StampEncodeDecode(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  MatrixClockCore clock(DomainServerId(0), size, StampMode::kFullMatrix);
  const Stamp stamp = clock.PrepareSend(DomainServerId(1));
  for (auto _ : state) {
    cmom::ByteWriter writer;
    stamp.Encode(writer);
    cmom::ByteReader reader(writer.buffer());
    auto decoded = Stamp::Decode(reader);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stamp.EncodedSize()));
}
BENCHMARK(BM_StampEncodeDecode)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The causal core's two stamp modes, swept side by side.  The second
// range argument indexes this table; each JSON row is labeled with the
// mode name so downstream tooling can group the series.
struct ModeChoice {
  const char* name;
  StampMode mode;
};
constexpr ModeChoice kModeChoices[] = {
    {"matrix_full", StampMode::kFullMatrix},
    {"matrix_updates", StampMode::kUpdates},
};

void BM_CorePrepareSend(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const ModeChoice& choice = kModeChoices[state.range(1)];
  MatrixClockCore core(DomainServerId(0), size, choice.mode);
  std::uint16_t dest = 1;
  std::uint64_t bytes = 0;
  std::uint64_t stamps = 0;
  for (auto _ : state) {
    Stamp stamp = core.PrepareSend(DomainServerId(dest));
    bytes += stamp.EncodedSize();
    ++stamps;
    benchmark::DoNotOptimize(stamp);
    dest = static_cast<std::uint16_t>(1 + (dest % (size - 1)));
  }
  state.SetLabel(choice.name);
  state.counters["stamp_bytes"] =
      stamps == 0 ? 0 : static_cast<double>(bytes) / static_cast<double>(stamps);
}
BENCHMARK(BM_CorePrepareSend)
    ->ArgsProduct({{4, 16, 64, 256}, {0, 1}})
    ->ArgNames({"s", "mode"});

void BM_CoreCheckAndDeliver(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const ModeChoice& choice = kModeChoices[state.range(1)];
  // Sender 1 streams to receiver 0; the receiver checks and merges.
  MatrixClockCore sender(DomainServerId(1), size, choice.mode);
  MatrixClockCore receiver(DomainServerId(0), size, choice.mode);
  for (auto _ : state) {
    Stamp stamp = sender.PrepareSend(DomainServerId(0));
    auto check = receiver.CheckReceive(DomainServerId(1), stamp);
    benchmark::DoNotOptimize(check);
    receiver.OnDeliver(DomainServerId(1), stamp);
  }
  state.SetLabel(choice.name);
}
BENCHMARK(BM_CoreCheckAndDeliver)
    ->ArgsProduct({{4, 16, 64, 256}, {0, 1}})
    ->ArgNames({"s", "mode"});

void BM_ClockStatePersistImage(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  MatrixClockCore clock(DomainServerId(0), size, StampMode::kUpdates);
  for (auto _ : state) {
    cmom::ByteWriter writer;
    clock.EncodeState(writer);
    benchmark::DoNotOptimize(writer);
    state.counters["image_bytes"] =
        static_cast<double>(writer.size());
  }
}
BENCHMARK(BM_ClockStatePersistImage)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
