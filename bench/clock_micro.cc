// Micro-benchmarks (google-benchmark) for the clock machinery: the raw
// CPU cost of stamping, checking and merging matrix clocks at domain
// sizes from 4 to 256, plus stamp codec cost in both modes.  These are
// the per-entry costs the simulation's CostModel abstracts; the O(n^2)
// growth of the full-matrix columns is the paper's Section 3 problem
// statement, measured directly.  The BM_Steady* cases time the codec on
// the shape a running Flat(16) Updates domain ships and persists (see
// SteadyFlat16 below).
//
//   ./build/bench/clock_micro --benchmark_filter=Steady
#include <benchmark/benchmark.h>

#include <array>
#include <cstdlib>
#include <vector>

#include "clocks/causal_core.h"
#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "mom/message.h"

namespace {

using cmom::Bytes;
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

// Steady state of a Flat(16) Updates domain under uniform echo traffic,
// the perfbench `wide_domain` shape: a requester on a random server
// sends to a random peer, which replies, and every message is delivered
// on arrival.  40000 round trips warm the clocks up; the next 256
// messages' stamps (113 entries and 454 B on average, like the ~440 B
// stamps `wide_domain` ships) and their data frames, with a 64 B
// payload, are what the BM_Steady* cases time.
constexpr std::size_t kSteadySize = 16;

struct SteadyFlat16 {
  std::vector<MatrixClockCore> cores;
  std::vector<Stamp> stamps;
  std::vector<cmom::mom::DataFrame> frames;
  std::vector<Bytes> wire;

  SteadyFlat16() {
    for (std::uint16_t i = 0; i < kSteadySize; ++i) {
      cores.emplace_back(DomainServerId(i), kSteadySize, StampMode::kUpdates);
    }
    Rng rng(16);
    const auto deliver = [&](std::uint16_t src, std::uint16_t dst) {
      Stamp stamp = cores[src].PrepareSend(DomainServerId(dst));
      if (cores[dst].CheckReceive(DomainServerId(src), stamp) !=
          cmom::clocks::CheckResult::kDeliver) {
        std::abort();  // immediate delivery always finds it deliverable
      }
      cores[dst].OnDeliver(DomainServerId(src), stamp);
      return stamp;
    };
    std::uint64_t seq = 0;
    for (int trip = 0; trip < 40000 + 128; ++trip) {
      const auto src = static_cast<std::uint16_t>(rng.NextBelow(kSteadySize));
      const auto dst = static_cast<std::uint16_t>(
          (src + 1 + rng.NextBelow(kSteadySize - 1)) % kSteadySize);
      const std::array<std::array<std::uint16_t, 2>, 2> hops = {
          {{src, dst}, {dst, src}}};
      for (const auto& [from, to] : hops) {
        Stamp stamp = deliver(from, to);
        if (trip < 40000) continue;
        cmom::mom::DataFrame frame;
        frame.message.id = cmom::MessageId{cmom::ServerId(from), ++seq};
        frame.message.from = cmom::AgentId{cmom::ServerId(from), 1};
        frame.message.to = cmom::AgentId{cmom::ServerId(to), 1};
        frame.message.subject = from == src ? "req" : "echo";
        frame.message.payload.assign(64, static_cast<std::uint8_t>(seq));
        frame.stamp = stamp;
        frame.epoch = 1;
        frame.incarnation = 1;
        wire.push_back(frame.Serialize());
        frames.push_back(std::move(frame));
        stamps.push_back(std::move(stamp));
      }
    }
  }

  static const SteadyFlat16& Get() {
    static const SteadyFlat16 steady;
    return steady;
  }
};

void SetSteadyCounters(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t entries = 0;
  std::size_t bytes = 0;
  for (const Stamp& stamp : steady.stamps) {
    entries += stamp.entries.size();
    bytes += stamp.EncodedSize();
  }
  state.counters["stamp_entries"] =
      static_cast<double>(entries) / static_cast<double>(steady.stamps.size());
  state.counters["stamp_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(steady.stamps.size());
}

void BM_SteadyStampEncodedSize(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(steady.stamps[i].EncodedSize());
    i = (i + 1) % steady.stamps.size();
  }
  SetSteadyCounters(state);
}
BENCHMARK(BM_SteadyStampEncodedSize);

void BM_SteadyStampEncode(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    cmom::ByteWriter writer;
    steady.stamps[i].Encode(writer);
    benchmark::DoNotOptimize(writer.buffer().data());
    i = (i + 1) % steady.stamps.size();
  }
  SetSteadyCounters(state);
}
BENCHMARK(BM_SteadyStampEncode);

void BM_SteadyStampDecode(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::vector<Bytes> encoded;
  for (const Stamp& stamp : steady.stamps) {
    cmom::ByteWriter writer;
    stamp.Encode(writer);
    encoded.push_back(std::move(writer).Take());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    cmom::ByteReader reader(encoded[i]);
    auto decoded = Stamp::Decode(reader);
    benchmark::DoNotOptimize(decoded);
    i = (i + 1) % encoded.size();
  }
  SetSteadyCounters(state);
}
BENCHMARK(BM_SteadyStampDecode);

// The clock work of one message in that steady state: the sender's
// PrepareSend (the Updates delta), the receiver's check and merge.
void BM_SteadyStampAndDeliver(benchmark::State& state) {
  std::vector<MatrixClockCore> cores = SteadyFlat16::Get().cores;
  Rng rng(17);
  for (auto _ : state) {
    const auto src = static_cast<std::uint16_t>(rng.NextBelow(kSteadySize));
    const auto dst = static_cast<std::uint16_t>(
        (src + 1 + rng.NextBelow(kSteadySize - 1)) % kSteadySize);
    Stamp stamp = cores[src].PrepareSend(DomainServerId(dst));
    auto check = cores[dst].CheckReceive(DomainServerId(src), stamp);
    benchmark::DoNotOptimize(check);
    cores[dst].OnDeliver(DomainServerId(src), stamp);
  }
}
BENCHMARK(BM_SteadyStampAndDeliver);

// The clk/ record a Flat(16) server commits after every delivery.
void BM_SteadyClockImage(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t i = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    cmom::ByteWriter writer;
    steady.cores[i].EncodeState(writer);
    bytes = writer.size();
    benchmark::DoNotOptimize(writer.buffer().data());
    i = (i + 1) % steady.cores.size();
  }
  state.counters["image_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SteadyClockImage);

void BM_SteadyDataFrameSerialize(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    Bytes bytes = steady.frames[i].Serialize();
    benchmark::DoNotOptimize(bytes.data());
    cmom::BufferPool::Release(std::move(bytes));
    i = (i + 1) % steady.frames.size();
  }
  SetSteadyCounters(state);
}
BENCHMARK(BM_SteadyDataFrameSerialize);

void BM_SteadyDataFrameDeserialize(benchmark::State& state) {
  const SteadyFlat16& steady = SteadyFlat16::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    auto frame = cmom::mom::DataFrame::Deserialize(steady.wire[i]);
    if (!frame.ok()) std::abort();
    benchmark::DoNotOptimize(frame);
    cmom::BufferPool::Release(std::move(frame.value().message.payload));
    i = (i + 1) % steady.wire.size();
  }
  SetSteadyCounters(state);
}
BENCHMARK(BM_SteadyDataFrameDeserialize);

}  // namespace
