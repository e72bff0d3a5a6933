// Power-of-two-bucketed histogram.
//
// Bucket b counts samples in [2^(b-1), 2^b), with bucket 0 counting
// zeros.  Record is O(1) via std::bit_width, cheap enough to live on
// the commit path; summarized by momtool / tcpsmoke.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

namespace cmom {

struct LogHistogram {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void Record(std::uint64_t value) {
    // bit_width(v) is 1 + floor(log2 v), i.e. exactly the first b with
    // 2^b > v -- the historical linear bucket scan in O(1).
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(value), kBuckets - 1);
    ++buckets[b];
    ++count;
    sum += value;
    if (value > max) max = value;
  }

  void MergeFrom(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Compact "mean/max + populated buckets" rendering for summaries.
  [[nodiscard]] std::string ToString() const {
    char head[96];
    std::snprintf(head, sizeof(head), "n=%llu mean=%.1f max=%llu",
                  static_cast<unsigned long long>(count), Mean(),
                  static_cast<unsigned long long>(max));
    std::string out = head;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets[b] == 0) continue;
      char cell[48];
      std::snprintf(cell, sizeof(cell), " <%llu:%llu",
                    static_cast<unsigned long long>(1ull << b),
                    static_cast<unsigned long long>(buckets[b]));
      out += cell;
    }
    return out;
  }
};

}  // namespace cmom
