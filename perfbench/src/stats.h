#ifndef CWDB_PERFBENCH_STATS_H_
#define CWDB_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; with fewer, the value is one or two outliers
/// and says nothing about the tail.
inline constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p_bp` (in basis points: 5000 = p50,
/// 9900 = p99) among `n` samples: ceil(p * n), at least 1. Integer
/// arithmetic, so p99 of 1000 samples is exactly rank 990.
inline size_t NearestRank(uint32_t p_bp, size_t n) {
  size_t rank = (static_cast<uint64_t>(p_bp) * n + 9999) / 10000;
  return std::max<size_t>(rank, 1);
}

/// Nearest-rank percentile of ascending `sorted`, or nullopt when fewer
/// than kMinBeyond samples lie beyond the rank (including n == 0).
inline std::optional<uint64_t> Percentile(const std::vector<uint64_t>& sorted,
                                          uint32_t p_bp) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(p_bp, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// p50/p99 of one latency population, with its sample count.
struct LatencySummary {
  size_t samples = 0;
  std::optional<uint64_t> p50;
  std::optional<uint64_t> p99;
};

/// Sorts `values` in place and summarizes them.
inline LatencySummary Summarize(std::vector<uint64_t>* values) {
  std::sort(values->begin(), values->end());
  LatencySummary s;
  s.samples = values->size();
  s.p50 = Percentile(*values, 5000);
  s.p99 = Percentile(*values, 9900);
  return s;
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count); 0 for an empty set.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace perfbench

#endif  // CWDB_PERFBENCH_STATS_H_
