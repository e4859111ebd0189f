// Unit tests of the benchmark's own helpers: the nearest-rank percentile
// with its >=10-beyond rule, the seeded zipfian generator, and span
// self-time attribution. run.py runs this binary before every benchmark
// run; a failure fails the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "zipf.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<uint64_t> OneTo(uint64_t n) {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestNearestRank() {
  CHECK_TRUE(NearestRank(5000, 10) == 5);
  CHECK_TRUE(NearestRank(5000, 11) == 6);
  CHECK_TRUE(NearestRank(9900, 1000) == 990);
  CHECK_TRUE(NearestRank(9900, 1001) == 991);
  CHECK_TRUE(NearestRank(9900, 1) == 1);
  CHECK_TRUE(NearestRank(0, 5) == 1);
}

void TestPercentileBeyondRule() {
  // p99 of 1..1000 is 990, with exactly 10 samples beyond it.
  std::vector<uint64_t> v = OneTo(1000);
  CHECK_TRUE(Percentile(v, 9900) == std::optional<uint64_t>(990));
  // One fewer sample leaves only 9 beyond rank 990: not reported.
  v = OneTo(999);
  CHECK_TRUE(!Percentile(v, 9900).has_value());
  // p50 needs 20 samples.
  v = OneTo(20);
  CHECK_TRUE(Percentile(v, 5000) == std::optional<uint64_t>(10));
  v = OneTo(19);
  CHECK_TRUE(!Percentile(v, 5000).has_value());
  CHECK_TRUE(!Percentile({}, 5000).has_value());
}

void TestSummarizeCountsAndSorts() {
  std::vector<uint64_t> v;
  for (uint64_t i = 2000; i >= 1; --i) v.push_back(i);
  LatencySummary s = Summarize(&v);
  CHECK_TRUE(s.samples == 2000);
  CHECK_TRUE(s.p50 == std::optional<uint64_t>(1000));
  CHECK_TRUE(s.p99 == std::optional<uint64_t>(1980));
  std::vector<uint64_t> few = {5, 1, 3};
  s = Summarize(&few);
  CHECK_TRUE(s.samples == 3);
  CHECK_TRUE(!s.p50.has_value() && !s.p99.has_value());
}

void TestMedian() {
  CHECK_TRUE(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK_TRUE(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK_TRUE(Median({}) == 0.0);
}

void TestZipfShape() {
  const uint64_t n = 1000;
  const double theta = 0.99;
  ZipfDistribution zipf(n, theta);
  SplitMix64 rng(7);
  const uint64_t draws = 400000;
  std::vector<uint64_t> freq(n, 0);
  bool in_range = true;
  for (uint64_t i = 0; i < draws; ++i) {
    uint64_t r = zipf.Sample(&rng);
    if (r >= n) {
      in_range = false;
      continue;
    }
    ++freq[r];
  }
  CHECK_TRUE(in_range);
  // The hottest rank gets 1/zeta(n) of the draws.
  const double p0 = static_cast<double>(freq[0]) / draws;
  CHECK_TRUE(std::fabs(p0 * zipf.zetan() - 1.0) < 0.03);
  // Frequency falls as 1/rank^theta: least-squares slope of log(freq)
  // against log(rank) over ranks 1..50.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const int k = 50;
  for (int r = 1; r <= k; ++r) {
    double x = std::log(static_cast<double>(r));
    double y = std::log(static_cast<double>(freq[r - 1]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
  CHECK_TRUE(std::fabs(slope + theta) < 0.08);
  // Every rank is reachable in the tail, and the tail is light.
  uint64_t tail = 0;
  for (uint64_t r = n / 2; r < n; ++r) tail += freq[r];
  CHECK_TRUE(tail > 0 && tail < draws / 10);
}

void TestZipfSeedReproducible() {
  ZipfDistribution zipf(1 << 20, 0.99);
  SplitMix64 a(42), b(42), c(43);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = zipf.Sample(&a);
    if (x != zipf.Sample(&b)) same = false;
    if (x != zipf.Sample(&c)) differs = true;
  }
  CHECK_TRUE(same);
  CHECK_TRUE(differs);
}

void TestSelfTimes() {
  std::vector<Span> spans;
  // Trace 1: root [0,100] with overlapping children [10,30] and [20,50],
  // a child running past the root [90,120], and a grandchild [12,18]
  // under the first child.
  spans.push_back({1, 10, 30, 2, 1, SpanName::kTableRead});
  spans.push_back({1, 20, 50, 3, 1, SpanName::kTableUpdate});
  spans.push_back({1, 90, 120, 4, 1, SpanName::kTxnCommit});
  spans.push_back({1, 12, 18, 5, 2, SpanName::kIndexLookup});
  spans.push_back({1, 0, 100, 1, 0, SpanName::kTxn});
  // Trace 2 reuses span ids; its spans must not be matched with trace 1's.
  spans.push_back({2, 200, 260, 1, 0, SpanName::kTxn});
  spans.push_back({2, 210, 220, 2, 1, SpanName::kTxnBegin});
  // A span whose parent was never recorded counts as a root-less leaf.
  spans.push_back({3, 300, 310, 2, 9, SpanName::kTableRead});

  std::vector<uint64_t> self = SelfTimes(spans);
  CHECK_TRUE(self[0] == 20 - 6);  // [10,30] minus grandchild [12,18].
  CHECK_TRUE(self[1] == 30);
  CHECK_TRUE(self[2] == 30);
  CHECK_TRUE(self[3] == 6);
  CHECK_TRUE(self[4] == 100 - 40 - 10);  // Union [10,50] + [90,100].
  CHECK_TRUE(self[5] == 60 - 10);
  CHECK_TRUE(self[6] == 10);
  CHECK_TRUE(self[7] == 10);

  // Shares are taken against root durations (100 + 60 here).
  SelfTimeTable table = AttributeSelfTime(spans);
  const SelfTimeRow& txn = table[static_cast<size_t>(SpanName::kTxn)];
  CHECK_TRUE(txn.total_ns == 50 + 50);
  CHECK_TRUE(txn.self.samples == 2);
  CHECK_TRUE(std::fabs(txn.share - 100.0 / 160.0) < 1e-12);
}

void TestSharesSumToOneForWellFormedTraces() {
  SpanBuffer buf(1);
  for (int t = 0; t < 50; ++t) {
    uint64_t trace = buf.NewTrace();
    uint64_t base = static_cast<uint64_t>(t) * 1000;
    buf.Add(trace, 2, 1, SpanName::kTxnBegin, base + 1, base + 5);
    buf.Add(trace, 3, 1, SpanName::kTableRead, base + 5, base + 50);
    buf.Add(trace, 4, 1, SpanName::kTxnCommit, base + 60, base + 400);
    buf.Add(trace, 1, 0, SpanName::kTxn, base, base + 410);
  }
  SelfTimeTable table = AttributeSelfTime(buf.spans());
  double sum = 0;
  for (const SelfTimeRow& row : table) sum += row.share;
  CHECK_TRUE(std::fabs(sum - 1.0) < 1e-12);
  CHECK_TRUE(table[static_cast<size_t>(SpanName::kTxnCommit)].self.p50 ==
             std::optional<uint64_t>(340));
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestNearestRank();
  TestPercentileBeyondRule();
  TestSummarizeCountsAndSorts();
  TestMedian();
  TestZipfShape();
  TestZipfSeedReproducible();
  TestSelfTimes();
  TestSharesSumToOneForWellFormedTraces();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
