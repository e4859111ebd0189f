#ifndef CWDB_PERFBENCH_SPANS_H_
#define CWDB_PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// The layer boundaries the benchmark wraps. A span is recorded from the
/// benchmark's own code around one call into the engine; kTxn is the root
/// of one transaction's trace, the restart steps are roots of their own.
enum class SpanName : uint8_t {
  kTxn,
  kTxnBegin,
  kIndexLookup,
  kTableRead,
  kTableUpdate,
  kTableInsert,
  kTxnCommit,
  kCheckpoint,
  kCrashRecover,
  kAudit,
  kAuditRepair,
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

/// Stable name of a span kind ("txn.begin", "protect.audit", ...).
const char* SpanNameStr(SpanName name);

struct Span {
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;      ///< >= 1, unique within its trace.
  uint32_t parent = 0;  ///< Id of the parent span in the same trace; 0 = root.
  SpanName name = SpanName::kTxn;
};

/// One thread's spans, appended without synchronization and kept in memory
/// until the run ends. Trace ids embed the buffer's tag, so ids from
/// different buffers never collide.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t tag) : tag_(tag) {}

  /// A fresh trace id.
  uint64_t NewTrace() { return (uint64_t{tag_} << 40) | ++traces_; }

  void Add(uint64_t trace, uint32_t id, uint32_t parent, SpanName name,
           uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{trace, start_ns, end_ns, id, parent, name});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tag_;
  uint64_t traces_ = 0;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (each clipped to the
/// parent). Result is index-aligned with `spans`. A span whose parent is
/// missing is treated as having no parent.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-layer self-time attribution of one traced run.
struct SelfTimeRow {
  LatencySummary self;    ///< Nearest-rank p50/p99 of per-span self time.
  uint64_t total_ns = 0;  ///< Sum of self time.
  double share = 0.0;     ///< total_ns / sum of root-span durations.
};
using SelfTimeTable = std::array<SelfTimeRow, kSpanNames>;

/// Attributes the self times of `spans` by span name. The shares sum to 1
/// over all names (the root rows carry the benchmark's own time between
/// engine calls).
SelfTimeTable AttributeSelfTime(const std::vector<Span>& spans);

/// Writes `spans` as tab-separated text (one span per line, with a header)
/// to `path`. Returns false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // CWDB_PERFBENCH_SPANS_H_
