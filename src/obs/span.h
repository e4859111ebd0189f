#ifndef CWDB_OBS_SPAN_H_
#define CWDB_OBS_SPAN_H_

#include <cstdint>
#include <string>

namespace cwdb {

class Tracer;

/// Pipeline stages a span can describe. One trace is one transaction (or
/// one background pass: checkpoint, audit sweep, recovery run); its spans
/// form a tree rooted at the kind listed first in each group. The `a`/`b`
/// payload words are kind-specific (documented per enumerator).
enum class SpanKind : uint8_t {
  // -- Transaction pipeline (root: kTxn) --
  kTxn = 0,           ///< Whole transaction, Begin() to retire. a=txn id.
  kTxnBegin = 1,      ///< Begin() call: id assignment + begin record.
  kLockWait = 2,      ///< Blocked in LockManager::Acquire. a=table, b=slot.
  kReadPrecheck = 3,  ///< Codeword precheck on the read path. a=off, b=len.
  kCodewordFold = 4,  ///< Codeword maintenance at EndUpdate. a=off, b=len.
  kWalStage = 5,      ///< Commit-record staging into the WAL log tail.
  kFlushWait = 6,     ///< Client-side wait inside SystemLog::Flush().
  kQueueWait = 7,     ///< Staged in the tail -> drainer pickup (drainer).
  kDrainBatch = 8,    ///< Drainer write window covering the commit. a=bytes.
  kFsync = 9,         ///< The fsync that made the commit durable.
  kCommitAck = 10,    ///< Post-flush lock release + ATT retire.

  // -- Checkpoint pipeline (root: kCheckpoint) --
  kCheckpoint = 11,      ///< Whole checkpoint. a=pages written.
  kCheckpointCopy = 12,  ///< Copy phase under the exclusive latch.
  kCheckpointWrite = 13, ///< Image page pwrites. a=bytes, b=pages.
  kCheckpointFsync = 14, ///< Image + meta durability.
  kCheckpointCertify = 15,  ///< Post-write certification audit.

  // -- Background / recovery (roots: kAuditSweep, kRecovery) --
  kAuditSweep = 16,    ///< One full audit sweep of the arena.
  kAuditSlice = 17,    ///< One per-round slice. a=bytes, b=shard lanes.
  kRecovery = 18,      ///< Whole recovery run.
  kRecoveryPhase = 19, ///< One phase. a=RecoveryPhase.
};

/// Stable lowercase dotted name ("wal.fsync") used by the exporters and the
/// attribution table.
const char* SpanKindName(SpanKind kind);

/// Inverse of SpanKindName; false for an unknown name.
bool SpanKindFromName(const std::string& name, SpanKind* kind);

/// One completed span. Spans are recorded at completion only (there is no
/// open-span registry): the instrumentation site reads the clock at entry
/// and exit and publishes one record, so an abandoned site leaks nothing.
/// `tid` is a small per-thread ordinal assigned by the tracer (stable
/// within a process run; exported as the Perfetto thread id).
struct SpanRecord {
  uint64_t trace_id = 0;   ///< Groups spans of one transaction/pass.
  uint64_t span_id = 0;    ///< Unique within the tracer's lifetime.
  uint64_t parent_id = 0;  ///< 0 = root of its trace.
  uint64_t start_ns = 0;   ///< NowNs() at entry.
  uint64_t dur_ns = 0;     ///< Exit - entry.
  uint64_t a = 0;          ///< Kind-specific payload.
  uint64_t b = 0;
  uint32_t tid = 0;
  SpanKind kind = SpanKind::kTxn;
};

/// Sampling decision plus addressing for one trace: carried by value on the
/// transaction (and on WAL trace tags for the cross-thread hop). A
/// default-constructed context is unsampled; every instrumentation site
/// guards on sampled(), which is a single pointer test — the whole span
/// layer costs one branch per site when tracing is off.
struct SpanContext {
  Tracer* tracer = nullptr;  ///< Null = not sampled.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;      ///< The span new children should parent to.

  bool sampled() const { return tracer != nullptr; }

  /// The same trace, re-parented under `parent` (for handing a specific
  /// parent span to a child site, e.g. the flush-wait span id to the
  /// drainer-side spans).
  SpanContext Under(uint64_t parent) const {
    return SpanContext{tracer, trace_id, parent};
  }
};

}  // namespace cwdb

#endif  // CWDB_OBS_SPAN_H_
