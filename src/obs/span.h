#ifndef CWDB_OBS_SPAN_H_
#define CWDB_OBS_SPAN_H_

#include <cstdint>
#include <string>

namespace cwdb {

class Tracer;

/// What a trace record describes. Spans form trees: one trace is one
/// transaction (or one background pass: checkpoint, audit sweep, recovery
/// run), rooted at the kind listed first in each group. Instant events
/// (the last group) are point-in-time records outside any trace. The
/// `a`/`b` payload words are kind-specific (documented per enumerator).
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

  // -- Instant events (Tracer::Event: dur 0, trace 0). `lsn` anchors the
  // event in the log (0 when not applicable); `shard` attributes it to an
  // engine shard (kNoTraceShard for cross-shard paths). --
  kFaultInjected = 20,       ///< a=off, b=len — unprescribed write landed.
  kWritePrevented = 21,      ///< a=off, b=len — hardware scheme trapped it.
  kCorruptionDetected = 22,  ///< a=off, b=len — audit implicated this range.
  kPrecheckFailed = 23,      ///< a=off, b=len — read precheck mismatch.
  kAuditPassBegin = 24,      ///< lsn=Audit_SN candidate.
  kAuditPassEnd = 25,        ///< a=regions audited, b=corrupt regions.
  kRecoveryPhaseBegin = 26,  ///< a=RecoveryPhase entered.
  kTxnDeleted = 27,          ///< a=txn id — delete-transaction recovery.
  kGroupCommitFlush = 28,    ///< lsn=new stable end, a=batch bytes.
  kCheckpointEnd = 29,       ///< lsn=CK_end, a=pages written.
  kMprotectFault = 30,       ///< a=off, b=len — SIGSEGV on protected page.
  kWalTailDamage = 31,       ///< a=damage offset, b=file bytes — a complete
                             ///< WAL frame failed its CRC at open (not a
                             ///< torn tail: valid frames follow the bad one).
  kRepair = 32,              ///< a=off, b=len — region reconstructed in
                             ///< place from its parity group.
};

inline constexpr SpanKind kFirstEventKind = SpanKind::kFaultInjected;
inline constexpr SpanKind kLastEventKind = SpanKind::kRepair;

inline bool IsEventKind(SpanKind kind) {
  return kind >= kFirstEventKind && kind <= kLastEventKind;
}

/// Stable name used by the exporters, the attribution table and the event
/// readers: lowercase dotted for spans ("wal.fsync"), snake_case for
/// instant events ("group_commit_flush", the metrics.json `type`).
const char* SpanKindName(SpanKind kind);

/// Inverse of SpanKindName; false for an unknown name.
bool SpanKindFromName(const std::string& name, SpanKind* kind);

/// Phases of a recovery run (the `a` word of kRecoveryPhase spans and
/// kRecoveryPhaseBegin events).
enum class RecoveryPhase : uint8_t {
  kLoadCheckpoint = 0,
  kRedo = 1,
  kUndo = 2,
  kFinalCheckpoint = 3,
  kDone = 4,
};

const char* RecoveryPhaseName(RecoveryPhase phase);

/// Shard value meaning "not attributed to any shard" (events from
/// cross-shard paths: group commit, sweep-wide audit marks; every span).
inline constexpr uint64_t kNoTraceShard = UINT64_MAX;

/// One completed span or instant event. Spans are recorded at completion
/// only (there is no open-span registry): the instrumentation site reads
/// the clock at entry and exit and publishes one record, so an abandoned
/// site leaks nothing. `tid` is a small per-thread ordinal assigned by the
/// tracer (stable within a process run; exported as the Perfetto thread
/// id).
struct SpanRecord {
  uint64_t trace_id = 0;   ///< Groups spans of one transaction/pass.
  uint64_t span_id = 0;    ///< Unique within the tracer's lifetime.
  uint64_t parent_id = 0;  ///< 0 = root of its trace.
  uint64_t start_ns = 0;   ///< NowNs() at entry.
  uint64_t dur_ns = 0;     ///< Exit - entry.
  uint64_t lsn = 0;        ///< Instant events: log anchor.
  uint64_t a = 0;          ///< Kind-specific payload.
  uint64_t b = 0;
  uint64_t shard = kNoTraceShard;  ///< Instant events: owning shard.
  uint32_t tid = 0;
  SpanKind kind = SpanKind::kTxn;
};

/// An instant event as the event readers see it (metrics.json `events`,
/// dossier tails, the black box). `seq` orders events: the span id for
/// live records, the mirror ordinal for black-box slots.
struct TraceEvent {
  uint64_t seq = 0;
  uint64_t t_ns = 0;  ///< NowNs() at record time.
  uint64_t lsn = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t shard = kNoTraceShard;
  SpanKind kind = kFirstEventKind;
};

/// The TraceEvent view of an instant record (seq = its span id).
inline TraceEvent EventOf(const SpanRecord& r) {
  return TraceEvent{r.span_id, r.start_ns, r.lsn, r.a, r.b, r.shard, r.kind};
}

/// Decodes an event's kind-specific `a`/`b` payload into operator-readable
/// text, e.g. "off=73728 len=64" or "phase=redo". Used by `cwdb_ctl trace`
/// and the dossier's trace-snapshot rendering.
std::string DescribeTraceEvent(const TraceEvent& e);

/// Sampling decision plus addressing for one trace: carried by value on the
/// transaction (and on WAL trace tags for the cross-thread hop). A
/// default-constructed context is unsampled; every transaction-pipeline
/// site guards on sampled(), which is a single pointer test — the span
/// layer costs one branch per site when a transaction is not sampled.
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
