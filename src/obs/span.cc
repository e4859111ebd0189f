#include "obs/span.h"

#include <cstdio>

namespace cwdb {

namespace {

struct KindName {
  SpanKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {SpanKind::kTxn, "txn"},
    {SpanKind::kTxnBegin, "txn.begin"},
    {SpanKind::kLockWait, "lock.wait"},
    {SpanKind::kReadPrecheck, "read.precheck"},
    {SpanKind::kCodewordFold, "codeword.fold"},
    {SpanKind::kWalStage, "wal.stage"},
    {SpanKind::kFlushWait, "wal.flush_wait"},
    {SpanKind::kQueueWait, "wal.queue_wait"},
    {SpanKind::kDrainBatch, "wal.drain_batch"},
    {SpanKind::kFsync, "wal.fsync"},
    {SpanKind::kCommitAck, "commit.ack"},
    {SpanKind::kCheckpoint, "ckpt"},
    {SpanKind::kCheckpointCopy, "ckpt.copy"},
    {SpanKind::kCheckpointWrite, "ckpt.write"},
    {SpanKind::kCheckpointFsync, "ckpt.fsync"},
    {SpanKind::kCheckpointCertify, "ckpt.certify"},
    {SpanKind::kAuditSweep, "audit.sweep"},
    {SpanKind::kAuditSlice, "audit.slice"},
    {SpanKind::kRecovery, "recovery"},
    {SpanKind::kRecoveryPhase, "recovery.phase"},
    {SpanKind::kFaultInjected, "fault_injected"},
    {SpanKind::kWritePrevented, "write_prevented"},
    {SpanKind::kCorruptionDetected, "corruption_detected"},
    {SpanKind::kPrecheckFailed, "precheck_failed"},
    {SpanKind::kAuditPassBegin, "audit_pass_begin"},
    {SpanKind::kAuditPassEnd, "audit_pass_end"},
    {SpanKind::kRecoveryPhaseBegin, "recovery_phase"},
    {SpanKind::kTxnDeleted, "txn_deleted"},
    {SpanKind::kGroupCommitFlush, "group_commit_flush"},
    {SpanKind::kCheckpointEnd, "checkpoint"},
    {SpanKind::kMprotectFault, "mprotect_fault"},
    {SpanKind::kWalTailDamage, "wal_tail_damage"},
    {SpanKind::kRepair, "repair"},
};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "unknown";
}

bool SpanKindFromName(const std::string& name, SpanKind* kind) {
  for (const KindName& k : kKindNames) {
    if (name == k.name) {
      *kind = k.kind;
      return true;
    }
  }
  return false;
}

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kLoadCheckpoint: return "load_checkpoint";
    case RecoveryPhase::kRedo: return "redo";
    case RecoveryPhase::kUndo: return "undo";
    case RecoveryPhase::kFinalCheckpoint: return "final_checkpoint";
    case RecoveryPhase::kDone: return "done";
  }
  return "?";
}

std::string DescribeTraceEvent(const TraceEvent& e) {
  const auto a = static_cast<unsigned long long>(e.a);
  const auto b = static_cast<unsigned long long>(e.b);
  const auto lsn = static_cast<unsigned long long>(e.lsn);
  char buf[128];
  switch (e.kind) {
    case SpanKind::kFaultInjected:
    case SpanKind::kWritePrevented:
    case SpanKind::kCorruptionDetected:
    case SpanKind::kPrecheckFailed:
    case SpanKind::kMprotectFault:
    case SpanKind::kRepair:
      std::snprintf(buf, sizeof(buf), "off=%llu len=%llu", a, b);
      break;
    case SpanKind::kAuditPassBegin:
      std::snprintf(buf, sizeof(buf), "audit_sn=%llu", lsn);
      break;
    case SpanKind::kAuditPassEnd:
      std::snprintf(buf, sizeof(buf), "regions=%llu corrupt=%llu", a, b);
      break;
    case SpanKind::kRecoveryPhaseBegin:
      std::snprintf(buf, sizeof(buf), "phase=%s",
                    RecoveryPhaseName(static_cast<RecoveryPhase>(e.a)));
      break;
    case SpanKind::kTxnDeleted:
      std::snprintf(buf, sizeof(buf), "txn=%llu", a);
      break;
    case SpanKind::kGroupCommitFlush:
      std::snprintf(buf, sizeof(buf), "stable_end=%llu batch_bytes=%llu", lsn,
                    a);
      break;
    case SpanKind::kCheckpointEnd:
      std::snprintf(buf, sizeof(buf), "ck_end=%llu pages=%llu", lsn, a);
      break;
    case SpanKind::kWalTailDamage:
      std::snprintf(buf, sizeof(buf), "damage_off=%llu file_bytes=%llu", a,
                    b);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "a=%llu b=%llu", a, b);
  }
  std::string out = buf;
  if (e.shard != kNoTraceShard) {
    std::snprintf(buf, sizeof(buf), " shard=%llu",
                  static_cast<unsigned long long>(e.shard));
    out += buf;
  }
  return out;
}

}  // namespace cwdb
