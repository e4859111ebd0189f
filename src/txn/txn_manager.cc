#include "txn/txn_manager.h"

#include <cstring>
#include <thread>

#include "txn/table_ops.h"

namespace cwdb {

TxnManager::TxnManager(DbImage* image, ProtectionManager* protection,
                       SystemLog* log, MetricsRegistry* metrics,
                       size_t lock_shards)
    : image_(image),
      protection_(protection),
      log_(log),
      metrics_(FallbackRegistry(metrics, &own_metrics_)),
      locks_(lock_shards) {
  ins_.commits = metrics_->counter("txn.commits");
  ins_.aborts = metrics_->counter("txn.aborts");
  ins_.active = metrics_->gauge("txn.active");
  ins_.commit_latency_ns = metrics_->histogram("txn.commit_latency_ns");
  ins_.abort_latency_ns = metrics_->histogram("txn.abort_latency_ns");
  locks_.BindMetrics(metrics_);
}

Result<Transaction*> TxnManager::Begin() {
  Tracer* tracer = metrics_->tracer();
  const uint64_t t0 = tracer->sampling() ? NowNs() : 0;
  std::lock_guard<std::mutex> guard(att_mu_);
  TxnId id = next_txn_id_++;
  auto txn = std::unique_ptr<Transaction>(new Transaction(this, id));
  Transaction* raw = txn.get();
  if (t0 != 0 && !recovery_mode_) {
    uint64_t root_span = 0;
    raw->trace_ctx_ = tracer->MaybeStartTrace(&root_span);
    if (raw->trace_ctx_.sampled()) {
      raw->trace_root_span_ = root_span;
      raw->trace_start_ns_ = t0;
      tracer->Record(raw->trace_ctx_, SpanKind::kTxnBegin, t0, NowNs(), id);
    }
  }
  std::string payload;
  EncodeBeginTxn(&payload, id);
  raw->local_redo_.push_back(std::move(payload));
  att_[id] = std::move(txn);
  ins_.active->Add(1);
  return raw;
}

void TxnManager::MoveRedoToSystemLog(Transaction* txn,
                                     const SpanContext* trace) {
  // One batched staging call: a single LSN reservation for the whole local
  // redo buffer, so an operation's records occupy contiguous LSNs and the
  // append path touches its shard mutex once per operation commit.
  log_->AppendAll(txn->local_redo_, trace);
  txn->local_redo_.clear();
}

Status TxnManager::BeginOp(Transaction* txn, OpCode opcode, TableId table,
                           uint32_t slot, std::optional<LockId> op_lock,
                           DbPtr raw_off, uint32_t raw_len) {
  CWDB_CHECK(txn->state_ == Transaction::State::kActive);
  CWDB_CHECK(!txn->open_op_.has_value()) << "nested operation";
  CWDB_CHECK(!txn->update_active_);
  OpenOp op;
  op.op_id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
  op.level = 1;
  op.opcode = opcode;
  op.op_lock = op_lock;
  op.undo_mark = txn->undo_.size();
  op.redo_mark = txn->local_redo_.size();
  std::string payload;
  EncodeBeginOp(&payload, txn->id_, op.op_id, op.level, opcode, table, slot,
                raw_off, raw_len);
  txn->local_redo_.push_back(std::move(payload));
  txn->open_op_ = op;
  return Status::OK();
}

Status TxnManager::CommitOp(Transaction* txn, const LogicalUndo& undo) {
  CWDB_CHECK(txn->open_op_.has_value());
  CWDB_CHECK(!txn->update_active_);
  OpenOp op = *txn->open_op_;
  std::string payload;
  EncodeCommitOp(&payload, txn->id_, op.op_id, op.level, undo);
  txn->local_redo_.push_back(std::move(payload));
  {
    // The undo-log rewrite and the move of redo to the system log happen
    // atomically with respect to the checkpointer's ATT copy.
    SharedGuard guard(ckpt_latch_);
    if (!txn->in_rollback_) {
      // Replace the operation's physical undo with its logical undo (§2.1).
      txn->undo_.resize(op.undo_mark);
      UndoRecord u;
      u.kind = UndoRecord::Kind::kLogical;
      u.op_id = op.op_id;
      u.level = op.level;
      u.undo = undo;
      txn->undo_.push_back(std::move(u));
    }
    // "Both steps take place prior to the release of lower level locks."
    MoveRedoToSystemLog(txn);
  }
  if (op.op_lock.has_value() && !recovery_mode_) {
    locks_.Release(txn->id_, *op.op_lock);
  }
  txn->open_op_.reset();
  return Status::OK();
}

Status TxnManager::AbortOp(Transaction* txn) {
  CWDB_CHECK(txn->open_op_.has_value());
  CWDB_CHECK(!txn->update_active_);
  OpenOp op = *txn->open_op_;
  // Physically restore the operation's updates, newest first. These
  // restorations are unlogged: the operation's redo never left the local
  // buffer, so after discarding it the system log never saw the operation.
  for (size_t i = txn->undo_.size(); i > op.undo_mark; --i) {
    UndoRecord& u = txn->undo_[i - 1];
    CWDB_CHECK(u.kind == UndoRecord::Kind::kPhysical)
        << "open operation has non-physical undo";
    CWDB_CHECK(!u.codeword_applied);
    ProtectionManager::UpdateHandle h;
    ckpt_latch_.LockShared();
    Status s = protection_->BeginUpdate(u.off, u.before.size(), &h);
    CWDB_CHECK(s.ok()) << s.ToString();
    std::string current(
        reinterpret_cast<const char*>(image_->At(u.off)), u.before.size());
    std::memcpy(image_->At(u.off), u.before.data(), u.before.size());
    image_->MarkDirty(u.off, u.before.size());
    protection_->EndUpdate(
        h, reinterpret_cast<const uint8_t*>(current.data()));
    ckpt_latch_.UnlockShared();
  }
  {
    SharedGuard guard(ckpt_latch_);
    txn->undo_.resize(op.undo_mark);
    txn->local_redo_.resize(op.redo_mark);
  }
  if (op.op_lock.has_value() && !recovery_mode_) {
    locks_.Release(txn->id_, *op.op_lock);
  }
  txn->open_op_.reset();
  return Status::OK();
}

Status TxnManager::ApplyCompensation(Transaction* txn, DbPtr off,
                                     const std::string& before) {
  CWDB_ASSIGN_OR_RETURN(
      uint8_t* p,
      txn->BeginUpdate(off, static_cast<uint32_t>(before.size())));
  std::memcpy(p, before.data(), before.size());
  return txn->EndUpdate();
}

Status TxnManager::ExecuteLogicalUndo(Transaction* txn,
                                      const LogicalUndo& undo) {
  return table_ops::ExecuteLogicalUndo(*this, txn, undo);
}

Status TxnManager::UndoDownTo(Transaction* txn, size_t mark) {
  // Consume the undo log newest-first down to `mark`. Each entry is
  // applied before it is popped, and every application is idempotent, so a
  // checkpoint (or crash + repeat-history recovery) at any interleaving
  // point re-applies at most a no-op (see DESIGN.md on CLR-free rollback).
  while (txn->undo_.size() > mark) {
    const UndoRecord& u = txn->undo_.back();
    if (u.kind == UndoRecord::Kind::kPhysical) {
      CWDB_CHECK(!u.codeword_applied);
      CWDB_RETURN_IF_ERROR(ApplyCompensation(txn, u.off, u.before));
    } else {
      CWDB_RETURN_IF_ERROR(ExecuteLogicalUndo(txn, u.undo));
    }
    SharedGuard guard(ckpt_latch_);
    txn->undo_.pop_back();
  }
  return Status::OK();
}

Result<uint64_t> TxnManager::CreateSavepoint(Transaction* txn) {
  CWDB_CHECK(txn->state_ == Transaction::State::kActive);
  if (txn->open_op_.has_value() || txn->update_active_) {
    return Status::InvalidArgument(
        "savepoints must be created between operations");
  }
  return static_cast<uint64_t>(txn->undo_.size());
}

Status TxnManager::RollbackToSavepoint(Transaction* txn,
                                       uint64_t savepoint) {
  CWDB_CHECK(txn->state_ == Transaction::State::kActive);
  if (txn->open_op_.has_value() || txn->update_active_) {
    return Status::InvalidArgument(
        "cannot roll back with an operation in flight");
  }
  if (savepoint > txn->undo_.size()) {
    return Status::InvalidArgument(
        "savepoint is no longer valid (already rolled back past it)");
  }
  txn->in_rollback_ = true;
  Status s = UndoDownTo(txn, static_cast<size_t>(savepoint));
  txn->in_rollback_ = false;
  return s;
}

Status TxnManager::Rollback(Transaction* txn) {
  CWDB_CHECK(txn->state_ == Transaction::State::kActive);
  txn->in_rollback_ = true;

  // An update in flight has not advanced the codeword (codeword-applied is
  // still set): restore the undo image without codeword maintenance (§3.1).
  if (txn->update_active_) {
    std::memcpy(image_->At(txn->update_handle_.off),
                txn->update_before_.data(), txn->update_before_.size());
    image_->MarkDirty(txn->update_handle_.off, txn->update_before_.size());
    protection_->AbortUpdate(txn->update_handle_);
    txn->update_active_ = false;
    if (txn->update_undo_idx_ != SIZE_MAX) {
      // Still under the checkpoint latch held since BeginUpdate, so the
      // restore above and this pop are atomic w.r.t. the checkpointer.
      CWDB_CHECK(txn->update_undo_idx_ == txn->undo_.size() - 1);
      txn->undo_.pop_back();
    }
    ckpt_latch_.UnlockShared();  // Held since BeginUpdate.
  }
  if (txn->open_op_.has_value()) {
    CWDB_RETURN_IF_ERROR(AbortOp(txn));
  }

  CWDB_RETURN_IF_ERROR(UndoDownTo(txn, 0));

  std::string payload;
  EncodeAbortTxn(&payload, txn->id_);
  txn->local_redo_.push_back(std::move(payload));
  {
    SharedGuard guard(ckpt_latch_);
    MoveRedoToSystemLog(txn);
  }
  txn->in_rollback_ = false;
  txn->state_ = Transaction::State::kAborted;
  return Status::OK();
}

Status TxnManager::Commit(Transaction* txn) {
  CWDB_CHECK(txn->state_ == Transaction::State::kActive);
  CWDB_CHECK(!txn->open_op_.has_value() && !txn->update_active_)
      << "commit with an operation or update in flight";
  const uint64_t t0 = NowNs();
  Tracer* tracer = metrics_->tracer();
  const SpanContext ctx = txn->trace_ctx_;
  const bool traced = ctx.sampled();
  // The flush-wait span id is allocated up front: the drainer-side spans
  // (queue wait, batch write, fsync) parent to it via the WalTraceTag even
  // though the span itself is only recorded after Flush returns.
  SpanContext flush_ctx;
  uint64_t flush_span = 0;
  if (traced) {
    flush_span = tracer->NewSpanId();
    flush_ctx = ctx.Under(flush_span);
  }
  std::string payload;
  EncodeCommitTxn(&payload, txn->id_);
  txn->local_redo_.push_back(std::move(payload));
  uint64_t t_stage_end = 0;
  {
    SharedGuard guard(ckpt_latch_);
    MoveRedoToSystemLog(txn, traced ? &flush_ctx : nullptr);
    if (traced) t_stage_end = NowNs();
    txn->undo_.clear();
    txn->state_ = Transaction::State::kCommitted;
  }
  if (traced) tracer->Record(ctx, SpanKind::kWalStage, t0, t_stage_end);
  // Group side effects: flush through the commit record, then release locks.
  const uint64_t t_flush = traced ? NowNs() : 0;
  Status flushed = log_->Flush();
  if (traced) {
    tracer->RecordWithId(ctx, flush_span, SpanKind::kFlushWait, t_flush,
                         NowNs());
  }
  CWDB_RETURN_IF_ERROR(flushed);
  const uint64_t t_ack = traced ? NowNs() : 0;
  locks_.ReleaseAll(txn->id_);
  ins_.commits->Add();
  ins_.active->Sub(1);
  ins_.commit_latency_ns->Record(NowNs() - t0);
  if (traced) {
    const uint64_t now = NowNs();
    tracer->Record(ctx, SpanKind::kCommitAck, t_ack, now);
    // Root span last: parentless, spanning Begin through ack.
    tracer->RecordWithId(ctx.Under(0), txn->trace_root_span_, SpanKind::kTxn,
                         txn->trace_start_ns_, now, txn->id_, 0);
  }
  std::lock_guard<std::mutex> guard(att_mu_);
  att_.erase(txn->id_);  // Destroys txn.
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  const uint64_t t0 = NowNs();
  const SpanContext ctx = txn->trace_ctx_;
  CWDB_RETURN_IF_ERROR(Rollback(txn));
  locks_.ReleaseAll(txn->id_);
  ins_.aborts->Add();
  ins_.active->Sub(1);
  ins_.abort_latency_ns->Record(NowNs() - t0);
  if (ctx.sampled()) {
    // b=1 marks an aborted root so the exporter can tell the outcomes apart.
    ctx.tracer->RecordWithId(ctx.Under(0), txn->trace_root_span_,
                             SpanKind::kTxn, txn->trace_start_ns_, NowNs(),
                             txn->id_, 1);
  }
  std::lock_guard<std::mutex> guard(att_mu_);
  att_.erase(txn->id_);  // Destroys txn.
  return Status::OK();
}

std::vector<TxnId> TxnManager::ActiveTxnIds() {
  std::lock_guard<std::mutex> guard(att_mu_);
  std::vector<TxnId> ids;
  ids.reserve(att_.size());
  for (const auto& [id, txn] : att_) ids.push_back(id);
  return ids;
}

Transaction* TxnManager::GetOrCreateRecovered(TxnId id) {
  std::lock_guard<std::mutex> guard(att_mu_);
  auto it = att_.find(id);
  if (it != att_.end()) return it->second.get();
  auto txn = std::unique_ptr<Transaction>(new Transaction(this, id));
  Transaction* raw = txn.get();
  att_[id] = std::move(txn);
  if (id >= next_txn_id_) next_txn_id_ = id + 1;
  return raw;
}

void TxnManager::DropRecovered(TxnId id) {
  std::lock_guard<std::mutex> guard(att_mu_);
  att_.erase(id);
}

Status TxnManager::FinishRecoveredRollback(Transaction* txn) {
  CWDB_CHECK(recovery_mode_);
  CWDB_CHECK(txn->undo_.empty());
  std::string payload;
  EncodeAbortTxn(&payload, txn->id_);
  txn->local_redo_.push_back(std::move(payload));
  MoveRedoToSystemLog(txn);
  txn->in_rollback_ = false;
  txn->state_ = Transaction::State::kAborted;
  DropRecovered(txn->id_);
  return Status::OK();
}

void TxnManager::ClearForCrash() {
  std::lock_guard<std::mutex> guard(att_mu_);
  att_.clear();
  locks_.Clear();
  ins_.active->Set(0);  // The ATT is volatile; nothing survives the crash.
}

void TxnManager::BumpIds(TxnId txn_floor, uint32_t op_floor) {
  std::lock_guard<std::mutex> guard(att_mu_);
  if (txn_floor >= next_txn_id_) next_txn_id_ = txn_floor + 1;
  uint32_t cur = next_op_id_.load(std::memory_order_relaxed);
  if (op_floor >= cur) {
    next_op_id_.store(op_floor + 1, std::memory_order_relaxed);
  }
}

}  // namespace cwdb
