#ifndef CWDB_RECOVERY_RECOVERY_H_
#define CWDB_RECOVERY_RECOVERY_H_

#include <set>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "common/status.h"
#include "protect/protection.h"
#include "recovery/corrupt_note.h"
#include "recovery/interval_set.h"
#include "recovery/provenance.h"
#include "storage/db_image.h"
#include "txn/txn_manager.h"
#include "wal/system_log.h"

namespace cwdb {

/// How the restart should treat corruption.
struct RecoveryOptions {
  /// Run the delete-transaction corruption recovery algorithm (§4.3)
  /// instead of plain restart recovery.
  bool corruption_recovery = false;

  /// The failing audit's note (Audit_LSN + directly corrupt regions). Used
  /// only when corruption_recovery is true.
  CorruptionNote note;

  /// Codeword Read Logging extension (§4.3): decide "read corrupt data"
  /// from logged checksums compared against the image being recovered,
  /// instead of the CorruptDataTable. Yields view-consistent recovery and
  /// also detects corruption after a true crash (no failed audit needed).
  bool use_logged_checksums = false;

  /// Prior-state model (§4.1): replay only log records below this LSN,
  /// returning the database to a transaction-consistent state before the
  /// first possible occurrence of corruption. Every transaction that
  /// committed at or after the limit is discarded and reported in
  /// deleted_txns ("it is up to the user to deal with compensating for
  /// ALL transactions which have occurred after the corruption"). The
  /// active checkpoint's CK_end must precede the limit. kInvalidLsn
  /// disables the limit.
  Lsn redo_limit = kInvalidLsn;
};

/// What recovery did — in the delete-transaction model the identity of the
/// deleted transactions "is returned to the user to allow manual
/// compensation" (§4.1).
struct RecoveryReport {
  std::vector<TxnId> deleted_txns;      ///< Removed from history (corrupt).
  std::vector<TxnId> rolled_back_txns;  ///< Merely incomplete at the crash.
  Lsn redo_start = 0;
  Lsn redo_end = 0;
  uint64_t redo_records_applied = 0;
  uint64_t redo_records_skipped = 0;  ///< Writes of deleted transactions.
  uint64_t corrupt_data_bytes = 0;    ///< Final CorruptDataTable coverage.

  /// Why each deleted transaction was deleted: the implication chain from
  /// the incident's corrupt ranges to every entry of deleted_txns. Also
  /// persisted to DbFiles::ProvenanceFile() in corruption-recovery runs.
  ProvenanceGraph provenance;
};

/// Restart recovery (paper §2.1) with optional delete-transaction
/// corruption recovery (§4.3) layered on the same forward scan:
///
///  1. Load the active (update-consistent, certified) checkpoint image and
///     its ATT; redo from CK_end repeating history physically, rebuilding
///     local undo logs (physical entries replaced by logical undo at each
///     operation commit).
///  2. In corruption mode, maintain CorruptTransTable / CorruptDataTable:
///     writes of corrupt transactions are suppressed and their target
///     bytes marked corrupt; reads (and writes) of corrupt bytes make the
///     reader corrupt; begin-operation records conflicting with a corrupt
///     transaction's undo log make that transaction corrupt too.
///  3. Undo incomplete transactions level by level (physical entries of
///     open operations first, then logical undo), corrupt transactions'
///     pre-corruption prefixes included.
///  4. Take a fresh (certified) checkpoint so a later crash cannot
///     rediscover the same corruption.
class RecoveryDriver {
 public:
  RecoveryDriver(const DbFiles& files, DbImage* image, TxnManager* txns,
                 SystemLog* log, ProtectionManager* protection,
                 Checkpointer* checkpointer);

  Result<RecoveryReport> Run(const RecoveryOptions& options);

  /// True if the last Run failed because the log past CK_end could not be
  /// read (a read error or an undecodable record), not because of the
  /// checkpoint or the corruption note.
  bool log_unreadable() const { return log_unreadable_; }

 private:
  struct ConflictSet {
    std::set<std::pair<TableId, uint32_t>> targets;
    std::vector<CorruptRange> ranges;
  };

  /// Applies one physical redo record to the image, appending the
  /// pre-image to the transaction's undo log.
  void ApplyRedo(Transaction* txn, const LogRecord& rec);

  /// True if `txn` must be considered to have read corrupt data given this
  /// read/write record (§4.3 definition, both variants).
  bool ReadsCorruptData(const LogRecord& rec) const;

  /// Conflict targets/ranges of one operation-begin record.
  ConflictSet TargetsOf(const LogRecord& rec) const;
  /// Conflict set of a corrupt transaction's current undo log.
  ConflictSet TargetsOfUndoLog(const Transaction& txn) const;
  /// True if the two sets conflict; *witness receives the overlapping byte
  /// range (zero-length when the conflict is target-based only).
  static bool ConflictWitness(const ConflictSet& a, const ConflictSet& b,
                              CorruptRange* witness);

  DbFiles files_;
  DbImage* image_;
  TxnManager* txns_;
  SystemLog* log_;
  ProtectionManager* protection_;
  Checkpointer* checkpointer_;

  RecoveryOptions options_;
  bool log_unreadable_ = false;
  std::set<TxnId> corrupt_txns_;
  IntervalSet corrupt_data_;
  uint64_t suppressed_bytes_ = 0;
  std::map<TxnId, ConflictSet> corrupt_conflicts_;
};

/// Cache-recovery model (§4.1/§4.2): repairs directly corrupted regions of
/// the in-memory image from the checkpoint plus the redo log, assuming no
/// indirect corruption (the Read Prechecking scheme guarantees corrupt data
/// was never returned to a transaction). Requires a quiesced system: no
/// active transactions (abort them first) and a flushed log.
Status CacheRecoverRegions(const DbFiles& files, DbImage* image,
                           TxnManager* txns, SystemLog* log,
                           ProtectionManager* protection,
                           Checkpointer* checkpointer,
                           const std::vector<CorruptRange>& ranges);

}  // namespace cwdb

#endif  // CWDB_RECOVERY_RECOVERY_H_
