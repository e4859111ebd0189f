#ifndef CWDB_WAL_LOG_RECORD_H_
#define CWDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "common/codeword.h"
#include "common/slice.h"
#include "storage/layout.h"

namespace cwdb {

/// Log sequence number: byte offset of a record's frame in the system log
/// (stable prefix first, then the in-memory tail).
using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = ~0ull;

/// Record types in the system log and in per-transaction local logs.
///
/// The redo stream is purely physical (kPhysRedo) except for the
/// multi-level-recovery bookkeeping records (kBeginOp / kCommitOp carrying
/// the logical undo description) and transaction brackets — exactly the
/// Dalí model described in Section 2.1 of the paper. kReadLog is the
/// paper's contribution (Section 4.2): the identity of data read by a
/// transaction, optionally with a checksum of the bytes read, but never the
/// value itself.
///
/// The values are the first byte of a record payload. They are disjoint
/// from 1-8, the codes of the earlier fixed-width encoding, so a record
/// in that format never decodes (DESIGN.md "Log record encoding").
enum class LogRecordType : uint8_t {
  kBeginTxn = 0x11,
  kCommitTxn = 0x12,
  kAbortTxn = 0x13,
  kPhysRedo = 0x14,
  kReadLog = 0x15,
  kBeginOp = 0x16,
  kCommitOp = 0x17,
  kAuditBegin = 0x18,
};

/// Logical operation codes (level-1 operations over tables).
enum class OpCode : uint8_t {
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
  kCreateTable = 4,
};

/// Logical undo actions recorded in operation-commit records.
enum class UndoCode : uint8_t {
  kNone = 0,
  kDeleteSlot = 1,    ///< Undo of insert: delete record at (table, slot).
  kReinsertSlot = 2,  ///< Undo of delete: re-insert payload at (table, slot).
  kWriteField = 3,    ///< Undo of update: restore payload at field_off.
  kDropTable = 4,     ///< Undo of create-table: free the directory slot.
  kWriteRaw = 5,      ///< Undo of a raw region update: restore payload at
                      ///< absolute image offset raw_off.
};

/// Logical undo description stored in a kCommitOp record (and in the local
/// undo log once the operation commits).
struct LogicalUndo {
  UndoCode code = UndoCode::kNone;
  TableId table = 0;
  uint32_t slot = kInvalidSlot;
  uint32_t field_off = 0;
  DbPtr raw_off = 0;  ///< kWriteRaw only (not logged for other codes).
  std::string payload;
};

/// Decoded form of any log record. Encoding functions write only the
/// fields meaningful for the record type; the decoder fills the rest with
/// defaults.
struct LogRecord {
  LogRecordType type = LogRecordType::kBeginTxn;
  TxnId txn = 0;

  // kPhysRedo / kReadLog.
  DbPtr off = 0;
  uint32_t len = 0;
  bool has_cksum = false;      ///< Codeword Read Logging extension (§4.3).
  codeword_t cksum = 0;        ///< Fold of the bytes read / overwritten.
  std::string after;           ///< kPhysRedo only: the new bytes.

  // kBeginOp / kCommitOp.
  uint32_t op_id = 0;
  uint8_t level = 0;
  OpCode opcode = OpCode::kInsert;
  TableId table = 0;
  uint32_t slot = kInvalidSlot;
  LogicalUndo undo;  ///< kCommitOp only.
};

// -- Encoders (append the record payload, without framing, to *dst) --

void EncodeBeginTxn(std::string* dst, TxnId txn);
void EncodeCommitTxn(std::string* dst, TxnId txn);
void EncodeAbortTxn(std::string* dst, TxnId txn);

/// Physical redo: after-image of [off, off+len). If `before_cksum` is
/// non-null the record carries a codeword of the overwritten bytes, making
/// the write double as a read for corruption tracing ("a codeword stored in
/// a write log record indicates that it should be treated as a read
/// followed by a write", §4.3).
void EncodePhysRedo(std::string* dst, TxnId txn, DbPtr off, Slice after,
                    const codeword_t* before_cksum);

/// Read log record: identity of the bytes read, optional checksum, never
/// the value (§4.2).
void EncodeReadLog(std::string* dst, TxnId txn, DbPtr off, uint32_t len,
                   const codeword_t* cksum);

/// Begin-operation record. `table`/`slot` identify the logical target for
/// the corruption-recovery conflict check (§4.3); raw-region operations
/// (table == kMaxTables) additionally carry the physical range
/// [raw_off, raw_off+raw_len), which other operations do not log.
void EncodeBeginOp(std::string* dst, TxnId txn, uint32_t op_id, uint8_t level,
                   OpCode opcode, TableId table, uint32_t slot, DbPtr raw_off,
                   uint32_t raw_len);
void EncodeCommitOp(std::string* dst, TxnId txn, uint32_t op_id,
                    uint8_t level, const LogicalUndo& undo);

void EncodeAuditBegin(std::string* dst);

/// Decodes one record payload on its own, without state from earlier
/// records. Strict: returns false unless the payload is exactly what the
/// encoder of its type writes (canonical varints, enums in range, no
/// trailing bytes), so an accepted payload re-encodes to itself.
bool DecodeLogRecord(Slice payload, LogRecord* out);

/// Appends `rec` through the encoder of its type: the inverse of
/// DecodeLogRecord, used to check that decoding is exact.
void EncodeLogRecord(std::string* dst, const LogRecord& rec);

}  // namespace cwdb

#endif  // CWDB_WAL_LOG_RECORD_H_
