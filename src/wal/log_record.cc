#include "wal/log_record.h"

#include <limits>

#include "common/coding.h"

namespace cwdb {

// Payload layout (DESIGN.md "Log record encoding"): a type byte, then the
// record's fields. Integers are LEB128 varints except the codeword (fixed32:
// its bits are uniform, a varint would only grow it) and the one-byte
// level, opcode, undo code and checksum flag. A field the record's kind
// does not use is not written.

namespace {

void PutHeader(std::string* dst, LogRecordType type, TxnId txn) {
  PutFixed8(dst, static_cast<uint8_t>(type));
  PutVarint64(dst, txn);
}

void PutRange(std::string* dst, DbPtr off, uint32_t len,
              const codeword_t* cksum) {
  PutVarint64(dst, off);
  PutVarint64(dst, len);
  PutFixed8(dst, cksum != nullptr ? 1 : 0);
  if (cksum != nullptr) PutFixed32(dst, *cksum);
}

// Reads a varint that must fit in T: a wider value fails the decode, since
// it would not re-encode to the same bytes.
template <typename T>
bool GetVarint(Decoder* dec, T* out) {
  const uint64_t v = dec->GetVarint64();
  *out = static_cast<T>(v);
  return dec->ok() && v <= std::numeric_limits<T>::max();
}

// Reads a one-byte enum whose valid values are [lo, hi].
template <typename E>
bool GetEnum(Decoder* dec, uint8_t lo, uint8_t hi, E* out) {
  const uint8_t v = dec->GetFixed8();
  *out = static_cast<E>(v);
  return dec->ok() && v >= lo && v <= hi;
}

bool GetRange(Decoder* dec, LogRecord* out) {
  if (!GetVarint(dec, &out->off) || !GetVarint(dec, &out->len) ||
      !GetEnum(dec, 0, 1, &out->has_cksum)) {
    return false;
  }
  if (out->has_cksum) out->cksum = dec->GetFixed32();
  return dec->ok();
}

bool GetTable(Decoder* dec, TableId* out) {
  return GetVarint(dec, out) && *out <= kMaxTables;
}

}  // namespace

void EncodeBeginTxn(std::string* dst, TxnId txn) {
  PutHeader(dst, LogRecordType::kBeginTxn, txn);
}

void EncodeCommitTxn(std::string* dst, TxnId txn) {
  PutHeader(dst, LogRecordType::kCommitTxn, txn);
}

void EncodeAbortTxn(std::string* dst, TxnId txn) {
  PutHeader(dst, LogRecordType::kAbortTxn, txn);
}

void EncodePhysRedo(std::string* dst, TxnId txn, DbPtr off, Slice after,
                    const codeword_t* before_cksum) {
  PutHeader(dst, LogRecordType::kPhysRedo, txn);
  PutRange(dst, off, static_cast<uint32_t>(after.size()), before_cksum);
  dst->append(after.data(), after.size());
}

void EncodeReadLog(std::string* dst, TxnId txn, DbPtr off, uint32_t len,
                   const codeword_t* cksum) {
  PutHeader(dst, LogRecordType::kReadLog, txn);
  PutRange(dst, off, len, cksum);
}

void EncodeBeginOp(std::string* dst, TxnId txn, uint32_t op_id, uint8_t level,
                   OpCode opcode, TableId table, uint32_t slot, DbPtr raw_off,
                   uint32_t raw_len) {
  PutHeader(dst, LogRecordType::kBeginOp, txn);
  PutVarint64(dst, op_id);
  PutFixed8(dst, level);
  PutFixed8(dst, static_cast<uint8_t>(opcode));
  PutVarint64(dst, table);
  PutVarint64(dst, slot);
  if (table == kMaxTables) {
    PutVarint64(dst, raw_off);
    PutVarint64(dst, raw_len);
  }
}

void EncodeCommitOp(std::string* dst, TxnId txn, uint32_t op_id,
                    uint8_t level, const LogicalUndo& undo) {
  PutHeader(dst, LogRecordType::kCommitOp, txn);
  PutVarint64(dst, op_id);
  PutFixed8(dst, level);
  PutFixed8(dst, static_cast<uint8_t>(undo.code));
  PutVarint64(dst, undo.table);
  PutVarint64(dst, undo.slot);
  PutVarint64(dst, undo.field_off);
  if (undo.code == UndoCode::kWriteRaw) PutVarint64(dst, undo.raw_off);
  PutVarint64(dst, undo.payload.size());
  dst->append(undo.payload);
}

void EncodeAuditBegin(std::string* dst) {
  PutFixed8(dst, static_cast<uint8_t>(LogRecordType::kAuditBegin));
}

void EncodeLogRecord(std::string* dst, const LogRecord& rec) {
  const codeword_t* cksum = rec.has_cksum ? &rec.cksum : nullptr;
  switch (rec.type) {
    case LogRecordType::kBeginTxn:
      return EncodeBeginTxn(dst, rec.txn);
    case LogRecordType::kCommitTxn:
      return EncodeCommitTxn(dst, rec.txn);
    case LogRecordType::kAbortTxn:
      return EncodeAbortTxn(dst, rec.txn);
    case LogRecordType::kPhysRedo:
      return EncodePhysRedo(dst, rec.txn, rec.off, rec.after, cksum);
    case LogRecordType::kReadLog:
      return EncodeReadLog(dst, rec.txn, rec.off, rec.len, cksum);
    case LogRecordType::kBeginOp:
      return EncodeBeginOp(dst, rec.txn, rec.op_id, rec.level, rec.opcode,
                           rec.table, rec.slot, rec.off, rec.len);
    case LogRecordType::kCommitOp:
      return EncodeCommitOp(dst, rec.txn, rec.op_id, rec.level, rec.undo);
    case LogRecordType::kAuditBegin:
      return EncodeAuditBegin(dst);
  }
}

bool DecodeLogRecord(Slice payload, LogRecord* out) {
  Decoder dec(payload);
  *out = LogRecord();
  if (!GetEnum(&dec, static_cast<uint8_t>(LogRecordType::kBeginTxn),
               static_cast<uint8_t>(LogRecordType::kAuditBegin),
               &out->type)) {
    return false;
  }
  if (out->type != LogRecordType::kAuditBegin &&
      !GetVarint(&dec, &out->txn)) {
    return false;
  }
  switch (out->type) {
    case LogRecordType::kBeginTxn:
    case LogRecordType::kCommitTxn:
    case LogRecordType::kAbortTxn:
    case LogRecordType::kAuditBegin:
      break;
    case LogRecordType::kPhysRedo: {
      if (!GetRange(&dec, out) || dec.remaining() != out->len) return false;
      Slice after = dec.GetBytes(out->len);
      out->after.assign(after.data(), after.size());
      break;
    }
    case LogRecordType::kReadLog:
      if (!GetRange(&dec, out)) return false;
      break;
    case LogRecordType::kBeginOp:
      if (!GetVarint(&dec, &out->op_id)) return false;
      out->level = dec.GetFixed8();
      if (!GetEnum(&dec, static_cast<uint8_t>(OpCode::kInsert),
                   static_cast<uint8_t>(OpCode::kCreateTable),
                   &out->opcode) ||
          !GetTable(&dec, &out->table) || !GetVarint(&dec, &out->slot)) {
        return false;
      }
      if (out->table == kMaxTables &&
          (!GetVarint(&dec, &out->off) || !GetVarint(&dec, &out->len))) {
        return false;
      }
      break;
    case LogRecordType::kCommitOp: {
      LogicalUndo& undo = out->undo;
      if (!GetVarint(&dec, &out->op_id)) return false;
      out->level = dec.GetFixed8();
      if (!GetEnum(&dec, static_cast<uint8_t>(UndoCode::kNone),
                   static_cast<uint8_t>(UndoCode::kWriteRaw), &undo.code) ||
          !GetTable(&dec, &undo.table) || !GetVarint(&dec, &undo.slot) ||
          !GetVarint(&dec, &undo.field_off)) {
        return false;
      }
      if (undo.code == UndoCode::kWriteRaw &&
          !GetVarint(&dec, &undo.raw_off)) {
        return false;
      }
      uint64_t n = 0;
      if (!GetVarint(&dec, &n) || dec.remaining() != n) return false;
      Slice bytes = dec.GetBytes(n);
      undo.payload.assign(bytes.data(), bytes.size());
      break;
    }
  }
  return dec.ok() && dec.remaining() == 0;
}

}  // namespace cwdb
