// Unit tests for the write-ahead log: record encode/decode round trips,
// system log framing, flush/durability accounting, torn-tail handling, and
// the log reader.

#include <gtest/gtest.h>

#include <functional>
#include <iterator>

#include "common/coding.h"
#include "common/crashpoint.h"
#include "common/file_util.h"
#include "common/random.h"
#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

TEST(LogRecord, TxnRecordsRoundTrip) {
  for (auto encode : {EncodeBeginTxn, EncodeCommitTxn, EncodeAbortTxn}) {
    std::string buf;
    encode(&buf, 42);
    LogRecord rec;
    ASSERT_TRUE(DecodeLogRecord(buf, &rec));
    EXPECT_EQ(rec.txn, 42u);
  }
  std::string buf;
  EncodeBeginTxn(&buf, 7);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kBeginTxn);
}

TEST(LogRecord, PhysRedoRoundTrip) {
  std::string buf;
  EncodePhysRedo(&buf, 9, 0x1234, Slice("afterbytes"), nullptr);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kPhysRedo);
  EXPECT_EQ(rec.txn, 9u);
  EXPECT_EQ(rec.off, 0x1234u);
  EXPECT_EQ(rec.len, 10u);
  EXPECT_FALSE(rec.has_cksum);
  EXPECT_EQ(rec.after, "afterbytes");
}

TEST(LogRecord, PhysRedoWithChecksumRoundTrip) {
  codeword_t cksum = 0xABCD1234;
  std::string buf;
  EncodePhysRedo(&buf, 9, 8, Slice("xy"), &cksum);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_TRUE(rec.has_cksum);
  EXPECT_EQ(rec.cksum, 0xABCD1234u);
  EXPECT_EQ(rec.after, "xy");
}

TEST(LogRecord, ReadLogRoundTrip) {
  std::string buf;
  EncodeReadLog(&buf, 3, 512, 100, nullptr);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kReadLog);
  EXPECT_EQ(rec.off, 512u);
  EXPECT_EQ(rec.len, 100u);
  EXPECT_FALSE(rec.has_cksum);

  codeword_t cksum = 55;
  buf.clear();
  EncodeReadLog(&buf, 3, 512, 100, &cksum);
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_TRUE(rec.has_cksum);
  EXPECT_EQ(rec.cksum, 55u);
}

TEST(LogRecord, BeginOpRoundTrip) {
  std::string buf;
  EncodeBeginOp(&buf, 5, 77, 1, OpCode::kInsert, 3, 12, 0, 0);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kBeginOp);
  EXPECT_EQ(rec.op_id, 77u);
  EXPECT_EQ(rec.level, 1);
  EXPECT_EQ(rec.opcode, OpCode::kInsert);
  EXPECT_EQ(rec.table, 3);
  EXPECT_EQ(rec.slot, 12u);
  EXPECT_EQ(rec.off, 0u);
  EXPECT_EQ(rec.len, 0u);

  // Only a raw-region operation (table == kMaxTables) logs its range.
  buf.clear();
  EncodeBeginOp(&buf, 5, 78, 1, OpCode::kUpdate, kMaxTables, kInvalidSlot,
                0x9000, 24);
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.table, kMaxTables);
  EXPECT_EQ(rec.off, 0x9000u);
  EXPECT_EQ(rec.len, 24u);
}

TEST(LogRecord, CommitOpRoundTrip) {
  LogicalUndo undo;
  undo.code = UndoCode::kReinsertSlot;
  undo.table = 2;
  undo.slot = 9;
  undo.field_off = 4;
  undo.payload = "oldrecordbytes";
  std::string buf;
  EncodeCommitOp(&buf, 5, 77, 1, undo);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kCommitOp);
  EXPECT_EQ(rec.undo.code, UndoCode::kReinsertSlot);
  EXPECT_EQ(rec.undo.table, 2);
  EXPECT_EQ(rec.undo.slot, 9u);
  EXPECT_EQ(rec.undo.field_off, 4u);
  EXPECT_EQ(rec.undo.raw_off, 0u);
  EXPECT_EQ(rec.undo.payload, "oldrecordbytes");

  // raw_off is logged for the raw-region undo only.
  undo = LogicalUndo();
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = 0xBEEF;
  undo.payload = "before";
  buf.clear();
  EncodeCommitOp(&buf, 5, 78, 1, undo);
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.undo.code, UndoCode::kWriteRaw);
  EXPECT_EQ(rec.undo.raw_off, 0xBEEFu);
  EXPECT_EQ(rec.undo.payload, "before");
}

TEST(LogRecord, RejectsGarbage) {
  LogRecord rec;
  EXPECT_FALSE(DecodeLogRecord(Slice("\xFFgarbage", 8), &rec));
  EXPECT_FALSE(DecodeLogRecord(Slice("", 0), &rec));
  // Truncated phys redo (claims 100 bytes of after-image, has none).
  std::string buf;
  EncodePhysRedo(&buf, 1, 0, Slice("0123456789"), nullptr);
  EXPECT_FALSE(DecodeLogRecord(Slice(buf.data(), buf.size() - 5), &rec));
}

// Every field of two records, so a round trip also checks that the
// decoder leaves the fields a kind does not log at their defaults.
void ExpectSameRecord(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.off, b.off);
  EXPECT_EQ(a.len, b.len);
  EXPECT_EQ(a.has_cksum, b.has_cksum);
  EXPECT_EQ(a.cksum, b.cksum);
  EXPECT_EQ(a.after, b.after);
  EXPECT_EQ(a.op_id, b.op_id);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.opcode, b.opcode);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(a.undo.code, b.undo.code);
  EXPECT_EQ(a.undo.table, b.undo.table);
  EXPECT_EQ(a.undo.slot, b.undo.slot);
  EXPECT_EQ(a.undo.field_off, b.undo.field_off);
  EXPECT_EQ(a.undo.raw_off, b.undo.raw_off);
  EXPECT_EQ(a.undo.payload, b.undo.payload);
}

// A random record of `type` whose fields take boundary values: ids 0 and
// the type's maximum, offsets up to the arena size, lengths from 0 and
// payloads of 0 B to 8 KiB. Fields the kind does not log stay default.
LogRecord RandomRecord(Random* rng, LogRecordType type) {
  constexpr uint64_t kArena = 1ull << 32;
  const uint64_t ids[] = {0, 1, 127, 128, 1ull << 32, ~0ull};
  const uint64_t offs[] = {0, 1, 4096, kArena - 1, kArena};
  const uint32_t u32s[] = {0, 1, 127, 128, 1u << 16, ~0u};
  auto pick = [&](const auto& values) {
    return values[rng->Uniform(std::size(values))];
  };
  auto bytes = [&] {
    const size_t sizes[] = {0, 1, 8, 100, 4096, 8192};
    std::string s(pick(sizes), '\0');
    for (char& c : s) c = static_cast<char>(rng->Next32());
    return s;
  };
  LogRecord r;
  r.type = type;
  if (type != LogRecordType::kAuditBegin) r.txn = pick(ids);
  switch (type) {
    case LogRecordType::kBeginTxn:
    case LogRecordType::kCommitTxn:
    case LogRecordType::kAbortTxn:
    case LogRecordType::kAuditBegin:
      break;
    case LogRecordType::kPhysRedo:
    case LogRecordType::kReadLog:
      r.off = pick(offs);
      if (type == LogRecordType::kPhysRedo) {
        r.after = bytes();
        r.len = static_cast<uint32_t>(r.after.size());
      } else {
        r.len = pick(u32s);
      }
      r.has_cksum = rng->OneIn(2);
      if (r.has_cksum) r.cksum = rng->OneIn(2) ? ~0u : rng->Next32();
      break;
    case LogRecordType::kBeginOp:
      r.op_id = pick(u32s);
      r.level = static_cast<uint8_t>(rng->Uniform(256));
      r.opcode = static_cast<OpCode>(1 + rng->Uniform(4));
      r.table = static_cast<TableId>(rng->Uniform(kMaxTables + 1));
      r.slot = pick(u32s);
      if (r.table == kMaxTables) {
        r.off = pick(offs);
        r.len = pick(u32s);
      }
      break;
    case LogRecordType::kCommitOp:
      r.op_id = pick(u32s);
      r.level = static_cast<uint8_t>(rng->Uniform(256));
      r.undo.code = static_cast<UndoCode>(rng->Uniform(6));
      r.undo.table = static_cast<TableId>(rng->Uniform(kMaxTables + 1));
      r.undo.slot = pick(u32s);
      r.undo.field_off = pick(u32s);
      if (r.undo.code == UndoCode::kWriteRaw) r.undo.raw_off = pick(offs);
      r.undo.payload = bytes();
      break;
  }
  return r;
}

constexpr LogRecordType kAllTypes[] = {
    LogRecordType::kBeginTxn,  LogRecordType::kCommitTxn,
    LogRecordType::kAbortTxn,  LogRecordType::kPhysRedo,
    LogRecordType::kReadLog,   LogRecordType::kBeginOp,
    LogRecordType::kCommitOp,  LogRecordType::kAuditBegin,
};

TEST(LogRecord, SeededRoundTripSweepOfEveryKind) {
  Random rng(20260);
  for (LogRecordType type : kAllTypes) {
    for (int iter = 0; iter < 300; ++iter) {
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                   " iteration " + std::to_string(iter));
      const LogRecord want = RandomRecord(&rng, type);
      std::string bytes;
      EncodeLogRecord(&bytes, want);
      LogRecord got;
      ASSERT_TRUE(DecodeLogRecord(bytes, &got));
      ExpectSameRecord(got, want);
      std::string again;
      EncodeLogRecord(&again, got);
      ASSERT_EQ(again, bytes);
    }
  }
}

TEST(LogRecord, RejectsTrailingBytesOverlongVarintsAndOutOfRangeEnums) {
  LogRecord rec;
  Random rng(7);
  // One trailing byte after any valid record.
  for (LogRecordType type : kAllTypes) {
    std::string bytes;
    EncodeLogRecord(&bytes, RandomRecord(&rng, type));
    ASSERT_TRUE(DecodeLogRecord(bytes, &rec));
    bytes.push_back('\0');
    EXPECT_FALSE(DecodeLogRecord(bytes, &rec))
        << "type " << static_cast<int>(type);
  }
  auto with_type = [](LogRecordType t, std::string rest) {
    return std::string(1, static_cast<char>(t)) + rest;
  };
  // Txn id 1 as a one-byte varint decodes; overlong forms of it do not.
  EXPECT_TRUE(DecodeLogRecord(with_type(LogRecordType::kCommitTxn, "\x01"),
                              &rec));
  EXPECT_FALSE(DecodeLogRecord(
      with_type(LogRecordType::kCommitTxn, std::string("\x81\x00", 2)),
      &rec));
  EXPECT_FALSE(DecodeLogRecord(
      with_type(LogRecordType::kCommitTxn, std::string("\x81\x80\x00", 3)),
      &rec));
  // Ten-byte varints: 2^64-1 is canonical, one more value bit is not.
  std::string max(9, '\xFF');
  EXPECT_TRUE(DecodeLogRecord(
      with_type(LogRecordType::kCommitTxn, max + "\x01"), &rec));
  EXPECT_EQ(rec.txn, ~0ull);
  EXPECT_FALSE(DecodeLogRecord(
      with_type(LogRecordType::kCommitTxn, max + "\x02"), &rec));
  EXPECT_FALSE(DecodeLogRecord(
      with_type(LogRecordType::kCommitTxn, std::string(10, '\xFF') + "\x01"),
      &rec));

  // Record types outside the range, including every code of the earlier
  // fixed-width encoding (type byte, then fixed64 txn).
  for (int t : {0, 1, 2, 3, 4, 5, 6, 7, 8, 0x10, 0x19, 0xFF}) {
    std::string old(1, static_cast<char>(t));
    old.append(8, '\0');
    EXPECT_FALSE(DecodeLogRecord(old, &rec)) << "type " << t;
    EXPECT_FALSE(DecodeLogRecord(Slice(old.data(), 2), &rec)) << "type " << t;
  }

  // Byte-sized enums and flags out of range.
  std::string op;
  EncodeBeginOp(&op, 1, 2, 1, OpCode::kInsert, 3, 4, 0, 0);
  const size_t opcode_at = 4;  // type, txn, op_id, level, then opcode.
  ASSERT_EQ(op[opcode_at], static_cast<char>(OpCode::kInsert));
  for (char bad : {0, 5, 0x7F}) {
    std::string m = op;
    m[opcode_at] = bad;
    EXPECT_FALSE(DecodeLogRecord(m, &rec)) << "opcode " << int(bad);
  }
  std::string table_too_big = op;
  table_too_big[opcode_at + 1] = static_cast<char>(kMaxTables + 1);
  EXPECT_FALSE(DecodeLogRecord(table_too_big, &rec));

  LogicalUndo undo;
  undo.code = UndoCode::kWriteField;
  std::string cop;
  EncodeCommitOp(&cop, 1, 2, 1, undo);
  const size_t code_at = 4;
  ASSERT_EQ(cop[code_at], static_cast<char>(UndoCode::kWriteField));
  cop[code_at] = static_cast<char>(static_cast<int>(UndoCode::kWriteRaw) + 1);
  EXPECT_FALSE(DecodeLogRecord(cop, &rec));

  std::string read;
  EncodeReadLog(&read, 1, 2, 3, nullptr);
  ASSERT_EQ(read.back(), '\0');  // The checksum flag.
  read.back() = 2;
  EXPECT_FALSE(DecodeLogRecord(read, &rec));

  // A varint wider than its field (op_id is 32 bits).
  std::string wide = with_type(LogRecordType::kBeginOp, "\x01");
  PutVarint64(&wide, 1ull << 32);
  wide += std::string("\x01\x01\x00\x00", 4);
  EXPECT_FALSE(DecodeLogRecord(wide, &rec));
}

class SystemLogTest : public ::testing::Test {
 protected:
  std::string LogPath() { return dir_.path() + "/test.log"; }
  TempDir dir_;
};

TEST_F(SystemLogTest, AppendAssignsMonotonicLsns) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  Lsn a = (*log)->Append("one");
  Lsn b = (*log)->Append("two");
  EXPECT_LT(a, b);
  EXPECT_EQ((*log)->end_of_stable_log(), 0u);
  EXPECT_GT((*log)->CurrentLsn(), b);
}

TEST_F(SystemLogTest, FlushMakesRecordsDurable) {
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    (*log)->Append("alpha");
    (*log)->Append("beta");
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->end_of_stable_log(), (*log)->CurrentLsn());
  }
  // Reopen: the stable size is preserved.
  auto log2 = SystemLog::Open(LogPath());
  ASSERT_TRUE(log2.ok());
  EXPECT_GT((*log2)->end_of_stable_log(), 0u);
}

TEST_F(SystemLogTest, DiscardTailLosesUnflushed) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  (*log)->Append("kept");
  ASSERT_OK((*log)->Flush());
  Lsn stable = (*log)->end_of_stable_log();
  (*log)->Append("lost");
  (*log)->DiscardTail();
  EXPECT_EQ((*log)->CurrentLsn(), stable);
}

// The shapes a stable log can end in, each read twice: by the engine's
// SystemLog::Open and by the cold reader `cwdb_ctl` uses. Both must find
// the same valid prefix and the same tail class, and an open that appends
// nothing leaves the file byte for byte as it was.
TEST_F(SystemLogTest, TailClassesAgreeBetweenOpenAndColdReader) {
  std::vector<Lsn> lsns;  // Frame starts, then the end of the last frame.
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    for (TxnId id = 1; id <= 3; ++id) {
      std::string p;
      EncodeCommitTxn(&p, id);
      lsns.push_back((*log)->Append(p));
    }
    ASSERT_OK((*log)->Flush());
    lsns.push_back((*log)->end_of_stable_log());
  }
  std::string written;
  ASSERT_OK(ReadFileToString(LogPath(), &written));
  // The drainer zero-extends past the frontier, so a flushed log already
  // ends in preallocated zeros.
  ASSERT_GT(written.size(), lsns[3]);
  ASSERT_EQ(written.find_first_not_of('\0', lsns[3]), std::string::npos);

  struct Shape {
    const char* name;
    std::function<void(std::string*)> mutate;
    size_t valid_frames;
    WalTail tail;
  };
  const Shape shapes[] = {
      {"clean end", [&](std::string* f) { f->resize(lsns[3]); }, 3,
       WalTail::kClean},
      {"preallocated zeros", [](std::string*) {}, 3, WalTail::kPreallocated},
      {"torn final frame", [&](std::string* f) { f->resize(lsns[3] - 3); }, 2,
       WalTail::kTorn},
      {"bad CRC before valid frames",
       [&](std::string* f) { (*f)[lsns[1] + 9] ^= 0x01; }, 1,
       WalTail::kDamaged},
      {"flipped length word",
       [&](std::string* f) { (*f)[lsns[1] + 2] ^= 0x40; }, 1,
       WalTail::kDamaged},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    std::string bytes = written;
    shape.mutate(&bytes);
    ASSERT_OK(WriteFileAtomic(LogPath(), bytes));

    auto reader = LogReader::Open(LogPath());
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    size_t n = 0;
    while ((*reader)->Next(&rec, nullptr)) ++n;
    EXPECT_EQ(n, shape.valid_frames);
    const WalTailScan cold = (*reader)->ScanTail();
    ASSERT_OK((*reader)->status());
    EXPECT_EQ(cold.valid_bytes, lsns[shape.valid_frames]);
    EXPECT_EQ(cold.file_bytes, bytes.size());
    EXPECT_EQ(cold.tail, shape.tail);
    EXPECT_EQ(cold.damage_off, cold.damaged() ? lsns[1] : 0);

    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    const WalTailScan& open = (*log)->tail_scan();
    EXPECT_EQ(open.valid_bytes, cold.valid_bytes);
    EXPECT_EQ(open.file_bytes, cold.file_bytes);
    EXPECT_EQ(open.tail, cold.tail);
    EXPECT_EQ(open.damage_off, cold.damage_off);
    EXPECT_EQ((*log)->end_of_stable_log(), cold.valid_bytes);
    log->reset();
    EXPECT_EQ(ReadWholeFile(LogPath()), bytes);
  }
}

// A torn or damaged tail stays on disk until the log writes again: the
// first write round cuts it off before preallocating, so after an append
// and a flush the log reads clean — the old valid frames, the new frame at
// the old valid end, then zeros. (Without the cut, the stale bytes past the
// new frame would read as a torn or damaged tail again.)
TEST_F(SystemLogTest, BadTailIsKeptUntilTheFirstWriteCutsItOff) {
  std::vector<Lsn> lsns;  // Frame starts, then the end of the last frame.
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    for (TxnId id = 1; id <= 3; ++id) {
      std::string p;
      EncodeCommitTxn(&p, id);
      lsns.push_back((*log)->Append(p));
    }
    ASSERT_OK((*log)->Flush());
    lsns.push_back((*log)->end_of_stable_log());
  }
  const std::string written = ReadWholeFile(LogPath());
  struct Shape {
    const char* name;
    std::function<void(std::string*)> mutate;
    size_t valid_frames;
    WalTail tail;
  };
  const Shape shapes[] = {
      {"torn final frame", [&](std::string* f) { f->resize(lsns[3] - 3); }, 2,
       WalTail::kTorn},
      {"bad CRC before valid frames",
       [&](std::string* f) { (*f)[lsns[1] + 9] ^= 0x01; }, 1,
       WalTail::kDamaged},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    std::string bytes = written;
    shape.mutate(&bytes);
    ASSERT_OK(WriteFileAtomic(LogPath(), bytes));
    {
      auto log = SystemLog::Open(LogPath());
      ASSERT_TRUE(log.ok());
      EXPECT_EQ((*log)->tail_scan().tail, shape.tail);
    }
    EXPECT_EQ(ReadWholeFile(LogPath()), bytes);

    {
      auto log = SystemLog::Open(LogPath());
      ASSERT_TRUE(log.ok());
      std::string p;
      EncodeCommitTxn(&p, 99);
      EXPECT_EQ((*log)->Append(p), lsns[shape.valid_frames]);
      ASSERT_OK((*log)->Flush());
    }
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->tail_scan().tail, WalTail::kPreallocated);
    auto reader = LogReader::Open(LogPath());
    ASSERT_TRUE(reader.ok());
    std::vector<TxnId> txns;
    LogRecord rec;
    while ((*reader)->Next(&rec, nullptr)) txns.push_back(rec.txn);
    ASSERT_OK((*reader)->status());
    std::vector<TxnId> want;
    for (TxnId id = 1; id <= shape.valid_frames; ++id) want.push_back(id);
    want.push_back(99);
    EXPECT_EQ(txns, want);
  }
}

TEST_F(SystemLogTest, ReaderHonorsStart) {
  Lsn second;
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    std::string p;
    EncodeBeginTxn(&p, 1);
    (*log)->Append(p);
    p.clear();
    EncodeBeginTxn(&p, 2);
    second = (*log)->Append(p);
    p.clear();
    EncodeBeginTxn(&p, 3);
    (*log)->Append(p);
    ASSERT_OK((*log)->Flush());
  }
  auto reader = LogReader::Open(LogPath(), second);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 2u);
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 3u);
  EXPECT_FALSE((*reader)->Next(&rec, nullptr));
}

// Each record decodes on its own: a reader started at any record's LSN
// (CK_end, a lineage LSN, `cwdb_ctl logdump <from>`) reads exactly the
// suffix a reader from LSN 0 reads.
TEST_F(SystemLogTest, ReadingFromEveryRecordLsnMatchesTheFullRead) {
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    Random rng(41);
    for (int i = 0; i < 64; ++i) {
      std::string p;
      EncodeLogRecord(&p, RandomRecord(&rng, kAllTypes[i % 8]));
      (*log)->Append(p);
    }
    ASSERT_OK((*log)->Flush());
  }
  std::vector<std::pair<Lsn, std::string>> all;
  {
    auto reader = LogReader::Open(LogPath());
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    Lsn lsn;
    while ((*reader)->Next(&rec, &lsn)) {
      std::string bytes;
      EncodeLogRecord(&bytes, rec);
      all.emplace_back(lsn, bytes);
    }
    ASSERT_OK((*reader)->status());
  }
  ASSERT_EQ(all.size(), 64u);
  for (size_t from = 0; from < all.size(); ++from) {
    SCOPED_TRACE("from LSN " + std::to_string(all[from].first));
    auto reader = LogReader::Open(LogPath(), all[from].first);
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    Lsn lsn;
    size_t i = from;
    while ((*reader)->Next(&rec, &lsn)) {
      ASSERT_LT(i, all.size());
      std::string bytes;
      EncodeLogRecord(&bytes, rec);
      EXPECT_EQ(lsn, all[i].first);
      EXPECT_EQ(bytes, all[i].second);
      ++i;
    }
    ASSERT_OK((*reader)->status());
    EXPECT_EQ(i, all.size());
  }
}

// A round that fails in its write or in its sync is counted once, makes
// nothing durable, and keeps the bytes: the retry leaves each record in
// the file exactly once, at its original LSN.
TEST_F(SystemLogTest, FailedFlushIsCountedAndRetryCoversBatchOnce) {
  for (const char* point : {"wal.flush.pwrite", "wal.flush.fdatasync"}) {
    SCOPED_TRACE(point);
    const std::string path = dir_.path() + "/" + point + ".log";
    auto log = SystemLog::Open(path);
    ASSERT_TRUE(log.ok());
    std::string p;
    EncodeBeginTxn(&p, 1);
    Lsn first = (*log)->Append(p);
    p.clear();
    EncodeBeginTxn(&p, 2);
    Lsn second = (*log)->Append(p);

    crashpoint::Arm(point,
                    {crashpoint::Mode::kEio, /*countdown=*/1, /*param=*/0});
    Status s = (*log)->Flush();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ((*log)->flush_failures(), 1u);
    EXPECT_EQ((*log)->flush_count(), 0u);
    EXPECT_EQ((*log)->end_of_stable_log(), 0u);

    // The point disarmed itself after firing; the retry succeeds.
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->flush_failures(), 1u);
    EXPECT_EQ((*log)->flush_count(), 1u);
    EXPECT_EQ((*log)->end_of_stable_log(), (*log)->CurrentLsn());

    auto reader = LogReader::Open(path);
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    Lsn lsn = 0;
    ASSERT_TRUE((*reader)->Next(&rec, &lsn));
    EXPECT_EQ(rec.txn, 1u);
    EXPECT_EQ(lsn, first);
    ASSERT_TRUE((*reader)->Next(&rec, &lsn));
    EXPECT_EQ(rec.txn, 2u);
    EXPECT_EQ(lsn, second);
    EXPECT_FALSE((*reader)->Next(&rec, nullptr));
    EXPECT_EQ((*reader)->ScanTail().tail, WalTail::kPreallocated);
    crashpoint::DisarmAll();
  }
}

TEST_F(SystemLogTest, BytesAppendedAccounting) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->bytes_appended(), 0u);
  (*log)->Append("12345");
  EXPECT_EQ((*log)->bytes_appended(), 8u + 5u);  // Frame header + payload.
}

}  // namespace
}  // namespace cwdb
