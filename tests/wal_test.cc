// Unit tests for the write-ahead log: record encode/decode round trips,
// system log framing, flush/durability accounting, torn-tail handling, and
// the log reader.

#include <gtest/gtest.h>

#include <functional>

#include "common/crashpoint.h"
#include "common/file_util.h"
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
  EncodeBeginOp(&buf, 5, 77, 1, OpCode::kInsert, 3, 12, 0x9000, 24);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kBeginOp);
  EXPECT_EQ(rec.op_id, 77u);
  EXPECT_EQ(rec.level, 1);
  EXPECT_EQ(rec.opcode, OpCode::kInsert);
  EXPECT_EQ(rec.table, 3);
  EXPECT_EQ(rec.slot, 12u);
  EXPECT_EQ(rec.off, 0x9000u);
  EXPECT_EQ(rec.len, 24u);
}

TEST(LogRecord, CommitOpRoundTrip) {
  LogicalUndo undo;
  undo.code = UndoCode::kReinsertSlot;
  undo.table = 2;
  undo.slot = 9;
  undo.field_off = 4;
  undo.raw_off = 0xBEEF;
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
  EXPECT_EQ(rec.undo.raw_off, 0xBEEFu);
  EXPECT_EQ(rec.undo.payload, "oldrecordbytes");
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
// the same valid prefix and the same tail class, and Open must truncate to
// that prefix.
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

TEST_F(SystemLogTest, FailedFlushIsCountedAndRetryCoversBatchOnce) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  std::string p;
  EncodeBeginTxn(&p, 1);
  Lsn first = (*log)->Append(p);
  p.clear();
  EncodeBeginTxn(&p, 2);
  (*log)->Append(p);

  // First flush attempt dies on the injected fdatasync error: the batch
  // must be restored to the tail (nothing durable) and counted as exactly
  // one failure, zero completed flushes.
  crashpoint::Arm("wal.flush.fdatasync",
                  {crashpoint::Mode::kEio, /*countdown=*/1, /*param=*/0});
  Status s = (*log)->Flush();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ((*log)->flush_failures(), 1u);
  EXPECT_EQ((*log)->flush_count(), 0u);
  EXPECT_EQ((*log)->end_of_stable_log(), 0u);

  // The point disarmed itself after firing; the retry succeeds and the
  // stable log holds each record exactly once, at its original LSN.
  ASSERT_OK((*log)->Flush());
  EXPECT_EQ((*log)->flush_failures(), 1u);
  EXPECT_EQ((*log)->flush_count(), 1u);

  auto reader = LogReader::Open(LogPath());
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  Lsn lsn = 0;
  ASSERT_TRUE((*reader)->Next(&rec, &lsn));
  EXPECT_EQ(rec.txn, 1u);
  EXPECT_EQ(lsn, first);
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 2u);
  EXPECT_FALSE((*reader)->Next(&rec, nullptr));
  crashpoint::DisarmAll();
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
