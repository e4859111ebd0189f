// Robustness: decoders must never crash or over-read on malformed input
// (fuzz-style sweeps with deterministic seeds), file utilities behave, and
// the hardware scheme's page pin-counting stays correct under concurrent
// overlapping exposures.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <thread>

#include "common/file_util.h"
#include "common/random.h"
#include "core/database.h"
#include "faultinject/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/postmortem.h"
#include "obs/trace_export.h"
#include "recovery/corrupt_note.h"
#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

// ---------- Decoder fuzz ----------

TEST(DecoderFuzz, RandomBytesNeverCrashLogRecordDecode) {
  Random rng(2024);
  for (int iter = 0; iter < 5000; ++iter) {
    size_t len = rng.Uniform(200);
    std::string buf(len, '\0');
    for (auto& c : buf) c = static_cast<char>(rng.Next32());
    LogRecord rec;
    // Must return true or false; never crash, never read out of bounds
    // (ASAN-clean by construction of Decoder).
    (void)DecodeLogRecord(buf, &rec);
  }
}

TEST(DecoderFuzz, TruncationSweepOfValidRecords) {
  // Every strict prefix of a valid record must decode as failure, not as a
  // different valid record that silently drops data.
  std::string full;
  LogicalUndo undo;
  undo.code = UndoCode::kReinsertSlot;
  undo.table = 3;
  undo.slot = 17;
  undo.payload = std::string(40, 'p');
  EncodeCommitOp(&full, 9, 55, 1, undo);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    LogRecord rec;
    bool ok = DecodeLogRecord(Slice(full.data(), cut), &rec);
    EXPECT_FALSE(ok) << "prefix of length " << cut << " decoded";
  }
  LogRecord rec;
  EXPECT_TRUE(DecodeLogRecord(full, &rec));
}

TEST(DecoderFuzz, BitFlipSweepOfPhysRedo) {
  std::string full;
  EncodePhysRedo(&full, 7, 4096, Slice("0123456789abcdef"), nullptr);
  Random rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = full;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    LogRecord rec;
    (void)DecodeLogRecord(mutated, &rec);  // Any outcome but a crash.
  }
}

TEST(DecoderFuzz, CorruptionNoteRoundTripAndGarbage) {
  TempDir dir;
  std::string path = dir.path() + "/note";
  CorruptionNote note;
  note.last_clean_audit_lsn = 777;
  note.ranges = {{100, 50}, {4096, 512}};
  ASSERT_OK(WriteCorruptionNote(path, note));
  auto read = ReadCorruptionNote(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->last_clean_audit_lsn, 777u);
  ASSERT_EQ(read->ranges.size(), 2u);
  EXPECT_EQ(read->ranges[1].off, 4096u);

  // Garbage file: rejected, not crashed.
  ASSERT_OK(WriteFileAtomic(path, "not a corruption note at all"));
  EXPECT_FALSE(ReadCorruptionNote(path).ok());
  // CRC catches single-byte tampering.
  ASSERT_OK(WriteCorruptionNote(path, note));
  std::string contents;
  ASSERT_OK(ReadFileToString(path, &contents));
  contents[8] ^= 0x01;
  ASSERT_OK(WriteFileAtomic(path, contents));
  EXPECT_FALSE(ReadCorruptionNote(path).ok());
}

TEST(DecoderFuzz, AuditMetaGarbage) {
  TempDir dir;
  std::string path = dir.path() + "/meta";
  ASSERT_OK(WriteAuditMeta(path, 12345));
  auto lsn = ReadAuditMeta(path);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 12345u);
  ASSERT_OK(WriteFileAtomic(path, "xx"));
  EXPECT_FALSE(ReadAuditMeta(path).ok());
}

/// Opens a database at `path`, commits a few transactions and checkpoints,
/// so its trace holds spans and instant events (group-commit flushes, the
/// checkpoint), then closes it: blackbox.bin and spans.json are written.
void BuildTracedDatabase(const std::string& path) {
  auto db = Database::Open(SmallDbOptions(path, ProtectionScheme::kNone));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_OK((*db)->Commit(*txn));
  }
  ASSERT_OK((*db)->Close());
}

TEST(DecoderFuzz, BlackBoxTraceAreaBitFlipsAndTruncations) {
  TempDir dir;
  BuildTracedDatabase(dir.path());
  std::string box;
  ASSERT_OK(ReadFileToString(DbFiles(dir.path()).BlackBox(), &box));
  Result<BlackBoxReport> clean = DecodeBlackBox(box);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_FALSE(clean->events.empty());

  // Every event the decoder returns names a known kind and carries the CRC
  // stored in its slot (slots are keyed by seq).
  auto check = [](const std::string& bytes) {
    Result<BlackBoxReport> r = DecodeBlackBox(bytes);
    if (!r.ok()) return;
    for (const TraceEvent& e : r->events) {
      ASSERT_TRUE(IsEventKind(e.kind));
      const uint64_t slot = blackbox::kTraceOff +
                            (e.seq % blackbox::kTraceSlots) *
                                blackbox::kTraceSlotBytes;
      uint32_t stored = 0;
      std::memcpy(&stored, bytes.data() + slot + blackbox::kTsCrc, 4);
      ASSERT_EQ(blackbox::TraceSlotCrc(e), stored) << "seq " << e.seq;
    }
  };
  const uint64_t trace_end =
      blackbox::kTraceOff + blackbox::kTraceSlots * blackbox::kTraceSlotBytes;
  for (uint64_t off = blackbox::kTraceOff; off < trace_end; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      box[off] ^= static_cast<char>(1 << bit);
      check(box);
      box[off] ^= static_cast<char>(1 << bit);
    }
  }
  // Truncation anywhere refuses the box; nothing over-reads.
  for (uint64_t len = 0; len < box.size(); len += 61) {
    EXPECT_FALSE(DecodeBlackBox(box.substr(0, len)).ok()) << len;
  }
  for (uint64_t len = blackbox::kTraceOff; len <= trace_end; ++len) {
    if (len < box.size()) check(box.substr(0, len));
  }
}

TEST(DecoderFuzz, MangledSpansJsonParsesOrFails) {
  TempDir dir;
  BuildTracedDatabase(dir.path());
  std::string json;
  ASSERT_OK(ReadFileToString(DbFiles(dir.path()).SpansFile(), &json));
  Result<SpanDump> clean = ParseSpansJson(json);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  bool has_instant = false;
  for (const SpanRecord& r : clean->spans) has_instant |= IsEventKind(r.kind);
  ASSERT_TRUE(has_instant) << json;

  // Any outcome but a crash: an error, or records whose kinds all parsed
  // (mangled kind names are skipped).
  auto check = [](const std::string& text) {
    Result<SpanDump> r = ParseSpansJson(text);
    if (!r.ok()) return;
    for (const SpanRecord& s : r->spans) {
      SpanKind kind;
      ASSERT_TRUE(SpanKindFromName(SpanKindName(s.kind), &kind));
    }
  };
  for (size_t len = 0; len < json.size(); ++len) check(json.substr(0, len));
  Random rng(1717);
  const char kAlphabet[] = "{}[]\":,0123456789-.e \\x";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mangled = json;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int k = 0; k < edits; ++k) {
      const size_t pos = rng.Uniform(mangled.size());
      switch (rng.Uniform(3)) {
        case 0:
          mangled[pos] = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
          break;
        case 1:
          mangled.erase(pos, 1 + rng.Uniform(16));
          break;
        default:
          mangled.insert(pos, 1, kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
      }
      if (mangled.empty()) break;
    }
    check(mangled);
  }
}

TEST(DecoderFuzz, MangledSystemLogsReadAlikeInReaderAndOpen) {
  // Random, truncated and bit-flipped logs go through the one log reader:
  // it never fails a read (so never reads past EOF), its position stays
  // inside the file, and SystemLog::Open reaches the same verdict.
  TempDir dir;
  const std::string path = dir.path() + "/system.log";
  Lsn end = 0;
  {
    auto log = SystemLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (TxnId id = 1; id <= 40; ++id) {
      std::string p;
      if (id % 2 == 0) {
        EncodePhysRedo(&p, id, id * 64, std::string(id, 'r'), nullptr);
      } else {
        EncodeCommitTxn(&p, id);
      }
      (*log)->Append(p);
    }
    ASSERT_OK((*log)->Flush());
    end = (*log)->end_of_stable_log();
  }
  std::string valid;
  ASSERT_OK(ReadFileToString(path, &valid));
  valid.resize(end + 4096);  // Frames plus a short preallocated tail.

  Random rng(13);
  std::set<WalTail> seen;
  for (int iter = 0; iter < 300; ++iter) {
    std::string bytes;
    switch (iter % 3) {
      case 0:
        bytes.resize(rng.Uniform(2048));
        for (char& c : bytes) c = static_cast<char>(rng.Next32());
        break;
      case 1:
        bytes = valid.substr(0, rng.OneIn(4) ? end
                                             : rng.Uniform(valid.size() + 1));
        break;
      default:
        bytes = valid;
        for (int flips = 1 + rng.Uniform(3); flips > 0; --flips) {
          bytes[rng.Uniform(end)] ^= static_cast<char>(1 << rng.Uniform(8));
        }
        break;
    }
    ASSERT_OK(WriteFileAtomic(path, bytes));
    SCOPED_TRACE("iteration " + std::to_string(iter));

    auto reader = LogReader::Open(path);
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    while ((*reader)->Next(&rec, nullptr)) {
      ASSERT_LE((*reader)->position(), bytes.size());
    }
    const WalTailScan cold = (*reader)->ScanTail();
    ASSERT_OK((*reader)->status());
    EXPECT_LE((*reader)->position(), bytes.size());
    EXPECT_EQ(cold.valid_bytes, (*reader)->position());
    EXPECT_EQ(cold.file_bytes, bytes.size());

    auto log = SystemLog::Open(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->tail_scan().valid_bytes, cold.valid_bytes);
    EXPECT_EQ((*log)->tail_scan().damaged(), cold.damaged());
    seen.insert(cold.tail);
  }
  EXPECT_EQ(seen.size(), 4u);  // Every tail class came up.
}

// ---------- file_util ----------

// A frame whose CRC verifies but whose payload does not decode was written
// whole: it is damage, not the end of the log. The reader fails there
// naming its LSN, the open refuses the database without blaming the
// checkpoint or truncating the log, and `cwdb_ctl check` fails naming the
// same LSN. (Taken for the end of the log, it would make redo silently
// drop the commit after it.)
TEST(LogDamage, UndecodableFrameFailsReaderOpenAndCheck) {
  TempDir dir;
  std::string begin, commit;
  EncodeBeginTxn(&begin, 1000);
  EncodeCommitTxn(&commit, 1000);
  const std::vector<Lsn> lsns = AppendPastCkEndOfClosedDb(
      dir.path(), {begin, std::string(8, '\xFF'), commit});
  ASSERT_EQ(lsns.size(), 3u);
  const Lsn bad = lsns[1];
  const std::string names_bad = "LSN " + std::to_string(bad) + " ";
  const DbFiles files(dir.path());
  const std::string before = ReadWholeFile(files.SystemLog());
  // The frames plus the drainer's preallocated zero tail.
  ASSERT_GE(before.size(), lsns[2] + (1u << 20));

  auto active = ReadActiveCheckpoint(files);
  ASSERT_TRUE(active.ok());
  auto reader = LogReader::Open(files.SystemLog(), active->meta.ck_end);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  Lsn lsn = 0;
  bool saw_begin = false;
  while ((*reader)->Next(&rec, &lsn)) {
    EXPECT_LT(lsn, bad);
    saw_begin |= lsn == lsns[0] && rec.txn == 1000;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE((*reader)->status().IsCorruption());
  EXPECT_NE((*reader)->status().ToString().find(names_bad),
            std::string::npos)
      << (*reader)->status().ToString();
  EXPECT_EQ((*reader)->position(), bad);

  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kNone));
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
  EXPECT_NE(db.status().ToString().find(names_bad), std::string::npos)
      << db.status().ToString();
  // The refused open changes nothing: the bad frame, the commit after it
  // and the zero tail all stay.
  EXPECT_EQ(ReadWholeFile(files.SystemLog()), before);
  std::string incidents;
  ASSERT_OK(ReadFileToString(files.IncidentsFile(), &incidents,
                             MissingFile::kTreatAsEmpty));
  EXPECT_EQ(incidents.find("checkpoint_meta"), std::string::npos);

  const std::string cmd =
      std::string(CWDB_CTL_PATH) + " check " + dir.path() + " 2>&1";
  FILE* out = ::popen(cmd.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), out) != nullptr) text += buf;
  const int rc = ::pclose(out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << text;
  EXPECT_NE(text.find(names_bad), std::string::npos) << text;
}

TEST(FileUtil, AtomicWriteAndRead) {
  TempDir dir;
  std::string path = dir.path() + "/f";
  ASSERT_OK(WriteFileAtomic(path, "hello"));
  std::string got;
  ASSERT_OK(ReadFileToString(path, &got));
  EXPECT_EQ(got, "hello");
  ASSERT_OK(WriteFileAtomic(path, "replaced"));
  ASSERT_OK(ReadFileToString(path, &got));
  EXPECT_EQ(got, "replaced");
}

TEST(FileUtil, ReadMissingFileIsNotFound) {
  std::string got;
  EXPECT_TRUE(ReadFileToString("/nonexistent/cwdb", &got).IsNotFound());
}

TEST(FileUtil, EnsureFileSizeCreatesAndResizes) {
  TempDir dir;
  std::string path = dir.path() + "/sized";
  ASSERT_OK(EnsureFileSize(path, 8192));
  std::string got;
  ASSERT_OK(ReadFileToString(path, &got));
  EXPECT_EQ(got.size(), 8192u);
  ASSERT_OK(EnsureFileSize(path, 100));
  ASSERT_OK(ReadFileToString(path, &got));
  EXPECT_EQ(got.size(), 100u);
}

TEST(FileUtil, MakeDirsNested) {
  TempDir dir;
  std::string deep = dir.path() + "/a/b/c";
  ASSERT_OK(MakeDirs(deep));
  EXPECT_TRUE(FileExists(deep));
  ASSERT_OK(MakeDirs(deep));  // Idempotent.
}

TEST(FileUtil, RemoveFileIfExistsIdempotent) {
  TempDir dir;
  std::string path = dir.path() + "/gone";
  ASSERT_OK(WriteFileAtomic(path, "x"));
  ASSERT_OK(RemoveFileIfExists(path));
  EXPECT_FALSE(FileExists(path));
  ASSERT_OK(RemoveFileIfExists(path));  // Already gone: still OK.
}

// ---------- Hardware pin counting under concurrency ----------

TEST(HardwarePinning, OverlappingExposuresReprotectOnlyWhenLastEnds) {
  TempDir dir;
  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kHardware));
  ASSERT_TRUE(db.ok());
  auto setup = (*db)->Begin();
  auto t = (*db)->CreateTable(*setup, "t", 64, 128);
  ASSERT_TRUE(t.ok());
  // Two records on the same OS page.
  auto r1 = (*db)->Insert(*setup, *t, std::string(64, '1'));
  auto r2 = (*db)->Insert(*setup, *t, std::string(64, '2'));
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_OK((*db)->Commit(*setup));
  DbPtr off1 = (*db)->image()->RecordOff(*t, r1->slot);
  DbPtr off2 = (*db)->image()->RecordOff(*t, r2->slot);
  ASSERT_EQ(off1 / Arena::OsPageSize(), off2 / Arena::OsPageSize());

  // Thread A holds an exposure open on the page while thread B performs a
  // complete update on the same page. B's EndUpdate must NOT re-protect
  // the page out from under A.
  auto ta = (*db)->Begin();
  ASSERT_OK((*db)->txns()->BeginOp(*ta, OpCode::kUpdate, kMaxTables,
                                   kInvalidSlot, std::nullopt, off1, 8));
  auto pa = (*ta)->BeginUpdate(off1, 8);
  ASSERT_TRUE(pa.ok());

  std::atomic<bool> b_done{false};
  std::thread tb_thread([&] {
    auto tb = (*db)->Begin();
    EXPECT_OK((*db)->Update(*tb, *t, r2->slot, 0, "BBBB"));
    EXPECT_OK((*db)->Commit(*tb));
    b_done = true;
  });
  tb_thread.join();
  ASSERT_TRUE(b_done.load());

  // A's exposure must still be writable.
  std::memcpy(*pa, "AAAAAAAA", 8);
  ASSERT_OK((*ta)->EndUpdate());
  LogicalUndo undo;
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = off1;
  undo.payload = std::string(8, '1');
  ASSERT_OK((*db)->txns()->CommitOp(*ta, undo));
  ASSERT_OK((*db)->Commit(*ta));

  // Now that every exposure ended, the page is protected again.
  FaultInjector inject(db->get(), 5);
  auto outcome = inject.WildWriteAt(off1, "EVIL");
  EXPECT_TRUE(outcome.prevented);
}

// ---------- SystemLog concurrency ----------

TEST(SystemLogConcurrency, GroupCommitBatchesConcurrentFlushers) {
  // Group commit only saves fsyncs when flush requests overlap in time: a
  // leader's in-flight batch absorbs the appends of the threads queued
  // behind it. The seed ran this on tmpfs (TempDir lives in /dev/shm),
  // where fdatasync never blocks — on a small host a flushing thread then
  // never yields the CPU mid-flush, no two flushes ever overlap, and the
  // count comes out at exactly one fsync per flush. Group commit exists to
  // amortize *blocking* fsyncs, so run this test on a disk-backed
  // filesystem: while the leader sleeps in fdatasync the other threads
  // queue behind it and the next leader flushes their records as one
  // batch. A start barrier forces initial overlap; a bounded retry absorbs
  // residual scheduling noise.
  constexpr int kThreads = 8;
  constexpr int kCommitsEach = 40;
  constexpr uint64_t kTotalFlushes =
      static_cast<uint64_t>(kThreads) * kCommitsEach;
  constexpr int kAttempts = 5;
  uint64_t flushes = kTotalFlushes;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    char tmpl[] = "/tmp/cwdb_group_commit_XXXXXX";  // Disk-backed, not shm.
    char* disk_dir = ::mkdtemp(tmpl);
    ASSERT_NE(disk_dir, nullptr);
    auto log = SystemLog::Open(std::string(disk_dir) + "/log");
    ASSERT_TRUE(log.ok());
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        std::string payload;
        EncodeCommitTxn(&payload, static_cast<TxnId>(i));
        start.arrive_and_wait();
        for (int j = 0; j < kCommitsEach; ++j) {
          Lsn lsn = (*log)->Append(payload);
          EXPECT_OK((*log)->Flush());
          // Durability contract: our record is within the stable prefix.
          EXPECT_LT(lsn, (*log)->end_of_stable_log());
        }
      });
    }
    for (auto& th : threads) th.join();
    // Nothing lost or reordered beyond framing, on every attempt.
    auto reader = LogReader::Open(std::string(disk_dir) + "/log");
    ASSERT_TRUE(reader.ok());
    LogRecord rec;
    int n = 0;
    while ((*reader)->Next(&rec, nullptr)) ++n;
    flushes = (*log)->flush_count();
    std::string cleanup = std::string("rm -rf '") + disk_dir + "'";
    [[maybe_unused]] int rc = ::system(cleanup.c_str());
    ASSERT_EQ(n, kThreads * kCommitsEach);
    if (flushes < kTotalFlushes) break;
  }
  // Group commit: far fewer fsyncs than flush requests.
  EXPECT_LT(flushes, kTotalFlushes);
}

TEST(SystemLogConcurrency, AppendsDuringFlushKeepDenseLsns) {
  TempDir dir;
  auto log = SystemLog::Open(dir.path() + "/log");
  ASSERT_TRUE(log.ok());
  std::string payload;
  EncodeBeginTxn(&payload, 1);
  // Appender thread races a flusher thread; all LSNs must stay unique and
  // every record must survive.
  std::atomic<bool> stop{false};
  std::set<Lsn> lsns;
  std::mutex lsns_mu;
  std::thread appender([&] {
    while (!stop) {
      Lsn lsn = (*log)->Append(payload);
      std::lock_guard<std::mutex> g(lsns_mu);
      EXPECT_TRUE(lsns.insert(lsn).second) << "duplicate LSN " << lsn;
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK((*log)->Flush());
  }
  stop = true;
  appender.join();
  ASSERT_OK((*log)->Flush());

  auto reader = LogReader::Open(dir.path() + "/log");
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  size_t n = 0;
  while ((*reader)->Next(&rec, nullptr)) ++n;
  EXPECT_EQ(n, lsns.size());
}

TEST(SystemLogConcurrency, ParallelAppendersGetDistinctLsns) {
  TempDir dir;
  auto log = SystemLog::Open(dir.path() + "/log");
  ASSERT_TRUE(log.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<Lsn>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::string payload;
      EncodeBeginTxn(&payload, static_cast<TxnId>(i));
      for (int j = 0; j < kPerThread; ++j) {
        lsns[i].push_back((*log)->Append(payload));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_OK((*log)->Flush());

  std::set<Lsn> all;
  for (const auto& v : lsns) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));

  // And the stable log contains exactly that many records.
  auto reader = LogReader::Open(dir.path() + "/log");
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  int n = 0;
  while ((*reader)->Next(&rec, nullptr)) ++n;
  EXPECT_EQ(n, kThreads * kPerThread);
}

}  // namespace
}  // namespace cwdb
