// End-to-end tests of the Database facade: schema, record operations,
// commit/abort semantics, persistence across crash + restart recovery, and
// behaviour under every protection scheme.

#include "core/database.h"

#include <dirent.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "ckpt/checkpoint.h"
#include "common/file_util.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

class DatabaseSchemeTest
    : public ::testing::TestWithParam<ProtectionScheme> {
 protected:
  void Open() {
    auto db = Database::Open(SmallDbOptions(dir_.path(), GetParam()));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }
  void Reopen() {
    db_.reset();
    Open();
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(DatabaseSchemeTest, OpenFreshAndReopen) {
  Open();
  EXPECT_NE(db_->UnsafeRawBase(), nullptr);
  Reopen();
  EXPECT_TRUE(db_->last_recovery_report().deleted_txns.empty());
}

TEST_P(DatabaseSchemeTest, CreateInsertReadCommit) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto table = db_->CreateTable(*txn, "t", 64, 100);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::string record(64, 'x');
  auto rid = db_->Insert(*txn, *table, record);
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  std::string got;
  ASSERT_OK(db_->Read(*txn, *table, rid->slot, &got));
  EXPECT_EQ(got, record);
  ASSERT_OK(db_->Commit(*txn));
  EXPECT_EQ(db_->CountRecords(*table), 1u);
}

TEST_P(DatabaseSchemeTest, UpdateField) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 32, 10);
  ASSERT_TRUE(table.ok());
  std::string record(32, 'a');
  auto rid = db_->Insert(*txn, *table, record);
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Update(*txn, *table, rid->slot, 4, "ZZZZ"));
  std::string got;
  ASSERT_OK(db_->Read(*txn, *table, rid->slot, &got));
  EXPECT_EQ(got.substr(0, 8), "aaaaZZZZ");
  ASSERT_OK(db_->Commit(*txn));
}

TEST_P(DatabaseSchemeTest, DeleteRecord) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 10);
  ASSERT_TRUE(table.ok());
  auto rid = db_->Insert(*txn, *table, std::string(16, 'q'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  txn = db_->Begin();
  ASSERT_OK(db_->Delete(*txn, *table, rid->slot));
  std::string got;
  EXPECT_TRUE(db_->Read(*txn, *table, rid->slot, &got).IsNotFound());
  ASSERT_OK(db_->Commit(*txn));
  EXPECT_EQ(db_->CountRecords(*table), 0u);
}

TEST_P(DatabaseSchemeTest, AbortRollsBackEverything) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 10);
  ASSERT_TRUE(table.ok());
  auto rid = db_->Insert(*txn, *table, std::string(16, '1'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  // Abort an update + insert + delete.
  txn = db_->Begin();
  ASSERT_OK(db_->Update(*txn, *table, rid->slot, 0, "XX"));
  auto rid2 = db_->Insert(*txn, *table, std::string(16, '2'));
  ASSERT_TRUE(rid2.ok());
  ASSERT_OK(db_->Delete(*txn, *table, rid->slot));
  ASSERT_OK(db_->Abort(*txn));

  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, *table, rid->slot, &got));
  EXPECT_EQ(got, std::string(16, '1'));  // Update + delete undone.
  EXPECT_TRUE(
      db_->Read(*txn, *table, rid2->slot, &got).IsNotFound());  // Insert undone.
  ASSERT_OK(db_->Commit(*txn));
  EXPECT_EQ(db_->CountRecords(*table), 1u);
}

TEST_P(DatabaseSchemeTest, AbortedCreateTableDisappears) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "doomed", 16, 10);
  ASSERT_TRUE(table.ok());
  ASSERT_OK(db_->Abort(*txn));
  EXPECT_TRUE(db_->FindTable("doomed").status().IsNotFound());
}

TEST_P(DatabaseSchemeTest, CommittedDataSurvivesCrashWithoutCheckpoint) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 100);
  ASSERT_TRUE(table.ok());
  auto rid = db_->Insert(*txn, *table, std::string(16, 'd'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  // No checkpoint taken since the data was written: recovery must replay
  // the log from checkpoint zero.
  ASSERT_OK(db_->CrashAndRecover());

  auto t2 = db_->FindTable("t");
  ASSERT_TRUE(t2.ok());
  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, *t2, rid->slot, &got));
  EXPECT_EQ(got, std::string(16, 'd'));
  ASSERT_OK(db_->Commit(*txn));
}

TEST_P(DatabaseSchemeTest, UncommittedDataRolledBackOnCrash) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 100);
  ASSERT_TRUE(table.ok());
  ASSERT_OK(db_->Commit(*txn));

  txn = db_->Begin();
  auto rid = db_->Insert(*txn, *table, std::string(16, 'u'));
  ASSERT_TRUE(rid.ok());
  // Crash with the transaction open; its operations committed (and moved
  // to the tail) but the transaction did not.
  ASSERT_OK(db_->CrashAndRecover());

  EXPECT_EQ(db_->CountRecords(*db_->FindTable("t")), 0u);
}

TEST_P(DatabaseSchemeTest, CheckpointThenCrashRecovers) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 100);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Insert(*txn, *table, std::string(16, 'a' + i % 26)).ok());
  }
  ASSERT_OK(db_->Commit(*txn));
  ASSERT_OK(db_->Checkpoint());

  txn = db_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Insert(*txn, *table, std::string(16, 'z')).ok());
  }
  ASSERT_OK(db_->Commit(*txn));

  ASSERT_OK(db_->CrashAndRecover());
  EXPECT_EQ(db_->CountRecords(*db_->FindTable("t")), 30u);
}

TEST_P(DatabaseSchemeTest, RepeatedCrashesAreIdempotent) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 100);
  ASSERT_TRUE(table.ok());
  auto rid = db_->Insert(*txn, *table, std::string(16, 'r'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(db_->CrashAndRecover());
    EXPECT_EQ(db_->CountRecords(*db_->FindTable("t")), 1u);
  }
}

TEST_P(DatabaseSchemeTest, ReopenFromDiskAfterDestruction) {
  Open();
  TableId table;
  {
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "persist", 24, 50);
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE(db_->Insert(*txn, table, std::string(24, 'p')).ok());
    ASSERT_OK(db_->Commit(*txn));
  }
  Reopen();  // Destructor does NOT flush; recovery replays the forced log.
  auto t2 = db_->FindTable("persist");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(db_->CountRecords(*t2), 1u);
}

TEST_P(DatabaseSchemeTest, RawUpdateGoesThroughPrescribedInterface) {
  Open();
  auto txn = db_->Begin();
  auto table = db_->CreateTable(*txn, "t", 16, 10);
  ASSERT_TRUE(table.ok());
  auto rid = db_->Insert(*txn, *table, std::string(16, '0'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  DbPtr off = db_->image()->RecordOff(*table, rid->slot);
  txn = db_->Begin();
  ASSERT_OK(db_->RawUpdate(*txn, off, "RAWBYTES"));
  ASSERT_OK(db_->Commit(*txn));

  // Codeword consistency holds after a raw update: audit is clean.
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean);

  // And it is recoverable.
  ASSERT_OK(db_->CrashAndRecover());
  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, *db_->FindTable("t"), rid->slot, &got));
  EXPECT_EQ(got.substr(0, 8), "RAWBYTES");
  ASSERT_OK(db_->Commit(*txn));
}

TEST_P(DatabaseSchemeTest, ErrorsOnBadArguments) {
  Open();
  auto txn = db_->Begin();
  EXPECT_FALSE(db_->CreateTable(*txn, "", 16, 10).ok());
  EXPECT_FALSE(db_->CreateTable(*txn, "t", 0, 10).ok());
  auto table = db_->CreateTable(*txn, "t", 16, 4);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(db_->CreateTable(*txn, "t", 16, 4).status().code() ==
              Status::Code::kAlreadyExists);
  // Wrong record size.
  EXPECT_FALSE(db_->Insert(*txn, *table, std::string(8, 'x')).ok());
  // Table full after capacity inserts.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Insert(*txn, *table, std::string(16, 'x')).ok());
  }
  EXPECT_TRUE(db_->Insert(*txn, *table, std::string(16, 'x')).status().code() ==
              Status::Code::kNoSpace);
  // Out-of-range slot.
  std::string got;
  EXPECT_FALSE(db_->Read(*txn, *table, 99, &got).ok());
  ASSERT_OK(db_->Commit(*txn));
}

TEST_P(DatabaseSchemeTest, MetricsCountScriptedWorkload) {
  Open();
  MetricsSnapshot before = db_->metrics()->Capture();

  // Scripted workload: 1 schema commit + 3 insert commits + 2 aborts.
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "m", 64, 100);
  ASSERT_TRUE(t.ok());
  ASSERT_OK(db_->Commit(*txn));
  for (int i = 0; i < 3; ++i) {
    auto w = db_->Begin();
    ASSERT_TRUE(db_->Insert(*w, *t, std::string(64, 'x')).ok());
    ASSERT_OK(db_->Commit(*w));
  }
  for (int i = 0; i < 2; ++i) {
    auto w = db_->Begin();
    ASSERT_TRUE(db_->Insert(*w, *t, std::string(64, 'y')).ok());
    ASSERT_OK(db_->Abort(*w));
  }

  MetricsSnapshot after = db_->metrics()->Capture();
  EXPECT_EQ(after.CounterValue("txn.commits") -
                before.CounterValue("txn.commits"),
            4u);
  EXPECT_EQ(after.CounterValue("txn.aborts") -
                before.CounterValue("txn.aborts"),
            2u);
  // Every commit awaits durability, so the script forces at least one
  // group-commit flush per commit (piggybacking could merge them only
  // under concurrency, and this script is serial).
  EXPECT_GE(after.CounterValue("wal.flushes") -
                before.CounterValue("wal.flushes"),
            4u);
  EXPECT_EQ(after.GaugeValue("txn.active"), 0);
  const HistogramSnapshot* commit_lat =
      after.FindHistogram("txn.commit_latency_ns");
  ASSERT_NE(commit_lat, nullptr);
  EXPECT_GE(commit_lat->h.count, 4u);

  // The legacy stats facade is a view over the same registry.
  DatabaseStats stats = db_->GetStats();
  EXPECT_EQ(stats.commits, after.CounterValue("txn.commits"));
  EXPECT_EQ(stats.aborts, after.CounterValue("txn.aborts"));
  EXPECT_EQ(stats.log_flushes, after.CounterValue("wal.flushes"));
}

TEST_P(DatabaseSchemeTest, DumpMetricsPersistsIdenticalSnapshot) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "m", 32, 10);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->Insert(*txn, *t, std::string(32, 'z')).ok());
  ASSERT_OK(db_->Commit(*txn));

  auto json = db_->DumpMetrics();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  std::string persisted;
  ASSERT_OK(ReadFileToString(DbFiles(dir_.path()).MetricsFile(), &persisted));
  // Byte-identical: `cwdb_ctl stats` re-emits this file verbatim, so the
  // offline view equals what DumpMetrics returned.
  EXPECT_EQ(*json, persisted);
  EXPECT_NE(json->find("\"txn.commits\""), std::string::npos);
  EXPECT_NE(json->find("\"txn.commit_latency_ns\""), std::string::npos);
  EXPECT_NE(json->find("\"protect.detection_latency_ns\""),
            std::string::npos);
  EXPECT_NE(json->find("\"events\""), std::string::npos);
}

// The background flusher persists exactly what DumpMetrics does: with
// default tracing (rate 0) the forced checkpoint trace reaches spans.json
// and the process gauges reach metrics.json, with neither DumpMetrics nor
// Close ever called.
TEST(DatabaseMetricsFlusher, PersistsSpansAndProcessGauges) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.metrics.flush_interval_ms = 10;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_OK((*db)->Checkpoint());
  const uint64_t flushes_before =
      (*db)->metrics()->counter("obs.metrics_flushes")->Value();
  // A few intervals past the checkpoint: the first flush to start after it
  // carries its spans.
  for (int i = 0; i < 500 && (*db)->metrics()
                                     ->counter("obs.metrics_flushes")
                                     ->Value() < flushes_before + 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const DbFiles files(dir.path());
  std::string spans;
  ASSERT_OK(ReadFileToString(files.SpansFile(), &spans));
  EXPECT_NE(spans.find("\"kind\":\"ckpt\""), std::string::npos);
  std::string metrics;
  ASSERT_OK(ReadFileToString(files.MetricsFile(), &metrics));
  EXPECT_NE(metrics.find("\"process.rss_bytes\""), std::string::npos);
  EXPECT_EQ((*db)->metrics()->counter("obs.metrics_flush_failures")->Value(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DatabaseSchemeTest,
    ::testing::Values(ProtectionScheme::kNone, ProtectionScheme::kDataCodeword,
                      ProtectionScheme::kReadPrecheck,
                      ProtectionScheme::kReadLog,
                      ProtectionScheme::kCodewordReadLog,
                      ProtectionScheme::kHardware),
    [](const ::testing::TestParamInfo<ProtectionScheme>& info) {
      switch (info.param) {
        case ProtectionScheme::kNone: return std::string("Baseline");
        case ProtectionScheme::kDataCodeword: return std::string("DataCW");
        case ProtectionScheme::kReadPrecheck: return std::string("Precheck");
        case ProtectionScheme::kReadLog: return std::string("ReadLog");
        case ProtectionScheme::kCodewordReadLog: return std::string("CWReadLog");
        case ProtectionScheme::kHardware: return std::string("Hardware");
      }
      return std::string("Unknown");
    });

// The engine names its threads, so /proc (top -H, perf, gdb) tells the
// group-commit drainer from the client threads.
std::set<std::string> ThreadNames() {
  std::set<std::string> names;
  DIR* tasks = ::opendir("/proc/self/task");
  if (tasks == nullptr) return names;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::string comm;
    if (ReadFileToString(std::string("/proc/self/task/") + entry->d_name +
                             "/comm",
                         &comm)
            .ok()) {
      while (!comm.empty() && comm.back() == '\n') comm.pop_back();
      names.insert(comm);
    }
  }
  ::closedir(tasks);
  return names;
}

TEST(DatabaseThreads, WalDrainerIsNamed) {
  TempDir dir;
  auto db = Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kNone));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(ThreadNames().count("cwdb-wal"), 1u);
}

}  // namespace
}  // namespace cwdb
