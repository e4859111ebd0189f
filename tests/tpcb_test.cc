// TPC-B workload tests (scaled down from the paper's §5.2 sizes for test
// speed): consistency invariants under every protection scheme, crash
// mid-workload, checkpoints mid-workload, and corruption during the
// workload followed by delete-transaction recovery.

#include "workload/tpcb.h"

#include <gtest/gtest.h>

#include "faultinject/fault_injector.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

TpcbConfig SmallConfig() {
  TpcbConfig cfg;
  cfg.accounts = 1000;
  cfg.tellers = 100;
  cfg.branches = 10;
  cfg.ops_per_txn = 50;
  cfg.history_capacity = 4000;
  return cfg;
}

DatabaseOptions TpcbDbOptions(const std::string& path,
                              ProtectionScheme scheme) {
  DatabaseOptions opts = SmallDbOptions(path, scheme);
  TpcbConfig cfg = SmallConfig();
  opts.arena_size =
      std::max<uint64_t>(opts.arena_size, cfg.MinArenaSize(opts.page_size));
  return opts;
}

class TpcbSchemeTest : public ::testing::TestWithParam<ProtectionScheme> {
 protected:
  TempDir dir_;
};

TEST_P(TpcbSchemeTest, InvariantsHoldAfterRun) {
  auto db = Database::Open(TpcbDbOptions(dir_.path(), GetParam()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TpcbWorkload wl(db->get(), SmallConfig());
  ASSERT_OK(wl.Setup());
  ASSERT_OK(wl.RunOps(500));
  ASSERT_OK(wl.CheckConsistency());
  EXPECT_EQ((*db)->CountRecords(wl.history()), 500u);
}

TEST_P(TpcbSchemeTest, InvariantsHoldAfterCrashRecovery) {
  auto db = Database::Open(TpcbDbOptions(dir_.path(), GetParam()));
  ASSERT_TRUE(db.ok());
  TpcbWorkload wl(db->get(), SmallConfig());
  ASSERT_OK(wl.Setup());
  ASSERT_OK(wl.RunOps(300));
  ASSERT_OK((*db)->Checkpoint());
  ASSERT_OK(wl.RunOps(200));

  ASSERT_OK((*db)->CrashAndRecover());

  TpcbWorkload wl2(db->get(), SmallConfig());
  ASSERT_OK(wl2.Attach());
  ASSERT_OK(wl2.CheckConsistency());
  // All 500 ops were in committed transactions (multiples of 50).
  EXPECT_EQ((*db)->CountRecords(wl2.history()), 500u);
  // And the workload keeps running after recovery.
  ASSERT_OK(wl2.RunOps(100));
  ASSERT_OK(wl2.CheckConsistency());
}

TEST_P(TpcbSchemeTest, CrashMidTransactionLosesOnlyOpenTxn) {
  TpcbConfig cfg = SmallConfig();
  cfg.ops_per_txn = 1000000;  // Never commits on its own.
  auto db = Database::Open(TpcbDbOptions(dir_.path(), GetParam()));
  ASSERT_TRUE(db.ok());
  TpcbWorkload wl(db->get(), cfg);
  ASSERT_OK(wl.Setup());
  // RunOps commits the trailing open transaction, so run two batches: one
  // committed, one that stays open and dies with the crash.
  ASSERT_OK(wl.RunOps(100));  // Committed at the end of RunOps.
  auto txn = (*db)->Begin();
  // A hand-rolled half-operation that will be rolled back.
  std::string hist(cfg.record_size, 'h');
  ASSERT_TRUE((*db)->Insert(*txn, wl.history(), hist).ok());

  ASSERT_OK((*db)->CrashAndRecover());
  TpcbWorkload wl2(db->get(), cfg);
  ASSERT_OK(wl2.Attach());
  ASSERT_OK(wl2.CheckConsistency());
  EXPECT_EQ((*db)->CountRecords(wl2.history()), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TpcbSchemeTest,
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

TEST(TpcbCorruption, WorkloadCarriesCorruptionAndRecoveryDeletesIt) {
  // End-to-end: wild write hits an account record mid-workload; later
  // operations read it (carrying corruption into tellers/branches/history);
  // the audit catches it and delete-transaction recovery removes exactly
  // the affected transactions. Invariants hold afterwards.
  TempDir dir;
  auto db =
      Database::Open(TpcbDbOptions(dir.path(), ProtectionScheme::kReadLog));
  ASSERT_TRUE(db.ok());
  TpcbConfig cfg = SmallConfig();
  TpcbWorkload wl(db->get(), cfg);
  ASSERT_OK(wl.Setup());
  ASSERT_OK(wl.RunOps(100));
  ASSERT_OK((*db)->Checkpoint());

  // Corrupt the balance of account 0 behind the system's back.
  FaultInjector inject(db->get(), 77);
  DbPtr off = (*db)->image()->RecordOff(wl.accounts(), 0) +
              TpcbLayout::kBalanceOff;
  int64_t garbage = 0x7777777777777777;
  inject.WildWriteAt(off, Slice(reinterpret_cast<const char*>(&garbage), 8));

  ASSERT_OK(wl.RunOps(200));  // Some of these read account 0.

  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean);
  ASSERT_OK((*db)->CrashAndRecover());

  // Some transactions were deleted (account 0 is hot enough in 200 ops
  // over 1000 accounts with uniform access that at least one read it —
  // if not, the test still passes consistency but asserts report sanity).
  TpcbWorkload wl2(db->get(), cfg);
  ASSERT_OK(wl2.Attach());
  ASSERT_OK(wl2.CheckConsistency());
  // The corrupted balance never ended up in the recovered image.
  int64_t balance;
  std::memcpy(&balance, (*db)->image()->At(off), 8);
  EXPECT_NE(balance, garbage);
}

TEST(TpcbReadMix, InvariantsHoldWithInquiries) {
  TempDir dir;
  TpcbConfig cfg = SmallConfig();
  cfg.read_fraction = 0.5;
  auto db = Database::Open(
      TpcbDbOptions(dir.path(), ProtectionScheme::kReadPrecheck));
  ASSERT_TRUE(db.ok());
  TpcbWorkload wl(db->get(), cfg);
  ASSERT_OK(wl.Setup());
  ASSERT_OK(wl.RunOps(600));
  ASSERT_OK(wl.CheckConsistency());
  // Roughly half the operations were inquiries: fewer history rows than
  // operations, but more than a third (600 ops, p=0.5, loose bounds).
  uint64_t rows = (*db)->CountRecords(wl.history());
  EXPECT_GT(rows, 200u);
  EXPECT_LT(rows, 400u);
}

TEST(TpcbReadMix, PureReadsLeaveNoHistory) {
  TempDir dir;
  TpcbConfig cfg = SmallConfig();
  cfg.read_fraction = 1.0;
  auto db =
      Database::Open(TpcbDbOptions(dir.path(), ProtectionScheme::kReadLog));
  ASSERT_TRUE(db.ok());
  TpcbWorkload wl(db->get(), cfg);
  ASSERT_OK(wl.Setup());
  uint64_t log_before = (*db)->GetStats().log_bytes_appended;
  const Lsn lsn_before = (*db)->CurrentLsn();
  ASSERT_OK(wl.RunOps(200));
  ASSERT_OK(wl.CheckConsistency());
  EXPECT_EQ((*db)->CountRecords(wl.history()), 0u);
  // Under Read Logging even a pure-read workload appends to the log (the
  // audit trail), but only identity records: one per inquiry, and well
  // under 200 bytes per op with its transaction brackets.
  ASSERT_OK((*db)->log()->Flush());
  auto reader = LogReader::Open(DbFiles(dir.path()).SystemLog(), lsn_before);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  uint64_t read_logs = 0;
  while ((*reader)->Next(&rec, nullptr)) {
    read_logs += rec.type == LogRecordType::kReadLog;
  }
  ASSERT_OK((*reader)->status());
  EXPECT_EQ(read_logs, 200u);
  uint64_t bytes = (*db)->GetStats().log_bytes_appended - log_before;
  EXPECT_LT(bytes, 200u * 200u);
}

TEST(TpcbConfigTest, MinArenaSizeFitsWorkload) {
  TpcbConfig cfg = SmallConfig();
  uint64_t min = cfg.MinArenaSize(4096);
  // Loose sanity: at least the record bytes of all tables.
  uint64_t raw = (cfg.accounts + cfg.tellers + cfg.branches +
                  cfg.history_capacity) *
                 cfg.record_size;
  EXPECT_GE(min, raw);
  EXPECT_LT(min, raw * 2 + (1 << 20));
}

}  // namespace
}  // namespace cwdb
