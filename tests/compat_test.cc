// Cross-scheme compatibility and option validation: a database written
// under one protection scheme must recover correctly when reopened under
// another (the log format is scheme-agnostic; read log records and
// checksums are simply ignored where not needed), bad options must be
// rejected up front, a log in the earlier fixed-width record encoding
// is refused rather than misread, and a version-1 spans.json still parses.

#include <gtest/gtest.h>

#include "common/coding.h"
#include "core/database.h"
#include "obs/trace_export.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

class SchemeSwitchTest
    : public ::testing::TestWithParam<
          std::pair<ProtectionScheme, ProtectionScheme>> {};

TEST_P(SchemeSwitchTest, ReopenUnderDifferentScheme) {
  TempDir dir;
  RecordId rid;
  {
    auto db = Database::Open(SmallDbOptions(dir.path(), GetParam().first));
    ASSERT_TRUE(db.ok());
    auto txn = (*db)->Begin();
    auto t = (*db)->CreateTable(*txn, "t", 64, 32);
    ASSERT_TRUE(t.ok());
    auto r = (*db)->Insert(*txn, *t, std::string(64, 'm'));
    ASSERT_TRUE(r.ok());
    rid = *r;
    std::string got;
    ASSERT_OK((*db)->Read(*txn, *t, rid.slot, &got));  // May emit read log.
    ASSERT_OK((*db)->Commit(*txn));
    // Destroyed without clean shutdown: reopen must recover from the log.
  }
  auto db = Database::Open(SmallDbOptions(dir.path(), GetParam().second));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = (*db)->FindTable("t");
  ASSERT_TRUE(t.ok());
  auto txn = (*db)->Begin();
  std::string got;
  ASSERT_OK((*db)->Read(*txn, *t, rid.slot, &got));
  EXPECT_EQ(got, std::string(64, 'm'));
  ASSERT_OK((*db)->Commit(*txn));
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SchemeSwitchTest,
    ::testing::Values(
        std::make_pair(ProtectionScheme::kReadLog, ProtectionScheme::kNone),
        std::make_pair(ProtectionScheme::kNone, ProtectionScheme::kReadLog),
        std::make_pair(ProtectionScheme::kCodewordReadLog,
                       ProtectionScheme::kDataCodeword),
        std::make_pair(ProtectionScheme::kHardware,
                       ProtectionScheme::kReadPrecheck),
        std::make_pair(ProtectionScheme::kDataCodeword,
                       ProtectionScheme::kHardware)),
    [](const auto& info) {
      auto name = [](ProtectionScheme s) {
        switch (s) {
          case ProtectionScheme::kNone: return "Baseline";
          case ProtectionScheme::kDataCodeword: return "DataCW";
          case ProtectionScheme::kReadPrecheck: return "Precheck";
          case ProtectionScheme::kReadLog: return "ReadLog";
          case ProtectionScheme::kCodewordReadLog: return "CWReadLog";
          case ProtectionScheme::kHardware: return "Hardware";
        }
        return "?";
      };
      return std::string(name(info.param.first)) + "_to_" +
             name(info.param.second);
    });

TEST(SchemeSwitch, RegionSizeChangeIsTransparent) {
  // Codewords are volatile (rebuilt from the image at open), so the region
  // size can change between runs.
  TempDir dir;
  {
    auto db = Database::Open(
        SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword, 64));
    ASSERT_TRUE(db.ok());
    auto txn = (*db)->Begin();
    auto t = (*db)->CreateTable(*txn, "t", 64, 16);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(64, 'z')).ok());
    ASSERT_OK((*db)->Commit(*txn));
  }
  auto db = Database::Open(
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword, 8192));
  ASSERT_TRUE(db.ok());
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
  EXPECT_EQ((*db)->CountRecords(*(*db)->FindTable("t")), 1u);
}

TEST(OptionsValidation, RejectsBadConfigurations) {
  TempDir dir;
  {
    DatabaseOptions opts = SmallDbOptions(dir.path() + "/a",
                                          ProtectionScheme::kDataCodeword);
    opts.protection.region_size = 100;  // Not a power of two.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
  {
    DatabaseOptions opts =
        SmallDbOptions(dir.path() + "/b", ProtectionScheme::kNone);
    opts.page_size = 100;  // Not a power of two.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
  {
    DatabaseOptions opts =
        SmallDbOptions(dir.path() + "/c", ProtectionScheme::kNone);
    opts.page_size = 1024;  // Smaller than the OS page.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
  {
    DatabaseOptions opts =
        SmallDbOptions(dir.path() + "/d", ProtectionScheme::kNone);
    opts.arena_size = opts.page_size;  // Too small for the directory.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
  {
    DatabaseOptions opts;  // No path.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
  {
    DatabaseOptions opts = SmallDbOptions(dir.path() + "/e",
                                          ProtectionScheme::kDataCodeword);
    opts.protection.region_size = 4;  // Below the 8-byte minimum.
    EXPECT_FALSE(Database::Open(opts).ok());
  }
}

TEST(OptionsValidation, GeometryMismatchOnReopenIsRefused) {
  TempDir dir;
  {
    auto db =
        Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kNone));
    ASSERT_TRUE(db.ok());
    ASSERT_OK((*db)->Checkpoint());
  }
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kNone);
  opts.arena_size *= 2;  // Different geometry than the checkpoint.
  auto db = Database::Open(opts);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

// Records of the earlier fixed-width encoding (a type byte of 1-8, then the
// txn id as fixed64) past CK_end: the open must fail loudly, naming the
// first such record, and leave the log as it was. No decode path for the
// old format exists, and its type codes never decode as current records.
TEST(LogFormat, OldFixedWidthRecordsAreRefused) {
  TempDir dir;
  std::vector<std::string> old_frames;
  for (uint8_t type : {1 /* BeginTxn */, 2 /* CommitTxn */}) {
    std::string p(1, static_cast<char>(type));
    PutFixed64(&p, 1000);
    old_frames.push_back(p);
  }
  const std::vector<Lsn> lsns =
      AppendPastCkEndOfClosedDb(dir.path(), old_frames);
  ASSERT_EQ(lsns.size(), 2u);
  const std::string log = DbFiles(dir.path()).SystemLog();
  const std::string before = ReadWholeFile(log);
  ASSERT_GT(before.size(), lsns[1]);

  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kNone));
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
  EXPECT_NE(db.status().ToString().find("LSN " + std::to_string(lsns[0]) +
                                        " does not decode"),
            std::string::npos)
      << db.status().ToString();
  EXPECT_EQ(ReadWholeFile(log), before);  // The log is left as it was.
}

// spans.json version 1 (before records carried `lsn`/`shard`): every
// record parses, with the defaults those fields have in version 2, and
// re-serializes to the same records.
TEST(SpansFormat, VersionOneDumpStillParses) {
  const std::string v1 =
      "{\n\"schema\": 1,\n\"captured_mono_ns\": 900,\n"
      "\"captured_wall_ns\": 1900,\n\"boot_mono_ns\": 100,\n"
      "\"boot_wall_ns\": 1100,\n\"spans\": [\n"
      "{\"trace\":3,\"span\":7,\"parent\":0,\"kind\":\"ckpt\",\"tid\":2,"
      "\"start_ns\":200,\"dur_ns\":50,\"a\":4,\"b\":1},\n"
      "{\"trace\":3,\"span\":8,\"parent\":7,\"kind\":\"ckpt.copy\","
      "\"tid\":2,\"start_ns\":200,\"dur_ns\":10,\"a\":4,\"b\":4096}\n"
      "]\n}\n";
  Result<SpanDump> dump = ParseSpansJson(v1);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->boot_wall_ns, 1100u);
  ASSERT_EQ(dump->spans.size(), 2u);
  const SpanRecord& root = dump->spans[0];
  EXPECT_EQ(root.kind, SpanKind::kCheckpoint);
  EXPECT_EQ(root.trace_id, 3u);
  EXPECT_EQ(root.span_id, 7u);
  EXPECT_EQ(root.dur_ns, 50u);
  EXPECT_EQ(root.lsn, 0u);
  EXPECT_EQ(root.shard, kNoTraceShard);
  EXPECT_EQ(dump->spans[1].parent_id, 7u);
  EXPECT_EQ(dump->spans[1].b, 4096u);

  Result<SpanDump> again = ParseSpansJson(SpansToJson(*dump));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->spans.size(), 2u);
  EXPECT_EQ(again->spans[1].kind, SpanKind::kCheckpointCopy);
  EXPECT_EQ(again->spans[1].shard, kNoTraceShard);
}

}  // namespace
}  // namespace cwdb
