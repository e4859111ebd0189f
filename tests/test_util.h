#ifndef CWDB_TESTS_TEST_UTIL_H_
#define CWDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/file_util.h"
#include "core/database.h"
#include "wal/system_log.h"

namespace cwdb {

#define ASSERT_OK(expr)                                      \
  do {                                                       \
    ::cwdb::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

#define EXPECT_OK(expr)                                      \
  do {                                                       \
    ::cwdb::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

/// Creates (and removes on destruction) a unique temp directory per test.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/dev/shm/cwdb_test_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p;
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = ::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Small options for fast tests: 4 MiB arena, 4 KiB pages.
inline DatabaseOptions SmallDbOptions(const std::string& path,
                                      ProtectionScheme scheme,
                                      uint32_t region_size = 512) {
  DatabaseOptions opts;
  opts.path = path;
  opts.arena_size = 4ull << 20;
  opts.page_size = 4096;
  opts.protection.scheme = scheme;
  opts.protection.region_size = region_size;
  return opts;
}

/// Creates a database at `path` and closes it, so its checkpoint anchor
/// exists, then appends `payloads` as frames past its CK_end through
/// SystemLog::Append: the next open's recovery reads them. Returns their
/// LSNs (empty on a failure, which is reported).
inline std::vector<Lsn> AppendPastCkEndOfClosedDb(
    const std::string& path, const std::vector<std::string>& payloads) {
  {
    auto db = Database::Open(SmallDbOptions(path, ProtectionScheme::kNone));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok() || !(*db)->Close().ok()) return {};
  }
  const DbFiles files(path);
  auto active = ReadActiveCheckpoint(files);
  auto log = SystemLog::Open(files.SystemLog());
  EXPECT_TRUE(active.ok() && log.ok());
  if (!active.ok() || !log.ok()) return {};
  std::vector<Lsn> lsns;
  for (const std::string& p : payloads) lsns.push_back((*log)->Append(p));
  EXPECT_TRUE((*log)->Flush().ok());
  EXPECT_GE(lsns.front(), active->meta.ck_end);
  return lsns;
}

/// The whole file at `path`.
inline std::string ReadWholeFile(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

}  // namespace cwdb

#endif  // CWDB_TESTS_TEST_UTIL_H_
