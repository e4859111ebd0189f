#include "ckpt/archive.h"

#include "common/file_util.h"

namespace cwdb {

namespace {

constexpr char kArchiveImage[] = "/archived.img";
constexpr char kArchiveMeta[] = "/archived.meta";
constexpr char kArchiveLog[] = "/system.log";
constexpr char kArchiveAudit[] = "/audit.meta";

Status CopyFile(const std::string& from, const std::string& to) {
  std::string contents;
  CWDB_RETURN_IF_ERROR(ReadFileToString(from, &contents));
  return WriteFileAtomic(to, contents, "archive.file");
}

}  // namespace

Result<CheckpointMeta> CreateArchive(const DbFiles& db_files,
                                     const std::string& archive_dir) {
  CWDB_RETURN_IF_ERROR(MakeDirs(archive_dir));
  CWDB_ASSIGN_OR_RETURN(ActiveCheckpoint active,
                        ReadActiveCheckpoint(db_files));
  const int which = active.which;
  CWDB_RETURN_IF_ERROR(
      CopyFile(db_files.CkptImage(which), archive_dir + kArchiveImage));
  CWDB_RETURN_IF_ERROR(
      CopyFile(db_files.CkptMeta(which), archive_dir + kArchiveMeta));
  CWDB_RETURN_IF_ERROR(
      CopyFile(db_files.SystemLog(), archive_dir + kArchiveLog));
  if (FileExists(db_files.AuditMeta())) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(db_files.AuditMeta(), archive_dir + kArchiveAudit));
  }
  return std::move(active.meta);
}

Status RestoreArchive(const std::string& archive_dir,
                      const DbFiles& db_files) {
  if (!FileExists(archive_dir + kArchiveImage) ||
      !FileExists(archive_dir + kArchiveMeta)) {
    return Status::NotFound("no archive at " + archive_dir);
  }
  // Install as checkpoint A and point the anchor at it. The live log stays
  // in place: it is a superset of what the archive saw (append-only). If
  // the live log is damaged or missing, fall back to the archived copy.
  CWDB_RETURN_IF_ERROR(
      CopyFile(archive_dir + kArchiveImage, db_files.CkptImage(0)));
  CWDB_RETURN_IF_ERROR(
      CopyFile(archive_dir + kArchiveMeta, db_files.CkptMeta(0)));
  if (!FileExists(db_files.SystemLog())) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(archive_dir + kArchiveLog, db_files.SystemLog()));
  }
  if (FileExists(archive_dir + kArchiveAudit)) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(archive_dir + kArchiveAudit, db_files.AuditMeta()));
  }
  return WriteFileAtomic(db_files.Anchor(), "A");
}

}  // namespace cwdb
