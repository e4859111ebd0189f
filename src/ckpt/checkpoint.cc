#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ckpt/att_codec.h"
#include "common/coding.h"
#include "common/crashpoint.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "obs/forensics.h"
#include "protect/parity_repair.h"

namespace cwdb {

namespace {

constexpr uint64_t kMetaMagic = 0x434B50544D455441ull;  // "CKPTMETA"

}  // namespace

Checkpointer::Checkpointer(const DbFiles& files, DbImage* image,
                           TxnManager* txns, SystemLog* log,
                           ProtectionManager* protection,
                           MetricsRegistry* metrics)
    : files_(files),
      image_(image),
      txns_(txns),
      log_(log),
      protection_(protection),
      metrics_(metrics) {
  ins_.checkpoints = metrics_->counter("ckpt.checkpoints");
  ins_.pages_written = metrics_->counter("ckpt.pages_written");
  ins_.latency_ns = metrics_->histogram("ckpt.latency_ns");
}

Status Checkpointer::InitializeFresh() {
  image_->MarkAllDirty();
  CWDB_RETURN_IF_ERROR(crashpoint::Check("ckpt.image.setsize"));
  CWDB_RETURN_IF_ERROR(EnsureFileSize(files_.CkptImage(0), image_->size()));
  CWDB_RETURN_IF_ERROR(crashpoint::Check("ckpt.image.setsize"));
  CWDB_RETURN_IF_ERROR(EnsureFileSize(files_.CkptImage(1), image_->size()));
  // Full first checkpoint into A; B stays all-dirty so the next checkpoint
  // writes it completely.
  return WriteCheckpointTo(0, /*certify=*/false, nullptr);
}

Status Checkpointer::Checkpoint(bool certify,
                                std::vector<CorruptRange>* corrupt) {
  CWDB_ASSIGN_OR_RETURN(int active, ReadAnchor());
  return WriteCheckpointTo(1 - active, certify, corrupt);
}

Status Checkpointer::WriteCheckpointTo(int which, bool certify,
                                       std::vector<CorruptRange>* corrupt) {
  const uint32_t page_size = image_->page_size();
  const uint64_t t0 = NowNs();
  in_flight_.store(true, std::memory_order_release);
  // Checkpoints are rare and each one is interesting: trace every pass.
  Tracer* tracer = metrics_->tracer();
  uint64_t root_span = 0;
  SpanContext ctx = tracer->StartForcedTrace(&root_span);

  // --- Copy phase, under the exclusive checkpoint latch: no physical
  // update is in flight and no local log is mid-mutation, so the copied
  // pages + ATT are update-consistent with the log at CK_end. ---
  std::vector<uint64_t> pages;
  std::string page_bytes;
  std::string att_blob;
  std::string sidecar_blob;
  bool have_sidecar = false;
  Lsn ck_end;
  {
    ExclusiveGuard guard(txns_->checkpoint_latch());
    ck_end = log_->CurrentLsn();
    pages = image_->DirtyPages(which);
    page_bytes.resize(pages.size() * static_cast<size_t>(page_size));
    for (size_t i = 0; i < pages.size(); ++i) {
      std::memcpy(page_bytes.data() + i * page_size,
                  image_->At(pages[i] * page_size), page_size);
    }
    att_blob = EncodeAtt(*txns_);
    // Under the exclusive latch no update window (and no repair — repairs
    // take the latch shared) is in flight, so the codewords and parity
    // columns snapshotted here describe exactly the arena bytes the image
    // file will hold once the captured pages land.
    have_sidecar = protection_->SnapshotSidecar(ck_end, &sidecar_blob);
    // The snapshot is taken; pages dirtied from here on belong to the next
    // checkpoint of this image. If any durability step below fails, the
    // snapshot's bits are restored (see the failure path at the end) so
    // the next checkpoint to this image rewrites every captured page —
    // otherwise it would silently skip them and certify a stale image.
    image_->ClearDirty(which);
  }
  pages_written_last_ = pages.size();
  tracer->Record(ctx, SpanKind::kCheckpointCopy, t0, NowNs(), pages.size(),
                 page_size);

  // --- Durability phase, off the critical path. ---
  Status s = WriteDurable(which, pages, page_bytes, ck_end,
                          std::move(att_blob), have_sidecar, sidecar_blob,
                          certify, corrupt, ctx);
  tracer->RecordWithId(ctx.Under(0), root_span, SpanKind::kCheckpoint, t0,
                       NowNs(), pages.size(), static_cast<uint64_t>(which));
  in_flight_.store(false, std::memory_order_release);
  if (!s.ok()) {
    // Nothing certified: the anchor still names the previous image. Put
    // the captured pages back in the dirty set (under the latch — the
    // bitmaps race with concurrent MarkDirty otherwise). Re-marking a
    // page that was re-dirtied meanwhile is a harmless superset.
    ExclusiveGuard guard(txns_->checkpoint_latch());
    image_->MarkPagesDirty(which, pages);
    return s;
  }
  ins_.checkpoints->Add();
  ins_.pages_written->Add(pages.size());
  ins_.latency_ns->Record(NowNs() - t0);
  tracer->Event(SpanKind::kCheckpointEnd, ck_end, pages.size(),
                static_cast<uint64_t>(which));
  return Status::OK();
}

Status Checkpointer::WriteDurable(int which,
                                  const std::vector<uint64_t>& pages,
                                  const std::string& page_bytes,
                                  Lsn ck_end, std::string att_blob,
                                  bool have_sidecar,
                                  const std::string& sidecar_blob,
                                  bool certify,
                                  std::vector<CorruptRange>* corrupt,
                                  const SpanContext& trace) {
  const uint32_t page_size = image_->page_size();
  Tracer* tracer = metrics_->tracer();
  CWDB_RETURN_IF_ERROR(log_->Flush());

  const uint64_t t_write = NowNs();
  int fd = ::open(files_.CkptImage(which).c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IoError("open " + files_.CkptImage(which) + ": " +
                           std::strerror(errno));
  }
  for (size_t i = 0; i < pages.size(); ++i) {
    Status s = crashpoint::InjectedPWrite("ckpt.page.pwrite", fd,
                                          page_bytes.data() + i * page_size,
                                          page_size, pages[i] * page_size);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  tracer->Record(trace, SpanKind::kCheckpointWrite, t_write, NowNs(),
                 page_bytes.size(), pages.size());
  const uint64_t t_fsync = NowNs();
  Status s = crashpoint::Check("ckpt.image.fsync");
  if (s.ok()) s = FsyncFd(fd);
  ::close(fd);
  tracer->Record(trace, SpanKind::kCheckpointFsync, t_fsync, NowNs());
  CWDB_RETURN_IF_ERROR(s);

  // --- Certification audit (paper §4.2): after the checkpoint is written,
  // audit every page of the database. A clean full audit implies the
  // checkpoint is free of direct AND indirect corruption. The anchor is
  // only toggled on a clean audit. ---
  if (certify) {
    const uint64_t t_cert = NowNs();
    Status audit = protection_->AuditAll(corrupt);
    tracer->Record(trace, SpanKind::kCheckpointCertify, t_cert, NowNs(),
                   corrupt != nullptr ? corrupt->size() : 0);
    if (!audit.ok()) return audit;
  }

  // The sidecar lands after the certified image and before the meta/anchor
  // toggle. Atomic replace with no crash point: a crash mid-write leaves
  // the previous sidecar, whose CK_end no longer matches the meta, so load
  // recognizes it as stale and simply skips verification.
  if (have_sidecar) {
    CWDB_RETURN_IF_ERROR(WriteFileAtomic(files_.CkptParity(which),
                                         sidecar_blob));
  } else {
    CWDB_RETURN_IF_ERROR(RemoveFileIfExists(files_.CkptParity(which)));
  }

  CheckpointMeta meta;
  meta.ck_end = ck_end;
  meta.att_blob = std::move(att_blob);
  CWDB_RETURN_IF_ERROR(WriteMeta(which, meta));

  return WriteFileAtomic(files_.Anchor(), which == 0 ? "A" : "B",
                         "ckpt.anchor");
}

Status Checkpointer::WriteMeta(int which, const CheckpointMeta& meta) {
  std::string body;
  PutFixed64(&body, kMetaMagic);
  PutFixed64(&body, meta.ck_end);
  PutFixed64(&body, image_->size());
  PutFixed32(&body, image_->page_size());
  PutLengthPrefixed(&body, meta.att_blob);
  std::string out = body;
  PutFixed32(&out, Crc32c(body.data(), body.size()));
  return WriteFileAtomic(files_.CkptMeta(which), out, "ckpt.meta");
}

Result<int> ReadCheckpointAnchor(const DbFiles& files) {
  std::string contents;
  CWDB_RETURN_IF_ERROR(ReadFileToString(files.Anchor(), &contents));
  if (contents == "A") return 0;
  if (contents == "B") return 1;
  return Status::Corruption("bad checkpoint anchor: " + contents);
}

Result<ActiveCheckpoint> ReadActiveCheckpoint(const DbFiles& files) {
  ActiveCheckpoint active;
  CWDB_ASSIGN_OR_RETURN(active.which, ReadCheckpointAnchor(files));
  std::string contents;
  CWDB_RETURN_IF_ERROR(
      ReadFileToString(files.CkptMeta(active.which), &contents));
  if (contents.size() < 4) {
    return Status::Corruption("checkpoint meta too short");
  }
  const Slice body(contents.data(), contents.size() - 4);
  uint32_t crc = DecodeFixed32(contents.data() + contents.size() - 4);
  if (Crc32c(body.data(), body.size()) != crc) {
    return Status::Corruption("checkpoint meta CRC mismatch");
  }
  Decoder dec(body);
  if (dec.GetFixed64() != kMetaMagic) {
    return Status::Corruption("checkpoint meta bad magic");
  }
  CheckpointMeta& meta = active.meta;
  meta.ck_end = dec.GetFixed64();
  meta.arena_size = dec.GetFixed64();
  meta.page_size = dec.GetFixed32();
  Slice att = dec.GetLengthPrefixed();
  meta.att_blob.assign(att.data(), att.size());
  if (!dec.ok()) return Status::Corruption("checkpoint meta truncated");
  return active;
}

Status ReadCheckpointBytes(const DbFiles& files, int which, uint64_t off,
                           uint64_t len, void* out) {
  int fd = ::open(files.CkptImage(which).c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + files.CkptImage(which) + ": " +
                           std::strerror(errno));
  }
  Status s = PReadAll(fd, out, len, off);
  ::close(fd);
  return s;
}

Result<std::unique_ptr<DbImage>> LoadCheckpointImage(const DbFiles& files,
                                                     ActiveCheckpoint* active) {
  CWDB_ASSIGN_OR_RETURN(*active, ReadActiveCheckpoint(files));
  CWDB_ASSIGN_OR_RETURN(
      std::unique_ptr<DbImage> image,
      DbImage::Create(active->meta.arena_size, active->meta.page_size));
  CWDB_RETURN_IF_ERROR(ReadCheckpointBytes(files, active->which, 0,
                                           image->size(), image->base()));
  CWDB_RETURN_IF_ERROR(image->ValidateHeader());
  return image;
}

SidecarCheck CheckCheckpointSidecar(const DbFiles& files,
                                    const ActiveCheckpoint& active,
                                    const DbImage& image) {
  SidecarCheck check;
  std::string blob;
  check.error = ReadFileToString(files.CkptParity(active.which), &blob,
                                 MissingFile::kTreatAsEmpty);
  if (check.error.ok() && blob.empty()) return check;  // kMissing.
  if (check.error.ok()) {
    Result<ParitySidecar> decoded = DecodeParitySidecar(blob);
    check.error = decoded.status();
    if (decoded.ok()) check.sidecar = std::move(decoded.value());
  }
  if (!check.error.ok()) {
    check.state = SidecarState::kUndecodable;
    return check;
  }
  if (check.sidecar.ck_end != active.meta.ck_end ||
      check.sidecar.arena_size != image.size()) {
    // A crash between the image write and the sidecar replace leaves the
    // previous checkpoint's sidecar behind; its CK_end gives it away.
    check.state = SidecarState::kStale;
    return check;
  }
  check.state = SidecarState::kVerified;
  check.detected = VerifyImageAgainstSidecar(check.sidecar, image.base(),
                                             &check.regions_verified);
  return check;
}

Result<ActiveCheckpoint> Checkpointer::ReadActive() const {
  CWDB_ASSIGN_OR_RETURN(ActiveCheckpoint active, ReadActiveCheckpoint(files_));
  if (active.meta.arena_size != image_->size() ||
      active.meta.page_size != image_->page_size()) {
    return Status::Corruption("checkpoint geometry mismatch");
  }
  return active;
}

Result<CheckpointMeta> Checkpointer::LoadActive() {
  CWDB_ASSIGN_OR_RETURN(ActiveCheckpoint active, ReadActive());
  CWDB_RETURN_IF_ERROR(ReadCheckpointBytes(files_, active.which, 0,
                                           image_->size(), image_->base()));
  CWDB_RETURN_IF_ERROR(image_->ValidateHeader());
  // The old DESIGN §8 hole: certification audited the in-memory image, not
  // the bytes that landed on disk, so a flip during the image write was
  // loaded silently. Verify the loaded bytes against the checkpoint's
  // parity sidecar and repair in place what the budget covers.
  CWDB_RETURN_IF_ERROR(RepairLoadedImage(
      active, CheckCheckpointSidecar(files_, active, *image_)));
  // Everything is dirty relative to both images until proven otherwise —
  // after a crash the volatile dirty sets are gone, so the next checkpoint
  // to each image must be full. (This also carries any load-time repair
  // into the next certified checkpoint.)
  image_->MarkAllDirty();
  return std::move(active.meta);
}

Status Checkpointer::RepairLoadedImage(const ActiveCheckpoint& active,
                                       const SidecarCheck& check) {
  switch (check.state) {
    case SidecarState::kMissing:
      return Status::OK();
    case SidecarState::kUndecodable:
      metrics_->counter("repair.sidecar_invalid")->Add();
      return Status::OK();
    case SidecarState::kStale:
      metrics_->counter("repair.sidecar_stale")->Add();
      return Status::OK();
    case SidecarState::kVerified:
      break;
  }
  metrics_->counter("repair.load_verified_regions")
      ->Add(check.regions_verified);
  if (check.detected.empty()) return Status::OK();

  const Lsn ck_end = active.meta.ck_end;
  ForensicsRecorder* forensics = protection_->forensics();
  // Detection dossier before the repair touches anything: its hexdump is
  // the only durable record of the corrupt bytes. (The codeword probe may
  // report stale live-table values here — the table still describes the
  // pre-load arena — which is accepted noise; the sidecar evidence is
  // what located the damage.)
  uint64_t detection_id = 0;
  if (forensics != nullptr) {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "checkpoint image %c failed parity-sidecar verification at "
                  "load; attempting repair",
                  active.which == 0 ? 'A' : 'B');
    detection_id = forensics->RecordIncident(
        IncidentSource::kCkptLoad, ck_end, /*last_clean_audit_lsn=*/0,
        check.detected, detail);
  }

  ImageRepairReport report;
  RepairImageWithSidecar(check.sidecar, image_->base(), check.detected,
                         /*apply=*/true, &report);
  metrics_->counter("repair.load_repaired")->Add(report.repaired.size());
  metrics_->counter("repair.load_unrepaired")->Add(report.unrepaired.size());
  for (const CorruptRange& r : report.repaired) {
    metrics_->tracer()->Event(SpanKind::kRepair, ck_end, r.off, r.len);
  }
  if (!report.repaired.empty() && forensics != nullptr) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "reconstructed %zu checkpoint-load region(s) in place from "
                  "the parity sidecar (%zu beyond the correction budget)",
                  report.repaired.size(), report.unrepaired.size());
    ForensicsRecorder::IncidentExtras extras;
    extras.linked_incident_id = detection_id;
    extras.repair_deltas = report.repair_deltas;
    forensics->RecordIncident(IncidentSource::kRepair, ck_end,
                              /*last_clean_audit_lsn=*/0, report.repaired,
                              detail, extras);
  }
  if (!report.unrepaired.empty()) {
    // Delete-transaction recovery presumes a clean checkpoint, so it cannot
    // paper over this. The silent load is gone; what remains is loud.
    return Status::Corruption(
        "checkpoint image corrupt beyond parity correction budget");
  }
  return Status::OK();
}

}  // namespace cwdb
