#include "protect/protection.h"

#include <cinttypes>
#include <cstdio>

#include "common/codeword.h"
#include "obs/forensics.h"
#include "protect/codeword_protection.h"
#include "protect/hardware_protection.h"

namespace cwdb {

const char* ProtectionSchemeName(ProtectionScheme scheme) {
  switch (scheme) {
    case ProtectionScheme::kNone:
      return "Baseline";
    case ProtectionScheme::kDataCodeword:
      return "Data CW";
    case ProtectionScheme::kReadPrecheck:
      return "Data CW w/Precheck";
    case ProtectionScheme::kReadLog:
      return "Data CW w/ReadLog";
    case ProtectionScheme::kCodewordReadLog:
      return "Data CW w/CW ReadLog";
    case ProtectionScheme::kHardware:
      return "Memory Protection";
  }
  return "Unknown";
}

ProtectionManager::ProtectionManager(const ProtectionOptions& options,
                                     DbImage* image, MetricsRegistry* metrics)
    : options_(options),
      image_(image),
      metrics_(FallbackRegistry(metrics, &own_metrics_)) {
  ins_.updates = metrics_->counter("protect.updates");
  ins_.codeword_folds = metrics_->counter("protect.codeword_folds");
  ins_.prechecks = metrics_->counter("protect.prechecks");
  ins_.precheck_failures = metrics_->counter("protect.precheck_failures");
  ins_.regions_audited = metrics_->counter("protect.regions_audited");
  ins_.audit_failures = metrics_->counter("protect.audit_failures");
  ins_.mprotect_calls = metrics_->counter("protect.mprotect_calls");
  ins_.pages_unprotected = metrics_->counter("protect.pages_unprotected");
  ins_.fold_latency_ns = metrics_->histogram("protect.fold_latency_ns");
  ins_.precheck_latency_ns =
      metrics_->histogram("protect.precheck_latency_ns");
  ins_.repair_attempts = metrics_->counter("repair.attempts");
  ins_.repair_success = metrics_->counter("repair.success");
  ins_.repair_failed = metrics_->counter("repair.failed");
  ins_.repair_latency_ns = metrics_->histogram("repair.latency_ns");
  // Pre-register so every snapshot carries the histogram (empty until a
  // fault is detected) — the stats schema shouldn't depend on whether an
  // injection campaign ran.
  metrics_->histogram("protect.detection_latency_ns");
}

ProtectionStats ProtectionManager::stats() const {
  ProtectionStats s;
  s.updates = ins_.updates->Value();
  s.codeword_folds = ins_.codeword_folds->Value();
  s.prechecks = ins_.prechecks->Value();
  s.regions_audited = ins_.regions_audited->Value();
  s.audit_failures = ins_.audit_failures->Value();
  s.mprotect_calls = ins_.mprotect_calls->Value();
  s.pages_unprotected = ins_.pages_unprotected->Value();
  return s;
}

namespace {

/// Baseline: the prescribed interface exists but does nothing extra.
class NoProtection : public ProtectionManager {
 public:
  NoProtection(const ProtectionOptions& options, DbImage* image,
               MetricsRegistry* metrics)
      : ProtectionManager(options, image, metrics) {}

  Status BeginUpdate(DbPtr off, uint32_t len, UpdateHandle* h) override {
    h->off = off;
    h->len = len;
    ins_.updates->Add();
    return Status::OK();
  }
  void EndUpdate(const UpdateHandle&, const uint8_t*) override {}
  void AbortUpdate(const UpdateHandle&) override {}
  Status PrecheckRead(DbPtr, uint32_t) override { return Status::OK(); }
  Status AuditAll(std::vector<CorruptRange>*) override { return Status::OK(); }
  Status AuditRange(DbPtr, uint64_t, std::vector<CorruptRange>*) override {
    return Status::OK();
  }
  Status ResetFromImage() override { return Status::OK(); }
};

}  // namespace

bool ProtectionManager::RepairWithForensics(
    IncidentSource source, uint64_t lsn, uint64_t last_clean_audit_lsn,
    const std::vector<CorruptRange>& ranges, std::string_view detail,
    RepairEpisode* episode) {
  RepairEpisode local;
  RepairEpisode* ep = episode != nullptr ? episode : &local;
  *ep = RepairEpisode();
  // The detection dossier is filed before anything touches the image: its
  // hexdump captures the bytes as found, and a repair would destroy that
  // evidence.
  if (forensics_ != nullptr) {
    ep->detection_incident = forensics_->RecordIncident(
        source, lsn, last_clean_audit_lsn, ranges, detail);
  }
  if (!CanRepair()) {
    ep->outcome.unrepaired = ranges;
    return false;
  }
  ins_.repair_attempts->Add();
  uint64_t t0 = NowNs();
  Status s = TryRepair(ranges, &ep->outcome);
  ins_.repair_latency_ns->Record(NowNs() - t0);
  ep->fully_repaired = s.ok() && ep->outcome.unrepaired.empty();
  ins_.repair_success->Add(ep->outcome.repaired.size());
  ins_.repair_failed->Add(ep->outcome.unrepaired.size());
  for (const CorruptRange& r : ep->outcome.repaired) {
    metrics_->tracer()->Event(SpanKind::kRepair, lsn, r.off, r.len);
  }
  if (!ep->outcome.repaired.empty() && forensics_ != nullptr) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "reconstructed %zu region(s) in place from parity "
                  "(%zu beyond the correction budget)",
                  ep->outcome.repaired.size(),
                  ep->outcome.unrepaired.size());
    ForensicsRecorder::IncidentExtras extras;
    extras.linked_incident_id = ep->detection_incident;
    extras.repair_deltas = ep->outcome.repair_deltas;
    ep->repair_incident =
        forensics_->RecordIncident(IncidentSource::kRepair, lsn,
                                   last_clean_audit_lsn,
                                   ep->outcome.repaired, buf, extras);
  }
  return ep->fully_repaired;
}

codeword_t ProtectionManager::ChecksumBytes(const DbImage& image, DbPtr off,
                                            uint32_t len) {
  // Lane convention shared with read-time checksum computation: fold with
  // the lane of the absolute offset so identical bytes at the same image
  // offset always produce the same checksum.
  return CodewordFold(off & 3, image.At(off), len);
}

Result<std::unique_ptr<ProtectionManager>> ProtectionManager::Create(
    const ProtectionOptions& options, DbImage* image,
    MetricsRegistry* metrics) {
  switch (options.scheme) {
    case ProtectionScheme::kNone:
      return std::unique_ptr<ProtectionManager>(
          new NoProtection(options, image, metrics));
    case ProtectionScheme::kDataCodeword:
    case ProtectionScheme::kReadPrecheck:
    case ProtectionScheme::kReadLog:
    case ProtectionScheme::kCodewordReadLog:
      return CodewordProtection::Create(options, image, metrics);
    case ProtectionScheme::kHardware:
      return HardwareProtection::Create(options, image, metrics);
  }
  return Status::InvalidArgument("unknown protection scheme");
}

}  // namespace cwdb
