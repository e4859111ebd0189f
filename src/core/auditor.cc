#include "core/auditor.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>

namespace cwdb {

BackgroundAuditor::BackgroundAuditor(Database* db, const Options& options,
                                     CorruptionCallback on_corruption)
    : db_(db), options_(options), on_corruption_(std::move(on_corruption)) {}

BackgroundAuditor::~BackgroundAuditor() { Stop(); }

void BackgroundAuditor::Start() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }
  if (Watchdog* wd = db_->watchdog(); wd != nullptr) {
    // Progress = rounds run. After a corruption verdict the loop idles
    // deliberately, so the probe goes inactive rather than reading as a
    // stall.
    WatchdogProbe probe;
    probe.name = "auditor";
    probe.active = [this] { return !corruption_seen_.load(); };
    probe.progress = [this] { return slices_.load(); };
    probe.stall_ns = db_->options().watchdog.auditor_stall_ms * 1'000'000ull;
    watchdog_probe_ = wd->AddProbe(std::move(probe));
  }
}

void BackgroundAuditor::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!running_) return;
    stop_ = true;
  }
  if (watchdog_probe_ != 0) {
    if (Watchdog* wd = db_->watchdog(); wd != nullptr) {
      wd->RemoveProbe(watchdog_probe_);
    }
    watchdog_probe_ = 0;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> guard(mu_);
  running_ = false;
}

void BackgroundAuditor::WaitForFullSweep() {
  uint64_t target = sweeps_completed_.load() + 2;  // One may be mid-flight.
  std::unique_lock<std::mutex> guard(mu_);
  cv_.wait(guard, [&] {
    return stop_ || sweeps_completed_.load() >= target ||
           corruption_seen_.load();
  });
}

ThreadPool* BackgroundAuditor::shard_pool() {
  size_t lanes = EffectiveConcurrency(options_.threads);
  if (lanes <= 1 || db_->shard_map().shard_count() <= 1) return nullptr;
  std::call_once(pool_once_, [&] {
    pool_ = std::make_unique<ThreadPool>(
        std::min(lanes, db_->shard_map().shard_count()));
  });
  return pool_.get();
}

bool BackgroundAuditor::AuditSlice() {
  const ShardMap& shards = db_->shard_map();
  const size_t n = shards.shard_count();
  const uint64_t arena = db_->arena_size();
  const uint64_t region = db_->options().protection.region_size;
  // The per-round budget is split across the shards, each advancing its
  // own cursor, so a round costs the same as before sharding but the whole
  // arena is covered in 1/n as many rounds.
  uint64_t slice = std::max<uint64_t>(options_.slice_bytes / n, region);
  slice = slice / region * region;

  struct Span {
    uint64_t off = 0;
    uint64_t len = 0;
    uint64_t cursor_after = 0;  ///< In-shard cursor once this slice lands.
    bool completes_pass = false;
  };
  std::vector<Span> spans(n);
  Lsn sweep_begin_lsn = 0;
  bool wrapped = false;
  Tracer* tracer = db_->metrics()->tracer();
  SpanContext sweep_ctx;
  uint64_t sweep_root = 0;
  uint64_t sweep_t0 = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (cursors_.size() != n) cursors_.assign(n, 0);
    bool fresh = std::all_of(cursors_.begin(), cursors_.end(),
                             [](uint64_t c) { return c == 0; });
    if (fresh) {
      // Starting a sweep: record where the log stood (§3.2 — a clean full
      // sweep certifies data as of its beginning; this becomes Audit_SN).
      sweep_start_lsn_ = db_->log()->CurrentLsn();
      tracer->Event(SpanKind::kAuditPassBegin, sweep_start_lsn_);
      // Every sweep gets a (forced) trace: rare and each one interesting.
      sweep_ctx_ = tracer->StartForcedTrace(&sweep_root_span_);
      sweep_start_ns_ = NowNs();
    }
    wrapped = true;
    for (size_t s = 0; s < n; ++s) {
      uint64_t shard_len = shards.ShardLen(s);
      if (cursors_[s] < shard_len) {
        uint64_t take = std::min(slice, shard_len - cursors_[s]);
        spans[s].off = shards.ShardStart(s) + cursors_[s];
        spans[s].len = take;
        cursors_[s] += take;
        spans[s].cursor_after = cursors_[s];
        spans[s].completes_pass = cursors_[s] >= shard_len;
      }
      if (cursors_[s] < shard_len) wrapped = false;
    }
    if (wrapped) std::fill(cursors_.begin(), cursors_.end(), 0);
    sweep_begin_lsn = sweep_start_lsn_;
    sweep_ctx = sweep_ctx_;
    sweep_root = sweep_root_span_;
    sweep_t0 = sweep_start_ns_;
  }
  const uint64_t slice_t0 = NowNs();

  std::vector<CorruptRange> corrupt;
  bool bad = false;
  std::mutex merge_mu;
  auto audit_shard = [&](size_t s) {
    if (spans[s].len == 0) return;
    std::vector<CorruptRange> local;
    Status st = n == 1 && options_.threads != 1
                    ? db_->protection()->AuditRangeParallel(
                          spans[s].off, spans[s].len, options_.threads,
                          &local)
                    : db_->protection()->AuditRange(spans[s].off,
                                                    spans[s].len, &local);
    char name[40];
    std::snprintf(name, sizeof(name), "audit.shard%zu.slices", s);
    db_->metrics()->counter(name)->Add();
    if (st.IsCorruption()) {
      std::lock_guard<std::mutex> guard(merge_mu);
      bad = true;
      corrupt.insert(corrupt.end(), local.begin(), local.end());
    }
  };
  ThreadPool* pool = shard_pool();
  if (pool != nullptr) {
    pool->ParallelFor(n, pool->concurrency(), [&](uint64_t b, uint64_t e) {
      for (uint64_t s = b; s < e; ++s) audit_shard(s);
    });
  } else {
    for (size_t s = 0; s < n; ++s) audit_shard(s);
  }
  slices_.fetch_add(1);
  db_->metrics()->counter("auditor.slices")->Add();
  if (!bad) {
    // Publish sweep progress into the coverage map: cursor position per
    // slice; pass completion certifies the shard as of the sweep's begin
    // LSN. A bad round publishes nothing — corrupt data certifies nothing.
    ScrubMap* scrub = db_->scrub();
    if (scrub != nullptr) {
      for (size_t s = 0; s < n; ++s) {
        if (spans[s].len == 0) continue;
        scrub->NoteSlice(s, spans[s].cursor_after, sweep_begin_lsn);
        if (spans[s].completes_pass)
          scrub->NotePassComplete(s, sweep_begin_lsn);
      }
    }
  }
  uint64_t round_bytes = 0;
  for (const Span& sp : spans) round_bytes += sp.len;
  tracer->Record(sweep_ctx, SpanKind::kAuditSlice, slice_t0, NowNs(),
                 round_bytes, n);
  if (wrapped) {
    tracer->RecordWithId(sweep_ctx.Under(0), sweep_root,
                         SpanKind::kAuditSweep, sweep_t0, NowNs(),
                         sweep_begin_lsn, bad ? 1 : 0);
  }

  if (bad) {
    // Shard lanes finish out of order; the callback contract is ascending.
    std::sort(corrupt.begin(), corrupt.end(),
              [](const CorruptRange& a, const CorruptRange& b) {
                return a.off < b.off;
              });
    // The codewords located the damage; before escalating to the fatal
    // path, try the error-correcting tier. A full in-place repair means
    // the arena is clean again: no corruption note, no callback, and the
    // auditor keeps sweeping. The round still publishes nothing into the
    // coverage map — the slice observed corrupt data, so it certifies
    // nothing; the next pass over these regions does.
    std::vector<CorruptRange> unrepaired;
    if (db_->TryRepairRanges(corrupt, IncidentSource::kAudit, &unrepaired)) {
      db_->metrics()->counter("auditor.repaired_rounds")->Add();
      return false;
    }
    if (!unrepaired.empty()) corrupt = std::move(unrepaired);
    corruption_seen_.store(true);
    AuditReport report;
    report.clean = false;
    report.audit_lsn = sweep_begin_lsn;
    report.ranges = std::move(corrupt);
    // Make the detection durable before telling anyone (§4.3: "we simply
    // note the region(s) failing the audit, and cause the database to
    // crash" — the callback decides how to "crash").
    (void)db_->ReportCorruption(report.ranges);
    if (on_corruption_) on_corruption_(report);
    cv_.notify_all();
    return true;
  }
  if (wrapped) {
    // A complete sweep came back clean: data as of the sweep's start is
    // certified. Advance the durable Audit_SN.
    (void)db_->RecordCleanAudit(sweep_begin_lsn);
    db_->metrics()->counter("audit.background_sweeps")->Add();
    db_->metrics()->counter("auditor.sweeps_completed")->Add();
    db_->metrics()
        ->histogram("auditor.sweep_duration_ns")
        ->Record(NowNs() - sweep_t0);
    tracer->Event(SpanKind::kAuditPassEnd, sweep_begin_lsn, arena / region);
    sweeps_completed_.fetch_add(1);
    cv_.notify_all();
  }
  return false;
}

void BackgroundAuditor::Loop() {
  pthread_setname_np(pthread_self(), "cwdb-audit");
  std::unique_lock<std::mutex> guard(mu_);
  while (!stop_) {
    guard.unlock();
    bool corrupt = AuditSlice();
    guard.lock();
    if (corrupt) {
      // Stay alive but idle: the user decides how to recover.
      cv_.wait(guard, [this] { return stop_; });
      break;
    }
    cv_.wait_for(guard, options_.interval, [this] { return stop_; });
  }
}

}  // namespace cwdb
