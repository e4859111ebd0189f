#include "protect/codeword_protection.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/forensics.h"

// The optimistic (seqlock-validated) read path races plain image loads
// against concurrent updaters by design; the epoch check discards every
// torn result. ThreadSanitizer has no way to see that reasoning, so the
// optimistic path is compiled out under TSan and prechecks always take the
// protection latch there.
#if defined(__SANITIZE_THREAD__)
#define CWDB_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CWDB_TSAN_ENABLED 1
#endif
#endif
#ifndef CWDB_TSAN_ENABLED
#define CWDB_TSAN_ENABLED 0
#endif

namespace cwdb {

namespace {

/// Optimistic verify attempts before giving up and taking the latch.
constexpr int kValidatedReadAttempts = 4;

}  // namespace

CodewordProtection::CodewordProtection(const ProtectionOptions& options,
                                       DbImage* image,
                                       MetricsRegistry* metrics)
    : ProtectionManager(options, image, metrics),
      exclusive_updates_(options.PrechecksReads()),
      region_shift_(std::countr_zero(options.region_size)),
      shard_map_(image->size(), options.shards,
                 std::max<uint64_t>(options.shard_align, options.region_size)) {
  size_t n = shard_map_.shard_count();
  stripes_per_shard_ =
      std::bit_floor(std::max<size_t>(1, options.latch_stripes / n));
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto sh = std::make_unique<Shard>(shard_map_.ShardStart(s),
                                      shard_map_.ShardLen(s),
                                      options.region_size, stripes_per_shard_);
    char name[48];
    std::snprintf(name, sizeof(name), "protect.shard%zu.updates", s);
    sh->updates = metrics_->counter(name);
    std::snprintf(name, sizeof(name), "protect.shard%zu.prechecks", s);
    sh->prechecks = metrics_->counter(name);
    shards_.push_back(std::move(sh));
  }
  validated_reads_ = metrics_->counter("protect.validated_reads");
  validated_fallbacks_ = metrics_->counter("protect.validated_fallbacks");
  if (options.parity_group_regions >= 2) {
    parity_ = std::make_unique<ParityTier>(shard_map_, options.region_size,
                                           options.parity_group_regions);
  }
}

Result<std::unique_ptr<ProtectionManager>> CodewordProtection::Create(
    const ProtectionOptions& options, DbImage* image,
    MetricsRegistry* metrics) {
  if (options.region_size < 8 ||
      (options.region_size & (options.region_size - 1)) != 0) {
    return Status::InvalidArgument("region size must be a power of two >= 8");
  }
  if (image->size() % options.region_size != 0) {
    return Status::InvalidArgument("arena size not a multiple of region size");
  }
  if (options.shard_align != 0 &&
      (options.shard_align & (options.shard_align - 1)) != 0) {
    return Status::InvalidArgument("shard alignment must be a power of two");
  }
  std::unique_ptr<CodewordProtection> p(
      new CodewordProtection(options, image, metrics));
  p->RebuildAllShards();
  return std::unique_ptr<ProtectionManager>(std::move(p));
}

void CodewordProtection::RebuildAllShards() {
  // Each shard's table covers a disjoint slice; the pool (when any)
  // partitions within a shard, so lanes still write disjoint slots.
  ThreadPool* pool = sweep_pool();
  for (auto& sh : shards_) {
    sh->codewords.RebuildAll(image_->base(), pool);
  }
  if (parity_ != nullptr) parity_->RebuildAll(image_->base());
}

uint64_t CodewordProtection::SpaceOverheadBytes() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->codewords.space_overhead_bytes();
  if (parity_ != nullptr) total += parity_->space_overhead_bytes();
  return total;
}

ThreadPool* CodewordProtection::sweep_pool() {
  size_t lanes = EffectiveConcurrency(options_.sweep_threads);
  if (lanes <= 1) return nullptr;
  std::call_once(sweep_pool_once_, [&] {
    sweep_pool_ = std::make_unique<ThreadPool>(lanes);
  });
  return sweep_pool_.get();
}

void CodewordProtection::StripesFor(DbPtr off, uint32_t len,
                                    std::vector<size_t>* stripes) const {
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + (len == 0 ? 0 : len - 1));
  stripes->clear();
  for (uint64_t r = first; r <= last; ++r) {
    stripes->push_back(StripeOfRegion(r));
  }
  std::sort(stripes->begin(), stripes->end());
  stripes->erase(std::unique(stripes->begin(), stripes->end()),
                 stripes->end());
}

Status CodewordProtection::BeginUpdate(DbPtr off, uint32_t len,
                                       UpdateHandle* h) {
  h->off = off;
  h->len = len;
  StripesFor(off, len, &h->stripes);
  for (size_t s : h->stripes) {
    if (exclusive_updates_) {
      ProtectionLatchAt(s).LockExclusive();
      // Odd epoch = update in flight: optimistic readers of this stripe
      // back off or retry (the latch alone is invisible to them).
      EpochAt(s).fetch_add(1, std::memory_order_release);
    } else {
      ProtectionLatchAt(s).LockShared();
    }
  }
  ins_.updates->Add();
  shards_[shard_map_.ShardOf(off)]->updates->Add();
  return Status::OK();
}

void CodewordProtection::EndUpdate(const UpdateHandle& h,
                                   const uint8_t* before) {
  // Codeword maintenance from the undo image and the current bytes
  // (paper §3.1). Under exclusive updates the protection latch already
  // serializes us; otherwise take the codeword latches for the brief fold.
  // Fold latency is sampled 1-in-64 so the clock reads stay off most
  // updates (a fold of a few hundred bytes costs about as much as one
  // clock call).
  thread_local uint32_t fold_sample = 0;
  const bool timed = (fold_sample++ & 63) == 0;
  const uint64_t t0 = timed ? NowNs() : 0;
  if (!exclusive_updates_) {
    for (size_t s : h.stripes) CodewordLatchAt(s).LockExclusive();
  }
  // A physical update may cross a shard boundary (spans are page/region
  // aligned, update ranges are not); fold each shard's slice into its own
  // table.
  DbPtr pos = h.off;
  const uint8_t* undo = before;
  uint32_t remaining = h.len;
  while (remaining > 0) {
    size_t s = shard_map_.ShardOf(pos);
    uint64_t shard_end = shard_map_.ShardStart(s) + shard_map_.ShardLen(s);
    uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(remaining, shard_end - pos));
    shards_[s]->codewords.ApplyDelta(pos, undo, image_->At(pos), chunk);
    // The same delta feeds the parity column — the write path's entire
    // cost for the error-correcting tier is this one extra fold.
    if (parity_ != nullptr) {
      parity_->ApplyDelta(pos, undo, image_->At(pos), chunk);
    }
    pos += chunk;
    undo += chunk;
    remaining -= chunk;
  }
  ins_.codeword_folds->Add();
  if (timed) ins_.fold_latency_ns->Record(NowNs() - t0);
  if (!exclusive_updates_) {
    for (auto it = h.stripes.rbegin(); it != h.stripes.rend(); ++it) {
      CodewordLatchAt(*it).UnlockExclusive();
    }
  }
  for (auto it = h.stripes.rbegin(); it != h.stripes.rend(); ++it) {
    if (exclusive_updates_) {
      // Even epoch again — bytes and codeword are consistent from here on.
      EpochAt(*it).fetch_add(1, std::memory_order_release);
      ProtectionLatchAt(*it).UnlockExclusive();
    } else {
      ProtectionLatchAt(*it).UnlockShared();
    }
  }
}

void CodewordProtection::AbortUpdate(const UpdateHandle& h) {
  // The caller restored the undo image; the codeword still describes that
  // image (it is only advanced at EndUpdate), so just release latches.
  for (auto it = h.stripes.rbegin(); it != h.stripes.rend(); ++it) {
    if (exclusive_updates_) {
      EpochAt(*it).fetch_add(1, std::memory_order_release);
      ProtectionLatchAt(*it).UnlockExclusive();
    } else {
      ProtectionLatchAt(*it).UnlockShared();
    }
  }
}

bool CodewordProtection::RegionCleanForRead(uint64_t region) {
  size_t stripe = StripeOfRegion(region);
#if !CWDB_TSAN_ENABLED
  // Optimistic path: verify against the codeword with no latch, accept the
  // verdict only if the stripe's epoch was even (no updater) and unchanged
  // across the whole verify. A torn read can produce a bogus verdict, but
  // the epoch check then rejects it, so correctness never depends on the
  // racy loads.
  std::atomic<uint64_t>& epoch = EpochAt(stripe);
  for (int attempt = 0; attempt < kValidatedReadAttempts; ++attempt) {
    uint64_t e1 = epoch.load(std::memory_order_acquire);
    if ((e1 & 1) == 0) {
      bool ok = VerifyRegion(region);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (epoch.load(std::memory_order_relaxed) == e1) {
        validated_reads_->Add();
        return ok;
      }
    }
    std::this_thread::yield();
  }
  validated_fallbacks_->Add();
#endif
  ExclusiveGuard guard(ProtectionLatchAt(stripe));
  return VerifyRegion(region);
}

Status CodewordProtection::PrecheckRead(DbPtr off, uint32_t len) {
  if (!options_.PrechecksReads()) return Status::OK();
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + (len == 0 ? 0 : len - 1));
  thread_local uint32_t precheck_sample = 0;
  const bool timed = (precheck_sample++ & 63) == 0;
  const uint64_t t0 = timed ? NowNs() : 0;
  for (uint64_t r = first; r <= last; ++r) {
    ins_.prechecks->Add();
    shards_[ShardOfRegion(r)]->prechecks->Add();
    if (RegionCleanForRead(r)) continue;
    // Read-time detection (§3.1). Stamp the detection for latency
    // accounting and the flight recorder, then try to make the read
    // succeed anyway: reconstruct the region from its parity group and
    // re-verify. The dossier pair (detection + kRepair) is filed by
    // RepairWithForensics after the latches are released — the dossier's
    // codeword probe re-takes the failing region's latch.
    metrics_->NoteDetection(off, len);
    metrics_->tracer()->Event(SpanKind::kPrecheckFailed, 0, off, len,
                              ShardOfRegion(r));
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "read precheck refused read of [%" PRIu64
                  ",+%u); attempting parity repair",
                  static_cast<uint64_t>(off), len);
    std::vector<CorruptRange> ranges{
        CorruptRange{RegionStart(r), options_.region_size}};
    if (RepairWithForensics(IncidentSource::kReadPrecheck, /*lsn=*/0,
                            /*last_clean_audit_lsn=*/0, ranges, detail,
                            nullptr) &&
        RegionCleanForRead(r)) {
      continue;  // Repaired in place: the read proceeds transparently.
    }
    // Beyond the correction budget: the read is refused before corrupt
    // data can reach the transaction.
    ins_.precheck_failures->Add();
    if (timed) ins_.precheck_latency_ns->Record(NowNs() - t0);
    return Status::Corruption("read precheck failed: codeword mismatch");
  }
  if (timed) ins_.precheck_latency_ns->Record(NowNs() - t0);
  return Status::OK();
}

bool CodewordProtection::RegionCodewords(DbPtr off, codeword_t* stored,
                                         codeword_t* computed) {
  uint64_t region = RegionOf(off);
  ExclusiveGuard guard(ProtectionLatchAt(StripeOfRegion(region)));
  const CodewordTable& table = TableForRegion(region);
  *stored = table.Get(region);
  *computed = table.ComputeFromImage(image_->base(), region);
  return true;
}

void CodewordProtection::AuditSpan(uint64_t first, uint64_t last,
                                   std::vector<CorruptRange>* corrupt,
                                   SweepCounts* counts) {
  for (uint64_t r = first; r <= last; ++r) {
    // Exclusive protection latch per region: the paper's consistent
    // (region, codeword) snapshot for the audit (§3.2). Holding at most
    // one latch at a time keeps concurrent sweep lanes deadlock-free even
    // when striping maps their regions onto the same latch.
    ExclusiveGuard guard(ProtectionLatchAt(StripeOfRegion(r)));
    ++counts->audited;
    if (!VerifyRegion(r)) {
      ++counts->failures;
      corrupt->push_back(CorruptRange{RegionStart(r), options_.region_size});
    }
  }
}

Status CodewordProtection::AuditRegions(DbPtr off, uint64_t len, size_t width,
                                        std::vector<CorruptRange>* corrupt) {
  if (len == 0) return Status::OK();
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + len - 1);
  uint64_t n = last - first + 1;

  SweepCounts total;
  std::vector<CorruptRange> found;
  ThreadPool* pool = width > 1 ? sweep_pool() : nullptr;
  if (pool != nullptr && n > 1) {
    std::mutex merge_mu;
    pool->ParallelFor(n, width, [&](uint64_t begin, uint64_t end) {
      std::vector<CorruptRange> local;
      SweepCounts counts;
      AuditSpan(first + begin, first + end - 1, &local, &counts);
      std::lock_guard<std::mutex> guard(merge_mu);
      found.insert(found.end(), local.begin(), local.end());
      total.audited += counts.audited;
      total.failures += counts.failures;
    });
    // Lanes finish out of order; restore the sequential report order.
    std::sort(found.begin(), found.end(),
              [](const CorruptRange& a, const CorruptRange& b) {
                return a.off < b.off;
              });
  } else {
    AuditSpan(first, last, &found, &total);
  }
  // One merged stats update per sweep keeps the per-region loop free of
  // shared-counter traffic even though the instruments are atomic.
  ins_.regions_audited->Add(total.audited);
  ins_.audit_failures->Add(total.failures);
  if (corrupt != nullptr) {
    corrupt->insert(corrupt->end(), found.begin(), found.end());
  }
  if (total.failures != 0) {
    return Status::Corruption("audit found codeword mismatches");
  }
  return Status::OK();
}

Status CodewordProtection::AuditRange(DbPtr off, uint64_t len,
                                      std::vector<CorruptRange>* corrupt) {
  return AuditRegions(off, len, 1, corrupt);
}

Status CodewordProtection::AuditRangeParallel(
    DbPtr off, uint64_t len, size_t width,
    std::vector<CorruptRange>* corrupt) {
  return AuditRegions(off, len, EffectiveConcurrency(width), corrupt);
}

Status CodewordProtection::AuditAll(std::vector<CorruptRange>* corrupt) {
  return AuditRegions(0, image_->size(),
                      EffectiveConcurrency(options_.sweep_threads), corrupt);
}

Status CodewordProtection::ResetFromImage() {
  RebuildAllShards();
  return Status::OK();
}

Status CodewordProtection::RecomputeRegions(DbPtr off, uint64_t len) {
  if (len == 0) return Status::OK();
  uint64_t first = RegionOf(off);
  uint64_t last = RegionOf(off + len - 1);
  for (uint64_t r = first; r <= last; ++r) {
    size_t stripe = StripeOfRegion(r);
    ExclusiveGuard guard(ProtectionLatchAt(stripe));
    // Epoch bump: an optimistic reader must not validate against a
    // codeword this repair is in the middle of rewriting.
    if (exclusive_updates_) {
      EpochAt(stripe).fetch_add(1, std::memory_order_release);
    }
    CodewordTable& table = TableForRegion(r);
    table.Set(r, table.ComputeFromImage(image_->base(), r));
    if (exclusive_updates_) {
      EpochAt(stripe).fetch_add(1, std::memory_order_release);
    }
  }
  // The parity columns describe the same bytes the codewords do; an
  // out-of-band image write (cache recovery) invalidates both.
  if (parity_ != nullptr) parity_->RecomputeGroups(image_->base(), off, len);
  return Status::OK();
}

bool CodewordProtection::RepairRegionInPlace(uint64_t region,
                                             codeword_t* delta) {
  std::vector<uint64_t> members;
  parity_->GroupMembers(region, &members);
  // Every member's protection latch, exclusive, ascending global stripe
  // order (the update path's own discipline, so this composes with it).
  std::vector<size_t> stripes;
  stripes.reserve(members.size());
  for (uint64_t m : members) stripes.push_back(StripeOfRegion(m));
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  for (size_t s : stripes) ProtectionLatchAt(s).LockExclusive();

  bool ok = false;
  do {
    bool region_bad = false;
    uint64_t others_bad = 0;
    for (uint64_t m : members) {
      if (!VerifyRegion(m)) {
        if (m == region) {
          region_bad = true;
        } else {
          ++others_bad;
        }
      }
    }
    if (!region_bad && others_bad == 0) {
      // Raced with another repairer, or the flag was stale: already clean.
      *delta = 0;
      ok = true;
      break;
    }
    if (others_bad != 0) break;  // >= 2 corrupt regions: budget exceeded.
    std::vector<uint8_t> recon(options_.region_size);
    parity_->ReconstructRegion(image_->base(), region, recon.data());
    CodewordTable& table = TableForRegion(region);
    const codeword_t stored = table.Get(region);
    if (CodewordCompute(recon.data(), options_.region_size) != stored) {
      // The reconstruction fails the locator: the parity column itself is
      // damaged (or a second, codeword-canceling corruption hides in the
      // group). Fall back rather than write unverified bytes.
      break;
    }
    const codeword_t computed = table.ComputeFromImage(image_->base(), region);
    const size_t stripe = StripeOfRegion(region);
    if (exclusive_updates_) {
      // Odd epoch while the bytes are in flux, exactly like an update
      // window, so optimistic prechecks discard what they saw.
      EpochAt(stripe).fetch_add(1, std::memory_order_release);
    }
    std::memcpy(image_->base() + RegionStart(region), recon.data(),
                options_.region_size);
    if (exclusive_updates_) {
      EpochAt(stripe).fetch_add(1, std::memory_order_release);
    }
    // The stored codeword and the parity column both already describe the
    // restored bytes — neither needs a write. The image does: the repair
    // must reach the next checkpoint.
    image_->MarkDirty(RegionStart(region), options_.region_size);
    *delta = computed ^ stored;
    ok = true;
  } while (false);

  for (auto it = stripes.rbegin(); it != stripes.rend(); ++it) {
    ProtectionLatchAt(*it).UnlockExclusive();
  }
  return ok;
}

Status CodewordProtection::TryRepair(const std::vector<CorruptRange>& ranges,
                                     RepairOutcome* outcome) {
  if (parity_ == nullptr) {
    outcome->unrepaired = ranges;
    return Status::OK();
  }
  // A repair writes image bytes, so it must order against the
  // checkpointer's copy phase like any prescribed update window does.
  Latch* ck = repair_hooks_.checkpoint_latch;
  if (ck != nullptr) ck->LockShared();
  std::vector<uint64_t> regions;
  for (const CorruptRange& range : ranges) {
    if (range.len == 0) continue;
    uint64_t first = RegionOf(range.off);
    uint64_t last = RegionOf(range.off + range.len - 1);
    for (uint64_t r = first; r <= last; ++r) regions.push_back(r);
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  for (uint64_t r : regions) {
    codeword_t delta = 0;
    if (RepairRegionInPlace(r, &delta)) {
      outcome->repaired.push_back(
          CorruptRange{RegionStart(r), options_.region_size});
      outcome->repair_deltas.push_back(delta);
    } else {
      outcome->unrepaired.push_back(
          CorruptRange{RegionStart(r), options_.region_size});
    }
  }
  if (ck != nullptr) ck->UnlockShared();
  return Status::OK();
}

bool CodewordProtection::SnapshotSidecar(uint64_t ck_end, std::string* blob) {
  if (parity_ == nullptr) return false;
  ParitySidecar s;
  s.ck_end = ck_end;
  s.arena_size = image_->size();
  s.region_size = options_.region_size;
  s.group_regions = parity_->group_regions();
  for (size_t i = 0; i < shard_map_.shard_count(); ++i) {
    s.shards.emplace_back(shard_map_.ShardStart(i), shard_map_.ShardLen(i));
  }
  const uint64_t region_count = image_->size() >> region_shift_;
  s.codewords.resize(region_count);
  for (uint64_t r = 0; r < region_count; ++r) {
    s.codewords[r] = TableForRegion(r).Get(r);
  }
  parity_->AppendColumns(&s.columns);
  *blob = EncodeParitySidecar(s);
  return true;
}

}  // namespace cwdb
