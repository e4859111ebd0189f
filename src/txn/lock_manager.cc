#include "txn/lock_manager.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <utility>

#include "common/logging.h"
#include "obs/tracer.h"

namespace cwdb {

namespace {

/// Slots of an empty segment table (and the floor of every shrink).
constexpr size_t kMinSlots = 64;
/// Emptied held-id vectors up to this capacity are kept for reuse; a load
/// transaction's larger one is freed.
constexpr size_t kMaxSpareIds = 1024;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t PackId(LockId id) {
  return (static_cast<uint64_t>(id.table) << 32) | id.slot;
}

/// Home slot hash: the murmur3 finalizer, whose low bits are independent
/// of the multiplicative hash's bits 32+ that pick the segment. Reusing
/// those bits would crowd a segment's keys into a fraction of its slots.
uint64_t SlotHash(LockId id) {
  uint64_t k = PackId(id);
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

LockManager::Holder* LockManager::Entry::Find(TxnId txn) {
  for (uint32_t i = 0; i < nholders; ++i) {
    if (holder(i).txn == txn) return &holder(i);
  }
  return nullptr;
}

void LockManager::Entry::Add(Holder h) {
  if (nholders < 2) {
    inline_holders[nholders] = h;
  } else {
    CWDB_CHECK(nholders < UINT16_MAX) << "too many holders of one lock";
    if (more == nullptr) more = std::make_unique<std::vector<Holder>>();
    more->push_back(h);
  }
  ++nholders;
}

void LockManager::Entry::Remove(TxnId txn) {
  Holder* h = Find(txn);
  if (h == nullptr) return;
  *h = holder(nholders - 1);
  if (nholders > 2) more->pop_back();
  --nholders;
}

LockManager::Segment::Segment() : slots(kMinSlots) {}

size_t LockManager::Segment::Probe(LockId id) const {
  const size_t mask = slots.size() - 1;
  size_t i = SlotHash(id) & mask;
  while (slots[i].used && !(slots[i].id == id)) i = (i + 1) & mask;
  return i;
}

size_t LockManager::Segment::Find(LockId id) const {
  size_t i = Probe(id);
  return slots[i].used ? i : kNotFound;
}

size_t LockManager::Segment::FindOrInsert(LockId id) {
  if (2 * (used + 1) > slots.size()) Rebuild(2 * slots.size());
  size_t i = Probe(id);
  if (!slots[i].used) {
    slots[i].used = true;
    slots[i].id = id;
    ++used;
  }
  return i;
}

void LockManager::Segment::Erase(size_t i) {
  const size_t mask = slots.size() - 1;
  // Backward shift: walk the probe chain after the hole and move back every
  // entry whose home slot does not lie cyclically in (hole, j], so no later
  // lookup meets a gap before its entry.
  for (size_t j = (i + 1) & mask; slots[j].used; j = (j + 1) & mask) {
    size_t home = SlotHash(slots[j].id) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots[i] = std::move(slots[j]);
      i = j;
    }
  }
  slots[i] = Entry();
  --used;
  if (slots.size() > kMinSlots && 8 * used < slots.size()) {
    Rebuild(slots.size() / 2);
  }
}

void LockManager::Segment::Rebuild(size_t capacity) {
  std::vector<Entry> old = std::exchange(slots, std::vector<Entry>(capacity));
  if (slot_count != nullptr) {
    slot_count->Add(static_cast<int64_t>(slots.size()) -
                    static_cast<int64_t>(old.size()));
  }
  used = 0;
  for (Entry& e : old) {
    if (!e.used || (e.nholders == 0 && e.waiters == 0)) continue;
    slots[Probe(e.id)] = std::move(e);
    ++used;
  }
}

size_t LockManager::Segment::HeldIndex(TxnId txn) const {
  for (size_t h = 0; h < held.size(); ++h) {
    if (held[h].txn == txn) return h;
  }
  return kNotFound;
}

std::vector<LockId>& LockManager::Segment::HeldFor(TxnId txn) {
  size_t h = HeldIndex(txn);
  if (h != kNotFound) return held[h].ids;
  held.push_back(Held{txn, {}});
  if (!spare.empty()) {
    held.back().ids = std::move(spare.back());
    spare.pop_back();
  }
  return held.back().ids;
}

void LockManager::Segment::DropHeld(size_t h) {
  std::vector<LockId>& ids = held[h].ids;
  if (ids.capacity() <= kMaxSpareIds) {
    ids.clear();
    spare.push_back(std::move(ids));
  }
  held[h] = std::move(held.back());
  held.pop_back();
}

LockManager::LockManager(size_t shards) {
  size_t n = NextPow2(std::max<size_t>(shards, 1));
  segments_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    segments_.push_back(std::make_unique<Segment>());
  }
  segment_mask_ = n - 1;
}

void LockManager::BindMetrics(MetricsRegistry* reg) {
  lock_waits_ = reg->counter("txn.lock_waits");
  deadlocks_ = reg->counter("txn.deadlocks");
  lock_wait_ns_ = reg->histogram("txn.lock_wait_ns");
  Gauge* slot_count = reg->gauge("txn.lock_table_slots");
  for (size_t i = 0; i < segments_.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "txn.lockshard%zu.waits", i);
    Segment& seg = *segments_[i];
    seg.waits = reg->counter(name);
    seg.slot_count = slot_count;
    slot_count->Add(static_cast<int64_t>(seg.slots.size()));
  }
}

LockManager::Segment& LockManager::SegmentFor(LockId id) {
  size_t s = static_cast<size_t>((PackId(id) * 0x9E3779B97F4A7C15ull) >> 32) &
             segment_mask_;
  return *segments_[s];
}

const LockManager::Segment& LockManager::SegmentFor(LockId id) const {
  return const_cast<LockManager*>(this)->SegmentFor(id);
}

bool LockManager::Compatible(const Entry& e, TxnId txn, LockMode mode) {
  for (uint32_t i = 0; i < e.nholders; ++i) {
    const Holder& h = e.holder(i);
    if (h.txn == txn) continue;  // Own holdings never conflict.
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

std::vector<TxnId> LockManager::ConflictingHolders(const Entry& e, TxnId txn,
                                                   LockMode mode) {
  std::vector<TxnId> out;
  for (uint32_t i = 0; i < e.nholders; ++i) {
    const Holder& h = e.holder(i);
    if (h.txn == txn) continue;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      out.push_back(h.txn);
    }
  }
  return out;
}

bool LockManager::CycleFrom(TxnId txn,
                            const std::vector<TxnId>& blockers) const {
  // DFS over the waits-for map only: every edge set was snapshotted under
  // the blocker's segment mutex and is kept exact by the grant/release
  // maintenance rules, so no segment mutex is needed here (and none may be
  // taken: wf_mu_ is ordered after the segment mutexes).
  std::vector<TxnId> frontier(blockers);
  std::set<TxnId> visited;
  while (!frontier.empty()) {
    TxnId t = frontier.back();
    frontier.pop_back();
    if (t == txn) return true;
    if (!visited.insert(t).second) continue;
    auto wit = waiting_.find(t);
    if (wit == waiting_.end()) continue;  // Running: no outgoing edges.
    frontier.insert(frontier.end(), wit->second.blockers.begin(),
                    wit->second.blockers.end());
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, LockId id, LockMode mode) {
  Segment& seg = SegmentFor(id);
  std::unique_lock<std::mutex> guard(seg.mu);
  size_t slot = seg.FindOrInsert(id);
  if (const Holder* self = seg.slots[slot].Find(txn)) {
    if (self->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // Already held strongly enough.
    }
    // Upgrade request falls through to the wait loop below.
  }
  // First conflicting probe counts as one wait; the histogram covers the
  // whole blocked span, however many wakeups it takes.
  uint64_t wait_start = 0;
  while (!Compatible(seg.slots[slot], txn, mode)) {
    std::vector<TxnId> blockers =
        ConflictingHolders(seg.slots[slot], txn, mode);
    {
      std::lock_guard<std::mutex> wf(wf_mu_);
      if (CycleFrom(txn, blockers)) {
        if (deadlocks_ != nullptr) deadlocks_->Add();
        return Status::Deadlock("waits-for cycle acquiring lock");
      }
      waiting_[txn] = Waiter{id, mode, std::move(blockers)};
    }
    if (wait_start == 0) {
      wait_start = NowNs();
      if (lock_waits_ != nullptr) lock_waits_->Add();
      if (seg.waits != nullptr) seg.waits->Add();
    }
    ++seg.slots[slot].waiters;
    seg.cv.wait(guard);
    // Other transactions' inserts and erases move entries while this one
    // sleeps; the entry itself survives, since its waiter count is nonzero.
    slot = seg.Find(id);
    --seg.slots[slot].waiters;
    {
      std::lock_guard<std::mutex> wf(wf_mu_);
      waiting_.erase(txn);
    }
  }
  if (wait_start != 0) {
    if (lock_wait_ns_ != nullptr) lock_wait_ns_->Record(NowNs() - wait_start);
    // Acquire takes a TxnId, not a Transaction*, so a sampled caller leaves
    // its context in TLS (table_ops::AcquireLock) for the blocked span.
    SpanContext ctx = Tracer::Current();
    if (ctx.sampled()) {
      ctx.tracer->Record(ctx, SpanKind::kLockWait, wait_start, NowNs(),
                         id.table, id.slot);
    }
  }
  Entry& e = seg.slots[slot];
  if (Holder* self = e.Find(txn)) {
    self->mode = mode;  // Upgrade: the id is already on the held list.
  } else {
    e.Add(Holder{txn, mode});
    seg.HeldFor(txn).push_back(id);
  }
  if (e.waiters > 0) {
    // Granting past sleeping waiters (a shared grant on a lock with an
    // exclusive waiter): no release will wake them to refresh their edge
    // sets, so add the new edge here or a cycle through this grant would
    // go unseen until the waiters' next wakeup.
    std::lock_guard<std::mutex> wf(wf_mu_);
    for (auto& [t, w] : waiting_) {
      if (t == txn || !(w.id == id)) continue;
      if (w.mode == LockMode::kExclusive || mode == LockMode::kExclusive) {
        w.blockers.push_back(txn);
      }
    }
  }
  return Status::OK();
}

void LockManager::Release(TxnId txn, LockId id) {
  Segment& seg = SegmentFor(id);
  std::lock_guard<std::mutex> guard(seg.mu);
  size_t slot = seg.Find(id);
  if (slot == Segment::kNotFound) return;
  Entry& e = seg.slots[slot];
  e.Remove(txn);
  size_t h = seg.HeldIndex(txn);
  if (h != Segment::kNotFound) {
    // Operation-duration locks are the newest on the list: search from
    // the back.
    std::vector<LockId>& ids = seg.held[h].ids;
    for (size_t k = ids.size(); k-- > 0;) {
      if (ids[k] == id) {
        ids[k] = ids.back();
        ids.pop_back();
        break;
      }
    }
    if (ids.empty()) seg.DropHeld(h);
  }
  bool had_waiters = e.waiters > 0;
  if (had_waiters) {
    // Drop this transaction from the blocker sets of the lock's waiters:
    // they will re-snapshot when they wake, but until then a stale edge
    // could fabricate a cycle for some third requester.
    std::lock_guard<std::mutex> wf(wf_mu_);
    for (auto& [t, w] : waiting_) {
      if (!(w.id == id)) continue;
      w.blockers.erase(std::remove(w.blockers.begin(), w.blockers.end(), txn),
                       w.blockers.end());
    }
    seg.cv.notify_all();
  } else if (e.nholders == 0) {
    seg.Erase(slot);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  for (auto& segp : segments_) {
    Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    size_t h = seg.HeldIndex(txn);
    if (h == Segment::kNotFound) continue;
    bool any_waiters = false;
    for (LockId id : seg.held[h].ids) {
      size_t slot = seg.Find(id);
      if (slot == Segment::kNotFound) continue;
      Entry& e = seg.slots[slot];
      e.Remove(txn);
      if (e.waiters > 0) {
        any_waiters = true;
      } else if (e.nholders == 0) {
        seg.Erase(slot);
      }
    }
    seg.DropHeld(h);
    if (any_waiters) {
      // `txn` is a blocker of a waiter only while it holds the waiter's
      // lock (the edge rules keep every set exact), and it now holds
      // nothing in this segment: dropping it from every waiter on this
      // segment's locks removes exactly the edges its releases ended.
      std::lock_guard<std::mutex> wf(wf_mu_);
      for (auto& [t, w] : waiting_) {
        if (&SegmentFor(w.id) != &seg) continue;
        w.blockers.erase(
            std::remove(w.blockers.begin(), w.blockers.end(), txn),
            w.blockers.end());
      }
      seg.cv.notify_all();
    }
  }
}

bool LockManager::Holds(TxnId txn, LockId id, LockMode mode) const {
  const Segment& seg = SegmentFor(id);
  std::lock_guard<std::mutex> guard(seg.mu);
  size_t slot = seg.Find(id);
  if (slot == Segment::kNotFound) return false;
  const Holder* h = seg.slots[slot].Find(txn);
  if (h == nullptr) return false;
  return mode == LockMode::kShared || h->mode == LockMode::kExclusive;
}

void LockManager::Clear() {
  for (auto& segp : segments_) {
    Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    // Drop every holder; entries still counting sleepers stay (a woken
    // waiter re-finds its entry) and the rest go with the rebuild.
    size_t waited = 0;
    for (Entry& e : seg.slots) {
      if (!e.used) continue;
      e.nholders = 0;
      e.more.reset();
      if (e.waiters > 0) ++waited;
    }
    seg.Rebuild(std::max(kMinSlots, NextPow2(4 * waited)));
    seg.held.clear();
    seg.cv.notify_all();
  }
  std::lock_guard<std::mutex> wf(wf_mu_);
  waiting_.clear();
}

size_t LockManager::LockedCount() const {
  size_t n = 0;
  for (const auto& segp : segments_) {
    const Segment& seg = *segp;
    std::lock_guard<std::mutex> guard(seg.mu);
    for (const Entry& e : seg.slots) {
      if (e.used && e.nholders > 0) ++n;
    }
  }
  return n;
}

}  // namespace cwdb
