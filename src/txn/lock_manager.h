#ifndef CWDB_TXN_LOCK_MANAGER_H_
#define CWDB_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/layout.h"

namespace cwdb {

/// Lockable unit: a record (table, slot), a whole table (slot ==
/// kInvalidSlot), or the table directory (table == kMaxTables).
struct LockId {
  TableId table = 0;
  uint32_t slot = kInvalidSlot;

  static LockId Record(TableId t, uint32_t s) { return LockId{t, s}; }
  static LockId Table(TableId t) { return LockId{t, kInvalidSlot}; }
  static LockId Directory() { return LockId{kMaxTables, kInvalidSlot}; }

  auto operator<=>(const LockId&) const = default;
};

enum class LockMode : uint8_t { kShared, kExclusive };

/// Two-level lock manager for the Dalí-style transaction model:
///  * Transaction-duration record locks (strict 2PL) — released only by
///    ReleaseAll at commit/abort.
///  * Operation-duration locks (the "lower level locks" of multi-level
///    recovery, §2.1) — released explicitly when the operation commits.
///
/// The lock table is sharded: lock ids hash onto `shards` independent
/// segments, each with its own mutex, condition variable, lock table and
/// per-transaction held-lock lists — so transactions touching disjoint
/// data never contend on lock-manager state, and ReleaseAll walks only the
/// locks the transaction actually holds instead of the whole table. A
/// segment's table is open-addressed (linear probing, backward-shift
/// delete); it doubles when it passes half full and halves below an
/// eighth, so one acquire or release costs the same however many locks
/// are held, and nothing is allocated per lock once warm.
///
/// Deadlock detection stays global and *precise*: a single waits-for map
/// (guarded by its own mutex, always acquired after a segment mutex, never
/// before) records, for each waiting transaction, the snapshot of holders
/// blocking it. The snapshot is kept exact by three maintenance rules:
///  * a waiter (re)records its blockers under the segment mutex each time
///    it is about to sleep;
///  * a grant on a lock with waiters adds the grantee to the blocker set
///    of every conflicting waiter (closing the shared-grant-while-waiting
///    hole: no release, hence no wakeup, would otherwise refresh them);
///  * a release on a lock with waiters removes the releasing transaction
///    from those waiters' blocker sets (so no stale edge survives to
///    manufacture a false cycle).
/// The cycle search therefore never needs a segment mutex — it walks only
/// the waits-for map. The *requesting* transaction is the victim and gets
/// kDeadlock.
class LockManager {
 public:
  /// `shards` = number of lock-table segments (rounded up to a power of
  /// two, minimum 1). The default matches the engine's one-segment
  /// pre-sharding behavior; the Database passes its shard count.
  explicit LockManager(size_t shards = 1);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Points the wait instruments at `reg` (TxnManager calls this once at
  /// construction, before any Acquire can run). Without it the manager
  /// simply does not report waits.
  void BindMetrics(MetricsRegistry* reg);

  /// Blocks until granted or deadlock. Re-entrant: a transaction already
  /// holding the lock in a mode >= `mode` is granted immediately; a shared
  /// holder requesting exclusive is upgraded when possible.
  Status Acquire(TxnId txn, LockId id, LockMode mode);

  /// Releases one lock (operation-duration locks at operation commit).
  void Release(TxnId txn, LockId id);

  /// Releases every lock held by `txn` (transaction commit/abort).
  void ReleaseAll(TxnId txn);

  /// True if `txn` currently holds `id` in at least `mode`.
  bool Holds(TxnId txn, LockId id, LockMode mode) const;

  /// Number of distinct lock ids with any holder (tests).
  size_t LockedCount() const;

  /// Drops all lock state (crash simulation: lock tables are volatile).
  void Clear();

  size_t shard_count() const { return segments_.size(); }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  /// One lock-table slot. A used slot holds one lock id with at least one
  /// holder or waiter. Exclusive implies a single holder (except during
  /// upgrade, where the upgrader is also a shared holder). The first two
  /// holders live inline; only wider shared holds spill into `more`.
  struct Entry {
    LockId id;
    uint32_t waiters = 0;
    uint16_t nholders = 0;
    bool used = false;
    Holder inline_holders[2];
    std::unique_ptr<std::vector<Holder>> more;

    Holder& holder(uint32_t i) {
      return i < 2 ? inline_holders[i] : (*more)[i - 2];
    }
    const Holder& holder(uint32_t i) const {
      return i < 2 ? inline_holders[i] : (*more)[i - 2];
    }
    Holder* Find(TxnId txn);
    const Holder* Find(TxnId txn) const {
      return const_cast<Entry*>(this)->Find(txn);
    }
    void Add(Holder h);
    void Remove(TxnId txn);
  };

  /// The lock ids one transaction holds in one segment.
  struct Held {
    TxnId txn;
    std::vector<LockId> ids;
  };

  /// One lock-table segment. Padded so neighboring segments' mutexes do
  /// not share a cache line.
  struct alignas(64) Segment {
    static constexpr size_t kNotFound = ~size_t{0};

    mutable std::mutex mu;
    std::condition_variable cv;
    /// Open-addressed lock table; its size is a power of two.
    std::vector<Entry> slots;
    size_t used = 0;
    /// One list per transaction holding a lock here, so ReleaseAll is
    /// O(locks held), not O(locks in the table). Emptied id vectors go to
    /// `spare` for the next transaction.
    std::vector<Held> held;
    std::vector<std::vector<LockId>> spare;
    Counter* waits = nullptr;  ///< Per-segment wait counter.
    Gauge* slot_count = nullptr;  ///< Shared `txn.lock_table_slots`.

    Segment();
    /// The slot holding `id`, or the empty slot that ends its probe chain.
    size_t Probe(LockId id) const;
    size_t Find(LockId id) const;
    size_t FindOrInsert(LockId id);
    /// Frees slot `i` and shifts its probe chain back; may shrink the
    /// table, so every slot index is stale afterwards.
    void Erase(size_t i);
    /// Rehashes every entry with a holder or waiter into a table of
    /// `capacity` slots (a power of two).
    void Rebuild(size_t capacity);
    std::vector<LockId>& HeldFor(TxnId txn);
    size_t HeldIndex(TxnId txn) const;
    void DropHeld(size_t h);
  };

  /// A waiting transaction's edge set in the waits-for graph.
  struct Waiter {
    LockId id;
    LockMode mode;
    std::vector<TxnId> blockers;
  };

  Segment& SegmentFor(LockId id);
  const Segment& SegmentFor(LockId id) const;

  static bool Compatible(const Entry& e, TxnId txn, LockMode mode);
  /// Conflicting holders of `e` from `txn`'s point of view.
  static std::vector<TxnId> ConflictingHolders(const Entry& e, TxnId txn,
                                               LockMode mode);
  /// True if `txn`, blocked by `blockers`, transitively waits for itself.
  /// wf_mu_ held by the caller.
  bool CycleFrom(TxnId txn, const std::vector<TxnId>& blockers) const;

  std::vector<std::unique_ptr<Segment>> segments_;
  size_t segment_mask_;

  /// Global waits-for graph. Lock order: segment.mu before wf_mu_; never
  /// take a segment mutex while holding wf_mu_.
  mutable std::mutex wf_mu_;
  std::map<TxnId, Waiter> waiting_;

  Counter* lock_waits_ = nullptr;
  Counter* deadlocks_ = nullptr;
  Histogram* lock_wait_ns_ = nullptr;
};

}  // namespace cwdb

#endif  // CWDB_TXN_LOCK_MANAGER_H_
