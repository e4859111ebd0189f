// Concurrency tests for the sharded engine: ShardMap geometry, the
// segmented lock manager (contention, upgrades, cross-segment deadlocks,
// hot-key convoys, lock-table growth and shrinking under sleepers), the
// one WAL tail under concurrent append/flush, and whole-database
// invariants for transactions that span shard boundaries —
// including atomicity across a crash and across injected commit-time I/O
// failures. These are the tests the CI TSan job runs to vet the
// memory-ordering arguments in DESIGN.md §10.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crashpoint.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/shard_map.h"
#include "tests/test_util.h"
#include "txn/lock_manager.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry.
// ---------------------------------------------------------------------------

TEST(ShardMap, EvenPartitionCoversArenaExactly) {
  const uint64_t align = 8192;
  ShardMap map(4ull << 20, 4, align);
  ASSERT_EQ(map.shard_count(), 4u);
  uint64_t covered = 0;
  for (size_t s = 0; s < map.shard_count(); ++s) {
    EXPECT_EQ(map.ShardStart(s), covered);
    EXPECT_EQ(map.ShardStart(s) % align, 0u) << "shard " << s;
    EXPECT_EQ(map.ShardLen(s) % align, 0u) << "shard " << s;
    covered += map.ShardLen(s);
  }
  EXPECT_EQ(covered, map.arena_size());
}

TEST(ShardMap, ShardOfAgreesWithRanges) {
  ShardMap map(10 * 8192, 4, 8192);  // Uneven: spans round up, last absorbs.
  uint64_t covered = 0;
  for (size_t s = 0; s < map.shard_count(); ++s) {
    covered += map.ShardLen(s);
  }
  ASSERT_EQ(covered, map.arena_size());
  // Every offset maps to the shard whose [start, start+len) contains it.
  for (uint64_t off = 0; off < map.arena_size(); off += 4096) {
    size_t s = map.ShardOf(off);
    EXPECT_GE(off, map.ShardStart(s)) << "off " << off;
    EXPECT_LT(off, map.ShardStart(s) + map.ShardLen(s)) << "off " << off;
  }
  EXPECT_EQ(map.ShardOf(map.arena_size() - 1), map.shard_count() - 1);
}

TEST(ShardMap, ClampsShardCountToAlignedSpans) {
  // A 2-span arena cannot host 8 shards; the count clamps so every shard
  // owns at least one aligned span.
  ShardMap map(2 * 8192, 8, 8192);
  EXPECT_EQ(map.shard_count(), 2u);
  EXPECT_EQ(map.ShardLen(0), 8192u);
  EXPECT_EQ(map.ShardLen(1), 8192u);
}

TEST(ShardMap, ZeroShardsMeansOne) {
  ShardMap map(1 << 20, 0, 4096);
  EXPECT_EQ(map.shard_count(), 1u);
  EXPECT_EQ(map.ShardLen(0), 1u << 20);
}

// ---------------------------------------------------------------------------
// Segmented lock manager.
// ---------------------------------------------------------------------------

TEST(ShardedLockManager, DisjointKeysAcrossSegmentsDoNotInterfere) {
  LockManager lm(8);
  EXPECT_EQ(lm.shard_count(), 8u);
  // Many transactions, each locking its own key: all grants immediate,
  // ReleaseAll finds exactly its own locks.
  for (TxnId t = 1; t <= 64; ++t) {
    ASSERT_OK(lm.Acquire(t, LockId::Record(1, static_cast<uint32_t>(t)),
                         LockMode::kExclusive));
  }
  EXPECT_EQ(lm.LockedCount(), 64u);
  for (TxnId t = 1; t <= 64; ++t) {
    EXPECT_TRUE(
        lm.Holds(t, LockId::Record(1, static_cast<uint32_t>(t)),
                 LockMode::kExclusive));
    lm.ReleaseAll(t);
  }
  EXPECT_EQ(lm.LockedCount(), 0u);
}

TEST(ShardedLockManager, UpgradeSharedToExclusive) {
  LockManager lm(4);
  ASSERT_OK(lm.Acquire(1, LockId::Record(1, 7), LockMode::kShared));
  ASSERT_OK(lm.Acquire(2, LockId::Record(1, 7), LockMode::kShared));
  // Txn 2 releases; txn 1 upgrades and then blocks out a new reader.
  lm.ReleaseAll(2);
  ASSERT_OK(lm.Acquire(1, LockId::Record(1, 7), LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, LockId::Record(1, 7), LockMode::kExclusive));
}

TEST(ShardedLockManager, CrossSegmentDeadlockIsDetected) {
  // Two locks that (very likely) live in different segments; a classic
  // ABBA deadlock must be caught by the global waits-for graph even
  // though each blocking edge forms under a different segment mutex.
  LockManager lm(8);
  LockId a = LockId::Record(1, 1);
  LockId b = LockId::Record(2, 100);
  ASSERT_OK(lm.Acquire(1, a, LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(2, b, LockMode::kExclusive));

  // The victim is whichever acquire closes the cycle: usually txn 1 below,
  // but if this thread parks on b before t2 probes a, the detector kills
  // txn 2 instead. Either way exactly one side must see kDeadlock and the
  // other must be granted — asserting a specific victim would race.
  Status second;
  std::atomic<bool> t2_done{false};
  std::thread t2([&] {
    second = lm.Acquire(2, a, LockMode::kExclusive);
    lm.ReleaseAll(2);
    t2_done.store(true, std::memory_order_release);
  });
  Status first;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    first = lm.Acquire(1, b, LockMode::kExclusive);
    if (!first.ok()) break;  // Txn 1 chosen as victim.
    lm.Release(1, b);
    // Granted can also mean txn 2 was killed and released b; once t2 has
    // finished no further cycle can form, so stop retrying.
    if (t2_done.load(std::memory_order_acquire)) break;
  }
  lm.ReleaseAll(1);  // If txn 1 was the victim, this unblocks t2.
  t2.join();
  EXPECT_NE(first.ok(), second.ok());
  if (!first.ok()) {
    EXPECT_TRUE(first.IsDeadlock()) << first.ToString();
  }
  if (!second.ok()) {
    EXPECT_TRUE(second.IsDeadlock()) << second.ToString();
  }
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Eight threads hammering one exclusive lock: no deadlock is possible on a
// single resource, so every acquire must eventually be granted — a convoy,
// not a cycle. Catches lost-wakeup and livelock bugs in the segment's
// wait/notify protocol.
TEST(ShardedLockManager, HotKeyConvoyMakesProgress) {
  LockManager lm(4);
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  LockId hot = LockId::Record(3, 42);
  std::atomic<uint64_t> counter{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        TxnId txn = static_cast<TxnId>(1 + i + r * kThreads);
        Status s = lm.Acquire(txn, hot, LockMode::kExclusive);
        ASSERT_TRUE(s.ok()) << s.ToString();
        counter.fetch_add(1, std::memory_order_relaxed);
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Seeded mixed-order workload over a small hot set: threads lock two keys
// in random order, so deadlocks do happen — each must resolve as a clean
// kDeadlock for the victim while every other participant makes progress.
TEST(ShardedLockManager, RandomHotSetDeadlocksResolve) {
  LockManager lm(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<uint64_t> commits{0}, victims{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Random rng(0xD15C0 + i);  // Seeded: reruns are reproducible.
      for (int r = 0; r < kRounds; ++r) {
        TxnId txn = static_cast<TxnId>(1 + i + r * kThreads);
        uint32_t k1 = rng.Uniform(4);
        uint32_t k2 = rng.Uniform(4);
        Status s = lm.Acquire(txn, LockId::Record(1, k1),
                              LockMode::kExclusive);
        if (s.ok() && k2 != k1) {
          s = lm.Acquire(txn, LockId::Record(1, k2), LockMode::kExclusive);
        }
        if (s.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(s.IsDeadlock()) << s.ToString();
          victims.fetch_add(1, std::memory_order_relaxed);
        }
        lm.ReleaseAll(txn);  // Commit and abort both end in ReleaseAll.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(commits.load() + victims.load(),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Lock-table structure: the open-addressed segment tables grow, shrink,
// move entries under sleeping waiters, and must keep every probe chain
// intact across backward-shift deletes.
// ---------------------------------------------------------------------------

// One transaction holding 200k record locks grows every segment's table;
// releasing them shrinks the tables back to where they started and leaves
// no lock behind for the next transaction.
TEST(LockTable, TwoHundredThousandLocksReleaseToEmptyAndShrink) {
  MetricsRegistry reg;
  LockManager lm(8);
  lm.BindMetrics(&reg);
  const Gauge* slots = reg.gauge("txn.lock_table_slots");
  const int64_t start = slots->Value();
  EXPECT_GT(start, 0);
  constexpr uint32_t kLocks = 200000;
  auto id_of = [](uint32_t i) {
    return LockId::Record(static_cast<TableId>(i % 4), i / 4);
  };
  for (uint32_t i = 0; i < kLocks; ++i) {
    ASSERT_OK(lm.Acquire(1, id_of(i), LockMode::kExclusive));
  }
  EXPECT_EQ(lm.LockedCount(), kLocks);
  // Every table stays at most half full.
  EXPECT_GE(slots->Value(), 2 * static_cast<int64_t>(kLocks));
  lm.ReleaseAll(1);
  ASSERT_EQ(lm.LockedCount(), 0u);  // A leftover lock would block txn 2.
  EXPECT_EQ(slots->Value(), start);
  for (uint32_t i = 0; i < kLocks; i += 997) {
    ASSERT_OK(lm.Acquire(2, id_of(i), LockMode::kExclusive));
    EXPECT_TRUE(lm.Holds(2, id_of(i), LockMode::kExclusive));
  }
  EXPECT_EQ(reg.counter("txn.lock_waits")->Value(), 0u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Seeded random Acquire (shared, exclusive, re-entrant, upgrade), Release
// and ReleaseAll over a few transactions, checked after every step against
// a map of who holds what. One segment and a few hundred ids keep probe
// chains long and the table growing and shrinking, so a chain broken by a
// backward-shift delete shows up as a lock Holds cannot find.
TEST(LockTable, RandomOpsMatchAMapOracle) {
  MetricsRegistry reg;
  LockManager lm(1);
  lm.BindMetrics(&reg);
  const Gauge* slots = reg.gauge("txn.lock_table_slots");
  const int64_t start = slots->Value();
  int64_t peak = start;
  constexpr TxnId kTxns = 4;
  constexpr uint32_t kIds = 300;
  auto id_of = [](uint32_t i) {
    return LockId::Record(static_cast<TableId>(i % 3), i * 7);
  };
  std::map<LockId, std::map<TxnId, LockMode>> oracle;
  Random rng(0x10CC7AB1E);
  for (int step = 0; step < 6000; ++step) {
    TxnId t = 1 + rng.Uniform(kTxns);
    uint32_t i = static_cast<uint32_t>(rng.Uniform(kIds));
    LockId id = id_of(i);
    uint64_t op = rng.Uniform(100);
    if (op < 70) {
      LockMode mode = rng.OneIn(3) ? LockMode::kExclusive : LockMode::kShared;
      bool grantable = true;
      for (const auto& [holder, held] : oracle[id]) {
        if (holder != t && (mode == LockMode::kExclusive ||
                            held == LockMode::kExclusive)) {
          grantable = false;
        }
      }
      if (!grantable) continue;  // It would block this single thread.
      ASSERT_OK(lm.Acquire(t, id, mode));
      LockMode& held = oracle[id].try_emplace(t, mode).first->second;
      if (mode == LockMode::kExclusive) held = mode;
    } else if (op < 92) {
      lm.Release(t, id);
      oracle[id].erase(t);
    } else {
      lm.ReleaseAll(t);
      for (auto& [lock, holders] : oracle) holders.erase(t);
    }
    size_t locked = 0;
    for (uint32_t k = 0; k < kIds; ++k) {
      const auto& holders = oracle[id_of(k)];
      if (!holders.empty()) ++locked;
      for (TxnId u = 1; u <= kTxns; ++u) {
        auto h = holders.find(u);
        bool s = h != holders.end();
        bool x = s && h->second == LockMode::kExclusive;
        ASSERT_EQ(lm.Holds(u, id_of(k), LockMode::kShared), s)
            << "step " << step << " txn " << u << " id " << k;
        ASSERT_EQ(lm.Holds(u, id_of(k), LockMode::kExclusive), x)
            << "step " << step << " txn " << u << " id " << k;
      }
    }
    ASSERT_EQ(lm.LockedCount(), locked) << "step " << step;
    peak = std::max(peak, slots->Value());
  }
  for (TxnId t = 1; t <= kTxns; ++t) lm.ReleaseAll(t);
  EXPECT_EQ(lm.LockedCount(), 0u);
  EXPECT_GT(peak, start);  // The run did grow the table ...
  EXPECT_EQ(slots->Value(), start);  // ... and shrank it back.
}

// An upgrade keeps one holder and one held-list entry: Release alone frees
// the lock, and the ReleaseAll after it finds nothing more to free.
TEST(LockTable, UpgradeThenReleaseLeavesNothing) {
  MetricsRegistry reg;
  LockManager lm(4);
  lm.BindMetrics(&reg);
  LockId id = LockId::Record(1, 77);
  ASSERT_OK(lm.Acquire(1, id, LockMode::kShared));
  ASSERT_OK(lm.Acquire(1, id, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, id, LockMode::kExclusive));
  EXPECT_EQ(lm.LockedCount(), 1u);
  lm.Release(1, id);
  EXPECT_FALSE(lm.Holds(1, id, LockMode::kShared));
  EXPECT_EQ(lm.LockedCount(), 0u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.LockedCount(), 0u);
  // The id is free for anyone, at once.
  ASSERT_OK(lm.Acquire(2, id, LockMode::kExclusive));
  EXPECT_EQ(reg.counter("txn.lock_waits")->Value(), 0u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// A transaction asleep on a lock while others grow and then shrink the
// same segment's table: its entry moves under it, yet it is still granted,
// and a waits-for cycle closed while the table is grown is still refused.
TEST(LockTable, SleeperSurvivesGrowAndShrinkAndCyclesAreStillSeen) {
  MetricsRegistry reg;
  LockManager lm(1);  // One segment: every lock shares the sleeper's table.
  lm.BindMetrics(&reg);
  const Gauge* slots = reg.gauge("txn.lock_table_slots");
  const Counter* waits = reg.counter("txn.lock_waits");
  const int64_t start = slots->Value();
  LockId a = LockId::Record(1, 1);
  LockId b = LockId::Record(1, 2);
  ASSERT_OK(lm.Acquire(1, a, LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(2, b, LockMode::kExclusive));
  std::atomic<bool> granted{false};
  std::thread sleeper([&] {
    ASSERT_OK(lm.Acquire(2, a, LockMode::kExclusive));  // Waits for txn 1.
    granted = true;
  });
  // The wait counter moves under the segment mutex, which the sleeper only
  // gives up inside its wait: every lock call below runs while it sleeps.
  while (waits->Value() == 0) std::this_thread::yield();

  for (uint32_t s = 100; s < 20100; ++s) {
    ASSERT_OK(lm.Acquire(3, LockId::Record(2, s), LockMode::kShared));
  }
  EXPECT_GT(slots->Value(), start);
  EXPECT_FALSE(granted.load());
  // Txn 1 asking for b closes 1 -> 2 -> 1.
  Status s = lm.Acquire(1, b, LockMode::kExclusive);
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  lm.ReleaseAll(3);
  EXPECT_EQ(slots->Value(), start);
  EXPECT_FALSE(granted.load());

  lm.ReleaseAll(1);  // The victim aborts; the sleeper gets a.
  sleeper.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(lm.Holds(2, a, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(2, b, LockMode::kExclusive));
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Clear (a simulated crash) drops every holder, including a wide shared
// hold's spilled ones, but keeps the entry a sleeper waits on: the sleeper
// is granted, and the readers queued behind it later hold the lock alone.
TEST(LockTable, ClearForgetsWideSharedHoldsAndKeepsSleepers) {
  MetricsRegistry reg;
  LockManager lm(1);
  lm.BindMetrics(&reg);
  const Counter* waits = reg.counter("txn.lock_waits");
  LockId a = LockId::Record(1, 1);
  for (TxnId t = 1; t <= 3; ++t) {
    ASSERT_OK(lm.Acquire(t, a, LockMode::kShared));
  }
  std::thread writer(
      [&] { ASSERT_OK(lm.Acquire(4, a, LockMode::kExclusive)); });
  while (waits->Value() < 1) std::this_thread::yield();
  lm.Clear();
  writer.join();
  EXPECT_TRUE(lm.Holds(4, a, LockMode::kExclusive));
  EXPECT_FALSE(lm.Holds(3, a, LockMode::kShared));

  std::vector<std::thread> readers;
  for (TxnId t = 5; t <= 7; ++t) {
    readers.emplace_back([&lm, a, t] {
      ASSERT_OK(lm.Acquire(t, a, LockMode::kShared));
    });
  }
  while (waits->Value() < 4) std::this_thread::yield();
  lm.ReleaseAll(4);
  for (auto& r : readers) r.join();
  for (TxnId t = 1; t <= 7; ++t) {
    EXPECT_EQ(lm.Holds(t, a, LockMode::kShared), t >= 5) << "txn " << t;
  }
  for (TxnId t = 5; t <= 7; ++t) lm.ReleaseAll(t);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// ---------------------------------------------------------------------------
// WAL tail: 8 threads append and flush into the one log tail; every record
// reads back exactly once afterwards, in LSN order (and each thread's
// records in the order it appended them), through the preallocated tail.
// ---------------------------------------------------------------------------

TEST(WalTail, ConcurrentAppendFlushReadsEachRecordOnceInLsnOrder) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  {
    auto log = SystemLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&log, i] {
        for (int r = 0; r < kPerThread; ++r) {
          // (txn, off) = (thread, seq): identifies the record on replay.
          std::string payload;
          EncodePhysRedo(&payload, static_cast<TxnId>(i + 1),
                         static_cast<DbPtr>(r) * 8, Slice("12345678", 8),
                         nullptr);
          (*log)->Append(payload);
          if (r % 10 == 9) ASSERT_OK((*log)->Flush());
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->CurrentLsn(), (*log)->end_of_stable_log());
  }
  // Reopen: the scan must not classify the preallocated zero tail as
  // damage, and the reader must deliver all records exactly once.
  auto reopened = SystemLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->tail_scan().damaged());
  auto reader = LogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  // Each thread's records come back as 0, 1, 2, ...: none lost, none
  // duplicated, none reordered against the thread's own appends.
  std::vector<int> next(kThreads, 0);
  LogRecord rec;
  Lsn lsn;
  Lsn min_next = 0;
  while ((*reader)->Next(&rec, &lsn)) {
    EXPECT_GE(lsn, min_next);
    min_next = lsn + 1;
    ASSERT_EQ(rec.type, LogRecordType::kPhysRedo);
    const int t = static_cast<int>(rec.txn) - 1;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ASSERT_EQ(static_cast<int>(rec.off / 8), next[t])
        << "thread " << t << " record out of order, lost or duplicated";
    ++next[t];
  }
  ASSERT_OK((*reader)->status());
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

// ---------------------------------------------------------------------------
// Cross-shard transactions: a transaction whose writes span shard
// boundaries is atomic through crash recovery and through an injected
// commit-time I/O failure.
// ---------------------------------------------------------------------------

class CrossShardTest : public ::testing::Test {
 protected:
  void Open(size_t shards) {
    DatabaseOptions opts =
        SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword);
    opts.shards = shards;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  /// Creates a table whose slots provably span at least `want` shards and
  /// fills it; returns the table id.
  TableId SpanningTable(uint32_t* slots_out) {
    constexpr uint32_t kRecordSize = 512;
    const uint32_t slots = static_cast<uint32_t>(
        db_->arena_size() / kRecordSize / 2);
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto t = db_->CreateTable(*txn, "span", kRecordSize, slots);
    EXPECT_TRUE(t.ok());
    for (uint32_t i = 0; i < slots; ++i) {
      EXPECT_TRUE(db_->Insert(*txn, *t, std::string(kRecordSize, 'a')).ok());
    }
    EXPECT_OK(db_->Commit(*txn));
    // The table's backing pages now cover a span larger than one shard:
    // the per-shard protection update counters prove writes landed on
    // more than one shard.
    size_t touched = 0;
    for (size_t s = 0; s < db_->shard_map().shard_count(); ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "protect.shard%zu.updates", s);
      if (db_->metrics()->counter(name)->Value() > 0) ++touched;
    }
    EXPECT_GE(touched, 2u) << "table does not span shards; grow it";
    *slots_out = slots;
    return *t;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(CrossShardTest, TxnSpanningShardsIsAtomicAcrossCrash) {
  Open(4);
  uint32_t slots = 0;
  TableId table = SpanningTable(&slots);

  // Committed cross-shard transaction: first and last slot (the table
  // spans >= 2 shards, so these are in different shards).
  auto c = db_->Begin();
  ASSERT_TRUE(c.ok());
  ASSERT_OK(db_->Update(*c, table, 0, 0, Slice("C", 1)));
  ASSERT_OK(db_->Update(*c, table, slots - 1, 0, Slice("C", 1)));
  ASSERT_OK(db_->Commit(*c));

  // Uncommitted cross-shard transaction: must vanish wholesale.
  auto u = db_->Begin();
  ASSERT_TRUE(u.ok());
  ASSERT_OK(db_->Update(*u, table, 1, 0, Slice("U", 1)));
  ASSERT_OK(db_->Update(*u, table, slots - 2, 0, Slice("U", 1)));

  ASSERT_OK(db_->CrashAndRecover());

  auto rd = db_->Begin();
  ASSERT_TRUE(rd.ok());
  std::string rec;
  ASSERT_OK(db_->Read(*rd, table, 0, &rec));
  EXPECT_EQ(rec[0], 'C');
  ASSERT_OK(db_->Read(*rd, table, slots - 1, &rec));
  EXPECT_EQ(rec[0], 'C');
  ASSERT_OK(db_->Read(*rd, table, 1, &rec));
  EXPECT_EQ(rec[0], 'a') << "uncommitted write survived on shard 0";
  ASSERT_OK(db_->Read(*rd, table, slots - 2, &rec));
  EXPECT_EQ(rec[0], 'a') << "uncommitted write survived on the last shard";
  ASSERT_OK(db_->Abort(*rd));
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

TEST_F(CrossShardTest, InjectedCommitIoFailureKeepsCrossShardAtomicity) {
  Open(4);
  uint32_t slots = 0;
  TableId table = SpanningTable(&slots);

  // Fail the WAL write under this commit: Commit must report the error,
  // and after a crash neither shard's update may survive.
  crashpoint::Arm("wal.flush.pwrite", {crashpoint::Mode::kEio, 1, 0});
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  ASSERT_OK(db_->Update(*t, table, 0, 0, Slice("X", 1)));
  ASSERT_OK(db_->Update(*t, table, slots - 1, 0, Slice("X", 1)));
  Status commit = db_->Commit(*t);
  crashpoint::DisarmAll();
  ASSERT_FALSE(commit.ok()) << "commit acked despite failed log write";

  ASSERT_OK(db_->CrashAndRecover());
  auto rd = db_->Begin();
  ASSERT_TRUE(rd.ok());
  std::string rec;
  ASSERT_OK(db_->Read(*rd, table, 0, &rec));
  EXPECT_EQ(rec[0], 'a');
  ASSERT_OK(db_->Read(*rd, table, slots - 1, &rec));
  EXPECT_EQ(rec[0], 'a');
  ASSERT_OK(db_->Abort(*rd));
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

// ---------------------------------------------------------------------------
// Whole-database concurrency: TPC-B-shaped invariant under 8 threads on a
// sharded engine. Transfers preserve the total; the validated (seqlock)
// read path runs concurrently with updates and must never observe a torn
// region.
// ---------------------------------------------------------------------------

TEST(ShardedDatabase, ConcurrentTransfersPreserveTotal) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.shards = 4;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  constexpr uint32_t kAccounts = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  auto setup = (*db)->Begin();
  ASSERT_TRUE(setup.ok());
  auto table = (*db)->CreateTable(*setup, "acct", 8, kAccounts);
  ASSERT_TRUE(table.ok());
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 1000;
    ASSERT_TRUE(
        (*db)->Insert(*setup, *table, Slice(reinterpret_cast<char*>(&v), 8))
            .ok());
  }
  ASSERT_OK((*db)->Commit(*setup));

  std::atomic<uint64_t> committed{0}, deadlocks{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Random rng(0xACC7 + i);
      for (int r = 0; r < kPerThread; ++r) {
        uint32_t from = rng.Uniform(kAccounts);
        uint32_t to = rng.Uniform(kAccounts);
        if (from == to) to = (to + 1) % kAccounts;
        auto txn = (*db)->Begin();
        ASSERT_TRUE(txn.ok());
        int64_t a = 0, b = 0;
        Status s = (*db)->ReadField(*txn, *table, from, 0, 8, &a);
        if (s.ok()) s = (*db)->ReadField(*txn, *table, to, 0, 8, &b);
        if (s.ok()) {
          a -= 7;
          b += 7;
          s = (*db)->Update(*txn, *table, from, 0,
                            Slice(reinterpret_cast<char*>(&a), 8));
        }
        if (s.ok()) {
          s = (*db)->Update(*txn, *table, to, 0,
                            Slice(reinterpret_cast<char*>(&b), 8));
        }
        if (s.ok()) s = (*db)->Commit(*txn);
        if (s.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Deadlock is the only legitimate failure; anything else is a
          // bug. The txn may already be invalidated by Commit's abort.
          EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
          deadlocks.fetch_add(1, std::memory_order_relaxed);
          (void)(*db)->Abort(*txn);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(committed.load(), 0u);

  // Total is preserved no matter how many transfers committed.
  auto rd = (*db)->Begin();
  ASSERT_TRUE(rd.ok());
  int64_t total = 0;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 0;
    ASSERT_OK((*db)->ReadField(*rd, *table, i, 0, 8, &v));
    total += v;
  }
  ASSERT_OK((*db)->Abort(*rd));
  EXPECT_EQ(total, int64_t{1000} * kAccounts);

  // And the image is clean: no torn codeword from the concurrent run.
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);

  // Survives a crash too: the sharded WAL rebuilt the same state.
  ASSERT_OK((*db)->CrashAndRecover());
  auto rd2 = (*db)->Begin();
  ASSERT_TRUE(rd2.ok());
  total = 0;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 0;
    ASSERT_OK((*db)->ReadField(*rd2, *table, i, 0, 8, &v));
    total += v;
  }
  ASSERT_OK((*db)->Abort(*rd2));
  EXPECT_EQ(total, int64_t{1000} * kAccounts);
}

}  // namespace
}  // namespace cwdb
