// cwbench: the repository benchmark. One process runs one closed-loop
// workload through the public API (Database, TpcbWorkload, HashIndex,
// FaultInjector), times every call into a layer with its own steady_clock,
// runs the restart steps (checkpoint, crash + recover, audit, repair),
// checks the results, and prints every metric by name with its unit and
// sample count. The last line of stdout is one JSON object. See
// perfbench/README.md for the workloads and the metric definitions.
//
// Usage: cwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --dir <scratch dir> [--trace-out <spans file>]

#include <linux/magic.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cwdb.h"
#include "spans.h"
#include "stats.h"
#include "zipf.h"

namespace perfbench {
namespace {

using cwdb::Database;
using cwdb::DatabaseOptions;
using cwdb::DbPtr;
using cwdb::ProtectionScheme;
using cwdb::Slice;
using cwdb::Status;
using cwdb::TableId;
using cwdb::Transaction;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread). The kernel charges a
/// thread only while it runs, so unlike wall time this excludes time
/// waiting on fsync and, with paravirtual steal accounting, time the host
/// took the vCPU away.
uint64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Per-client measurements.

/// The latency populations the benchmark's timers fill, one sample per call.
enum Lat : size_t {
  kReadOp,       ///< kv point read: Lookup + Read.
  kWriteOp,      ///< One TPC-B op, or kv Lookup + Update.
  kCommit,       ///< Commit().
  kBegin,        ///< Begin().
  kLookup,       ///< HashIndex::Lookup().
  kTableRead,    ///< Read() / ReadField().
  kTableUpdate,  ///< Update().
  kTableInsert,  ///< Insert().
  kLatCount,
};

/// A committed kv write: `order` is taken while the record's exclusive lock
/// is held (after Update returns, before Commit), so among the committed
/// writes of one key the largest order is the value that must survive.
struct KvWrite {
  uint32_t item;
  uint64_t order;
  uint64_t uid;
};

/// One closed-loop client thread: its generator, timers, counts and spans.
struct Client {
  Client(uint32_t index, uint64_t seed) : index(index), rng(seed),
                                          spans(index + 1) {}

  void ClearTimers() {
    for (auto& v : lat) v.clear();
    ops_attempted = ops_done = ops_retried = ops_failed = read_ops =
        table_writes = 0;
    ops_by_slice = {};
  }

  uint32_t index;
  SplitMix64 rng;
  std::array<std::vector<uint32_t>, kLatCount> lat;
  uint64_t ops_attempted = 0;
  uint64_t ops_done = 0;
  uint64_t ops_retried = 0;  ///< Ops of deadlock-victim transactions.
  uint64_t ops_failed = 0;   ///< Ops of a transaction that failed otherwise.
  uint64_t read_ops = 0;     ///< Point-read ops (prechecks_per_read base).
  uint64_t table_writes = 0; ///< Update + Insert calls (folds_per_write base).
  std::array<uint64_t, 2> ops_by_slice = {};  ///< [untraced, traced].
  uint64_t txn_seq = 0;
  SpanBuffer spans;
  std::vector<KvWrite> kv_committed;
  std::vector<KvWrite> kv_pending;
  uint64_t kv_uid_seq = 0;
};

/// One transaction's trace context; inert unless `buf` is set.
struct TxnTrace {
  SpanBuffer* buf = nullptr;
  uint64_t trace = 0;
  uint32_t next_id = 2;  ///< 1 is the transaction root.

  void Add(SpanName name, uint64_t t0, uint64_t t1) {
    if (buf != nullptr) buf->Add(trace, next_id++, 1, name, t0, t1);
  }
};

uint32_t Clamp32(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

/// Times one call into the engine: one latency sample in `lat` and, when
/// the transaction is traced, one span.
template <typename F>
auto Call(Client* c, TxnTrace* tr, Lat lat, SpanName name, F&& f) {
  const uint64_t t0 = NowNs();
  auto result = f();
  const uint64_t t1 = NowNs();
  c->lat[lat].push_back(Clamp32(t1 - t0));
  tr->Add(name, t0, t1);
  return result;
}

// ---------------------------------------------------------------------------
// Workloads.

// Set-up is repeated and its median reported as setup_s.
constexpr int kSetups = 3;
// Each restart step is short, so it is repeated and its median reported.
// A timed checkpoint and a crash each follow one batch of fixed work.
constexpr int kCheckpoints = 5;
constexpr int kRecoveries = 3;
constexpr int kAudits = 50;
constexpr int kRepairRounds = 10;

/// What differs between workloads. The run loop, the restart steps and the
/// gates are shared.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual DatabaseOptions Options(const std::string& dir) const = 0;
  virtual int clients() const = 0;
  virtual uint32_t ops_per_txn() const = 0;
  /// Transactions run single-threaded as warm-up (part of setup), and as
  /// the fixed work before each timed checkpoint and each crash.
  virtual uint64_t warmup_txns() const = 0;
  virtual uint64_t fixed_txns() const = 0;
  /// In traced slices, one transaction in this many is traced (bounds the
  /// spans kept in memory).
  virtual uint64_t trace_every() const = 0;
  /// The population reported as read_p50_us / read_p99_us.
  virtual Lat read_population() const = 0;

  /// Creates and loads the tables; resets every model of acknowledged work.
  virtual Status Load(Database* db, uint64_t seed) = 0;
  /// One transaction. On error the transaction is already aborted.
  virtual Status RunTxn(Database* db, Client* c, TxnTrace* tr) = 0;
  /// Workload invariants plus every acknowledged write being present.
  virtual Status CheckState(Database* db,
                            const std::vector<std::unique_ptr<Client>>& cs) = 0;
  /// Bytes of live user records.
  virtual uint64_t UserBytes(Database* db) const = 0;
  /// [begin, end) of the user records faults are planted into.
  virtual std::pair<DbPtr, DbPtr> FaultArea(Database* db) const = 0;

  /// Claims `n` ops of the workload's op budget (TPC-B History capacity);
  /// false when exhausted.
  bool Reserve(uint64_t n) {
    int64_t left = budget_.fetch_sub(static_cast<int64_t>(n));
    if (left >= static_cast<int64_t>(n)) return true;
    budget_.fetch_add(static_cast<int64_t>(n));
    return false;
  }
  void Unreserve(uint64_t n) { budget_.fetch_add(static_cast<int64_t>(n)); }

 protected:
  std::atomic<int64_t> budget_{INT64_MAX / 2};
};

uint64_t RoundUp(uint64_t n, uint64_t to) { return (n + to - 1) / to * to; }

DatabaseOptions BaseOptions(const std::string& dir, ProtectionScheme scheme) {
  DatabaseOptions opts;
  opts.path = dir;
  opts.page_size = 8192;
  opts.shards = 4;
  opts.protection.scheme = scheme;
  opts.protection.region_size = 512;
  return opts;
}

/// TPC-B through the record interface, op for op what TpcbWorkload runs
/// (so its CheckConsistency applies), but with every call timed.
class TpcbMix : public Workload {
 public:
  struct Shape {
    int clients;
    uint32_t ops_per_txn;
    uint64_t accounts;
    ProtectionScheme scheme;
    uint64_t max_ops_per_s;  ///< Sizes History; the phase stops if reached.
    uint64_t warmup_txns;
    uint64_t fixed_txns;
    uint64_t trace_every;
  };

  TpcbMix(const Shape& shape, double seconds) : shape_(shape) {
    config_.accounts = shape.accounts;
    config_.tellers = 10000;
    config_.branches = 1000;
    config_.ops_per_txn = shape.ops_per_txn;
    // Warm-up, timed phase and restart-step work, with room to spare.
    const uint64_t tail_ops =
        (shape.warmup_txns +
         (kCheckpoints + kRecoveries) * shape.fixed_txns) *
        shape.ops_per_txn;
    config_.history_capacity =
        static_cast<uint64_t>(seconds * static_cast<double>(
                                            shape.max_ops_per_s)) +
        tail_ops;
    tail_ops_ = tail_ops;
  }

  DatabaseOptions Options(const std::string& dir) const override {
    DatabaseOptions opts = BaseOptions(dir, shape_.scheme);
    opts.arena_size =
        RoundUp(config_.MinArenaSize(opts.page_size) + (4u << 20), 1u << 20);
    return opts;
  }
  int clients() const override { return shape_.clients; }
  uint32_t ops_per_txn() const override { return shape_.ops_per_txn; }
  uint64_t warmup_txns() const override { return shape_.warmup_txns; }
  uint64_t fixed_txns() const override { return shape_.fixed_txns; }
  uint64_t trace_every() const override { return shape_.trace_every; }
  Lat read_population() const override { return kTableRead; }

  Status Load(Database* db, uint64_t seed) override {
    config_.seed = seed;
    tpcb_ = std::make_unique<cwdb::TpcbWorkload>(db, config_);
    acked_ops_ = 0;
    // The timed phase may use what the warm-up and the restart steps leave.
    budget_ = static_cast<int64_t>(config_.history_capacity - tail_ops_);
    return tpcb_->Setup();
  }

  Status RunTxn(Database* db, Client* c, TxnTrace* tr) override {
    auto txn = Call(c, tr, kBegin, SpanName::kTxnBegin,
                    [&] { return db->Begin(); });
    if (!txn.ok()) return txn.status();
    for (uint32_t i = 0; i < shape_.ops_per_txn; ++i) {
      const uint64_t t0 = NowNs();
      Status s = Op(db, *txn, c, tr);
      if (!s.ok()) {
        (void)db->Abort(*txn);
        return s;
      }
      c->lat[kWriteOp].push_back(Clamp32(NowNs() - t0));
    }
    Status s = Call(c, tr, kCommit, SpanName::kTxnCommit,
                    [&] { return db->Commit(*txn); });
    if (s.ok()) acked_ops_.fetch_add(shape_.ops_per_txn);
    return s;
  }

  Status CheckState(Database* db,
                    const std::vector<std::unique_ptr<Client>>&) override {
    Status s = tpcb_->CheckConsistency();
    if (!s.ok()) return s;
    const uint64_t rows = db->CountRecords(tpcb_->history());
    if (rows < acked_ops_.load()) {
      return Status::Corruption("History has " + std::to_string(rows) +
                                " rows but " +
                                std::to_string(acked_ops_.load()) +
                                " ops were acknowledged");
    }
    return Status::OK();
  }

  uint64_t UserBytes(Database* db) const override {
    return (config_.accounts + config_.tellers + config_.branches +
            db->CountRecords(tpcb_->history())) *
           config_.record_size;
  }

  std::pair<DbPtr, DbPtr> FaultArea(Database* db) const override {
    const cwdb::DbImage* image = db->image();
    return {image->RecordOff(tpcb_->accounts(), 0),
            image->RecordOff(tpcb_->accounts(),
                             static_cast<uint32_t>(config_.accounts - 1)) +
                config_.record_size};
  }

 private:
  /// Read-modify-write of one balance (TpcbWorkload::UpdateBalance).
  Status UpdateBalance(Database* db, Transaction* txn, Client* c,
                       TxnTrace* tr, TableId table, uint64_t slot,
                       int64_t delta) {
    int64_t balance = 0;
    Status s = Call(c, tr, kTableRead, SpanName::kTableRead, [&] {
      return db->ReadField(txn, table, static_cast<uint32_t>(slot),
                           cwdb::TpcbLayout::kBalanceOff, 8, &balance);
    });
    if (!s.ok()) return s;
    balance += delta;
    ++c->table_writes;
    return Call(c, tr, kTableUpdate, SpanName::kTableUpdate, [&] {
      return db->Update(txn, table, static_cast<uint32_t>(slot),
                        cwdb::TpcbLayout::kBalanceOff,
                        Slice(reinterpret_cast<const char*>(&balance), 8));
    });
  }

  /// One TPC-B op (TpcbWorkload::DoOperation, pure update).
  Status Op(Database* db, Transaction* txn, Client* c, TxnTrace* tr) {
    const int64_t delta = static_cast<int64_t>(c->rng.Uniform(1999999)) -
                          999999;
    const uint64_t account = c->rng.Uniform(config_.accounts);
    const uint64_t teller = c->rng.Uniform(config_.tellers);
    const uint64_t branch = teller % config_.branches;
    Status s = UpdateBalance(db, txn, c, tr, tpcb_->accounts(), account,
                             delta);
    if (s.ok()) {
      s = UpdateBalance(db, txn, c, tr, tpcb_->tellers(), teller, delta);
    }
    if (s.ok()) {
      s = UpdateBalance(db, txn, c, tr, tpcb_->branches(), branch, delta);
    }
    if (!s.ok()) return s;
    char hist[100] = {};
    std::memcpy(hist + cwdb::TpcbLayout::kHistAccountOff, &account, 8);
    std::memcpy(hist + cwdb::TpcbLayout::kHistTellerOff, &teller, 8);
    std::memcpy(hist + cwdb::TpcbLayout::kHistBranchOff, &branch, 8);
    std::memcpy(hist + cwdb::TpcbLayout::kHistDeltaOff, &delta, 8);
    ++c->table_writes;
    auto rid = Call(c, tr, kTableInsert, SpanName::kTableInsert, [&] {
      return db->Insert(txn, tpcb_->history(),
                        Slice(hist, config_.record_size));
    });
    return rid.status();
  }

  Shape shape_;
  cwdb::TpcbConfig config_;
  uint64_t tail_ops_ = 0;
  std::unique_ptr<cwdb::TpcbWorkload> tpcb_;
  std::atomic<uint64_t> acked_ops_{0};
};

/// Key-value reads and updates against a HashIndex-keyed table, with
/// zipfian key popularity.
class KvMix : public Workload {
 public:
  static constexpr uint64_t kKeys = 200000;
  static constexpr uint32_t kValueSize = 100;
  static constexpr uint32_t kOpsPerTxn = 8;
  static constexpr double kTheta = 0.99;

  DatabaseOptions Options(const std::string& dir) const override {
    DatabaseOptions opts = BaseOptions(dir, ProtectionScheme::kReadPrecheck);
    // Values, index buckets (8 B) and index entries (16 B), each with its
    // allocation bitmap, plus the table directory and slack.
    const uint64_t per_key = kValueSize + 8 + 16;
    opts.arena_size =
        RoundUp(kKeys * per_key + 3 * RoundUp(kKeys / 8, opts.page_size) +
                    (8u << 20),
                1u << 20);
    return opts;
  }
  int clients() const override { return 4; }
  uint32_t ops_per_txn() const override { return kOpsPerTxn; }
  uint64_t warmup_txns() const override { return 500; }
  uint64_t fixed_txns() const override { return 500; }
  uint64_t trace_every() const override { return 2; }
  Lat read_population() const override { return kReadOp; }

  Status Load(Database* db, uint64_t seed) override {
    if (zipf_ == nullptr) {
      zipf_ = std::make_unique<ZipfDistribution>(kKeys, kTheta);
    }
    // Which items are hot depends on the seed: rank -> item permutation.
    hot_.resize(kKeys);
    for (uint64_t i = 0; i < kKeys; ++i) hot_[i] = static_cast<uint32_t>(i);
    SplitMix64 rng(seed ^ 0x6b79ull);
    for (uint64_t i = kKeys - 1; i > 0; --i) {
      std::swap(hot_[i], hot_[rng.Uniform(i + 1)]);
    }
    order_ = 0;
    slot_of_.assign(kKeys, 0);

    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    auto table = db->CreateTable(*txn, "kv", kValueSize, kKeys);
    if (!table.ok()) return table.status();
    table_ = *table;
    auto index = cwdb::HashIndex::Create(db, *txn, "kv_idx", kKeys, kKeys);
    if (!index.ok()) return index.status();
    index_ = std::make_unique<cwdb::HashIndex>(std::move(*index));
    Status s = db->Commit(*txn);
    if (!s.ok()) return s;
    char value[kValueSize];
    for (uint64_t i = 0; i < kKeys;) {
      txn = db->Begin();
      if (!txn.ok()) return txn.status();
      for (uint64_t end = std::min(kKeys, i + 5000); i < end; ++i) {
        MakeValue(KeyOf(i), 0, value);
        auto rid = db->Insert(*txn, table_, Slice(value, kValueSize));
        if (!rid.ok()) return rid.status();
        slot_of_[i] = rid->slot;
        s = index_->Insert(*txn, KeyOf(i), rid->slot);
        if (!s.ok()) return s;
      }
      s = db->Commit(*txn);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Status RunTxn(Database* db, Client* c, TxnTrace* tr) override {
    auto txn = Call(c, tr, kBegin, SpanName::kTxnBegin,
                    [&] { return db->Begin(); });
    if (!txn.ok()) return txn.status();
    c->kv_pending.clear();
    std::string out;
    char value[kValueSize];
    for (uint32_t i = 0; i < kOpsPerTxn; ++i) {
      const uint32_t item = hot_[zipf_->Sample(&c->rng)];
      const uint64_t key = KeyOf(item);
      const bool write = c->rng.Uniform(10) == 0;
      const uint64_t t0 = NowNs();
      auto slot = Call(c, tr, kLookup, SpanName::kIndexLookup,
                       [&] { return index_->Lookup(*txn, key); });
      Status s = slot.status();
      if (s.ok() && !write) {
        s = Call(c, tr, kTableRead, SpanName::kTableRead,
                 [&] { return db->Read(*txn, table_, *slot, &out); });
        if (s.ok()) {
          c->lat[kReadOp].push_back(Clamp32(NowNs() - t0));
          ++c->read_ops;
          s = CheckValue(key, out);
        }
      } else if (s.ok()) {
        const uint64_t uid = (uint64_t{c->index + 1} << 48) | ++c->kv_uid_seq;
        MakeValue(key, uid, value);
        ++c->table_writes;
        s = Call(c, tr, kTableUpdate, SpanName::kTableUpdate, [&] {
          return db->Update(*txn, table_, *slot, 0, Slice(value, kValueSize));
        });
        if (s.ok()) {
          c->lat[kWriteOp].push_back(Clamp32(NowNs() - t0));
          c->kv_pending.push_back(KvWrite{item, order_.fetch_add(1), uid});
        }
      }
      if (!s.ok()) {
        (void)db->Abort(*txn);
        return s;
      }
    }
    Status s = Call(c, tr, kCommit, SpanName::kTxnCommit,
                    [&] { return db->Commit(*txn); });
    if (s.ok()) {
      c->kv_committed.insert(c->kv_committed.end(), c->kv_pending.begin(),
                             c->kv_pending.end());
    }
    return s;
  }

  Status CheckState(Database* db,
                    const std::vector<std::unique_ptr<Client>>& cs) override {
    // Expected value of every item: the committed write with the largest
    // order, or the loaded value.
    std::vector<std::pair<uint64_t, uint64_t>> last(kKeys, {0, 0});
    std::vector<bool> written(kKeys, false);
    for (const auto& c : cs) {
      for (const KvWrite& w : c->kv_committed) {
        if (!written[w.item] || w.order > last[w.item].first) {
          last[w.item] = {w.order, w.uid};
          written[w.item] = true;
        }
      }
    }
    const cwdb::DbImage* image = db->image();
    char want[kValueSize];
    for (uint64_t i = 0; i < kKeys; ++i) {
      MakeValue(KeyOf(i), last[i].second, want);
      if (std::memcmp(image->At(image->RecordOff(table_, slot_of_[i])), want,
                      kValueSize) != 0) {
        return Status::Corruption("kv item " + std::to_string(i) +
                                  " does not hold its last acknowledged value");
      }
    }
    if (index_->EntryCount() != kKeys) {
      return Status::Corruption("index lost entries");
    }
    return Status::OK();
  }

  uint64_t UserBytes(Database* db) const override {
    return db->CountRecords(table_) * kValueSize;
  }

  std::pair<DbPtr, DbPtr> FaultArea(Database* db) const override {
    const cwdb::DbImage* image = db->image();
    return {image->RecordOff(table_, 0),
            image->RecordOff(table_, static_cast<uint32_t>(kKeys - 1)) +
                kValueSize};
  }

 private:
  /// Distinct, scattered 64-bit keys (a bijective mix of the item number).
  static uint64_t KeyOf(uint64_t item) {
    uint64_t z = item + 1;
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdull;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return z ^ (z >> 33);
  }

  /// Value bytes: key, writer uid, then filler derived from both, so a read
  /// can tell a whole value from a torn or foreign one.
  static void MakeValue(uint64_t key, uint64_t uid, char* out) {
    std::memcpy(out, &key, 8);
    std::memcpy(out + 8, &uid, 8);
    SplitMix64 fill(key ^ (uid * 0x9E3779B97F4A7C15ull));
    for (uint32_t off = 16; off < kValueSize; off += 8) {
      const uint64_t word = fill.Next();
      std::memcpy(out + off, &word, std::min<uint32_t>(8, kValueSize - off));
    }
  }

  static Status CheckValue(uint64_t key, const std::string& got) {
    if (got.size() != kValueSize) return Status::Corruption("short kv value");
    uint64_t uid = 0;
    std::memcpy(&uid, got.data() + 8, 8);
    char want[kValueSize];
    MakeValue(key, uid, want);
    if (std::memcmp(got.data(), want, kValueSize) != 0) {
      return Status::Corruption("kv read returned a value not written");
    }
    return Status::OK();
  }

  std::unique_ptr<ZipfDistribution> zipf_;
  std::vector<uint32_t> hot_;
  std::vector<uint32_t> slot_of_;
  TableId table_ = cwdb::kMaxTables;
  std::unique_ptr<cwdb::HashIndex> index_;
  std::atomic<uint64_t> order_{0};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       double seconds) {
  if (name == "tpcb_commit") {
    return std::make_unique<TpcbMix>(
        TpcbMix::Shape{4, 1, 100000, ProtectionScheme::kDataCodeword, 20000,
                       200, 200, 2},
        seconds);
  }
  if (name == "tpcb_batch_restart") {
    return std::make_unique<TpcbMix>(
        TpcbMix::Shape{1, 500, 600000, ProtectionScheme::kCodewordReadLog,
                       45000, 10, 10, 4},
        seconds);
  }
  if (name == "kv_zipf_read") return std::make_unique<KvMix>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct PhaseResult {
  std::array<double, 2> wall_s = {};  ///< [untraced, traced] slice time.
  bool budget_exhausted = false;
  Status error;
};

/// Runs every client in a closed loop for `seconds`. Traced runs alternate
/// untraced and traced slices (U T U T) so both rates see the same drift.
PhaseResult RunClosedLoop(Database* db, Workload* workload,
                          std::vector<std::unique_ptr<Client>>& clients,
                          double seconds, bool trace) {
  const int slices = trace ? 4 : 1;
  std::atomic<int> slice{0};
  std::atomic<bool> budget_exhausted{false};
  std::mutex err_mu;
  Status first_error;
  const uint32_t n = workload->ops_per_txn();

  auto loop = [&](Client* c) {
    for (;;) {
      const int cur = slice.load(std::memory_order_acquire);
      if (cur >= slices) return;
      const bool traced = trace && cur % 2 == 1;
      if (!workload->Reserve(n)) {
        budget_exhausted = true;
        return;
      }
      TxnTrace tr;
      const uint64_t t0 = NowNs();
      if (traced && c->txn_seq % workload->trace_every() == 0) {
        tr.buf = &c->spans;
        tr.trace = c->spans.NewTrace();
      }
      ++c->txn_seq;
      Status s = workload->RunTxn(db, c, &tr);
      if (tr.buf != nullptr) {
        tr.buf->Add(tr.trace, 1, 0, SpanName::kTxn, t0, NowNs());
      }
      c->ops_attempted += n;
      if (s.ok()) {
        c->ops_done += n;
        c->ops_by_slice[traced ? 1 : 0] += n;
        continue;
      }
      workload->Unreserve(n);
      if (s.IsDeadlock()) {
        c->ops_retried += n;
        continue;
      }
      c->ops_failed += n;
      std::lock_guard<std::mutex> guard(err_mu);
      if (first_error.ok()) first_error = s;
      slice.store(slices, std::memory_order_release);
      return;
    }
  };

  PhaseResult result;
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (auto& c : clients) threads.emplace_back(loop, c.get());
  uint64_t slice_start = start;
  for (int i = 0; i < slices; ++i) {
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9) *
                                     static_cast<uint64_t>(i + 1) /
                                     static_cast<uint64_t>(slices);
    while (NowNs() < end && slice.load() < slices && !budget_exhausted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (slice.load() >= slices || budget_exhausted) {
      slice.store(slices);
      break;
    }
    if (i + 1 < slices) {
      result.wall_s[(trace && i % 2 == 1) ? 1 : 0] +=
          Seconds(NowNs() - slice_start);
      slice_start = NowNs();
    }
    slice.store(i + 1, std::memory_order_release);
  }
  slice.store(slices);
  for (auto& t : threads) t.join();
  // The last slice ends when its in-flight transactions have completed.
  const int last = trace ? 1 : 0;
  result.wall_s[last] += Seconds(NowNs() - slice_start);
  result.budget_exhausted = budget_exhausted;
  result.error = first_error;
  return result;
}

/// Runs `txns` transactions on one client, retrying deadlock victims.
Status RunFixed(Database* db, Workload* workload, Client* c, uint64_t txns) {
  for (uint64_t i = 0; i < txns;) {
    TxnTrace tr;
    Status s = workload->RunTxn(db, c, &tr);
    if (s.ok()) {
      ++i;
    } else if (!s.IsDeadlock()) {
      return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

/// The metrics held to a bound (BENCHMARK.json "end_to_end"); every other
/// metric is reported per layer.
constexpr std::array<const char*, 4> kEndToEnd = {
    "setup_s", "read_p50_us", "log_bytes_per_op", "bytes_per_user_byte"};

bool IsEndToEnd(const std::string& name) {
  for (const char* e : kEndToEnd) {
    if (name == e) return true;
  }
  return false;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  /// A nearest-rank percentile in microseconds. Without 10 samples beyond
  /// its rank an end-to-end percentile fails the run; a per-layer one
  /// reads 0 and is flagged.
  void AddPercentile(const std::string& name, const std::optional<uint64_t>& ns,
                     uint64_t samples) {
    if (ns.has_value()) {
      Add(name, static_cast<double>(*ns) / 1e3, "us", samples);
    } else if (IsEndToEnd(name)) {
      missing_.push_back(name);
    } else {
      if (samples > 0) {
        std::printf("note: %s has too few samples (%" PRIu64 "); reads 0\n",
                    name.c_str(), samples);
      }
      Add(name, 0.0, "us", samples);
    }
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& missing() const { return missing_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> missing_;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->dir.empty();
}

/// Group commit must pay a real fdatasync: on tmpfs it returns at once and
/// the wal layer disappears from every number.
bool OnMemoryFilesystem(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return false;
  return st.f_type == TMPFS_MAGIC || st.f_type == RAMFS_MAGIC;
}

uint64_t Counter(Database* db, const char* name) {
  return db->metrics()->counter(name)->Value();
}

/// Registry counters read around the timed phase.
struct Counters {
  static constexpr std::array<const char*, 9> kNames = {
      "txn.commits",       "wal.flushes",
      "wal.bytes_appended", "txn.lock_waits",
      "txn.deadlocks",     "protect.codeword_folds",
      "protect.prechecks", "protect.validated_reads",
      "protect.validated_fallbacks"};
  std::array<uint64_t, kNames.size()> v = {};
  uint64_t flush_ns = 0;
  uint64_t flush_count = 0;

  static Counters Read(Database* db) {
    Counters c;
    for (size_t i = 0; i < kNames.size(); ++i) c.v[i] = Counter(db, kNames[i]);
    auto h = db->metrics()->histogram("wal.flush_latency_ns")->Capture();
    c.flush_ns = h.sum;
    c.flush_count = h.count;
    return c;
  }
  uint64_t Delta(const Counters& before, const char* name) const {
    for (size_t i = 0; i < kNames.size(); ++i) {
      if (std::strcmp(kNames[i], name) == 0) return v[i] - before.v[i];
    }
    std::abort();
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class Bench {
 public:
  Bench(const Args& args, std::unique_ptr<Workload> workload)
      : args_(args), workload_(std::move(workload)), main_spans_(0) {}

  /// Runs the workload; returns false if any gate failed (reasons printed).
  bool Run();
  void PrintResult(bool correct) const;

 private:
  bool Gate(const Status& s, const std::string& what) {
    if (s.ok()) return true;
    std::printf("GATE FAILED: %s: %s\n", what.c_str(), s.ToString().c_str());
    gate_failed_ = true;
    return false;
  }
  bool Gate(bool ok, const std::string& what) {
    return Gate(ok ? Status::OK() : Status::Corruption("check failed"), what);
  }
  std::string DbDir(int i) const {
    return args_.dir + "/" + args_.workload + "-" + std::to_string(getpid()) +
           "-" + std::to_string(i);
  }
  /// Records a restart-step span (traced runs only).
  void StepSpan(SpanName name, uint64_t t0, uint64_t t1) {
    if (args_.trace) {
      main_spans_.Add(main_spans_.NewTrace(), 1, 0, name, t0, t1);
    }
  }

  bool Setup();
  /// CrashAndRecover(), which discards the unflushed log tail, then the
  /// recovery and workload-state gates.
  bool CrashAndCheck();
  bool RestartSteps();
  bool PlantAndRepair(int round, double* repair_ms);
  void ReportTimedPhase(const PhaseResult& phase, const Counters& before,
                        const Counters& after);
  void ReportTrace();

  Args args_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<Database> db_;
  std::vector<std::unique_ptr<Client>> clients_;
  SpanBuffer main_spans_;
  Report report_;
  bool gate_failed_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t phase_cpu_ns_ = 0;
};

bool Bench::Setup() {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    std::filesystem::remove_all(DbDir(i));
    const uint64_t t0 = NowNs();
    auto db = Database::Open(workload_->Options(DbDir(i)));
    if (!Gate(db.status(), "open")) return false;
    db_ = std::move(*db);
    if (!Gate(workload_->Load(db_.get(), args_.seed), "load")) return false;
    clients_.clear();
    for (int c = 0; c < workload_->clients(); ++c) {
      clients_.push_back(std::make_unique<Client>(
          static_cast<uint32_t>(c),
          args_.seed * 0x100000001B3ull + static_cast<uint64_t>(c)));
    }
    if (!Gate(RunFixed(db_.get(), workload_.get(), clients_[0].get(),
                       workload_->warmup_txns()),
              "warm-up")) {
      return false;
    }
    times.push_back(Seconds(NowNs() - t0));
    if (i + 1 < kSetups) {
      // Only the last set-up is measured further; deleting the others'
      // files also drops their dirty pages from the OS cache, which would
      // otherwise be written back during later fsyncs.
      db_.reset();
      std::filesystem::remove_all(DbDir(i));
    }
  }
  clients_[0]->ClearTimers();
  report_.Add("setup_s", Median(times), "s", times.size());
  // Space is measured on the loaded database: at the end of the run the
  // History row count would make it depend on throughput.
  const uint64_t stored =
      db_->arena_size() + db_->GetStats().protection_space_overhead_bytes;
  report_.Add("bytes_per_user_byte",
              Ratio(stored, workload_->UserBytes(db_.get())), "B/B", 1);
  return true;
}

bool Bench::Run() {
  std::filesystem::create_directories(args_.dir);
  if (OnMemoryFilesystem(args_.dir)) {
    std::printf("GATE FAILED: %s is on a memory filesystem; the benchmark "
                "needs a disk-backed directory so group commit pays real "
                "fdatasync\n",
                args_.dir.c_str());
    return false;
  }
  if (!Setup()) return false;
  Database* db = db_.get();

  const Counters before = Counters::Read(db);
  const uint64_t cpu0 = CpuNs();
  PhaseResult phase = RunClosedLoop(db, workload_.get(), clients_,
                                    args_.seconds, args_.trace);
  phase_cpu_ns_ = CpuNs() - cpu0;
  const Counters after = Counters::Read(db);
  for (const auto& c : clients_) {
    attempted_ += c->ops_attempted;
    failed_ += c->ops_failed;
  }
  if (!Gate(phase.error, "timed phase")) return false;
  if (phase.budget_exhausted) {
    std::printf("note: the op budget ran out before %.1f s\n", args_.seconds);
  }
  if (!Gate(workload_->CheckState(db, clients_), "state after timed phase")) {
    return false;
  }
  ReportTimedPhase(phase, before, after);
  // Durability under group commit: crash straight after the concurrent
  // phase, so its acknowledged commits must come back from the log. The
  // single-client workload commits one transaction at a time and is
  // checked by the crashes in the restart steps.
  if (workload_->clients() > 1 && !CrashAndCheck()) return false;
  if (!RestartSteps()) return false;

  // Final gates: a clean audit, a clean structural check, and the state.
  auto audit = db->Audit();
  if (!Gate(audit.status(), "final audit") ||
      !Gate(audit->clean, "final audit is clean")) {
    return false;
  }
  Gate(db->VerifyIntegrity().empty(), "VerifyIntegrity() is empty");
  Gate(workload_->CheckState(db, clients_), "final state");

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  report_.Add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
              1);
  if (args_.trace) ReportTrace();

  db_.reset();
  std::filesystem::remove_all(DbDir(kSetups - 1));
  return !gate_failed_;
}

void Bench::ReportTimedPhase(const PhaseResult& phase, const Counters& before,
                             const Counters& after) {
  std::array<std::vector<uint64_t>, kLatCount> lat;
  uint64_t done = 0, retried = 0, reads = 0, writes = 0;
  std::array<uint64_t, 2> by_slice = {};
  for (const auto& c : clients_) {
    for (size_t l = 0; l < kLatCount; ++l) {
      lat[l].insert(lat[l].end(), c->lat[l].begin(), c->lat[l].end());
    }
    done += c->ops_done;
    retried += c->ops_retried;
    reads += c->read_ops;
    writes += c->table_writes;
    by_slice[0] += c->ops_by_slice[0];
    by_slice[1] += c->ops_by_slice[1];
  }
  std::array<LatencySummary, kLatCount> sum;
  for (size_t l = 0; l < kLatCount; ++l) sum[l] = Summarize(&lat[l]);
  const double wall = phase.wall_s[0] + phase.wall_s[1];
  const uint64_t commits = after.Delta(before, "txn.commits");

  report_.Add("ops_per_s", Ratio(done, wall), "1/s", done);
  report_.Add("cpu_us_per_op", Ratio(phase_cpu_ns_ / 1e3, done), "us", done);
  const LatencySummary& read = sum[workload_->read_population()];
  report_.AddPercentile("read_p50_us", read.p50, read.samples);
  report_.AddPercentile("read_p99_us", read.p99, read.samples);
  const LatencySummary& write = sum[kWriteOp];
  report_.AddPercentile("write_p50_us", write.p50, write.samples);
  report_.AddPercentile("write_p99_us", write.p99, write.samples);
  const LatencySummary& commit = sum[kCommit];
  report_.AddPercentile("commit_p50_us", commit.p50, commit.samples);
  report_.AddPercentile("commit_p99_us", commit.p99, commit.samples);
  report_.Add("log_bytes_per_op",
           Ratio(after.Delta(before, "wal.bytes_appended"), done), "B", done);
  // Per-layer call latencies over the whole phase.
  const std::pair<const char*, Lat> kLayerCalls[] = {
      {"txn.begin", kBegin},          {"index.lookup", kLookup},
      {"table_ops.read", kTableRead}, {"table_ops.update", kTableUpdate},
      {"table_ops.insert", kTableInsert}, {"txn.commit", kCommit}};
  for (const auto& [layer, l] : kLayerCalls) {
    const std::string name = layer;
    report_.AddPercentile(name + "_us", sum[l].p50, sum[l].samples);
    report_.AddPercentile(name + "_p99_us", sum[l].p99, sum[l].samples);
  }

  // failed_frac is 0 on the single-client workload, so it is per layer.
  report_.Add("txn.failed_frac", Ratio(retried, attempted_), "ratio",
              attempted_);
  report_.Add("lock.deadlocks", after.Delta(before, "txn.deadlocks"), "count",
              1);
  report_.Add("lock.waits_per_op",
              Ratio(after.Delta(before, "txn.lock_waits"), attempted_), "ratio",
              attempted_);
  report_.Add("wal.commits_per_fsync",
              Ratio(commits, after.Delta(before, "wal.flushes")), "ratio",
              after.Delta(before, "wal.flushes"));
  const uint64_t flushes = after.flush_count - before.flush_count;
  report_.Add("wal.flush_us",
              Ratio(after.flush_ns - before.flush_ns, flushes) / 1e3, "us",
              flushes);
  report_.Add("wal.bytes_per_commit",
              Ratio(after.Delta(before, "wal.bytes_appended"), commits), "B",
              commits);
  report_.Add("protect.folds_per_write",
              Ratio(after.Delta(before, "protect.codeword_folds"), writes),
              "ratio", writes);
  report_.Add("protect.prechecks_per_read",
              Ratio(after.Delta(before, "protect.prechecks"), reads), "ratio",
              reads);
  const uint64_t validated = after.Delta(before, "protect.validated_reads");
  const uint64_t fallbacks = after.Delta(before, "protect.validated_fallbacks");
  report_.Add("protect.validated_read_ratio",
              Ratio(validated, validated + fallbacks), "ratio",
              validated + fallbacks);
  if (args_.trace) {
    const double untraced = Ratio(by_slice[0], phase.wall_s[0]);
    const double traced = Ratio(by_slice[1], phase.wall_s[1]);
    report_.Add("trace.untraced_ops_per_s", untraced, "1/s", by_slice[0]);
    report_.Add("trace.traced_ops_per_s", traced, "1/s", by_slice[1]);
    report_.Add("trace.overhead_pct", 100.0 * (1.0 - Ratio(traced, untraced)),
                "%", 2);
  }
}

bool Bench::CrashAndCheck() {
  Database* db = db_.get();
  const uint64_t deleted0 = Counter(db, "recovery.deleted_txns");
  if (!Gate(db->CrashAndRecover(), "crash and recover")) return false;
  Gate(db->last_recovery_report().deleted_txns.empty() &&
           Counter(db, "recovery.deleted_txns") == deleted0,
       "recovery without faults deleted no transactions");
  return Gate(workload_->CheckState(db, clients_),
              "acknowledged commits survive the crash");
}

bool Bench::RestartSteps() {
  Database* db = db_.get();
  Client* c = clients_[0].get();
  const uint32_t page = db->options().page_size;

  // Two checkpoints bring both ping-pong images up to date, so the timed
  // checkpoints below write only what their fixed work dirtied, however
  // many ops the timed phase ran.
  for (int i = 0; i < 2; ++i) {
    if (!Gate(db->Checkpoint(), "checkpoint")) return false;
  }
  std::vector<double> ckpt_s, ckpt_pages, ckpt_mibs;
  for (int i = 0; i < kCheckpoints; ++i) {
    if (!Gate(RunFixed(db, workload_.get(), c, workload_->fixed_txns()),
              "fixed work")) {
      return false;
    }
    const uint64_t pages0 = Counter(db, "ckpt.pages_written");
    const uint64_t t0 = NowNs();
    if (!Gate(db->Checkpoint(), "checkpoint")) return false;
    const uint64_t t1 = NowNs();
    StepSpan(SpanName::kCheckpoint, t0, t1);
    const double pages =
        static_cast<double>(Counter(db, "ckpt.pages_written") - pages0);
    ckpt_s.push_back(Seconds(t1 - t0));
    ckpt_pages.push_back(pages);
    ckpt_mibs.push_back(pages * page / (1 << 20) / Seconds(t1 - t0));
  }
  report_.Add("checkpoint_s", Median(ckpt_s), "s", ckpt_s.size());
  report_.Add("ckpt.pages_written", Median(ckpt_pages), "count",
              ckpt_pages.size());
  report_.Add("ckpt.write_mib_per_s", Median(ckpt_mibs), "MiB/s",
              ckpt_mibs.size());

  // Crash after fixed work: the unflushed log tail is discarded, and every
  // acknowledged commit must survive (flush policy: fdatasync per group
  // commit, the engine's only mode).
  std::vector<double> rec_s, redo, redo_rate;
  for (int i = 0; i < kRecoveries; ++i) {
    if (!Gate(RunFixed(db, workload_.get(), c, workload_->fixed_txns()),
              "fixed work")) {
      return false;
    }
    const uint64_t t0 = NowNs();
    if (!CrashAndCheck()) return false;
    const uint64_t t1 = NowNs();
    StepSpan(SpanName::kCrashRecover, t0, t1);
    const cwdb::RecoveryReport& report = db->last_recovery_report();
    rec_s.push_back(Seconds(t1 - t0));
    redo.push_back(static_cast<double>(report.redo_records_applied));
    redo_rate.push_back(static_cast<double>(report.redo_records_applied) /
                        Seconds(t1 - t0));
  }
  report_.Add("recovery_s", Median(rec_s), "s", rec_s.size());
  report_.Add("recovery.redo_records", Median(redo), "count", redo.size());
  report_.Add("recovery.redo_records_per_s", Median(redo_rate), "1/s",
              redo_rate.size());

  // Back-to-back full audits; one pass is short, so take many.
  std::vector<double> audit_s, audit_gibs;
  const uint32_t region = db->options().protection.region_size;
  for (int i = 0; i < kAudits; ++i) {
    const uint64_t t0 = NowNs();
    auto report = db->Audit();
    const uint64_t t1 = NowNs();
    if (!Gate(report.status(), "audit") ||
        !Gate(report->clean, "audit clean")) {
      return false;
    }
    StepSpan(SpanName::kAudit, t0, t1);
    audit_s.push_back(Seconds(t1 - t0));
    audit_gibs.push_back(static_cast<double>(report->regions_audited) * region /
                         (1u << 30) / Seconds(t1 - t0));
  }
  report_.Add("audit_s", Median(audit_s), "s", audit_s.size());
  report_.Add("protect.audit_gib_per_s", Median(audit_gibs), "GiB/s",
              audit_gibs.size());

  std::vector<double> repair_ms;
  const uint64_t success0 = Counter(db, "repair.success");
  const uint64_t failed0 = Counter(db, "repair.failed");
  for (int round = 0; round < kRepairRounds; ++round) {
    double ms = 0;
    if (!PlantAndRepair(round, &ms)) return false;
    repair_ms.push_back(ms);
  }
  report_.Add("repair_ms", Median(repair_ms), "ms", repair_ms.size());
  // repair.success and repair.failed count regions.
  const uint64_t repaired = Counter(db, "repair.success") - success0;
  const uint64_t regions = repaired + Counter(db, "repair.failed") - failed0;
  report_.Add("repair.success_ratio", Ratio(repaired, regions), "ratio",
              regions);
  return true;
}

/// One region-sized fault in each of kFaults distinct parity groups, found
/// by Audit() and repaired in place with TryRepairRanges().
bool Bench::PlantAndRepair(int round, double* repair_ms) {
  constexpr uint64_t kFaults = 16;
  Database* db = db_.get();
  const uint64_t region = db->options().protection.region_size;
  const uint64_t group = db->options().protection.parity_group_regions;
  const auto [lo, hi] = workload_->FaultArea(db);
  const uint64_t first = (lo + region - 1) / region;
  const uint64_t stride = (hi / region - first) / kFaults;
  // Faults at least one group apart cannot share a parity group.
  if (!Gate(stride > 2 * group, "fault area spans enough parity groups")) {
    return false;
  }
  SplitMix64 rng(args_.seed * 7919 + static_cast<uint64_t>(round));
  cwdb::FaultInjector injector(db, args_.seed);
  std::vector<DbPtr> planted;
  std::vector<std::string> original;
  for (uint64_t k = 0; k < kFaults; ++k) {
    const uint64_t r = first + k * stride + rng.Uniform(stride - group);
    const DbPtr off = r * region + rng.Uniform(region - 8);
    std::string before(reinterpret_cast<const char*>(db->image()->At(off)), 8);
    // Random bytes: a pattern such as the complement of the original could
    // cancel in the XOR codeword and go undetected.
    std::string bad = before;
    while (bad == before) {
      const uint64_t word = rng.Next();
      std::memcpy(bad.data(), &word, 8);
    }
    if (!Gate(injector.WildWriteAt(off, Slice(bad)).changed_bits,
              "fault planted")) {
      return false;
    }
    planted.push_back(off);
    original.push_back(before);
  }

  const uint64_t t0 = NowNs();
  auto audit = db->Audit();
  if (!Gate(audit.status(), "detecting audit")) return false;
  bool all_found = !audit->clean && audit->ranges.size() == kFaults;
  for (DbPtr p : planted) {
    bool found = false;
    for (const cwdb::CorruptRange& r : audit->ranges) {
      found |= p >= r.off && p < r.off + r.len;
    }
    all_found &= found;
  }
  if (!Gate(all_found, "audit finds exactly the planted regions")) return false;
  std::vector<cwdb::CorruptRange> unrepaired;
  const uint64_t t1 = NowNs();
  const bool repaired = db->TryRepairRanges(
      audit->ranges, cwdb::IncidentSource::kAudit, &unrepaired);
  const uint64_t t2 = NowNs();
  StepSpan(SpanName::kAuditRepair, t0, t2);
  *repair_ms = static_cast<double>(t2 - t1) / 1e6;
  if (!Gate(repaired && unrepaired.empty(), "every planted region repaired")) {
    return false;
  }
  for (size_t k = 0; k < planted.size(); ++k) {
    Gate(std::memcmp(db->image()->At(planted[k]), original[k].data(), 8) == 0,
         "repaired bytes match the originals");
  }
  auto again = db->Audit();
  return Gate(again.status(), "audit after repair") &&
         Gate(again->clean, "audit after repair is clean");
}

void Bench::ReportTrace() {
  std::vector<Span> txn_spans;
  for (const auto& c : clients_) {
    txn_spans.insert(txn_spans.end(), c->spans.spans().begin(),
                     c->spans.spans().end());
  }
  const SelfTimeTable txn_table = AttributeSelfTime(txn_spans);
  const SelfTimeTable step_table = AttributeSelfTime(main_spans_.spans());

  auto print_table = [](const char* title, const SelfTimeTable& table,
                        size_t from, size_t to) {
    std::printf("%s\n  %-28s %10s %12s %12s %8s\n", title, "span", "samples",
                "self_p50_us", "self_p99_us", "share");
    for (size_t n = from; n < to; ++n) {
      const SelfTimeRow& row = table[n];
      auto us = [](const std::optional<uint64_t>& v) {
        char buf[32];
        if (v.has_value()) {
          std::snprintf(buf, sizeof(buf), "%.3f", *v / 1e3);
        } else {
          std::snprintf(buf, sizeof(buf), "-");
        }
        return std::string(buf);
      };
      std::printf("  %-28s %10zu %12s %12s %7.2f%%\n",
                  SpanNameStr(static_cast<SpanName>(n)), row.self.samples,
                  us(row.self.p50).c_str(), us(row.self.p99).c_str(),
                  100.0 * row.share);
    }
  };
  std::printf("traced run: one transaction in %" PRIu64
              " traced in the traced slices; restart steps always traced\n",
              workload_->trace_every());
  print_table("transaction path (share of traced transaction time):",
              txn_table, 0, static_cast<size_t>(SpanName::kCheckpoint));
  print_table("restart path (share of restart-step time):", step_table,
              static_cast<size_t>(SpanName::kCheckpoint), kSpanNames);

  // Each layer's share of self time; the txn root's self time is the
  // benchmark's own ("client").
  for (size_t n = 0; n < kSpanNames; ++n) {
    const SelfTimeRow& row =
        n < static_cast<size_t>(SpanName::kCheckpoint) ? txn_table[n]
                                                       : step_table[n];
    const std::string name =
        n == 0 ? "client" : SpanNameStr(static_cast<SpanName>(n));
    report_.Add(name + "_share_pct", 100.0 * row.share, "%", row.self.samples);
  }

  std::vector<Span> all = txn_spans;
  all.insert(all.end(), main_spans_.spans().begin(), main_spans_.spans().end());
  if (!args_.trace_out.empty()) {
    if (WriteSpans(all, args_.trace_out)) {
      std::printf("spans: %zu written to %s\n", all.size(),
                  args_.trace_out.c_str());
    } else {
      std::printf("note: could not write spans to %s\n",
                  args_.trace_out.c_str());
    }
  }
}

void Bench::PrintResult(bool correct) const {
  for (const std::string& name : report_.missing()) {
    std::printf("GATE FAILED: %s has too few samples for its percentile\n",
                name.c_str());
  }
  for (const Metric& m : report_.metrics()) {
    std::printf("metric %-36s %16.6f %-6s samples=%-10" PRIu64 " %s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                IsEndToEnd(m.name) ? "end-to-end" : "per-layer");
  }
  correct = correct && report_.missing().empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report_.metrics()) {
    // Untraced runs give the end-to-end metrics, traced runs the rest.
    if (IsEndToEnd(m.name) == args_.trace) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cwbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seconds);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Bench bench(args, std::move(workload));
  const bool ok = bench.Run();
  bench.PrintResult(ok);
  std::fflush(stdout);
  return ok ? 0 : 1;
}
