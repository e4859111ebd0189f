#ifndef CWDB_WAL_SYSTEM_LOG_H_
#define CWDB_WAL_SYSTEM_LOG_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "wal/log_record.h"

namespace cwdb {

class FlightRecorder;

/// Trace tag staged with a sampled commit's frames (the cross-thread hop
/// of its trace): the commit's span context — already re-parented at the
/// client-side flush-wait span — the staging timestamp, and the LSN one
/// past the tagged frames. The drainer records queue-wait (staged → picked
/// up) when it swaps the tag out and write / fsync once the round that
/// carries `end_lsn` is durable.
struct WalTraceTag {
  SpanContext ctx;
  uint64_t staged_ns = 0;
  Lsn end_lsn = 0;
};

/// What lies past the valid frame prefix of the stable log. A clean
/// shutdown or an ordinary crash leaves nothing (kClean), the group-commit
/// drainer's zero preallocation (kPreallocated), or a *torn* tail: an
/// incomplete final frame with no valid frame after it (kTorn). kDamaged
/// means the invalid bytes are not explainable as a torn append: either a
/// complete frame failed its CRC, or a valid frame exists beyond the bad
/// region — i.e. stable log contents were corrupted in place (media/wild
/// write), which costs committed transactions and deserves an incident
/// dossier.
enum class WalTail : uint8_t { kClean, kPreallocated, kTorn, kDamaged };

/// LogReader::ScanTail's verdict, kept by SystemLog::Open.
struct WalTailScan {
  uint64_t valid_bytes = 0;  ///< End of the valid frame prefix.
  uint64_t file_bytes = 0;   ///< File size at open.
  WalTail tail = WalTail::kClean;
  uint64_t damage_off = 0;   ///< First bad frame offset when damaged.

  bool damaged() const { return tail == WalTail::kDamaged; }
};

/// The system log (paper §2.1): one in-memory log tail plus a stable log
/// file on disk. Redo records are appended when operations commit; the
/// tail is made durable at transaction commit and at checkpoints.
///
/// Append path: callers frame their payloads outside any lock, then one
/// mutex covers only the LSN assignment (LSN = logical end of the log),
/// the byte append to the tail and the trace tag. This is sound because the
/// transaction layer moves an operation's redo to the system log *before*
/// releasing the operation's locks (§2.1): conflicting operations append in
/// conflict order, and tail order is LSN order.
///
/// Group commit: one drainer thread swaps the whole tail out under that
/// mutex (the buffers keep their capacity), writes it at the write
/// position — so the on-disk file is always a valid prefix plus at most one
/// torn frame — and issues a single fdatasync per round. Flush() registers
/// a durability target and waits; every Flush caller that arrives while a
/// round is in flight piggybacks on its fsync.
///
/// Framing on disk and in the tail: [u32 payload_len][u32 crc32c][payload].
/// The LSN of a record is the byte offset of its frame; a torn final frame
/// after a crash is detected by the CRC and treated as the end of log.
class SystemLog {
 public:
  /// Opens (creating if needed) the stable log at `path`. Scans existing
  /// contents to find the end of the valid prefix; appends continue from
  /// there. Open reads and classifies only: the file is not changed until
  /// the drainer's first write round, which cuts a torn or damaged tail off
  /// before it writes (a preallocated zero tail is kept and reused). Flush
  /// latency, batch sizes and append volume are reported into `metrics`
  /// (nullptr = a private registry, for standalone construction in tests).
  /// `recorder`, when given, mirrors the staged and durable LSN frontiers
  /// into the crash-surviving black box (one relaxed store per event).
  static Result<std::unique_ptr<SystemLog>> Open(
      const std::string& path, MetricsRegistry* metrics = nullptr,
      FlightRecorder* recorder = nullptr);

  ~SystemLog();
  SystemLog(const SystemLog&) = delete;
  SystemLog& operator=(const SystemLog&) = delete;

  /// Appends one encoded record payload to the tail. Returns the record's
  /// LSN. Thread-safe.
  Lsn Append(Slice payload);

  /// Appends several payloads as one staging operation: one tail-mutex
  /// acquisition for the lot, and the frames occupy contiguous LSNs.
  /// Returns the LSN of the first payload (CurrentLsn() when `payloads` is
  /// empty). Used by operation commit, which moves the whole local redo
  /// buffer at once. When `trace` is a sampled span context, a WalTraceTag
  /// is staged with the frames so the drainer-side spans attach to the
  /// trace.
  Lsn AppendAll(const std::vector<std::string>& payloads,
                const SpanContext* trace = nullptr);

  /// Makes every record appended before this call durable. Group commit:
  /// the drainer thread writes the whole tail and fsyncs once per round
  /// while appenders keep running; concurrent flushers piggyback on the
  /// in-flight round instead of issuing their own fsync. (The paper
  /// commits every 500 operations precisely to keep commit cost off the
  /// critical path — §5.2 fn. 3 avoids group commit in the *benchmark*;
  /// the engine supports it.)
  Status Flush();

  /// LSN one past the last appended record (the tail included).
  Lsn CurrentLsn() const {
    return logical_end_.load(std::memory_order_acquire);
  }

  /// LSN up to which the log is durable.
  Lsn end_of_stable_log() const {
    return durable_.load(std::memory_order_acquire);
  }

  /// True while a requested flush has not yet reached durability. This is
  /// the watchdog's drainer-probe gate: staged bytes with no flush request
  /// are not "pending" (nothing is waiting on them), so only a stuck
  /// requested round reads as a stall.
  bool flush_pending() const {
    std::lock_guard<std::mutex> guard(drain_mu_);
    return flush_target_ > durable_.load(std::memory_order_relaxed);
  }

  /// Crash simulation: discards everything not yet durable — the tail,
  /// swapped-out bytes awaiting a retry, and written-but-unsynced bytes —
  /// exactly what a process failure would lose. Requires external
  /// quiescence (no concurrent Append/Flush).
  void DiscardTail();

  /// Classification of what Open() found at the end of the stable file.
  const WalTailScan& tail_scan() const { return tail_scan_; }

  /// Total bytes appended since open (read-log volume studies).
  uint64_t bytes_appended() const { return ins_.bytes_appended->Value(); }
  uint64_t flush_count() const { return ins_.flushes->Value(); }
  /// Flush rounds that failed with an I/O error; the bytes stay with the
  /// drainer at their LSNs and the next Flush() covers them exactly once.
  uint64_t flush_failures() const { return ins_.flush_failures->Value(); }

 private:
  SystemLog(std::string path, int fd, const WalTailScan& scan,
            MetricsRegistry* metrics, FlightRecorder* recorder);

  /// Moves framed bytes (`count` frames) into the tail under tail_mu_ and
  /// returns the LSN of the first.
  Lsn Stage(const std::string& frames, size_t count,
            const SpanContext* trace);

  /// Drainer thread: swaps the tail out, writes it, fsyncs on demand.
  void DrainerLoop();

  /// Zero-extends the stable file to `new_end` (drainer only). Writing real
  /// zero blocks ahead of the frontier keeps block allocation and i_size
  /// changes out of the per-round fdatasync, which then syncs pure data.
  Status Preallocate(uint64_t new_end);

  struct Instruments {
    Counter* appends;
    Counter* bytes_appended;
    Counter* flushes;
    Counter* flush_failures;
    Counter* flush_piggybacks;
    Gauge* tail_bytes;
    Histogram* flush_latency_ns;
    Histogram* flush_batch_bytes;
  };

  std::string path_;
  int fd_;
  WalTailScan tail_scan_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;  ///< May be null (no black box).
  Instruments ins_;

  /// The log tail, guarded by tail_mu_: the frames at LSNs
  /// [logical_end_ - tail_.size(), logical_end_), and the trace tags of
  /// the sampled commits among them.
  std::mutex tail_mu_;
  std::string tail_;
  std::vector<WalTraceTag> tail_tags_;
  /// Next LSN to assign; written under tail_mu_, read lock-free.
  std::atomic<uint64_t> logical_end_;
  /// End of the durable prefix. Written by the drainer under drain_mu_,
  /// read lock-free by end_of_stable_log()/Flush.
  std::atomic<uint64_t> durable_;

  /// Drainer state, guarded by drain_mu_ (taken before tail_mu_).
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;  ///< Wakes the drainer.
  std::condition_variable flush_cv_;  ///< Wakes Flush waiters.
  /// Swapped-out tail bytes not yet written, starting at write_pos_; kept
  /// across a failed pwrite so the retry writes them once at their LSNs.
  std::string out_;
  /// Tags swapped out with out_ (or earlier), waiting for the round that
  /// makes them durable to emit their write/fsync spans.
  std::vector<WalTraceTag> traced_;
  uint64_t write_pos_;     ///< Bytes written (not necessarily synced).
  uint64_t alloc_end_;     ///< Zero-preallocated file extent (drainer only).
  /// Open found a torn or damaged tail past write_pos_; the first write
  /// round truncates it before preallocating over it.
  bool trim_tail_;
  uint64_t flush_target_ = 0;
  uint64_t request_seq_ = 0;  ///< Bumped by every Flush() registration.
  uint64_t last_latch_seq_ = 0;     ///< request_seq_ at the last round latch.
  uint64_t last_round_reqs_ = 0;    ///< Registrations the last round absorbed.
  uint64_t round_piggybacks_ = 0;   ///< Registrations during the open round.
  uint64_t piggybacks_last_round_ = 0;  ///< ...and the previous round's count.
  uint64_t error_seq_ = 0;    ///< request_seq_ when the last round failed.
  uint64_t failed_req_ = 0;   ///< Retry only once a newer request arrives.
  Status last_error_;
  bool in_round_ = false;     ///< Drainer I/O in flight (latch released).
  bool stop_ = false;
  std::thread drainer_;
};

/// The one reader of the stable system log: SystemLog::Open's tail scan,
/// restart and delete-transaction recovery, lineage queries and `cwdb_ctl`
/// all walk `system.log` frames through it. It preads the file in bounded
/// chunks from `start` — never the whole log at once — and stops at the
/// first frame that is incomplete, a zero (preallocated) header, or fails
/// its CRC. ScanTail() then classifies what lies past that point.
class LogReader {
 public:
  /// Opens the stable log file at `path` for reading from LSN `start`. A
  /// missing file reads as an empty log. The file size is taken at open;
  /// bytes appended later are not read.
  static Result<std::unique_ptr<LogReader>> Open(const std::string& path,
                                                 Lsn start = 0);
  ~LogReader();
  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// Returns the next record; false at end of log or on an error. A frame
  /// whose CRC verifies but whose payload does not decode is an error:
  /// status() becomes Corruption naming its LSN, and position() stays at
  /// that frame. `lsn` receives the record's LSN.
  bool Next(LogRecord* record, Lsn* lsn);

  /// Walks the frames not read yet, then classifies the bytes past the
  /// valid prefix (see WalTail). Bounded: at most 1 MiB of candidate
  /// offsets and 1024 CRC evaluations look for a valid frame beyond a bad
  /// one.
  WalTailScan ScanTail();

  /// LSN one past the last valid frame read so far (after exhausting the
  /// reader: the end of the valid prefix).
  Lsn position() const { return pos_; }

  /// The first read error, if any. A reader that stopped on an error has
  /// not found the end of the log; callers must not treat it as one.
  const Status& status() const { return status_; }

 private:
  LogReader(int fd, uint64_t size, Lsn start)
      : fd_(fd), size_(size), pos_(start) {}

  /// Returns the next CRC-valid frame's payload (valid until the next
  /// call); false at the end of the valid prefix or on a read error.
  bool NextFrame(Slice* payload, Lsn* lsn);

  /// Points *out at bytes [off, off+len) of the file, reading them into
  /// the buffer if needed. False if the range passes the end of the file
  /// or the read fails (status_ then holds the error).
  bool Fetch(uint64_t off, uint64_t len, const char** out);

  int fd_;  ///< -1 for a missing file.
  uint64_t size_;
  Lsn pos_;
  Status status_;
  std::string buf_;       ///< Read buffer holding file bytes from buf_off_.
  uint64_t buf_off_ = 0;
  uint64_t buf_len_ = 0;  ///< Valid bytes in buf_.
};

}  // namespace cwdb

#endif  // CWDB_WAL_SYSTEM_LOG_H_
