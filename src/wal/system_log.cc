#include "wal/system_log.h"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>

#include "common/coding.h"
#include "common/crashpoint.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace cwdb {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc.

/// The stable file is zero-extended this far past the write frontier
/// before frames land there. A small append-then-fdatasync to an
/// *unallocated* region must commit an ext4 journal transaction for the
/// block allocation and i_size change — measured at 2x the cost of the
/// pure data writeback that suffices once the blocks exist, and with far
/// heavier tails. Preallocating in big strides keeps the journal out of
/// the commit path entirely; LogReader::ScanTail classifies a zero tail as
/// clean preallocation, so a crash anywhere in the scheme recovers as before.
constexpr uint64_t kPreallocChunkBytes = 1 << 20;

/// Group-commit dally tuning: the hold ends when a quiet window passes
/// with no new registration, when as many registrations have arrived as
/// the previous round absorbed, or at the hard deadline.
constexpr auto kDallyQuietWindow = std::chrono::microseconds(50);
constexpr auto kDallyDeadline = std::chrono::microseconds(300);

/// LogReader reads the file in chunks of this size (a frame longer than
/// a chunk is read whole).
constexpr uint64_t kReadChunkBytes = 1 << 20;

/// Appends the [len][crc32c][payload] frame of `payload` to `out`.
void PutFrame(std::string* out, Slice payload) {
  // Empty frames are indistinguishable from preallocated zeros on disk
  // (Crc32c of nothing is 0), so the recovery scan treats a zero header as
  // end of log; staging one would silently end the log early.
  CWDB_DCHECK(!payload.empty()) << "empty log payload";
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out, Crc32c(payload.data(), payload.size()));
  out->append(payload.data(), payload.size());
}

/// Moves the contents of `from` onto the end of `to`, leaving `from`
/// empty. When `to` is empty the two swap, so both keep their capacity.
template <typename Buffer>
void TakeAll(Buffer* to, Buffer* from) {
  if (to->empty()) {
    to->swap(*from);
  } else {
    to->insert(to->end(), from->begin(), from->end());
  }
  from->clear();
}

}  // namespace

SystemLog::SystemLog(std::string path, int fd, const WalTailScan& scan,
                     MetricsRegistry* metrics, FlightRecorder* recorder)
    : path_(std::move(path)),
      fd_(fd),
      tail_scan_(scan),
      metrics_(FallbackRegistry(metrics, &own_metrics_)),
      recorder_(recorder),
      logical_end_(scan.valid_bytes),
      durable_(scan.valid_bytes),
      write_pos_(scan.valid_bytes),
      alloc_end_(scan.file_bytes),
      trim_tail_(scan.tail == WalTail::kTorn ||
                 scan.tail == WalTail::kDamaged) {
  ins_.appends = metrics_->counter("wal.appends");
  ins_.bytes_appended = metrics_->counter("wal.bytes_appended");
  ins_.flushes = metrics_->counter("wal.flushes");
  ins_.flush_failures = metrics_->counter("wal.flush_failures");
  ins_.flush_piggybacks = metrics_->counter("wal.flush_piggybacks");
  ins_.tail_bytes = metrics_->gauge("wal.tail_bytes");
  ins_.flush_latency_ns = metrics_->histogram("wal.flush_latency_ns");
  ins_.flush_batch_bytes = metrics_->histogram("wal.flush_batch_bytes");
  drainer_ = std::thread([this] { DrainerLoop(); });
}

SystemLog::~SystemLog() {
  {
    std::lock_guard<std::mutex> guard(drain_mu_);
    stop_ = true;
  }
  drain_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SystemLog>> SystemLog::Open(const std::string& path,
                                                   MetricsRegistry* metrics,
                                                   FlightRecorder* recorder) {
  WalTailScan scan;
  {
    CWDB_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader,
                          LogReader::Open(path));
    scan = reader->ScanTail();
    CWDB_RETURN_IF_ERROR(reader->status());
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  auto log = std::unique_ptr<SystemLog>(
      new SystemLog(path, fd, scan, metrics, recorder));
  if (recorder != nullptr) {
    // Seed the black box's frontiers with the recovered stable state so a
    // crash before the first append still reads sensibly.
    recorder->NoteStagedLsn(scan.valid_bytes);
    recorder->NoteDurableLsn(scan.valid_bytes);
  }
  if (scan.damaged()) {
    // The caller (Database recovery) files the incident dossier; the
    // counter and trace entry are recorded here so standalone opens (tools,
    // tests) still leave evidence.
    log->metrics_->counter("wal.crc_damaged_tail")->Add();
    log->metrics_->tracer()->Event(SpanKind::kWalTailDamage,
                                   scan.valid_bytes, scan.damage_off,
                                   scan.file_bytes);
  }
  return log;
}

Lsn SystemLog::Stage(const std::string& frames, size_t count,
                     const SpanContext* trace) {
  // The queue-wait clock starts at staging: the tag waits in the tail for
  // the drainer to swap it out.
  const bool traced = trace != nullptr && trace->sampled();
  const uint64_t staged_ns = traced ? NowNs() : 0;
  Lsn lsn;
  {
    std::lock_guard<std::mutex> guard(tail_mu_);
    lsn = logical_end_.load(std::memory_order_relaxed);
    const Lsn end = lsn + frames.size();
    tail_.append(frames);
    logical_end_.store(end, std::memory_order_release);
    if (traced) tail_tags_.push_back(WalTraceTag{*trace, staged_ns, end});
    // Mirror the staged frontier into the black box: one relaxed store on
    // a path that already holds the tail mutex.
    if (recorder_ != nullptr) recorder_->NoteStagedLsn(end);
  }
  ins_.appends->Add(count);
  ins_.bytes_appended->Add(frames.size());
  ins_.tail_bytes->Set(static_cast<int64_t>(
      logical_end_.load(std::memory_order_relaxed) -
      durable_.load(std::memory_order_relaxed)));
  return lsn;
}

Lsn SystemLog::Append(Slice payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutFrame(&frame, payload);
  return Stage(frame, 1, nullptr);
}

Lsn SystemLog::AppendAll(const std::vector<std::string>& payloads,
                         const SpanContext* trace) {
  if (payloads.empty()) return CurrentLsn();
  size_t bytes = 0;
  for (const std::string& payload : payloads) {
    bytes += kFrameHeaderBytes + payload.size();
  }
  std::string frames;
  frames.reserve(bytes);
  for (const std::string& payload : payloads) PutFrame(&frames, payload);
  return Stage(frames, payloads.size(), trace);
}

Status SystemLog::Preallocate(uint64_t new_end) {
  std::string zeros(64 << 10, '\0');
  uint64_t at = alloc_end_;
  while (at < new_end) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(zeros.size(), new_end - at));
    const ssize_t w = ::pwrite(fd_, zeros.data(), n, static_cast<off_t>(at));
    if (w < 0) {
      return Status::IoError("preallocate " + path_ + ": " +
                             std::strerror(errno));
    }
    at += static_cast<uint64_t>(w);
  }
  alloc_end_ = new_end;
  return Status::OK();
}

Status SystemLog::Flush() {
  // Everything appended before this call has an LSN below `target`, and
  // its bytes entered the tail in the same tail_mu_ section that advanced
  // logical_end_ — so the drainer's next swap, which takes tail_mu_ after
  // it sees this registration, carries them.
  const Lsn target = logical_end_.load(std::memory_order_acquire);
  if (target <= durable_.load(std::memory_order_acquire)) return Status::OK();
  std::unique_lock<std::mutex> guard(drain_mu_);
  const uint64_t my_req = ++request_seq_;
  if (flush_target_ < target) flush_target_ = target;
  if (in_round_) {
    ins_.flush_piggybacks->Add();
    ++round_piggybacks_;
  }
  drain_cv_.notify_one();
  flush_cv_.wait(guard, [&] {
    return durable_.load(std::memory_order_relaxed) >= target ||
           error_seq_ >= my_req;
  });
  if (durable_.load(std::memory_order_relaxed) >= target) return Status::OK();
  return last_error_;
}

void SystemLog::DrainerLoop() {
  pthread_setname_np(pthread_self(), "cwdb-wal");
  std::unique_lock<std::mutex> guard(drain_mu_);
  for (;;) {
    drain_cv_.wait(guard, [&] {
      return stop_ || (flush_target_ > durable_.load(std::memory_order_relaxed) &&
                       request_seq_ > failed_req_);
    });
    if (stop_) return;

    // Group-commit dally: the committers the previous round woke are about
    // to run one transaction each and register again; without a short hold
    // the round latches its target before they arrive and every burst of N
    // commits splits across two fsyncs. Piggybacked registrations (or ≥2
    // arrivals since the last latch) are the evidence a burst exists; a
    // single committer never piggybacks, so the unconcurrent path pays no
    // extra latency. The estimate includes last round's stragglers so it
    // grows to the true concurrency instead of locking in whatever the
    // first undersized round happened to catch.
    if (last_round_reqs_ >= 2 || piggybacks_last_round_ > 0 ||
        request_seq_ - last_latch_seq_ >= 2) {
      const uint64_t expected = std::max<uint64_t>(
          last_round_reqs_ + piggybacks_last_round_, 2);
      const auto deadline = std::chrono::steady_clock::now() + kDallyDeadline;
      while (request_seq_ - last_latch_seq_ < expected) {
        const uint64_t seen = request_seq_;
        drain_cv_.wait_for(guard, kDallyQuietWindow);
        if (stop_) return;
        if (request_seq_ == seen) break;  // Quiet window: burst is in.
        if (std::chrono::steady_clock::now() >= deadline) break;
      }
    }

    // Latch the round: remember how many registrations it absorbs (the
    // next dally's burst-size estimate) and start counting piggybacks.
    last_round_reqs_ = request_seq_ - last_latch_seq_;
    last_latch_seq_ = request_seq_;
    piggybacks_last_round_ = round_piggybacks_;
    round_piggybacks_ = 0;
    in_round_ = true;

    // Swap the tail out. Every registered target is at or below the
    // logical end seen here, so this round's sync covers all of them. The
    // tags close their queue-wait span here (staged -> picked up is the
    // cross-thread hop) and wait in traced_ for the sync.
    size_t picked = traced_.size();
    {
      std::lock_guard<std::mutex> tail_guard(tail_mu_);
      TakeAll(&out_, &tail_);
      TakeAll(&traced_, &tail_tags_);
    }
    if (picked < traced_.size()) {
      const uint64_t now = NowNs();
      for (; picked < traced_.size(); ++picked) {
        const WalTraceTag& tag = traced_[picked];
        tag.ctx.tracer->Record(tag.ctx, SpanKind::kQueueWait, tag.staged_ns,
                               now, tag.end_lsn, 0);
      }
    }
    guard.unlock();

    // out_, write_pos_, alloc_end_ and trim_tail_ belong to the drainer
    // while in_round_ is set.
    const uint64_t t0 = NowNs();
    const uint64_t written = out_.size();
    const uint64_t end = write_pos_ + written;
    Status io;
    if (trim_tail_) {
      // Cut off the torn or damaged bytes Open found past the valid
      // prefix before preallocating over them, so no stale frame can
      // survive past the new zero tail.
      if (::ftruncate(fd_, static_cast<off_t>(write_pos_)) != 0) {
        io = Status::IoError("ftruncate " + path_ + ": " +
                             std::strerror(errno));
      } else {
        trim_tail_ = false;
        alloc_end_ = write_pos_;
      }
    }
    if (io.ok() && written != 0 && end + kFrameHeaderBytes > alloc_end_) {
      // Zero-extend a full stride past the frontier so this round's
      // fdatasync is the only one that pays the allocation's journal
      // commit; the rounds that follow sync pure data. A crash between
      // the extension and the sync leaves a zero tail (or a shorter
      // file), both of which LogReader::ScanTail reads as clean end of log.
      io = Preallocate(end + kPreallocChunkBytes);
    }
    if (io.ok() && written != 0) {
      io = crashpoint::InjectedPWrite("wal.flush.pwrite", fd_, out_.data(),
                                      written, write_pos_);
    }
    if (io.ok()) {
      // The bytes are in the file (synced or not) and need never be
      // rewritten, so a failed fsync retries as a pure-sync round. After a
      // failed write out_ keeps them for the retry, at the same position.
      write_pos_ = end;
      out_.clear();
    }
    const uint64_t t_write_end = NowNs();
    if (io.ok()) {
      io = crashpoint::Check("wal.flush.fdatasync");
      if (io.ok() && ::fdatasync(fd_) != 0) {
        io = Status::IoError("fdatasync " + path_ + ": " +
                             std::strerror(errno));
      }
    }
    const uint64_t t_sync_end = NowNs();

    guard.lock();
    in_round_ = false;
    if (io.ok()) {
      const uint64_t advance =
          write_pos_ - durable_.load(std::memory_order_relaxed);
      durable_.store(write_pos_, std::memory_order_release);
      if (recorder_ != nullptr) recorder_->NoteDurableLsn(write_pos_);
      ins_.flushes->Add();
      ins_.flush_latency_ns->Record(NowNs() - t0);
      ins_.flush_batch_bytes->Record(advance);
      ins_.tail_bytes->Set(static_cast<int64_t>(
          logical_end_.load(std::memory_order_relaxed) - write_pos_));
      metrics_->tracer()->Event(SpanKind::kGroupCommitFlush, write_pos_,
                                advance);
      // Every tag was swapped out with bytes this round made durable: each
      // gets its drainer-side write and fsync spans (children of the
      // originating commit's flush-wait span) and retires.
      for (const WalTraceTag& tag : traced_) {
        if (written != 0) {
          tag.ctx.tracer->Record(tag.ctx, SpanKind::kDrainBatch, t0,
                                 t_write_end, written, 0);
        }
        tag.ctx.tracer->Record(tag.ctx, SpanKind::kFsync, t_write_end,
                               t_sync_end, advance, 0);
      }
      traced_.clear();
    } else {
      // One failure per round, however many waiters it disappoints; the
      // bytes stay with the drainer at their LSNs, so the retry (triggered
      // by the next Flush call) covers the batch exactly once.
      ins_.flush_failures->Add();
      last_error_ = io;
      error_seq_ = request_seq_;
      failed_req_ = request_seq_;
    }
    flush_cv_.notify_all();
  }
}

void SystemLog::DiscardTail() {
  // Wait out any in-flight I/O round, then drop everything that is not
  // durable — the tail, bytes kept for a retry, and written-but-unsynced
  // bytes: a crash loses unsynced bytes too, so the conservative
  // simulation truncates back to the fsync'd prefix.
  std::unique_lock<std::mutex> guard(drain_mu_);
  flush_cv_.wait(guard, [&] { return !in_round_; });
  const uint64_t durable = durable_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> tail_guard(tail_mu_);
    tail_.clear();
    tail_tags_.clear();
    logical_end_.store(durable, std::memory_order_release);
    if (recorder_ != nullptr) recorder_->NoteStagedLsn(durable);
  }
  out_.clear();
  traced_.clear();
  if (write_pos_ > durable || alloc_end_ > durable) {
    CWDB_CHECK(::ftruncate(fd_, static_cast<off_t>(durable)) == 0)
        << "ftruncate " << path_ << ": " << std::strerror(errno);
  }
  alloc_end_ = durable;
  write_pos_ = durable;
  trim_tail_ = false;
  flush_target_ = durable;
  ins_.tail_bytes->Set(0);
}

Result<std::unique_ptr<LogReader>> LogReader::Open(const std::string& path,
                                                   Lsn start) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 && errno != ENOENT) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  const off_t size = fd < 0 ? 0 : ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    Status s = Status::IoError("lseek " + path + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<LogReader>(
      new LogReader(fd, static_cast<uint64_t>(size), start));
}

LogReader::~LogReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool LogReader::Fetch(uint64_t off, uint64_t len, const char** out) {
  if (!status_.ok() || off > size_ || len > size_ - off) return false;
  if (off < buf_off_ || off + len > buf_off_ + buf_len_) {
    const uint64_t n =
        std::min(size_ - off, std::max<uint64_t>(len, kReadChunkBytes));
    if (buf_.size() < n) buf_.resize(n);
    status_ = PReadAll(fd_, buf_.data(), n, off);
    buf_off_ = off;
    buf_len_ = status_.ok() ? n : 0;
    if (!status_.ok()) return false;
  }
  *out = buf_.data() + (off - buf_off_);
  return true;
}

bool LogReader::NextFrame(Slice* payload, Lsn* lsn) {
  const char* header;
  if (!Fetch(pos_, kFrameHeaderBytes, &header)) return false;
  const uint32_t len = DecodeFixed32(header);
  const uint32_t crc = DecodeFixed32(header + 4);
  // A zero header is preallocated file space, never a frame: appends are
  // always non-empty (enforced at staging), and Crc32c of nothing is 0, so
  // without this check eight zero bytes would verify as a valid empty frame
  // and the walk would cross the whole preallocated tail.
  if (len == 0 && crc == 0) return false;
  const char* data;
  if (!Fetch(pos_ + kFrameHeaderBytes, len, &data)) return false;
  if (Crc32c(data, len) != crc) return false;  // Torn or damaged frame.
  if (lsn != nullptr) *lsn = pos_;
  *payload = Slice(data, len);
  pos_ += kFrameHeaderBytes + len;
  return true;
}

bool LogReader::Next(LogRecord* record, Lsn* lsn) {
  Slice payload;
  Lsn at = 0;
  if (!NextFrame(&payload, &at)) return false;
  if (!DecodeLogRecord(payload, record)) {
    // The frame's CRC verifies, so it was written whole: a payload that
    // does not decode is damage (or another format), not the end of the
    // log. Taking it for the end would silently drop every later record.
    status_ = Status::Corruption("system log record at LSN " +
                                 std::to_string(at) + " does not decode");
    pos_ = at;
    return false;
  }
  if (lsn != nullptr) *lsn = at;
  return true;
}

WalTailScan LogReader::ScanTail() {
  Slice payload;
  while (NextFrame(&payload, nullptr)) {
  }
  WalTailScan scan;
  scan.file_bytes = size_;
  scan.valid_bytes = pos_;
  if (pos_ >= size_ || !status_.ok()) return scan;
  // A torn tail is an *incomplete* final frame with nothing valid after it
  // — the only shape a crashed append can leave, since nothing beyond the
  // torn write was ever issued. Anything else (a complete frame failing its
  // CRC, or a later frame that still verifies) means stable bytes were
  // altered after they were made durable.
  const uint64_t bad = pos_;
  const char* p;
  bool damaged = false;
  if (Fetch(bad, kFrameHeaderBytes, &p)) {
    // A complete frame (not a zero header) that failed its CRC.
    const uint32_t len = DecodeFixed32(p);
    damaged = (len != 0 || DecodeFixed32(p + 4) != 0) &&
              bad + kFrameHeaderBytes + len <= size_;
  }
  // A zero header is normally clean preallocated space, and the frame
  // header itself may hold the damaged bytes (a flipped length word looks
  // torn). Either way, resync-scan a bounded window for a later frame that
  // still verifies; finding one proves the log continued past the "tear"
  // (or that stable bytes were wiped in place rather than never written).
  const uint64_t window_end = std::min<uint64_t>(size_, bad + (1ull << 20));
  size_t crc_attempts = 0;
  for (uint64_t off = bad + 1; !damaged && crc_attempts < 1024 &&
                               off + kFrameHeaderBytes <= window_end;
       ++off) {
    if (!Fetch(off, kFrameHeaderBytes, &p)) return scan;
    const uint32_t len = DecodeFixed32(p);
    const uint32_t crc = DecodeFixed32(p + 4);
    if (len == 0 || off + kFrameHeaderBytes + len > size_) continue;
    ++crc_attempts;
    const char* data;
    if (!Fetch(off + kFrameHeaderBytes, len, &data)) return scan;
    damaged = Crc32c(data, len) == crc;
  }
  if (damaged) {
    scan.tail = WalTail::kDamaged;
    scan.damage_off = bad;
    return scan;
  }
  // Not damaged: all zeros is the drainer's preallocation, anything else a
  // torn append.
  scan.tail = WalTail::kPreallocated;
  for (uint64_t off = bad; off < size_;) {
    const uint64_t n = std::min<uint64_t>(size_ - off, kReadChunkBytes);
    if (!Fetch(off, n, &p)) return scan;
    if (std::any_of(p, p + n, [](char c) { return c != '\0'; })) {
      scan.tail = WalTail::kTorn;
      break;
    }
    off += n;
  }
  return scan;
}

}  // namespace cwdb
