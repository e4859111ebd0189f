#include "wal/system_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
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

/// A shard publishes its staged frames to the drainer queue once they pass
/// this size, so a long transaction's redo streams out incrementally
/// instead of arriving as one giant batch at commit.
constexpr size_t kPublishThresholdBytes = 32 << 10;

/// Upper bound on one pwrite chunk. A round with a larger backlog writes
/// multiple chunks (and only fsyncs after the last one it needs).
constexpr size_t kMaxWriteChunkBytes = 4 << 20;

/// Capacity of the lock-free batch queue (batches, not bytes). At the
/// publish threshold this is ~32 MB of backlog before producers have to
/// yield to the drainer.
constexpr size_t kQueueCapacity = 1024;

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

}  // namespace

SystemLog::SystemLog(std::string path, int fd, uint64_t stable_size,
                     MetricsRegistry* metrics, size_t shards)
    : path_(std::move(path)),
      fd_(fd),
      metrics_(FallbackRegistry(metrics, &own_metrics_)),
      logical_end_(stable_size),
      durable_(stable_size),
      queue_(kQueueCapacity),
      write_pos_(stable_size),
      alloc_end_(stable_size) {
  ins_.appends = metrics_->counter("wal.appends");
  ins_.bytes_appended = metrics_->counter("wal.bytes_appended");
  ins_.flushes = metrics_->counter("wal.flushes");
  ins_.flush_failures = metrics_->counter("wal.flush_failures");
  ins_.flush_piggybacks = metrics_->counter("wal.flush_piggybacks");
  ins_.tail_bytes = metrics_->gauge("wal.tail_bytes");
  ins_.flush_latency_ns = metrics_->histogram("wal.flush_latency_ns");
  ins_.flush_batch_bytes = metrics_->histogram("wal.flush_batch_bytes");
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<AppendShard>();
    char name[48];
    std::snprintf(name, sizeof(name), "wal.shard%zu.appends", s);
    shard->appends = metrics_->counter(name);
    shard->index = s;
    shards_.push_back(std::move(shard));
  }
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
                                                   size_t shards,
                                                   FlightRecorder* recorder) {
  WalTailScan scan;
  {
    CWDB_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader,
                          LogReader::Open(path));
    scan = reader->ScanTail();
    CWDB_RETURN_IF_ERROR(reader->status());
  }
  const uint64_t stable = scan.valid_bytes;
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  // Physically drop any torn tail so appends continue from the valid prefix.
  if (stable < scan.file_bytes) {
    if (::ftruncate(fd, static_cast<off_t>(stable)) != 0) {
      Status s =
          Status::IoError("ftruncate " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
  }
  auto log = std::unique_ptr<SystemLog>(
      new SystemLog(path, fd, stable, metrics, shards));
  log->recorder_ = recorder;
  if (recorder != nullptr) {
    // Seed the black box's frontiers with the recovered stable state so a
    // crash before the first append still reads sensibly.
    recorder->NoteDurableLsn(stable, stable);
  }
  log->tail_scan_ = scan;
  if (scan.damaged()) {
    // The caller (Database recovery) files the incident dossier; the
    // counter and trace entry are recorded here so standalone opens (tools,
    // tests) still leave evidence.
    log->metrics_->counter("wal.crc_damaged_tail")->Add();
    log->metrics_->trace().Record(TraceEventType::kWalTailDamage, stable,
                                  scan.damage_off, scan.file_bytes);
  }
  return log;
}

size_t SystemLog::ShardIndex() const {
  // Round-robin thread-to-shard assignment, sticky per thread: appends by
  // one thread always stage in order on one shard, which (with the LSN
  // fetch_add under the shard mutex) keeps every shard buffer LSN-sorted.
  static std::atomic<size_t> next_token{0};
  thread_local size_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return token % shards_.size();
}

Lsn SystemLog::StageFrameLocked(AppendShard& sh, Slice payload) {
  // Empty frames are indistinguishable from preallocated zeros on disk
  // (Crc32c of nothing is 0), so the recovery scan treats a zero header as
  // end of log; staging one would silently end the log early.
  CWDB_DCHECK(!payload.empty()) << "empty log payload";
  const uint64_t frame_bytes = kFrameHeaderBytes + payload.size();
  Lsn lsn = logical_end_.fetch_add(frame_bytes, std::memory_order_acq_rel);
  std::string frame;
  frame.reserve(frame_bytes);
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload.data(), payload.size());
  sh.frames.emplace_back(lsn, std::move(frame));
  sh.bytes += frame_bytes;
  ins_.bytes_appended->Add(frame_bytes);
  if (recorder_ != nullptr) {
    // Mirror the staged frontier into the black box: one relaxed store on
    // a path that already holds the shard mutex — no new synchronization.
    recorder_->NoteStagedLsn(sh.index, lsn + frame_bytes);
  }
  return lsn;
}

void SystemLog::PublishLocked(AppendShard& sh) {
  if (sh.frames.empty()) return;
  auto batch = std::make_unique<Batch>();
  batch->frames = std::move(sh.frames);
  batch->tags = std::move(sh.tags);
  sh.frames.clear();
  sh.tags.clear();
  sh.bytes = 0;
  // The queue-wait clock starts now: the tag is in flight to the drainer.
  if (!batch->tags.empty()) {
    const uint64_t now = NowNs();
    for (WalTraceTag& tag : batch->tags) tag.publish_ns = now;
  }
  // The queue is bounded; when it is full the drainer is far behind, so
  // yielding to it is the right (and rare) backpressure.
  while (!queue_.TryPush(batch.get())) std::this_thread::yield();
  batch.release();
}

Lsn SystemLog::Append(Slice payload) {
  AppendShard& sh = *shards_[ShardIndex()];
  std::lock_guard<std::mutex> guard(sh.mu);
  Lsn lsn = StageFrameLocked(sh, payload);
  ins_.appends->Add();
  sh.appends->Add();
  if (sh.bytes >= kPublishThresholdBytes) PublishLocked(sh);
  ins_.tail_bytes->Set(static_cast<int64_t>(
      logical_end_.load(std::memory_order_relaxed) -
      durable_.load(std::memory_order_relaxed)));
  return lsn;
}

Lsn SystemLog::AppendAll(const std::vector<std::string>& payloads,
                         const SpanContext* trace) {
  if (payloads.empty()) return CurrentLsn();
  AppendShard& sh = *shards_[ShardIndex()];
  std::lock_guard<std::mutex> guard(sh.mu);
  Lsn first = kInvalidLsn;
  Lsn end = 0;
  for (const std::string& payload : payloads) {
    Lsn lsn = StageFrameLocked(sh, payload);
    if (first == kInvalidLsn) first = lsn;
    end = lsn + kFrameHeaderBytes + payload.size();
  }
  if (trace != nullptr && trace->sampled()) {
    sh.tags.push_back(WalTraceTag{*trace, 0, end});
  }
  ins_.appends->Add(payloads.size());
  sh.appends->Add(payloads.size());
  if (sh.bytes >= kPublishThresholdBytes) PublishLocked(sh);
  ins_.tail_bytes->Set(static_cast<int64_t>(
      logical_end_.load(std::memory_order_relaxed) -
      durable_.load(std::memory_order_relaxed)));
  return first;
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
  // Everything appended before this call has an LSN below `target` (the
  // fetch_add happened before this load), and its frame reached its shard
  // buffer under the shard mutex — so the sweep below is guaranteed to see
  // it. Frames appended concurrently get LSNs at or above target and may
  // ride along; they never create a gap below it.
  const Lsn target = logical_end_.load(std::memory_order_acquire);
  if (target <= durable_.load(std::memory_order_acquire)) return Status::OK();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    PublishLocked(*shard);
  }
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

    // Merge everything queued so far into the reorder buffer. Trace tags
    // close their queue-wait span here (publish -> pop is the cross-thread
    // hop) and park in traced_ until the durable frontier passes them.
    bool popped = false;
    Batch* batch = nullptr;
    while (queue_.TryPop(&batch)) {
      popped = true;
      for (auto& f : batch->frames) {
        pending_.emplace(f.first, std::move(f.second));
      }
      if (!batch->tags.empty()) {
        const uint64_t now = NowNs();
        for (WalTraceTag& tag : batch->tags) {
          tag.ctx.tracer->Record(tag.ctx, SpanKind::kQueueWait, tag.publish_ns,
                                 now, tag.end_lsn, 0);
          traced_.push_back(tag);
        }
      }
      delete batch;
    }

    // Coalesce the contiguous prefix at write_pos_ into one write chunk.
    // Writing only the contiguous prefix keeps the on-disk file a valid
    // frame prefix plus at most one torn frame at every instant — the
    // shape LogReader::ScanTail's torn-vs-damaged classification relies on.
    std::string chunk;
    auto end_it = pending_.begin();
    const uint64_t base = write_pos_;
    uint64_t pos = base;
    while (end_it != pending_.end() && end_it->first == pos &&
           chunk.size() < kMaxWriteChunkBytes) {
      chunk.append(end_it->second);
      pos += end_it->second.size();
      ++end_it;
    }
    const bool do_sync = pos >= flush_target_;
    if (chunk.empty() && !do_sync) {
      // Transient gap: a publisher has reserved LSNs at write_pos_ but its
      // TryPush has not landed yet. Yield briefly and re-pop.
      if (!popped) {
        drain_cv_.wait_for(guard, std::chrono::microseconds(20));
      }
      continue;
    }

    // Latch the round: remember how many registrations it absorbs (the
    // next dally's burst-size estimate) and start counting piggybacks.
    last_round_reqs_ = request_seq_ - last_latch_seq_;
    last_latch_seq_ = request_seq_;
    piggybacks_last_round_ = round_piggybacks_;
    round_piggybacks_ = 0;
    in_round_ = true;
    guard.unlock();

    const uint64_t t0 = NowNs();
    Status io;
    bool wrote_ok = true;
    if (!chunk.empty() && base + chunk.size() + kFrameHeaderBytes >
                              alloc_end_) {
      // Zero-extend a full stride past the frontier so this round's
      // fdatasync is the only one that pays the allocation's journal
      // commit; the rounds that follow sync pure data. A crash between
      // the extension and the sync leaves a zero tail (or a shorter
      // file), both of which LogReader::ScanTail reads as clean end of log.
      io = Preallocate(base + chunk.size() + kPreallocChunkBytes);
      wrote_ok = io.ok();
    }
    if (io.ok() && !chunk.empty()) {
      io = crashpoint::InjectedPWrite("wal.flush.pwrite", fd_, chunk.data(),
                                      chunk.size(), base);
      wrote_ok = io.ok();
    }
    const uint64_t t_write_end = NowNs();
    if (io.ok() && do_sync) {
      io = crashpoint::Check("wal.flush.fdatasync");
      if (io.ok() && ::fdatasync(fd_) != 0) {
        io = Status::IoError("fdatasync " + path_ + ": " +
                             std::strerror(errno));
      }
    }
    const uint64_t t_sync_end = NowNs();

    guard.lock();
    in_round_ = false;
    if (wrote_ok && !chunk.empty()) {
      // The bytes are in the file (synced or not); the frames need never
      // be rewritten, so a failed fsync retries as a pure-sync round.
      write_pos_ = pos;
      pending_.erase(pending_.begin(), end_it);
    }
    if (io.ok()) {
      if (do_sync) {
        const uint64_t advance =
            write_pos_ - durable_.load(std::memory_order_relaxed);
        durable_.store(write_pos_, std::memory_order_release);
        if (recorder_ != nullptr) {
          recorder_->NoteDurableLsn(
              write_pos_, logical_end_.load(std::memory_order_relaxed));
        }
        ins_.flushes->Add();
        ins_.flush_latency_ns->Record(NowNs() - t0);
        ins_.flush_batch_bytes->Record(advance);
        ins_.tail_bytes->Set(static_cast<int64_t>(
            logical_end_.load(std::memory_order_relaxed) - write_pos_));
        metrics_->trace().Record(TraceEventType::kGroupCommitFlush,
                                 write_pos_, advance, 0);
        if (!traced_.empty()) {
          // Tags whose frames this round made durable get their drainer-side
          // write and fsync spans (children of the originating commit's
          // flush-wait span) and retire; tags beyond the frontier wait for
          // a later round.
          auto keep = traced_.begin();
          for (auto it = traced_.begin(); it != traced_.end(); ++it) {
            if (it->end_lsn > write_pos_) {
              *keep++ = *it;
              continue;
            }
            if (!chunk.empty()) {
              it->ctx.tracer->Record(it->ctx, SpanKind::kDrainBatch, t0,
                                     t_write_end, chunk.size(), 0);
            }
            it->ctx.tracer->Record(it->ctx, SpanKind::kFsync, t_write_end,
                                   t_sync_end, advance, 0);
          }
          traced_.erase(keep, traced_.end());
        }
      }
    } else {
      // One failure per round, however many waiters it disappoints; the
      // frames stay staged at their LSNs, so the retry (triggered by the
      // next Flush call) covers the batch exactly once.
      ins_.flush_failures->Add();
      last_error_ = io;
      error_seq_ = request_seq_;
      failed_req_ = request_seq_;
    }
    flush_cv_.notify_all();
  }
}

void SystemLog::DiscardTail() {
  // Volatile staging dies first (what a process failure loses)...
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    shard->frames.clear();
    shard->tags.clear();
    shard->bytes = 0;
  }
  std::unique_lock<std::mutex> guard(drain_mu_);
  // ...then wait out any in-flight I/O round and drop everything that is
  // written but not yet durable: a crash loses unsynced bytes too, so the
  // conservative simulation truncates back to the fsync'd prefix.
  flush_cv_.wait(guard, [&] { return !in_round_; });
  Batch* batch = nullptr;
  while (queue_.TryPop(&batch)) delete batch;
  pending_.clear();
  traced_.clear();
  const uint64_t durable = durable_.load(std::memory_order_relaxed);
  if (write_pos_ > durable || alloc_end_ > durable) {
    CWDB_CHECK(::ftruncate(fd_, static_cast<off_t>(durable)) == 0)
        << "ftruncate " << path_ << ": " << std::strerror(errno);
  }
  alloc_end_ = durable;
  write_pos_ = durable;
  flush_target_ = durable;
  logical_end_.store(durable, std::memory_order_release);
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
