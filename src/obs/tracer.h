#ifndef CWDB_OBS_TRACER_H_
#define CWDB_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/span.h"

namespace cwdb {

class FlightRecorder;

/// Tracer configuration. The sample rate only decides which transactions
/// are traced: background passes (checkpoints, audit sweeps, recovery)
/// and instant events are recorded at every rate.
struct TracerOptions {
  /// Fraction of transactions to trace, in [0, 1]. 0 reduces the
  /// transaction pipeline's tracing cost to one load at Begin.
  double sample_rate = 0.0;
  /// Seed for the deterministic sampler: the same seed and the same
  /// candidate sequence yield the same sampling decisions, so traced runs
  /// are reproducible.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Capacity of each per-thread ring (rounded up to a power of two, at
  /// least 64). The rings are the bounded in-memory store: old records are
  /// overwritten in place once a ring wraps.
  size_t ring_capacity = 4096;
};

/// The engine's one trace recorder: completed spans and instant events.
/// One per MetricsRegistry (i.e. per Database).
///
/// Writers publish records into one of a fixed set of lock-free ring
/// buffers — each thread is assigned a ring round-robin at first use and
/// sticks to it, so concurrent committers never touch the same slot — with
/// a per-slot ticket (odd = write in progress, even = published; see
/// DESIGN.md §11 for the memory-ordering argument). A ring is allocated by
/// the first record that lands in it, so a tracer that records nothing
/// allocates nothing. Snapshot() merges the rings, dropping slots a writer
/// lapped mid-copy.
///
/// Sampling is deterministic: candidate n is traced iff
/// splitmix64(seed ^ n) < rate * 2^64, so a fixed seed replays the same
/// decision sequence. Trace and span ids are process-lifetime ordinals;
/// instant events draw their ids from the same counter.
class Tracer {
 public:
  Tracer() = default;
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sets the sample rate, seed and ring capacity. Before the first record
  /// and before concurrent use (the Database configures its tracer during
  /// Open, before any component exists). An unconfigured tracer samples no
  /// transactions and uses the default ring capacity.
  void Configure(const TracerOptions& options);

  /// Whether any transaction can be sampled (a nonzero rate). One load.
  bool sampling() const { return sample_threshold_ != 0; }

  /// Sampling decision for the next transaction: an unsampled (default)
  /// context when the rate is zero or the sampler says no; otherwise a
  /// context with a fresh trace id whose parent is the root span id passed
  /// back via `root_span_id` (the caller records the root span itself when
  /// the transaction retires).
  SpanContext MaybeStartTrace(uint64_t* root_span_id);

  /// Starts a trace unconditionally (background passes).
  SpanContext StartForcedTrace(uint64_t* root_span_id);

  /// Allocates a span id without recording anything — for sites that need
  /// to hand a parent id to another thread before the span completes
  /// (the flush-wait span parents the drainer-side spans).
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Publishes one completed span as a child of `ctx.span_id`. No-op for
  /// an unsampled context.
  void Record(const SpanContext& ctx, SpanKind kind, uint64_t start_ns,
              uint64_t end_ns, uint64_t a = 0, uint64_t b = 0);

  /// Publishes a completed span under a pre-allocated id (NewSpanId) so
  /// children recorded elsewhere can already reference it.
  void RecordWithId(const SpanContext& ctx, uint64_t span_id, SpanKind kind,
                    uint64_t start_ns, uint64_t end_ns, uint64_t a = 0,
                    uint64_t b = 0);

  /// Publishes one instant event (an event kind; trace 0, dur 0) stamped
  /// now, and mirrors it into the flight recorder when one is attached.
  void Event(SpanKind kind, uint64_t lsn = 0, uint64_t a = 0, uint64_t b = 0,
             uint64_t shard = kNoTraceShard);

  /// Consistent published records currently resident across all rings,
  /// spans and events alike, ascending start_ns.
  std::vector<SpanRecord> Snapshot() const;

  /// The newest `max` resident instant events as TraceEvents, ascending
  /// seq. The one reader behind metrics.json `events` and dossier tails.
  std::vector<TraceEvent> RecentEvents(size_t max) const;

  /// Total records ever published (the excess over Snapshot().size()
  /// wrapped).
  uint64_t recorded() const;

  /// Attaches (or detaches, with nullptr) the black box that mirrors every
  /// instant event. The owner must keep the recorder alive until it is
  /// detached — Database detaches before the flight recorder is destroyed.
  void set_flight_recorder(FlightRecorder* recorder) {
    recorder_.store(recorder, std::memory_order_release);
  }

  /// The calling thread's ambient span context (unsampled by default).
  /// Lets deep sites — the lock manager's blocking path — attach spans
  /// without threading a context through every signature.
  static SpanContext Current();

  static constexpr size_t kRings = 16;

 private:
  struct Slot {
    std::atomic<uint64_t> ticket{0};  ///< 2*seq+1 writing, 2*seq+2 done.
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> lsn{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> shard{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint8_t> kind{0};
  };

  struct Ring {
    explicit Ring(size_t capacity)
        : slots(new Slot[capacity]), mask(capacity - 1) {}
    std::unique_ptr<Slot[]> slots;
    const size_t mask;
    std::atomic<uint64_t> head{0};
  };

  /// The calling thread's ring, allocated on first use.
  Ring& ThreadRing();
  SpanContext StartTrace(uint64_t* root_span_id);
  void Publish(const SpanRecord& r);
  /// Consistent resident records, events only when `events_only`.
  std::vector<SpanRecord> Collect(bool events_only) const;

  uint64_t sample_threshold_ = 0;  ///< Sample iff hash < threshold.
  uint64_t seed_ = 0;
  size_t ring_capacity_ = 4096;
  std::atomic<uint64_t> candidates_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<Ring*> rings_[kRings] = {};
  std::atomic<FlightRecorder*> recorder_{nullptr};
};

/// RAII installer for the thread's ambient context (Tracer::Current).
/// Installed around code whose callees may record spans against the
/// current transaction without having a Transaction* in scope.
class ScopedSpanContext {
 public:
  explicit ScopedSpanContext(const SpanContext& ctx);
  ~ScopedSpanContext();
  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  SpanContext prev_;
};

/// RAII span: stamps the clock at construction and records at destruction
/// when the context is sampled (and the clock is only read when it is).
class ScopedSpan {
 public:
  ScopedSpan(const SpanContext& ctx, SpanKind kind, uint64_t a = 0,
             uint64_t b = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_payload(uint64_t a, uint64_t b) {
    a_ = a;
    b_ = b;
  }

 private:
  SpanContext ctx_;
  SpanKind kind_;
  uint64_t start_ns_ = 0;
  uint64_t a_;
  uint64_t b_;
};

}  // namespace cwdb

#endif  // CWDB_OBS_TRACER_H_
