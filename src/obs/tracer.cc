#include "obs/tracer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace cwdb {

namespace {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer. Feeding it
/// seed ^ candidate-index gives an i.i.d.-looking but fully deterministic
/// sampling sequence.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Per-thread ordinal, for the exported Perfetto tid. Ordinals are small
/// and stable for the life of the thread.
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ord = next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

/// Same sticky round-robin assignment Counter::ThreadShard uses: each
/// thread picks the next ring at first use and keeps it, so writers on
/// different threads publish into disjoint rings.
size_t RingIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t ring = next.fetch_add(1, std::memory_order_relaxed);
  return ring % Tracer::kRings;
}

thread_local SpanContext g_current_ctx;

}  // namespace

Tracer::~Tracer() {
  for (std::atomic<Ring*>& ring : rings_) delete ring.load();
}

void Tracer::Configure(const TracerOptions& options) {
  for (const std::atomic<Ring*>& ring : rings_) {
    CWDB_CHECK(ring.load() == nullptr)
        << "Tracer::Configure after the first record";
  }
  ring_capacity_ = RoundUpPow2(std::max<size_t>(options.ring_capacity, 64));
  seed_ = options.seed;
  if (options.sample_rate <= 0.0) return;
  double rate = std::min(options.sample_rate, 1.0);
  sample_threshold_ =
      rate >= 1.0 ? UINT64_MAX
                  : static_cast<uint64_t>(
                        rate * static_cast<double>(UINT64_MAX));
}

Tracer::Ring& Tracer::ThreadRing() {
  std::atomic<Ring*>& slot = rings_[RingIndex()];
  Ring* ring = slot.load(std::memory_order_acquire);
  if (ring != nullptr) return *ring;
  // First record on this ring: allocate, and let a racing first writer on
  // another thread win (its ring is then the one everybody uses).
  auto fresh = std::make_unique<Ring>(ring_capacity_);
  if (slot.compare_exchange_strong(ring, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *ring;
}

SpanContext Tracer::StartTrace(uint64_t* root_span_id) {
  SpanContext ctx;
  ctx.tracer = this;
  ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = NewSpanId();
  *root_span_id = ctx.span_id;
  return ctx;
}

SpanContext Tracer::MaybeStartTrace(uint64_t* root_span_id) {
  if (sample_threshold_ == 0) return SpanContext{};
  uint64_t n = candidates_.fetch_add(1, std::memory_order_relaxed);
  if (Mix64(seed_ ^ n) >= sample_threshold_) return SpanContext{};
  return StartTrace(root_span_id);
}

SpanContext Tracer::StartForcedTrace(uint64_t* root_span_id) {
  return StartTrace(root_span_id);
}

void Tracer::Record(const SpanContext& ctx, SpanKind kind, uint64_t start_ns,
                    uint64_t end_ns, uint64_t a, uint64_t b) {
  if (!ctx.sampled()) return;
  RecordWithId(ctx, NewSpanId(), kind, start_ns, end_ns, a, b);
}

void Tracer::RecordWithId(const SpanContext& ctx, uint64_t span_id,
                          SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                          uint64_t a, uint64_t b) {
  if (!ctx.sampled()) return;
  SpanRecord r;
  r.trace_id = ctx.trace_id;
  r.span_id = span_id;
  r.parent_id = ctx.span_id;
  r.start_ns = start_ns;
  r.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  r.a = a;
  r.b = b;
  r.kind = kind;
  Publish(r);
}

void Tracer::Event(SpanKind kind, uint64_t lsn, uint64_t a, uint64_t b,
                   uint64_t shard) {
  SpanRecord r;
  r.span_id = NewSpanId();
  r.start_ns = NowNs();
  r.lsn = lsn;
  r.a = a;
  r.b = b;
  r.shard = shard;
  r.kind = kind;
  Publish(r);
  if (FlightRecorder* recorder = recorder_.load(std::memory_order_acquire)) {
    recorder->MirrorEvent(EventOf(r));
  }
}

void Tracer::Publish(const SpanRecord& r) {
  Ring& ring = ThreadRing();
  uint64_t seq = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring.slots[seq & ring.mask];
  s.ticket.store(2 * seq + 1, std::memory_order_release);
  s.trace_id.store(r.trace_id, std::memory_order_relaxed);
  s.span_id.store(r.span_id, std::memory_order_relaxed);
  s.parent_id.store(r.parent_id, std::memory_order_relaxed);
  s.start_ns.store(r.start_ns, std::memory_order_relaxed);
  s.dur_ns.store(r.dur_ns, std::memory_order_relaxed);
  s.lsn.store(r.lsn, std::memory_order_relaxed);
  s.a.store(r.a, std::memory_order_relaxed);
  s.b.store(r.b, std::memory_order_relaxed);
  s.shard.store(r.shard, std::memory_order_relaxed);
  s.tid.store(ThreadOrdinal(), std::memory_order_relaxed);
  s.kind.store(static_cast<uint8_t>(r.kind), std::memory_order_relaxed);
  s.ticket.store(2 * seq + 2, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::Collect(bool events_only) const {
  std::vector<SpanRecord> out;
  for (const std::atomic<Ring*>& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (size_t i = 0; i <= ring->mask; ++i) {
      const Slot& s = ring->slots[i];
      uint64_t ticket = s.ticket.load(std::memory_order_acquire);
      if (ticket == 0 || (ticket & 1) != 0) continue;
      SpanRecord r;
      r.kind = static_cast<SpanKind>(s.kind.load(std::memory_order_relaxed));
      if (events_only && !IsEventKind(r.kind)) continue;
      r.trace_id = s.trace_id.load(std::memory_order_relaxed);
      r.span_id = s.span_id.load(std::memory_order_relaxed);
      r.parent_id = s.parent_id.load(std::memory_order_relaxed);
      r.start_ns = s.start_ns.load(std::memory_order_relaxed);
      r.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      r.lsn = s.lsn.load(std::memory_order_relaxed);
      r.a = s.a.load(std::memory_order_relaxed);
      r.b = s.b.load(std::memory_order_relaxed);
      r.shard = s.shard.load(std::memory_order_relaxed);
      r.tid = s.tid.load(std::memory_order_relaxed);
      // Keep the record only if the slot still belongs to the seq we
      // started reading (a writer may have lapped us mid-copy; the kind
      // filter above may then have judged the lapping record's kind).
      if (s.ticket.load(std::memory_order_acquire) != ticket) continue;
      out.push_back(r);
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out = Collect(/*events_only=*/false);
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.start_ns != y.start_ns ? x.start_ns < y.start_ns
                                              : x.span_id < y.span_id;
            });
  return out;
}

std::vector<TraceEvent> Tracer::RecentEvents(size_t max) const {
  std::vector<SpanRecord> records = Collect(/*events_only=*/true);
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.span_id < y.span_id;
            });
  const size_t skip = records.size() > max ? records.size() - max : 0;
  std::vector<TraceEvent> out;
  out.reserve(records.size() - skip);
  for (size_t i = skip; i < records.size(); ++i) {
    out.push_back(EventOf(records[i]));
  }
  return out;
}

uint64_t Tracer::recorded() const {
  uint64_t total = 0;
  for (const std::atomic<Ring*>& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

SpanContext Tracer::Current() { return g_current_ctx; }

ScopedSpanContext::ScopedSpanContext(const SpanContext& ctx)
    : prev_(g_current_ctx) {
  g_current_ctx = ctx;
}

ScopedSpanContext::~ScopedSpanContext() { g_current_ctx = prev_; }

ScopedSpan::ScopedSpan(const SpanContext& ctx, SpanKind kind, uint64_t a,
                       uint64_t b)
    : ctx_(ctx), kind_(kind), a_(a), b_(b) {
  if (ctx_.sampled()) start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (ctx_.sampled()) {
    ctx_.tracer->Record(ctx_, kind_, start_ns_, NowNs(), a_, b_);
  }
}

}  // namespace cwdb
