#ifndef CWDB_OBS_TRACE_EXPORT_H_
#define CWDB_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/span.h"

namespace cwdb {

/// A captured set of trace records (spans and instant events) plus the
/// clock anchors needed to interpret them offline. This is the schema of
/// <dir>/spans.json (written by Database::DumpMetrics and the metrics
/// flusher) and the input to every exporter below.
struct SpanDump {
  /// Bumped to 2 when records gained the optional `lsn` and `shard`
  /// fields (instant events); version-1 documents parse unchanged.
  static constexpr uint32_t kSchemaVersion = 2;

  uint64_t captured_mono_ns = 0;
  uint64_t captured_wall_ns = 0;
  /// Boot anchor pair (same instant on both clocks): wall time of a span
  /// is boot_wall_ns + (start_ns - boot_mono_ns).
  uint64_t boot_mono_ns = 0;
  uint64_t boot_wall_ns = 0;

  std::vector<SpanRecord> spans;
};

/// Stable machine-readable spans.json form (keys in fixed order, one
/// record per line; `lsn` and `shard` only when set). An empty dump
/// serializes to a valid document.
std::string SpansToJson(const SpanDump& dump);

/// Inverse of SpansToJson (any schema version). Records with an unknown
/// kind name are skipped.
Result<SpanDump> ParseSpansJson(std::string_view text);

/// Chrome/Perfetto trace-event JSON ({"traceEvents":[...]}; spans are
/// complete "X" events, instant events thread-scoped "i" events on the
/// same timeline; ts/dur in microseconds, tid = the tracer's thread
/// ordinal). Loadable directly in https://ui.perfetto.dev. An empty dump
/// yields the valid empty document {"traceEvents":[]}.
std::string SpansToChromeJson(const SpanDump& dump);

/// Operator-readable listing, one line per record, grouped by trace (the
/// instant events first, as trace 0).
std::string RenderSpanList(const SpanDump& dump);

/// Per-stage latency attribution over the sampled transaction traces.
///
/// For each trace rooted at a `txn` span, every span is charged its *self*
/// time — duration minus the duration of its children (clamped at zero),
/// so a stage is never double-counted against the stages nested inside it
/// and the per-trace stage self-times sum to the trace's end-to-end time
/// (untracked gaps are charged to the root's own stage). Traces are then
/// split into two cohorts by end-to-end duration — those at or below the
/// median, and those at or above p99 — and each stage's share is its
/// summed self time over the cohort's summed end-to-end time, so the
/// shares of each cohort sum to ~100% by construction.
struct StageShare {
  SpanKind kind = SpanKind::kTxn;
  uint64_t p50_self_ns = 0;  ///< Mean self time per trace in the cohort.
  uint64_t p99_self_ns = 0;
  double p50_share = 0.0;    ///< Fraction of cohort end-to-end time.
  double p99_share = 0.0;
};

struct AttributionTable {
  size_t traces = 0;        ///< Complete txn traces that contributed.
  size_t p50_cohort = 0;    ///< Traces in the at-or-below-median cohort.
  size_t p99_cohort = 0;    ///< Traces in the at-or-above-p99 cohort.
  uint64_t p50_total_ns = 0;  ///< Mean end-to-end time, p50 cohort.
  uint64_t p99_total_ns = 0;  ///< Mean end-to-end time, p99 cohort.
  std::vector<StageShare> rows;  ///< Descending p99 share.
};

AttributionTable ComputeAttribution(const std::vector<SpanRecord>& spans);

/// `cwdb_ctl spans --attribute` table.
std::string RenderAttribution(const AttributionTable& table);

/// Compact JSON object ({"traces":N,"stages":{"wal.fsync":{"p50_share":..,
/// "p99_share":..},...}}) — the form bench_tpcb_scaling embeds per point
/// and scripts/check_attribution_drift.py diffs.
std::string AttributionToJson(const AttributionTable& table);

}  // namespace cwdb

#endif  // CWDB_OBS_TRACE_EXPORT_H_
