#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/json.h"

namespace cwdb {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

/// Nanoseconds as a microsecond decimal ("1234.567") — the unit Chrome
/// trace events use.
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  *out += buf;
}

std::string HumanNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " ns", ns);
  }
  return buf;
}

}  // namespace

std::string SpansToJson(const SpanDump& dump) {
  std::string out;
  out.reserve(128 + dump.spans.size() * 120);
  out += "{\n\"schema\": ";
  AppendU64(&out, SpanDump::kSchemaVersion);
  out += ",\n\"captured_mono_ns\": ";
  AppendU64(&out, dump.captured_mono_ns);
  out += ",\n\"captured_wall_ns\": ";
  AppendU64(&out, dump.captured_wall_ns);
  out += ",\n\"boot_mono_ns\": ";
  AppendU64(&out, dump.boot_mono_ns);
  out += ",\n\"boot_wall_ns\": ";
  AppendU64(&out, dump.boot_wall_ns);
  out += ",\n\"spans\": [";
  for (size_t i = 0; i < dump.spans.size(); ++i) {
    const SpanRecord& s = dump.spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"trace\":";
    AppendU64(&out, s.trace_id);
    out += ",\"span\":";
    AppendU64(&out, s.span_id);
    out += ",\"parent\":";
    AppendU64(&out, s.parent_id);
    out += ",\"kind\":\"";
    out += SpanKindName(s.kind);
    out += "\",\"tid\":";
    AppendU64(&out, s.tid);
    out += ",\"start_ns\":";
    AppendU64(&out, s.start_ns);
    out += ",\"dur_ns\":";
    AppendU64(&out, s.dur_ns);
    out += ",\"a\":";
    AppendU64(&out, s.a);
    out += ",\"b\":";
    AppendU64(&out, s.b);
    if (s.lsn != 0) {
      out += ",\"lsn\":";
      AppendU64(&out, s.lsn);
    }
    if (s.shard != kNoTraceShard) {
      out += ",\"shard\":";
      AppendU64(&out, s.shard);
    }
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

Result<SpanDump> ParseSpansJson(std::string_view text) {
  CWDB_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("spans.json: not a JSON object");
  }
  SpanDump dump;
  dump.captured_mono_ns = doc.U64("captured_mono_ns");
  dump.captured_wall_ns = doc.U64("captured_wall_ns");
  dump.boot_mono_ns = doc.U64("boot_mono_ns");
  dump.boot_wall_ns = doc.U64("boot_wall_ns");
  const JsonValue* spans = doc.Find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const JsonValue& e : spans->array()) {
      SpanKind kind;
      if (!SpanKindFromName(e.Str("kind"), &kind)) continue;
      SpanRecord r;
      r.trace_id = e.U64("trace");
      r.span_id = e.U64("span");
      r.parent_id = e.U64("parent");
      r.kind = kind;
      r.tid = static_cast<uint32_t>(e.U64("tid"));
      r.start_ns = e.U64("start_ns");
      r.dur_ns = e.U64("dur_ns");
      r.a = e.U64("a");
      r.b = e.U64("b");
      r.lsn = e.U64("lsn");
      if (const JsonValue* shard = e.Find("shard"); shard != nullptr) {
        r.shard = shard->AsU64();
      }
      dump.spans.push_back(r);
    }
  }
  return dump;
}

std::string SpansToChromeJson(const SpanDump& dump) {
  std::string out;
  out.reserve(64 + dump.spans.size() * 160);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < dump.spans.size(); ++i) {
    const SpanRecord& s = dump.spans[i];
    out += i == 0 ? "\n" : ",\n";
    const bool instant = IsEventKind(s.kind);
    out += "{\"name\":\"";
    out += SpanKindName(s.kind);
    out += instant ? "\",\"cat\":\"cwdb\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
                   : "\",\"cat\":\"cwdb\",\"ph\":\"X\",\"ts\":";
    AppendMicros(&out, s.start_ns);
    if (!instant) {
      out += ",\"dur\":";
      AppendMicros(&out, s.dur_ns);
    }
    out += ",\"pid\":1,\"tid\":";
    AppendU64(&out, s.tid);
    out += ",\"args\":{\"trace_id\":";
    AppendU64(&out, s.trace_id);
    out += ",\"span_id\":";
    AppendU64(&out, s.span_id);
    out += ",\"parent_id\":";
    AppendU64(&out, s.parent_id);
    if (instant) {
      out += ",\"lsn\":";
      AppendU64(&out, s.lsn);
    }
    out += ",\"a\":";
    AppendU64(&out, s.a);
    out += ",\"b\":";
    AppendU64(&out, s.b);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string RenderSpanList(const SpanDump& dump) {
  std::vector<SpanRecord> spans = dump.spans;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& x, const SpanRecord& y) {
                     if (x.trace_id != y.trace_id)
                       return x.trace_id < y.trace_id;
                     return x.start_ns < y.start_ns;
                   });
  std::string out;
  char line[192];
  uint64_t current_trace = 0;
  uint64_t trace_start = 0;
  for (const SpanRecord& s : spans) {
    if (out.empty() || s.trace_id != current_trace) {
      current_trace = s.trace_id;
      trace_start = s.start_ns;
      std::snprintf(line, sizeof(line), "trace %" PRIu64 "\n", s.trace_id);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "  +%-12s %-16s dur=%-10s tid=%-3u span=%" PRIu64
                  " parent=%" PRIu64 " a=%" PRIu64 " b=%" PRIu64 "\n",
                  HumanNs(s.start_ns - trace_start).c_str(),
                  SpanKindName(s.kind), HumanNs(s.dur_ns).c_str(), s.tid,
                  s.span_id, s.parent_id, s.a, s.b);
    out += line;
  }
  if (out.empty()) out = "(no spans)\n";
  return out;
}

AttributionTable ComputeAttribution(const std::vector<SpanRecord>& spans) {
  // Bucket spans by trace, keeping only traces rooted at a txn span.
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord& s : spans) traces[s.trace_id].push_back(&s);

  struct TraceSelf {
    uint64_t total = 0;
    std::map<SpanKind, uint64_t> self;
  };
  std::vector<TraceSelf> done;
  for (auto& [id, members] : traces) {
    const SpanRecord* root = nullptr;
    for (const SpanRecord* s : members) {
      if (s->parent_id == 0 && s->kind == SpanKind::kTxn) root = s;
    }
    if (root == nullptr || root->dur_ns == 0) continue;

    // Self time: duration minus the summed duration of direct children,
    // clamped at zero (cross-thread children can overhang their parent by
    // a few clock reads).
    std::unordered_map<uint64_t, uint64_t> child_sum;
    for (const SpanRecord* s : members) {
      if (s->parent_id != 0) child_sum[s->parent_id] += s->dur_ns;
    }
    TraceSelf ts;
    uint64_t accounted = 0;
    for (const SpanRecord* s : members) {
      uint64_t children = 0;
      auto it = child_sum.find(s->span_id);
      if (it != child_sum.end()) children = it->second;
      uint64_t self = s->dur_ns > children ? s->dur_ns - children : 0;
      ts.self[s->kind] += self;
      accounted += self;
    }
    // Charge everything to the trace's own end-to-end time so cohort
    // shares sum to ~100% of it: if clamping lost time against the root's
    // duration, put the remainder back on the root stage.
    ts.total = std::max(root->dur_ns, accounted);
    if (ts.total > accounted) {
      ts.self[root->kind] += ts.total - accounted;
    }
    done.push_back(std::move(ts));
  }

  AttributionTable table;
  table.traces = done.size();
  if (done.empty()) return table;

  std::vector<uint64_t> totals;
  totals.reserve(done.size());
  for (const TraceSelf& t : done) totals.push_back(t.total);
  std::sort(totals.begin(), totals.end());
  uint64_t median = totals[(totals.size() - 1) / 2];
  size_t p99_idx = totals.size() * 99 / 100;
  if (p99_idx >= totals.size()) p99_idx = totals.size() - 1;
  uint64_t p99 = totals[p99_idx];

  std::map<SpanKind, StageShare> stages;
  uint64_t p50_sum = 0, p99_sum = 0;
  for (const TraceSelf& t : done) {
    bool in_p50 = t.total <= median;
    bool in_p99 = t.total >= p99;
    if (in_p50) {
      ++table.p50_cohort;
      p50_sum += t.total;
    }
    if (in_p99) {
      ++table.p99_cohort;
      p99_sum += t.total;
    }
    for (const auto& [kind, self] : t.self) {
      StageShare& row = stages[kind];
      row.kind = kind;
      if (in_p50) row.p50_self_ns += self;
      if (in_p99) row.p99_self_ns += self;
    }
  }
  table.p50_total_ns = table.p50_cohort ? p50_sum / table.p50_cohort : 0;
  table.p99_total_ns = table.p99_cohort ? p99_sum / table.p99_cohort : 0;
  for (auto& [kind, row] : stages) {
    row.p50_share = p50_sum ? static_cast<double>(row.p50_self_ns) / p50_sum
                            : 0.0;
    row.p99_share = p99_sum ? static_cast<double>(row.p99_self_ns) / p99_sum
                            : 0.0;
    if (table.p50_cohort) row.p50_self_ns /= table.p50_cohort;
    if (table.p99_cohort) row.p99_self_ns /= table.p99_cohort;
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const StageShare& x, const StageShare& y) {
              return x.p99_share > y.p99_share;
            });
  return table;
}

std::string RenderAttribution(const AttributionTable& table) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "traces=%zu  p50 cohort=%zu (mean %s)  p99 cohort=%zu "
                "(mean %s)\n",
                table.traces, table.p50_cohort,
                HumanNs(table.p50_total_ns).c_str(), table.p99_cohort,
                HumanNs(table.p99_total_ns).c_str());
  out += line;
  if (table.traces == 0) return out;
  std::snprintf(line, sizeof(line), "%-16s %10s %12s %10s %12s\n", "stage",
                "p50 share", "p50 self", "p99 share", "p99 self");
  out += line;
  double p50_sum = 0.0, p99_sum = 0.0;
  for (const StageShare& row : table.rows) {
    std::snprintf(line, sizeof(line), "%-16s %9.1f%% %12s %9.1f%% %12s\n",
                  SpanKindName(row.kind), row.p50_share * 100.0,
                  HumanNs(row.p50_self_ns).c_str(), row.p99_share * 100.0,
                  HumanNs(row.p99_self_ns).c_str());
    out += line;
    p50_sum += row.p50_share;
    p99_sum += row.p99_share;
  }
  std::snprintf(line, sizeof(line), "%-16s %9.1f%% %12s %9.1f%%\n", "total",
                p50_sum * 100.0, "", p99_sum * 100.0);
  out += line;
  return out;
}

std::string AttributionToJson(const AttributionTable& table) {
  // Rows re-sorted by stage name so the document is stable across runs
  // (the in-table order is by share, which jitters).
  std::vector<StageShare> rows = table.rows;
  std::sort(rows.begin(), rows.end(),
            [](const StageShare& x, const StageShare& y) {
              return std::string_view(SpanKindName(x.kind)) <
                     std::string_view(SpanKindName(y.kind));
            });
  std::string out = "{\"traces\":";
  AppendU64(&out, table.traces);
  out += ",\"p50_total_ns\":";
  AppendU64(&out, table.p50_total_ns);
  out += ",\"p99_total_ns\":";
  AppendU64(&out, table.p99_total_ns);
  out += ",\"stages\":{";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"p50_share\":%.4f,\"p99_share\":%.4f,"
                  "\"p50_self_ns\":%" PRIu64 ",\"p99_self_ns\":%" PRIu64 "}",
                  i == 0 ? "" : ",", SpanKindName(rows[i].kind),
                  rows[i].p50_share, rows[i].p99_share, rows[i].p50_self_ns,
                  rows[i].p99_self_ns);
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace cwdb
