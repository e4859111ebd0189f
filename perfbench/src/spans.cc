#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* SpanNameStr(SpanName name) {
  switch (name) {
    case SpanName::kTxn: return "txn";
    case SpanName::kTxnBegin: return "txn.begin";
    case SpanName::kIndexLookup: return "index.lookup";
    case SpanName::kTableRead: return "table_ops.read";
    case SpanName::kTableUpdate: return "table_ops.update";
    case SpanName::kTableInsert: return "table_ops.insert";
    case SpanName::kTxnCommit: return "txn.commit";
    case SpanName::kCheckpoint: return "ckpt.checkpoint";
    case SpanName::kCrashRecover: return "recovery.crash_and_recover";
    case SpanName::kAudit: return "protect.audit";
    case SpanName::kAuditRepair: return "repair.audit_repair";
    case SpanName::kCount: break;
  }
  return "?";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  struct Key {
    uint64_t trace;
    uint32_t id;
    uint32_t index;
  };
  auto key_less = [](const Key& a, const Key& b) {
    return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
  };
  std::vector<Key> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id.push_back(Key{spans[i].trace_id, spans[i].id,
                        static_cast<uint32_t>(i)});
  }
  std::sort(by_id.begin(), by_id.end(), key_less);

  // (parent index, child index) edges, grouped by parent in start order.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const Key probe{spans[i].trace_id, spans[i].parent, 0};
    auto it = std::lower_bound(by_id.begin(), by_id.end(), probe, key_less);
    if (it == by_id.end() || it->trace != probe.trace || it->id != probe.id) {
      continue;
    }
    edges.emplace_back(it->index, static_cast<uint32_t>(i));
  }
  std::sort(edges.begin(), edges.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return spans[a.second].start_ns < spans[b.second].start_ns;
  });

  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns > spans[i].start_ns
                  ? spans[i].end_ns - spans[i].start_ns
                  : 0;
  }
  for (size_t g = 0; g < edges.size();) {
    const uint32_t p = edges[g].first;
    const uint64_t lo = spans[p].start_ns;
    const uint64_t hi = spans[p].end_ns;
    uint64_t covered = 0;
    uint64_t cur_s = 0;
    uint64_t cur_e = 0;
    bool open = false;
    for (; g < edges.size() && edges[g].first == p; ++g) {
      const Span& c = spans[edges[g].second];
      const uint64_t s = std::max(c.start_ns, lo);
      const uint64_t e = std::min(c.end_ns, hi);
      if (e <= s) continue;
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_s;
    self[p] -= std::min(self[p], covered);
  }
  return self;
}

SelfTimeTable AttributeSelfTime(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::array<std::vector<uint64_t>, kSpanNames> per_name;
  uint64_t root_total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    per_name[static_cast<size_t>(spans[i].name)].push_back(self[i]);
    if (spans[i].parent == 0) {
      root_total += spans[i].end_ns - spans[i].start_ns;
    }
  }
  SelfTimeTable table;
  for (size_t n = 0; n < kSpanNames; ++n) {
    SelfTimeRow& row = table[n];
    for (uint64_t v : per_name[n]) row.total_ns += v;
    row.self = Summarize(&per_name[n]);
    row.share = root_total == 0 ? 0.0
                                : static_cast<double>(row.total_ns) /
                                      static_cast<double>(root_total);
  }
  return table;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%u\t%u\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.trace_id), s.id, s.parent,
                 SpanNameStr(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
