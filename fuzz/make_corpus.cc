// Regenerates the checked-in seed corpora under fuzz/corpus/. Each seed is
// a *valid* artifact produced by the real encoder, so the fuzzers start
// from deep inside the accepting grammar instead of spending their budget
// rediscovering the magic bytes.
//
//   make_corpus <repo-root>
//
// writes fuzz/corpus/parity_sidecar/seed-valid,
// fuzz/corpus/history_load/seed-valid and one
// fuzz/corpus/log_record/seed-<kind> per log record kind under
// <repo-root>.

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "protect/parity_repair.h"
#include "wal/log_record.h"

namespace cwdb {
namespace {

int Run(const std::string& root) {
  // Parity sidecar: a small self-consistent geometry (4 KiB arena, 256 B
  // regions grouped 4-wide, one shard) over an all-zero image. The
  // codewords and parity columns of a zero arena are all zero, so the seed
  // both decodes and verifies clean.
  ParitySidecar sc;
  sc.ck_end = 4096;
  sc.arena_size = 4096;
  sc.region_size = 256;
  sc.group_regions = 4;
  sc.shards.emplace_back(0, 4096);
  sc.codewords.assign(sc.arena_size / sc.region_size, 0);
  sc.columns.assign(
      (sc.codewords.size() + sc.group_regions - 1) / sc.group_regions *
          sc.region_size,
      '\0');
  std::string blob = EncodeParitySidecar(sc);
  Status s = WriteFileAtomic(root + "/fuzz/corpus/parity_sidecar/seed-valid",
                             blob);
  if (!s.ok()) {
    std::fprintf(stderr, "parity seed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Metrics-history ring: a few samples of a registry with every metric
  // kind present, saved through the real delta/CRC codec.
  MetricsRegistry metrics;
  Counter* commits = metrics.counter("txn.commits");
  Gauge* active = metrics.gauge("txn.active");
  Histogram* latency = metrics.histogram("txn.commit_latency_ns");
  HistoryOptions opts;
  opts.retention = 16;
  MetricsHistory history(&metrics, opts);
  for (int i = 0; i < 8; ++i) {
    commits->Add(100 + i);
    active->Set(i % 3);
    latency->Record(1000u << i);
    history.SampleNow();
  }
  const std::string path = root + "/fuzz/corpus/history_load/seed-valid";
  s = history.SaveTo(path);
  if (!s.ok()) {
    std::fprintf(stderr, "history seed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Log records: one payload per kind, with the optional fields present
  // (checksum, raw range, raw undo offset) where the kind has them.
  const codeword_t cksum = 0x5eed1234;
  LogicalUndo field_undo;
  field_undo.code = UndoCode::kWriteField;
  field_undo.table = 3;
  field_undo.slot = 1234;
  field_undo.field_off = 8;
  field_undo.payload = std::string(8, 'u');
  LogicalUndo raw_undo;
  raw_undo.code = UndoCode::kWriteRaw;
  raw_undo.raw_off = 4096;
  raw_undo.payload = "before";
  const char* names[] = {"begin_txn", "commit_txn", "abort_txn",
                         "phys_redo", "read_log",   "begin_op",
                         "commit_op", "commit_op_raw", "audit_begin"};
  std::string records[std::size(names)];
  EncodeBeginTxn(&records[0], 70001);
  EncodeCommitTxn(&records[1], 70001);
  EncodeAbortTxn(&records[2], 70002);
  EncodePhysRedo(&records[3], 70001, 1 << 20, std::string(8, 'a'), &cksum);
  EncodeReadLog(&records[4], 70001, 1 << 20, 100, &cksum);
  EncodeBeginOp(&records[5], 70001, 9, 1, OpCode::kUpdate, kMaxTables,
                kInvalidSlot, 4096, 6);
  EncodeCommitOp(&records[6], 70001, 9, 1, field_undo);
  EncodeCommitOp(&records[7], 70001, 10, 1, raw_undo);
  EncodeAuditBegin(&records[8]);
  const std::string dir = root + "/fuzz/corpus/log_record";
  s = MakeDirs(dir);
  for (size_t i = 0; s.ok() && i < std::size(names); ++i) {
    s = WriteFileAtomic(dir + "/seed-" + names[i], records[i]);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "log record seeds: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("corpora written under %s/fuzz/corpus\n", root.c_str());
  return 0;
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <repo-root>\n");
    return 2;
  }
  return cwdb::Run(argv[1]);
}
