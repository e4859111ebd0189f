// Corruption forensics walkthrough: the full story of Section 4 of the
// paper. A wild write corrupts a committed record behind the database's
// back; unsuspecting transactions read it and spread the damage; an audit
// catches the codeword mismatch; delete-transaction recovery traces the
// spread through the read log and removes exactly the affected
// transactions from history, reporting their identities for manual
// compensation.
//
//   ./corruption_forensics [directory]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/database.h"
#include "faultinject/fault_injector.h"

using namespace cwdb;

#define DIE_IF_ERROR(expr)                                     \
  do {                                                         \
    ::cwdb::Status _s = (expr);                                \
    if (!_s.ok()) {                                            \
      std::fprintf(stderr, "%s\n", _s.ToString().c_str());     \
      return 1;                                                \
    }                                                          \
  } while (0)

namespace {

constexpr uint32_t kRecordSize = 128;

std::string Cell(Database* db, Transaction* txn, TableId t, uint32_t slot) {
  std::string out;
  Status s = db->Read(txn, t, slot, &out);
  if (!s.ok()) {
    std::string err = "<";
    err += s.ToString();
    err += ">";
    return err;
  }
  return out.substr(0, 12);
}

}  // namespace

int main(int argc, char** argv) {
  DatabaseOptions opts;
  opts.path = argc > 1 ? argv[1] : "/tmp/cwdb_forensics";
  opts.arena_size = 8ull << 20;
  // Read Logging: each read's identity goes to the log — the audit trail
  // that makes corruption traceable (paper §4.2).
  opts.protection.scheme = ProtectionScheme::kReadLog;
  opts.protection.region_size = kRecordSize;  // One region per record.

  // Fresh run each time.
  std::string scrub = "rm -rf '" + opts.path + "'";
  [[maybe_unused]] int rc = ::system(scrub.c_str());

  auto db = Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  std::printf("== 1. Load ledger and certify a checkpoint ==\n");
  auto txn = (*db)->Begin();
  auto ledger = (*db)->CreateTable(*txn, "ledger", kRecordSize, 32);
  if (!ledger.ok()) return 1;
  uint32_t slots[6];
  const char* names[6] = {"checking", "savings", "escrow",
                          "payroll", "petty", "reserve"};
  for (int i = 0; i < 6; ++i) {
    std::string record(kRecordSize, '\0');
    std::snprintf(record.data(), kRecordSize, "%s:1000", names[i]);
    auto rid = (*db)->Insert(*txn, *ledger, record);
    if (!rid.ok()) return 1;
    slots[i] = rid->slot;
  }
  DIE_IF_ERROR((*db)->Commit(*txn));
  DIE_IF_ERROR((*db)->Checkpoint());
  std::printf("   6 accounts committed; checkpoint certified clean.\n\n");

  std::printf("== 2. A wild write corrupts 'savings' behind our back ==\n");
  FaultInjector inject(db->get(), 2024);
  DbPtr victim = (*db)->image()->RecordOff(*ledger, slots[1]);
  inject.WildWriteAt(victim, "savings:99999999");
  std::printf("   raw bytes now read: %.16s\n\n",
              (*db)->UnsafeRawBase() + victim);

  std::printf("== 3. Business continues, unknowingly spreading damage ==\n");
  // T_carrier reads the corrupted savings balance and "transfers" it.
  txn = (*db)->Begin();
  TxnId carrier = (*txn)->id();
  std::string savings;
  DIE_IF_ERROR((*db)->Read(*txn, *ledger, slots[1], &savings));
  std::string derived = "esc<" + savings.substr(8, 8) + ">";
  DIE_IF_ERROR((*db)->Update(*txn, *ledger, slots[2], 0, derived));
  DIE_IF_ERROR((*db)->Commit(*txn));
  std::printf("   txn %llu read savings and updated escrow from it\n",
              static_cast<unsigned long long>(carrier));

  // T_second reads escrow (indirectly corrupt) and updates payroll.
  txn = (*db)->Begin();
  TxnId second = (*txn)->id();
  std::string escrow;
  DIE_IF_ERROR((*db)->Read(*txn, *ledger, slots[2], &escrow));
  DIE_IF_ERROR((*db)->Update(*txn, *ledger, slots[3],
                             0, "pay<" + escrow.substr(0, 8) + ">"));
  DIE_IF_ERROR((*db)->Commit(*txn));
  std::printf("   txn %llu read escrow and updated payroll from it\n",
              static_cast<unsigned long long>(second));

  // T_clean touches only untainted accounts.
  txn = (*db)->Begin();
  TxnId clean = (*txn)->id();
  std::string checking;
  DIE_IF_ERROR((*db)->Read(*txn, *ledger, slots[0], &checking));
  DIE_IF_ERROR((*db)->Update(*txn, *ledger, slots[4], 0, "petty:42"));
  DIE_IF_ERROR((*db)->Commit(*txn));
  std::printf("   txn %llu read checking and updated petty (clean)\n\n",
              static_cast<unsigned long long>(clean));

  std::printf("== 4. The auditor sweeps the codewords ==\n");
  auto report = (*db)->Audit();
  if (!report.ok()) return 1;
  std::printf("   audit %s", report->clean ? "clean?!\n" : "FAILED: ");
  for (const auto& r : report->ranges) {
    std::printf("region [%llu, +%llu) ", static_cast<unsigned long long>(r.off),
                static_cast<unsigned long long>(r.len));
  }
  std::printf("\n   corruption noted; \"causing the database to crash\"...\n\n");

  std::printf("== 5. Delete-transaction recovery ==\n");
  DIE_IF_ERROR((*db)->CrashAndRecover());
  const RecoveryReport& rr = (*db)->last_recovery_report();
  std::printf("   transactions deleted from history (for manual "
              "compensation):\n      ");
  for (TxnId id : rr.deleted_txns) {
    std::printf("txn %llu%s", static_cast<unsigned long long>(id),
                id == rr.deleted_txns.back() ? "\n" : ", ");
  }
  std::printf("   redo records suppressed: %llu\n\n",
              static_cast<unsigned long long>(rr.redo_records_skipped));

  std::printf("== 6. Post-recovery ledger ==\n");
  txn = (*db)->Begin();
  for (int i = 0; i < 6; ++i) {
    std::printf("   %-10s %s\n", names[i],
                Cell(db->get(), *txn, *ledger, slots[i]).c_str());
  }
  DIE_IF_ERROR((*db)->Commit(*txn));
  auto audit2 = (*db)->Audit();
  std::printf("   final audit: %s\n",
              audit2.ok() && audit2->clean ? "clean" : "CORRUPT");

  std::printf("\n== 7. Why each transaction was deleted ==\n");
  const ProvenanceGraph& graph = rr.provenance;
  for (TxnId id : rr.deleted_txns) {
    std::printf("   txn %llu:\n", static_cast<unsigned long long>(id));
    for (const ProvenanceEdge* e : graph.PathFor(id)) {
      std::printf("      %s via [%llu, +%llu)%s",
                  ProvenanceReasonName(e->reason),
                  static_cast<unsigned long long>(e->via.off),
                  static_cast<unsigned long long>(e->via.len),
                  e->from_txn == 0 ? " <- the corrupt range itself\n" : "");
      if (e->from_txn != 0) {
        std::printf(" <- tainted by txn %llu\n",
                    static_cast<unsigned long long>(e->from_txn));
      }
    }
  }
  std::printf("   (full dossier: cwdb_ctl incidents; graph: cwdb_ctl "
              "explain-recovery --dot; recovery phases: cwdb_ctl spans)\n");
  // Close persists metrics.json and spans.json for the cwdb_ctl views.
  DIE_IF_ERROR((*db)->Close());

  bool carrier_deleted =
      std::find(rr.deleted_txns.begin(), rr.deleted_txns.end(), carrier) !=
      rr.deleted_txns.end();
  bool second_deleted =
      std::find(rr.deleted_txns.begin(), rr.deleted_txns.end(), second) !=
      rr.deleted_txns.end();
  bool clean_kept =
      std::find(rr.deleted_txns.begin(), rr.deleted_txns.end(), clean) ==
      rr.deleted_txns.end();
  std::printf(
      "\n   carrier deleted: %s, second-hop deleted: %s, clean kept: %s\n",
      carrier_deleted ? "yes" : "NO", second_deleted ? "yes" : "NO",
      clean_kept ? "yes" : "NO");
  return carrier_deleted && second_deleted && clean_kept &&
                 audit2.ok() && audit2->clean
             ? 0
             : 1;
}
