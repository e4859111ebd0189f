#ifndef CWDB_CWDB_H_
#define CWDB_CWDB_H_

/// Umbrella header for the cwdb library: a Dalí-style main-memory storage
/// manager with codeword-based protection against addressing errors and
/// delete-transaction corruption recovery, after Bohannon, Rastogi,
/// Seshadri, Silberschatz & Sudarshan, "Using Codewords to Protect
/// Database Data from a Class of Software Errors", ICDE 1999.
///
/// Most applications only need:
///   * cwdb::Database / cwdb::DatabaseOptions  — open, transact, recover
///   * cwdb::ProtectionScheme                  — pick a Table 2 scheme
///   * cwdb::BackgroundAuditor                 — asynchronous detection
///   * cwdb::LineageTracer                     — audit-trail queries
///   * cwdb::FaultInjector / cwdb::TpcbWorkload — evaluation harnesses

#include "core/auditor.h"
#include "core/database.h"
#include "core/lineage.h"
#include "faultinject/fault_injector.h"
#include "index/hash_index.h"
#include "workload/tpcb.h"

#endif  // CWDB_CWDB_H_
