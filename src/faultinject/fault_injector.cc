#include "faultinject/fault_injector.h"

#include <unistd.h>

#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "obs/forensics.h"

namespace cwdb {

namespace {

// Scoped SIGSEGV/SIGBUS trap used while attempting an injected write. The
// handler longjmps out of the faulting store; the write is then known to
// have been prevented by page protection. Not thread-safe by design: fault
// injection is a single-threaded test harness activity.
//
// The trap only claims faults inside the injected write's page window.
// Anything else (a genuine bug, a store the flight recorder's fatal
// handler should record) chains: the handler restores the previously
// installed actions and returns, so the faulting instruction re-executes
// under the prior handler — without this, installing a global fatal
// handler would make the scoped trap swallow real crashes as "prevented".
sigjmp_buf g_fault_jmp;
uintptr_t g_trap_lo = 0;
uintptr_t g_trap_hi = 0;
struct sigaction g_old_segv;
struct sigaction g_old_bus;

void FaultHandler(int, siginfo_t* si, void*) {
  const uintptr_t addr = reinterpret_cast<uintptr_t>(si->si_addr);
  if (addr >= g_trap_lo && addr < g_trap_hi) siglongjmp(g_fault_jmp, 1);
  ::sigaction(SIGSEGV, &g_old_segv, nullptr);
  ::sigaction(SIGBUS, &g_old_bus, nullptr);
}

class ScopedTrap {
 public:
  /// Claims faults on the pages of [target, target+len) — the protection
  /// granularity of the hardware scheme — for the trap's lifetime.
  ScopedTrap(const void* target, size_t len) {
    const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
    const uintptr_t t = reinterpret_cast<uintptr_t>(target);
    g_trap_lo = t & ~(page - 1);
    g_trap_hi = (t + len + page - 1) & ~(page - 1);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = FaultHandler;
    sa.sa_flags = SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGSEGV, &sa, &g_old_segv);
    ::sigaction(SIGBUS, &sa, &g_old_bus);
  }
  ~ScopedTrap() {
    ::sigaction(SIGSEGV, &g_old_segv, nullptr);
    ::sigaction(SIGBUS, &g_old_bus, nullptr);
    g_trap_lo = 0;
    g_trap_hi = 0;
  }
};

}  // namespace

FaultInjector::Outcome FaultInjector::WildWriteAt(DbPtr off, Slice bytes) {
  Outcome out;
  out.off = off;
  out.len = static_cast<uint32_t>(bytes.size());
  CWDB_CHECK(off + bytes.size() <= db_->arena_size());
  uint8_t* target = db_->UnsafeRawBase() + off;
  // Reading is always permitted (pages are PROT_READ at minimum).
  std::string before(reinterpret_cast<const char*>(target), bytes.size());

  ScopedTrap trap(target, bytes.size());
  if (sigsetjmp(g_fault_jmp, 1) == 0) {
    std::memcpy(target, bytes.data(), bytes.size());
    out.prevented = false;
  } else {
    out.prevented = true;
  }
  out.changed_bits =
      std::memcmp(target, before.data(), bytes.size()) != 0;

  MetricsRegistry* metrics = db_->metrics();
  const uint64_t shard = db_->shard_map().ShardOf(off);
  metrics->counter("faultinject.writes_injected")->Add();
  metrics->tracer()->Event(SpanKind::kFaultInjected, 0, off, out.len, shard);
  if (out.prevented) {
    // Hardware scheme: the wild store faulted before touching the image —
    // prevention *is* detection, at (essentially) zero latency.
    metrics->counter("faultinject.writes_prevented")->Add();
    metrics->tracer()->Event(SpanKind::kWritePrevented, 0, off, out.len,
                             shard);
    metrics->NoteInjectedFault(off, out.len);
    metrics->NoteDetection(off, out.len);
    if (ForensicsRecorder* forensics = db_->forensics()) {
      forensics->RecordIncident(
          IncidentSource::kMprotectTrap, /*lsn=*/0,
          /*last_clean_audit_lsn=*/0, {CorruptRange{off, out.len}},
          "hardware protection trapped an unprescribed write; "
          "image bytes unchanged");
    }
  } else if (out.changed_bits) {
    // Arm the detection-latency clock: whichever layer later implicates
    // this range (audit, precheck, recovery) stops it.
    metrics->NoteInjectedFault(off, out.len);
  }
  return out;
}

FaultInjector::Outcome FaultInjector::WildWrite(uint32_t max_len) {
  uint32_t len = static_cast<uint32_t>(rng_.Range(1, max_len));
  DbPtr off = rng_.Uniform(db_->arena_size() - len);
  std::string garbage(len, '\0');
  for (uint32_t i = 0; i < len; ++i) {
    garbage[i] = static_cast<char>(rng_.Next32());
  }
  return WildWriteAt(off, garbage);
}

FaultInjector::Outcome FaultInjector::CopyOverrun(TableId table,
                                                  uint32_t slot,
                                                  uint32_t overrun_len) {
  const TableMetaRaw* meta = db_->image()->table_meta(table);
  CWDB_CHECK(meta->in_use);
  // A copy that was meant to fill the record but ran `overrun_len` bytes
  // past its end.
  DbPtr end_of_record =
      db_->image()->RecordOff(table, slot) + meta->record_size;
  std::string garbage(overrun_len, '\0');
  for (uint32_t i = 0; i < overrun_len; ++i) {
    garbage[i] = static_cast<char>(rng_.Next32());
  }
  return WildWriteAt(end_of_record, garbage);
}

FaultInjector::Outcome FaultInjector::BitFlip() {
  DbPtr off = rng_.Uniform(db_->arena_size());
  uint8_t byte = db_->UnsafeRawBase()[off];
  byte ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
  return WildWriteAt(off, Slice(reinterpret_cast<const char*>(&byte), 1));
}

std::vector<FaultInjector::Outcome> FaultInjector::Campaign(uint64_t n,
                                                            uint32_t max_len) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    outcomes.push_back(WildWrite(max_len));
  }
  return outcomes;
}

}  // namespace cwdb
