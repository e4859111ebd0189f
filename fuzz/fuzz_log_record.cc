// Fuzzes the system-log record codec: DecodeLogRecord reads the payload of
// every CRC-valid frame a prior incarnation wrote (so possibly a buggy
// writer's bytes, or another format's), and must accept or reject any
// input without crashing. Decoding is strict, so an accepted payload must
// re-encode to exactly the input bytes.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "wal/log_record.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  cwdb::LogRecord rec;
  if (!cwdb::DecodeLogRecord(cwdb::Slice(input), &rec)) return 0;
  std::string again;
  cwdb::EncodeLogRecord(&again, rec);
  if (again != input) __builtin_trap();
  return 0;
}
