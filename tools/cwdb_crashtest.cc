// cwdb_crashtest: crash-point torture driver. Sweeps every compiled-in
// crash point across the crash modes (and optionally a randomized
// campaign), each case in a fresh subdirectory of the given work dir:
// fork a child running a scripted transactional workload, kill it (or
// fail its I/O) at the armed point, reopen, recover, and verify the
// durability invariants. Exit status 0 iff every case passed.
//
//   cwdb_crashtest <workdir> [--seed N] [--iters N]
//                  [--point NAME] [--mode abort|eio|torn|bitflip]
//                  [--countdown N]
//
// With --point (and optionally --mode / --countdown) only that case runs —
// the way to reproduce a single failure from a sweep.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/crashpoint.h"
#include "common/random.h"
#include "faultinject/crash_harness.h"

namespace {

using cwdb::Result;
using cwdb::crashharness::CaseResult;
using cwdb::crashharness::CaseSpec;
using cwdb::crashharness::RunCase;
using Mode = cwdb::crashpoint::Mode;

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kAbort: return "abort";
    case Mode::kEio: return "eio";
    case Mode::kTornWrite: return "torn";
    case Mode::kBitFlip: return "bitflip";
    case Mode::kOff: break;
  }
  return "off";
}

bool ParseMode(const std::string& name, Mode* mode) {
  if (name == "abort") *mode = Mode::kAbort;
  else if (name == "eio") *mode = Mode::kEio;
  else if (name == "torn") *mode = Mode::kTornWrite;
  else if (name == "bitflip") *mode = Mode::kBitFlip;
  else return false;
  return true;
}

CaseSpec MakeSpec(const std::string& point, Mode mode, uint32_t countdown) {
  CaseSpec spec;
  spec.point = point;
  spec.mode = mode;
  spec.countdown = countdown;
  spec.arm_before_open = point == "ckpt.image.setsize";
  return spec;
}

/// Runs one case, prints its row, and returns whether it passed.
bool RunOne(const std::string& workdir, int index, const CaseSpec& spec) {
  std::string dir = workdir + "/case_" + std::to_string(index);
  Result<CaseResult> r = RunCase(dir, spec);
  if (r.ok()) {
    std::printf("  PASS  %-28s %-8s countdown=%u  (%s)\n", spec.point.c_str(),
                ModeName(spec.mode), spec.countdown, r->detail.c_str());
    return true;
  }
  std::printf("  FAIL  %-28s %-8s countdown=%u  %s\n", spec.point.c_str(),
              ModeName(spec.mode), spec.countdown,
              r.status().ToString().c_str());
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <workdir> [--seed N] [--iters N] [--point NAME] "
               "[--mode abort|eio|torn|bitflip] [--countdown N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A first argument like --help is an option, not a work directory.
  if (argc < 2 || argv[1][0] == '-') return Usage(argv[0]);
  std::string workdir = argv[1];
  uint64_t seed = 0xC0DEu;
  int iters = 8;
  std::string only_point;
  std::string only_mode;
  uint32_t countdown = 1;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (arg == "--point" && i + 1 < argc) {
      only_point = argv[++i];
    } else if (arg == "--mode" && i + 1 < argc) {
      only_mode = argv[++i];
    } else if (arg == "--countdown" && i + 1 < argc) {
      countdown = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }

  int failures = 0;
  int index = 0;

  if (!only_point.empty()) {
    // Single-case reproduction mode.
    std::vector<Mode> modes;
    if (!only_mode.empty()) {
      Mode m;
      if (!ParseMode(only_mode, &m)) return Usage(argv[0]);
      modes.push_back(m);
    } else {
      modes = {Mode::kAbort, Mode::kEio, Mode::kTornWrite};
    }
    for (Mode m : modes) {
      if (!RunOne(workdir, index++, MakeSpec(only_point, m, countdown))) {
        ++failures;
      }
    }
  } else {
    std::printf("named sweep: %zu points x {abort, eio, torn}\n",
                cwdb::crashpoint::AllPoints().size());
    for (const std::string& point : cwdb::crashpoint::AllPoints()) {
      for (Mode m : {Mode::kAbort, Mode::kEio, Mode::kTornWrite}) {
        if (!RunOne(workdir, index++, MakeSpec(point, m, 1))) ++failures;
      }
    }
    if (iters > 0) {
      std::printf("randomized campaign: %d cases, seed %llu\n", iters,
                  static_cast<unsigned long long>(seed));
      cwdb::Random rng(seed);
      const std::vector<std::string>& points = cwdb::crashpoint::AllPoints();
      constexpr Mode kModes[] = {Mode::kAbort, Mode::kEio, Mode::kTornWrite};
      for (int i = 0; i < iters; ++i) {
        std::string point;
        do {
          point = points[rng.Uniform(points.size())];
          // Only hit during the fresh format; covered by the sweep.
        } while (point == "ckpt.image.setsize");
        Mode m = kModes[rng.Uniform(3)];
        uint32_t countdown = static_cast<uint32_t>(1 + rng.Uniform(2));
        if (!RunOne(workdir, index++, MakeSpec(point, m, countdown))) {
          ++failures;
        }
      }
    }
  }

  std::printf("%d case(s), %d failure(s)\n", index, failures);
  return failures == 0 ? 0 : 1;
}
