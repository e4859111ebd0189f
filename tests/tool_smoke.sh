#!/bin/sh
# Smoke test for cwdb_ctl: build a small database with the quickstart
# example, then exercise every read-only subcommand plus recover. The
# corruption_forensics example provides a directory with an incident
# dossier and a recovery provenance graph for the forensics subcommands.
# The optional fourth argument, cwdb_crashtest, gets its usage checked.
set -e

QUICKSTART="$1"
CTL="$2"
FORENSICS="$3"
CRASHTEST="$4"
DIR=$(mktemp -d /dev/shm/cwdb_tool_smoke_XXXXXX)
trap 'rm -rf "$DIR"' EXIT

"$QUICKSTART" "$DIR/db" > /dev/null

"$CTL" info "$DIR/db" | grep -q "active checkpoint"
"$CTL" tables "$DIR/db" | grep -q "users"
"$CTL" check "$DIR/db" | grep -q "image layout     : ok"
"$CTL" logdump "$DIR/db" | grep -q "COMMIT_TXN"
"$CTL" logdump "$DIR/db" | grep -q "end of valid log"

# logdump closes with one line of record count and framed bytes per record
# type; those bytes add up to the valid prefix.
"$CTL" logdump "$DIR/db" > "$DIR/logdump.out"
grep -q "^summary COMMIT_TXN records=[1-9]" "$DIR/logdump.out"
sum=$(awk '/^summary /{sub("bytes=", "", $NF); s += $NF} END{print s}' \
  "$DIR/logdump.out")
end=$(sed -n 's/^-- end of valid log at \([0-9]*\).*/\1/p' "$DIR/logdump.out")
if [ "$sum" -ne "$end" ]; then
  echo "logdump summary bytes $sum != valid prefix $end" >&2
  exit 1
fi
"$CTL" recover "$DIR/db" readlog | grep -q "recovery complete"

# A flipped payload byte in the first frame of system.log is in-place
# damage, not a torn append: check fails and names the damage offset, and
# the engine's open files a wal_crc dossier for the same byte.
cp -r "$DIR/db" "$DIR/waldb"
b=$(od -An -tu1 -j9 -N1 "$DIR/waldb/system.log" | tr -d ' ')
printf "\\$(printf '%03o' $((b ^ 1)))" \
  | dd of="$DIR/waldb/system.log" bs=1 seek=9 count=1 conv=notrunc 2> /dev/null
if "$CTL" check "$DIR/waldb" > "$DIR/check.out"; then
  echo "check must fail on in-place WAL damage" >&2
  exit 1
fi
grep -q "DAMAGED at byte 0" "$DIR/check.out"
"$CTL" info "$DIR/waldb" | grep -q "DAMAGED at byte 0"
"$CTL" recover "$DIR/waldb" > /dev/null
"$CTL" incidents "$DIR/waldb" | grep -q "source=wal_crc"
"$CTL" incidents "$DIR/waldb" | grep -q "failed CRC at byte 0 "

# stats re-emits the metrics snapshot quickstart's Close() persisted,
# including the process gauges sampled at dump time.
"$CTL" stats "$DIR/db" | grep -q '"txn.commits"'
"$CTL" stats "$DIR/db" | grep -q '"txn.commit_latency_ns"'
"$CTL" stats "$DIR/db" | grep -q '"process.rss_bytes"'
"$CTL" stats "$DIR/db" | grep -q '"process.data_dir_bytes"'

# --per-shard renders one row per engine shard from the same snapshot.
"$CTL" stats "$DIR/db" --per-shard | grep -q "protect_updates"
"$CTL" stats "$DIR/db" --per-shard | grep -q "^0 "

# trace decodes the flight-recorder events of the same snapshot.
"$CTL" trace "$DIR/db" | grep -q "checkpoint"
"$CTL" trace "$DIR/db" | grep -q "group_commit_flush"

# top renders the metrics-history ring quickstart persisted on Close;
# scrub-map renders audit staleness from the same snapshot's gauges.
"$CTL" top "$DIR/db" --once | grep -q "cwdb top"
"$CTL" top "$DIR/db" --once | grep -q "commit rate"
"$CTL" scrub-map "$DIR/db" | grep -q "shard"

# A clean database has no dossiers and a cleanly-marked black box.
"$CTL" incidents "$DIR/db" | grep -q "no incidents recorded"
"$CTL" postmortem "$DIR/db" | grep -q "clean shutdown; no crash recorded"

# A process killed at an armed crash point leaves an unclean black box;
# postmortem renders it cold, the next open rotates it and files a crash
# dossier, and postmortem then renders the rotated box + dossier episode.
CWDB_CRASHPOINT="wal.flush.fdatasync=abort" "$QUICKSTART" "$DIR/crashdb" \
  > /dev/null 2>&1 || true
"$CTL" postmortem "$DIR/crashdb" | grep -q "UNCLEAN"
"$CTL" postmortem "$DIR/crashdb" | grep -q "wal.flush.fdatasync"
"$CTL" recover "$DIR/crashdb" > /dev/null
"$CTL" postmortem "$DIR/crashdb" | grep -q "blackbox.prev.bin"
"$CTL" postmortem "$DIR/crashdb" | grep -q "crash dossier"
"$CTL" incidents "$DIR/crashdb" | grep -q "source=crash"

# The forensics walkthrough leaves an incident dossier and a recovery
# provenance graph behind; the forensics subcommands must decode both.
if [ -n "$FORENSICS" ]; then
  "$FORENSICS" "$DIR/fdb" > /dev/null
  "$CTL" incidents "$DIR/fdb" | grep -q "source=audit"
  "$CTL" incidents "$DIR/fdb" | grep -q "delta=0x"
  "$CTL" explain-recovery "$DIR/fdb" | grep -q "deleted transactions:"
  "$CTL" explain-recovery "$DIR/fdb" | grep -q "tainted by txn"
  "$CTL" explain-recovery "$DIR/fdb" --dot \
    | grep -q "digraph recovery_provenance"
  # It never set a sample rate, yet its recovery is traced: the forced
  # roots export as Perfetto JSON and list their phases, while the
  # attribution over sampled transactions stays empty.
  "$CTL" trace-export "$DIR/fdb" | python3 -m json.tool > /dev/null
  "$CTL" spans "$DIR/fdb" | grep -q "recovery.phase"
  "$CTL" spans "$DIR/fdb" --attribute | grep -q "traces=0"
fi

# Unknown command fails with usage.
if "$CTL" bogus "$DIR/db" 2> /dev/null; then
  echo "bogus subcommand should fail" >&2
  exit 1
fi
# cwdb_crashtest takes an option-like first argument for no work
# directory: it prints its usage, exits non-zero and creates nothing.
if [ -n "$CRASHTEST" ]; then
  mkdir "$DIR/crash_cwd"
  if (cd "$DIR/crash_cwd" && "$CRASHTEST" --help) > /dev/null \
      2> "$DIR/crashtest.err"; then
    echo "cwdb_crashtest --help should fail" >&2
    exit 1
  fi
  grep -q "usage:" "$DIR/crashtest.err"
  if [ -n "$(ls -A "$DIR/crash_cwd")" ]; then
    echo "cwdb_crashtest --help created files" >&2
    exit 1
  fi
fi

echo "tool smoke OK"
