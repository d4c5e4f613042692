#!/usr/bin/env bash
# End-to-end fatal-signal sealing: SIGSEGV a tracing sword-run mid-flight and
# check that
#   - the fatal-signal handler sealed the trace (crash-sealed meta + in-band
#     "SWCR" marker) before the process died,
#   - sword-dump --verify reports the seal,
#   - salvage analysis completes and its TEXT report says the run was
#     crash-sealed,
#   - two independent analyzer runs over the sealed trace produce
#     byte-identical reports (the trace is a complete, stable artifact).
#
# usage: e2e_sigsegv_seal.sh <tool-bin-dir>
set -u

BIN="${1:?usage: e2e_sigsegv_seal.sh <tool-bin-dir>}"
RUN="$BIN/sword-run"
OFFLINE="$BIN/sword-offline"
DUMP="$BIN/sword-dump"
for t in "$RUN" "$OFFLINE" "$DUMP"; do
  [ -x "$t" ] || { echo "missing tool: $t"; exit 1; }
done

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# 1. Start a long tracing run with small buffers (frequent flushes +
#    per-segment meta records appended), then deliver SIGSEGV once trace
#    files exist. The sealing handler runs, seals, and re-raises, so the
#    process still dies of SIGSEGV. The trace is in the default format
#    (v3), whose coalescer folds HPCCG's sweeps into runs:
#    the large --size keeps the run going for seconds, and 1 KB buffers
#    (64 events) make the first flush land well before the signal.
"$RUN" --suite hpc --name HPCCG --size 800000 --tool sword --threads 4 \
       --trace-dir "$DIR" --buffer-kb 1 >/dev/null 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [ -s "$DIR/sword_t0.log" ] && [ -f "$DIR/sword_t0.meta" ] && break
  sleep 0.05
done
# Give the writers a beat so at least one checkpointed interval exists.
sleep 0.2
kill -SEGV "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null
rc=$?
[ "$rc" -ge 128 ] || { echo "FAIL: sword-run exited $rc, expected a signal death"; exit 1; }
[ -s "$DIR/sword_t0.log" ] || { echo "FAIL: no trace produced"; exit 1; }

# 2. The seal must be visible to the frame-level triage tool: a CRASH row
#    and the crash-sealed summary line.
VERIFY="$("$DUMP" "$DIR" --verify 2>&1)"
case "$VERIFY" in
  *'crash-sealed'*) ;;
  *) echo "FAIL: sword-dump --verify shows no crash seal"; echo "$VERIFY"; exit 1 ;;
esac

# 3. Salvage analysis completes (0 = no races, 2 = races) and the report
#    names the sealing signal (SIGSEGV = 11).
REPORT1="$DIR/report1.txt"
"$OFFLINE" "$DIR" --salvage > "$REPORT1" 2>/dev/null
rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
  echo "FAIL: sword-offline --salvage: want exit 0 or 2, got $rc"
  cat "$REPORT1"
  exit 1
fi
grep -q 'crash-sealed run: fatal signal 11' "$REPORT1" || {
  echo "FAIL: report does not acknowledge the crash seal"
  cat "$REPORT1"
  exit 1
}

# 4. Determinism: a second analyzer run over the sealed trace must produce
#    the byte-identical report - the sealed trace is a stable artifact, not
#    a racy snapshot.
REPORT2="$DIR/report2.txt"
"$OFFLINE" "$DIR" --salvage > "$REPORT2" 2>/dev/null
cmp -s "$REPORT1" "$REPORT2" || {
  echo "FAIL: two analyzer runs over the sealed trace differ"
  diff "$REPORT1" "$REPORT2" | head -20
  exit 1
}

echo "e2e sigsegv+seal: OK"
