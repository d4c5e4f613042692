#!/usr/bin/env bash
# End-to-end crash tolerance: kill -9 a tracing sword-run mid-flight, add a
# deterministic dose of damage on top of whatever the kill left behind, and
# check that
#   - strict sword-offline refuses the trace (exit 4, the I/O-failure code),
#   - sword-offline --salvage analyzes it and reports integrity accounting,
#   - sword-dump --verify flags the damage (exit 2).
#
# usage: e2e_kill_salvage.sh <tool-bin-dir>
set -u

BIN="${1:?usage: e2e_kill_salvage.sh <tool-bin-dir>}"
RUN="$BIN/sword-run"
OFFLINE="$BIN/sword-offline"
DUMP="$BIN/sword-dump"
for t in "$RUN" "$OFFLINE" "$DUMP"; do
  [ -x "$t" ] || { echo "missing tool: $t"; exit 1; }
done

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# 1. Start a tracing run with small buffers (frequent flushes) and kill -9 it
#    as soon as trace files exist. If the workload finishes before the signal
#    lands, that is fine - step 2 guarantees damage either way. The trace is
#    in the default format (v3); the large --size keeps HPCCG running for
#    seconds and 1 KB buffers flush its coalesced runs early, so the kill
#    lands mid-trace.
"$RUN" --suite hpc --name HPCCG --size 800000 --tool sword --threads 4 \
       --trace-dir "$DIR" --buffer-kb 1 >/dev/null 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [ -s "$DIR/sword_t0.log" ] && [ -f "$DIR/sword_t0.meta" ] && break
  sleep 0.05
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
[ -s "$DIR/sword_t0.log" ] || { echo "FAIL: no trace produced"; exit 1; }

# 2. Deterministic damage: append junk to thread 0's log. Wherever the kill
#    landed, the log now cannot end on a frame boundary, so the salvage
#    counters are provably nonzero and strict mode provably fails.
printf 'XXX' >> "$DIR/sword_t0.log"

# 3. Strict analysis must refuse the damaged trace.
"$OFFLINE" "$DIR" >/dev/null 2>&1
rc=$?
[ "$rc" -eq 4 ] || { echo "FAIL: strict sword-offline: want exit 4, got $rc"; exit 1; }

# 4. Salvage analysis must complete (0 = no races, 2 = races) and the JSON
#    report must carry the integrity section.
OUT="$("$OFFLINE" "$DIR" --salvage --json 2>&1)"
rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
  echo "FAIL: sword-offline --salvage: want exit 0 or 2, got $rc"
  echo "$OUT"
  exit 1
fi
case "$OUT" in
  *'"salvaged":true'*) ;;
  *) echo "FAIL: salvage report lacks the integrity section"; echo "$OUT"; exit 1 ;;
esac

# 5. sword-dump --verify must flag the damage.
"$DUMP" "$DIR" --verify >/dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: sword-dump --verify: want exit 2, got $rc"; exit 1; }

echo "e2e kill+salvage: OK"
